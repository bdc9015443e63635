"""Boundary-integral moments of simple polygons.

c[m][n] = integral of z^m conj(z)^n dA over the polygon and I[m][n] = integral
of x^m y^n dx dy.  Green's theorem turns both into the same sum over edges,
    dA * integral_0^1 (A0 + t dA)^m (B0 + t dB)^(n+1) dt,
with A = z and B = conj(z) and the prefactor 1 / (2i(n+1)) for c, and A = x,
B = y and the prefactor -1 / (n+1) for I (P. J. Davis, J. Approx. Theory 19,
1977).  The table kernel, _edge_sums, integrates by parts along each
anti-diagonal and carries the total degree plus 32 guard bits above the
entries' precision.  The single-entry reference, _exact_moment, expands each
edge binomially in Gaussian ints and rounds the exact sum once, so
complex_moment and real_moment are correctly rounded.  The recurrence's
endpoint differences lose ~log2(max |vertex| / min |edge|) bits on top of
the edge sum's cancellation of as many: under 10 bits in all in a polygon's
own frame, 30 on a side-1.5e-3 triangle at (100, 100).  A sliver of length L
and height h loses log2(L / h) as its edge sums cancel down to its area.
_lost_bits measures either loss, and the table kernel widens its scale by
that many bits, so a table keeps its accuracy wherever the polygon sits.

A table half is one pass in Python ints, from the vertices' mpf mantissas to
exact edge sums: _edge_sums scales the polygon by a power of two into the
square (-1, 1)^2 and sums in fixed point.  _DeferredHalf keeps those ints and
rounds an entry the first time it is read, applying the prefactor and
rounding each part once, to nearest, at the table's precision, so the bits
are those of an eager build in any read order.

A moment_table runs the kernel pass of its complex half and of its real half
each on the first read of that half.  The Gram solves read only complex
moments, about half of them, and the closed forms for rho_1 and rho_2 only
real ones; cross_check, save_table and the moments subcommand read every
entry.  _rounded_table rounds a second table, at a lower precision, from the
edge sums of a first: rho certifies its digits against a table 64 bits finer
and rounds the table it answers from out of the same pass.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from math import comb, lcm

from mpmath import mp
from mpmath.libmp import from_man_exp, fzero, mpf_neg, mpf_sqrt, round_nearest

from . import geometry
from .errors import InsufficientMoments, PrecisionTooLow

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 64
CACHE_FORMAT_VERSION = 1


def precision_for_degree(n: int) -> int:
    """Precision serving a degree-n content computation.  The monomial Gram
    condition number grows roughly exponentially in n; the doubling regression
    test guards this policy."""
    return max(DEFAULT_PRECISION_BITS, 24 * n + 64)


def _check_precision(precision_bits: int) -> None:
    if precision_bits < MIN_PRECISION_BITS:
        raise PrecisionTooLow(
            f"precision_bits must be >= {MIN_PRECISION_BITS}, got {precision_bits}")


def table_fingerprint(p: geometry.Polygon, precision_bits: int) -> str:
    h = hashlib.sha256()
    h.update(geometry.fingerprint(p).encode())
    h.update(str(precision_bits).encode())
    return h.hexdigest()[:16]


@dataclass
class MomentTable:
    """All complex and real moments of one polygon up to total degree maxdeg.

    complex_entries and real_entries map (m, n) to c[m][n] and I[m][n].
    moment_table gives each a mapping that runs the half's kernel pass on its
    first read and rounds each entry on that entry's first read; items()
    rounds them all, and len() and iteration run nothing.  load_table and
    dataclasses.replace may give plain dicts.  Treated as immutable once
    built; safe to share across workers, built or not.
    """

    fingerprint: str
    maxdeg: int
    precision_bits: int
    complex_entries: Mapping
    real_entries: Mapping

    def c(self, m: int, n: int):
        return self._entry(self.complex_entries, "c", m, n)

    def real(self, m: int, n: int):
        return self._entry(self.real_entries, "I", m, n)

    def _entry(self, entries, name, m, n):
        try:
            return entries[(m, n)]
        except KeyError:
            raise InsufficientMoments(
                f"{name}[{m}][{n}] not in table (maxdeg {self.maxdeg})") from None


# ---- Green's-theorem kernel ------------------------------------------------------

def _monomials(ar, ai, br, bi, deg, w):
    """rows[d][b] = A^(d-b) B^b for d <= deg as (re, im) ints at scale 2^w,
    for A = ar + i ai and B = br + i bi at that scale."""
    def powers(xr, xi, count):
        out = [(1 << w, 0)]
        for _ in range(count):
            ur, ui = out[-1]
            out.append(((ur * xr - ui * xi) >> w, (ur * xi + ui * xr) >> w))
        return out

    apow = powers(ar, ai, deg)
    rows = []
    if br == ar and bi == -ai:
        # B = conj(A), as at every vertex of a complex table: the first half
        # of a row is |A|^(2b) A^(d-2b), the rest their conjugates
        npow = powers((ar * ar + ai * ai) >> w, 0, deg // 2)
        for d in range(deg + 1):
            row = [(ur * nr >> w, ui * nr >> w) for (ur, ui), (nr, _) in zip(apow[d::-2], npow)]
            row += [(ur, -ui) for ur, ui in reversed(row[:(d + 1) // 2])]
            rows.append(row)
        return rows
    bpow = powers(br, bi, deg)
    for d in range(deg + 1):
        row = []
        for b in range(d + 1):
            (ur, ui), (vr, vi) = apow[d - b], bpow[b]
            row.append(((ur * vr - ui * vi) >> w, (ur * vi + ui * vr) >> w))
        rows.append(row)
    return rows


def _edge_sums(p: geometry.Polygon, maxdeg: int, precision_bits: int, kind: str) -> dict:
    """The edge sum of every key of one half (see _table_keys), as
    {(m, n): (re, im, exp)}: the sum is (re + i im) 2^exp, exactly.  With
    A = x + iy and B = x - iy (kind "c") or A = x and B = y (kind "I"),
    P = A_k + t dA and Q = B_k + t dB along the edge from vertex k to k + 1,
    and J(a, b) = integral_0^1 P^a Q^b dt, the edge sum of (m, n) is
    dA J(m, n + 1), and
        (a+1) dA J(a, b) + b dB J(a+1, b-1) = [P^(a+1) Q^b]
    between the edge's endpoints.  Each anti-diagonal a + b = s is walked from
    J(s, 0), or from J(0, s) with A and B swapped if |dB| > |dA|; an error in
    the first entry reaches the k-th times r^k / C(s, k), r = min/max(|dA|, |dB|).

    The arithmetic is in ints, with complex values as (re, im) pairs.
    Coordinates are divided by 2^e, e the top of geometry._int_image, so
    each lies in (-1, 1), and held at scale 2^w with
        w = precision_bits + 2 maxdeg + 42 + max(0, _lost_bits(*image)):
    precision_bits + maxdeg + 32 working bits, 8 guard bits for the
    truncations, maxdeg + 2 for the monomials, which reach degree maxdeg + 2
    (a degree-d monomial can be 2^-d of the largest coordinate, itself as
    small as 1/2), and the bits the sums cancel.  Each vertex's monomials
    are built once, for the two edges that meet there."""
    keys = _table_keys(maxdeg, kind)
    top = maxdeg + 1  # the highest anti-diagonal of J
    on_diag = [[] for _ in range(top + 1)]  # the keys read from each anti-diagonal
    for m, n in keys:
        on_diag[m + n + 1].append((m, n))
    reach = [max((n + 1 for _, n in ks), default=0) for ks in on_diag]

    _, _, e = image = geometry._int_image(p.vertices)
    w = precision_bits + 2 * maxdeg + 42 + max(0, _lost_bits(*image))
    verts = []
    for x, y in p.vertices:
        x, y = geometry._fixed(x._mpf_, w - e), geometry._fixed(y._mpf_, w - e)
        verts.append((x, y, x, -y) if kind == "c" else (x, 0, y, 0))

    acc = {key: [0, 0] for key in keys}
    first = end = _monomials(*verts[0], top + 1, w)
    for k, (ar, ai, br, bi) in enumerate(verts):
        cr, ci, dr, di = nxt = verts[(k + 1) % len(verts)]
        # the first vertex's table is kept for the last edge's end: n tables
        # for n vertices, three alive at once
        start = end
        end = _monomials(*nxt, top + 1, w) if k + 1 < len(verts) else first
        dar, dai, dbr, dbi = cr - ar, ci - ai, dr - br, di - bi
        swap = dbr * dbr + dbi * dbi > dar * dar + dai * dai
        pr, pi, qr, qi = (dbr, dbi, dar, dai) if swap else (dar, dai, dbr, dbi)
        norm = pr * pr + pi * pi
        if not norm:  # an edge below the fixed-point unit: equal ends, zero sums
            continue
        # the walk runs on L = dp J, so that (i+1) L(i, j) + j r L(i+1, j-1)
        # = [P^(i+1) Q^j] with r = dq / dp; dA J is L, or r L when swapped
        rr, ri = ((qr * pr + qi * pi) << w) // norm, ((qi * pr - qr * pi) << w) // norm
        for s in range(1, top + 1):
            row0, row1 = start[s + 1], end[s + 1]
            diag = [None] * (s + 1)  # L on this anti-diagonal, by B's exponent
            xr = xi = 0
            for j in range(s if swap else reach[s] + 1):
                i = s - j
                b = s + 1 - j if swap else j  # B's exponent in [P^(i+1) Q^j]
                (ur, ui), (vr, vi) = row1[b], row0[b]
                er, ei = ur - vr, ui - vi
                if j:
                    er -= j * (rr * xr - ri * xi) >> w
                    ei -= j * (rr * xi + ri * xr) >> w
                xr, xi = er // (i + 1), ei // (i + 1)
                diag[i if swap else j] = (xr, xi)
            for key in on_diag[s]:
                ur, ui = diag[key[1] + 1]
                if swap:
                    ur, ui = (rr * ur - ri * ui) >> w, (rr * ui + ri * ur) >> w
                total = acc[key]
                total[0] += ur
                total[1] += ui
    return {(m, n): (re, im, e * (m + n + 2) - w) for (m, n), (re, im) in acc.items()}


def _rounded(num: int, den: int, exp: int, prec: int):
    """The raw mpf nearest num / den * 2^exp with prec bits, for den > 0.
    The quotient is taken to at least prec + 1 bits, with a sticky bit for a
    nonzero remainder, so rounding it rounds the exact value."""
    shift = max(prec + 1 + den.bit_length() - abs(num).bit_length(), 0)
    q, r = divmod(abs(num) << shift, den)
    man = 2 * q + (r != 0)
    return from_man_exp(-man if num < 0 else man, exp - shift - 1, prec, round_nearest)


def _gauss_mul(u, v):
    """The product of Gaussian ints given as (re, im) pairs."""
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _binomial_terms(base, step, count):
    """base^(count-j) step^j for j = 0..count, of Gaussian ints."""
    bp, sp = [(1, 0)], [(1, 0)]
    for _ in range(count):
        bp.append(_gauss_mul(bp[-1], base))
        sp.append(_gauss_mul(sp[-1], step))
    return [_gauss_mul(bp[count - j], sp[j]) for j in range(count + 1)]


def _exact_moment(p: geometry.Polygon, m: int, n: int, kind: str, precision_bits: int):
    """c[m][n] (kind "c") or I[m][n] (kind "I"), each part rounded once, to
    nearest, at precision_bits from its exact value.

    On geometry._int_image's points, at scale 2^low, an edge's integral is
        dA sum_{j,k} C(m,j) C(n+1,k) A0^(m-j) dA^j B0^(n+1-k) dB^k / (j+k+1),
    so with L = lcm(1..m+n+2) the edge sum is S 2^(low (m+n+2)) / L for a
    Gaussian int S.  Per edge, each k takes small multiples of the m+1 terms
    A0^(m-j) dA^j and one big product with B0^(n+1-k) dB^k."""
    _check_precision(precision_bits)
    if m < 0 or n < 0:
        raise ValueError("moment orders must be nonnegative")
    pts, low, _ = geometry._int_image(p.vertices)
    verts = [((x, y), (x, -y)) if kind == "c" else ((x, 0), (y, 0)) for x, y in pts]
    common = lcm(*range(1, m + n + 3))  # L, clearing every 1 / (j+k+1)
    weights = [[comb(n + 1, k) * comb(m, j) * (common // (j + k + 1)) for j in range(m + 1)]
               for k in range(n + 2)]
    sr = si = 0
    for (a0, b0), (a1, b1) in zip(verts, verts[1:] + verts[:1]):
        da, db = (a1[0] - a0[0], a1[1] - a0[1]), (b1[0] - b0[0], b1[1] - b0[1])
        a_terms = _binomial_terms(a0, da, m)
        er = ei = 0
        for row, (br, bi) in zip(weights, _binomial_terms(b0, db, n + 1)):
            tr = sum(w * ar for w, (ar, _) in zip(row, a_terms))
            ti = sum(w * ai for w, (_, ai) in zip(row, a_terms))
            er += tr * br - ti * bi
            ei += tr * bi + ti * br
        er, ei = _gauss_mul(da, (er, ei))
        sr += er
        si += ei

    den, exp = (n + 1) * common, low * (m + n + 2)

    def part(num, e):  # num 2^e / ((n+1) L), rounded once
        return mp.fdiv(mp.make_mpf(from_man_exp(num, e)), den, prec=precision_bits)._mpf_

    if kind == "I":  # I = -S / (n+1)
        return mp.make_mpf(part(-sr, exp))
    # c = S / (2i(n+1)) = (Im S - i Re S) / (2(n+1)), real on the diagonal
    return mp.make_mpc((part(si, exp - 1), part(-sr, exp - 1)))


def complex_moment(p: geometry.Polygon, m: int, n: int,
                   precision_bits: int = DEFAULT_PRECISION_BITS):
    """Single entry c[m][n], correctly rounded; for many entries build a
    moment_table instead."""
    return _exact_moment(p, m, n, "c", precision_bits)


def real_moment(p: geometry.Polygon, m: int, n: int,
                precision_bits: int = DEFAULT_PRECISION_BITS):
    """Single entry I[m][n], correctly rounded."""
    return _exact_moment(p, m, n, "I", precision_bits)


def _table_keys(maxdeg: int, kind: str):
    """The keys a half computes: m >= n for "c", whose other keys are filled
    by conjugation; every key for "I"."""
    if kind == "c":
        return [(m, n) for m in range(maxdeg + 1) for n in range(min(m, maxdeg - m) + 1)]
    return [(m, n) for m in range(maxdeg + 1) for n in range(maxdeg - m + 1)]


class _DeferredHalf(Mapping):
    """One half of a moment table: the exact edge sums of the half, from one
    _edge_sums pass on the first read of any entry, and each entry rounded
    from them on its own first read.

    Each part is rounded once, to nearest, at the table's precision by
    _rounded, so the bits depend neither on the read order nor on the
    caller's context.  Complex entries are rounded for m >= n, and c[n][m]
    is filled with the conjugate at the same time.  A half given a source
    rounds the source's edge sums instead of running its own pass.  Holds
    the polygon and the table's parameters, not a closure, so a table
    pickles before and after the pass.  len() and iteration answer from
    maxdeg without a pass; the keys come in one fixed order."""

    def __init__(self, p: geometry.Polygon, maxdeg: int, precision_bits: int, kind: str,
                 source: _DeferredHalf | None = None):
        self._args = (p, maxdeg, precision_bits, kind)
        self._source = source
        self._sums = None
        self._entries = {}

    def _exact_sums(self) -> dict:
        if self._source is not None:
            return self._source._exact_sums()
        if self._sums is None:
            self._sums = _edge_sums(*self._args)
        return self._sums

    def _round(self, key):
        _, _, bits, kind = self._args
        sums = self._exact_sums()
        if key in sums:
            m, n = key
        elif kind == "c" and isinstance(key, tuple) and key[::-1] in sums:
            n, m = key  # c[n][m] for n < m is the conjugate of c[m][n]
        else:
            raise KeyError(key)
        re, im, exp = sums[(m, n)]
        if kind == "I":  # I[m][n] = -S / (n+1)
            self._entries[key] = mp.make_mpf(_rounded(-re, n + 1, exp, bits))
        else:
            # c[m][n] = S / (2i(n+1)) = (Im S - i Re S) / (2(n+1)); c[m][m] is
            # a squared norm, so its imaginary part, roundoff, is dropped
            cre = _rounded(im, n + 1, exp - 1, bits)
            cim = fzero if m == n else _rounded(-re, n + 1, exp - 1, bits)
            self._entries[(m, n)] = mp.make_mpc((cre, cim))
            if m != n:
                self._entries[(n, m)] = mp.make_mpc((cre, mpf_neg(cim)))
        return self._entries[key]

    def __getitem__(self, key):
        entry = self._entries.get(key)
        return self._round(key) if entry is None else entry

    def __iter__(self):
        _, maxdeg, _, kind = self._args
        for m, n in _table_keys(maxdeg, kind):
            yield m, n
            if kind == "c" and m != n:
                yield n, m

    def __len__(self) -> int:
        maxdeg = self._args[1]
        return (maxdeg + 1) * (maxdeg + 2) // 2


def moment_table(p: geometry.Polygon, maxdeg: int,
                 precision_bits: int = DEFAULT_PRECISION_BITS) -> MomentTable:
    """All c[m][n] and I[m][n] with m + n <= maxdeg.

    Arguments are checked here; each half runs its kernel pass on its first
    read, and rounds each entry on that entry's first read, so the Gram paths
    never build real moments and round only the complex entries they read,
    and the real closed forms never build complex ones.  Complex entries are
    computed for m >= n and filled by conjugation, so Hermitian symmetry
    holds exactly.
    """
    if maxdeg < 2:
        raise ValueError(f"maxdeg must be >= 2, got {maxdeg}")
    _check_precision(precision_bits)
    return MomentTable(table_fingerprint(p, precision_bits), maxdeg, precision_bits,
                       _DeferredHalf(p, maxdeg, precision_bits, "c"),
                       _DeferredHalf(p, maxdeg, precision_bits, "I"))


def _lost_bits(pts, low: int, top: int) -> int:
    """About the bits _edge_sums loses to cancellation, on top of the total
    degree, from an int image (pts, low, top) of the vertices, as
    geometry._int_image gives it: log2(2^(2 top) / |area|), with 2^top the
    kernel's scale, from the largest coordinate.  That is about 2 log2(R / s)
    for a side-s polygon at distance R from the origin and log2(L / h) for a
    length-L sliver of height h.  The area is summed exactly on the points."""
    return 2 * (top - low) + 1 - abs(geometry._twice_signed_area(pts)).bit_length()


def _rounded_table(t: MomentTable, precision_bits: int) -> MomentTable:
    """The moments of t, a moment_table, at precision_bits <= its own: each
    part rounded once, to nearest, from the exact edge sums of t's kernel
    passes, which both tables share.  The sums carry the accuracy of t's
    precision, so a part can differ from a separate build at precision_bits,
    but only where that build's kernel error shows."""
    _check_precision(precision_bits)
    p, maxdeg, _, _ = t.complex_entries._args
    return MomentTable(table_fingerprint(p, precision_bits), maxdeg, precision_bits,
                       _DeferredHalf(p, maxdeg, precision_bits, "c", t.complex_entries),
                       _DeferredHalf(p, maxdeg, precision_bits, "I", t.real_entries))


def cross_check(t: MomentTable):
    """Max residual of the identity expanding z^m conj(z)^n over real moments:
    c[m][n] = sum_{j,k} C(m,j) C(n,k) i^j (-i)^k I[m+n-j-k][j+k].

    Summed exactly, in ints: every part is taken at the common scale 2^low,
    low the least exponent of any nonzero part, and the largest residual
    |c - sum| is rounded once, to nearest, at the table's precision."""
    complex_raw = {key: val._mpc_ for key, val in t.complex_entries.items()}
    real_raw = {key: val._mpf_ for key, val in t.real_entries.items()}
    parts = [*(x for pair in complex_raw.values() for x in pair), *real_raw.values()]
    low = min((exp for _, man, exp, _ in parts if man), default=0)
    real = {key: geometry._fixed(x, -low) for key, x in real_raw.items()}
    worst = 0  # the largest |c - sum|^2, at scale 2^(2 low)
    for (m, n), (cre, cim) in complex_raw.items():
        acc = [0, 0, 0, 0]  # the sum's terms by their unit i^q, q = 0..3
        for j in range(m + 1):
            cmj = comb(m, j)
            for k in range(n + 1):
                # i^j (-i)^k = i^(j + 3k)
                acc[(j + 3 * k) % 4] += cmj * comb(n, k) * real[(m + n - j - k, j + k)]
        re = geometry._fixed(cre, -low) - (acc[0] - acc[2])
        im = geometry._fixed(cim, -low) - (acc[1] - acc[3])
        worst = max(worst, re * re + im * im)
    return mp.make_mpf(mpf_sqrt(from_man_exp(worst, 2 * low), t.precision_bits, round_nearest))


# ---- cache files ----------------------------------------------------------------

def _num_to_json(x):
    # x is an mpf; x._mpf_ is exact, while mp.mpf(x) would round to the
    # ambient context precision
    sign, man, exp, _ = x._mpf_
    return [int(sign), hex(int(man)), int(exp)]


def _num_from_json(rec):
    """The raw mpf tuple of the number _num_to_json wrote; ValueError for any
    other record."""
    if not (isinstance(rec, list) and len(rec) == 3 and rec[0] in (0, 1)
            and isinstance(rec[1], str) and isinstance(rec[2], int)):
        raise ValueError(f"not a (sign, hex mantissa, exponent) record: {rec!r}")
    sign, man_hex, exp = rec
    man = int(man_hex, 16)
    if man < 0:
        raise ValueError(f"negative mantissa in {rec!r}")
    return from_man_exp(-man if sign else man, exp)


def save_table(t: MomentTable, path) -> None:
    """Write a table as JSON with exact (sign, mantissa, exponent) numbers."""
    doc = {
        "version": CACHE_FORMAT_VERSION,
        "fingerprint": t.fingerprint,
        "maxdeg": t.maxdeg,
        "precision_bits": t.precision_bits,
        "complex": {
            f"{m},{n}": [_num_to_json(val.real), _num_to_json(val.imag)]
            for (m, n), val in t.complex_entries.items() if m >= n
        },
        "real": {
            f"{m},{n}": _num_to_json(val)
            for (m, n), val in t.real_entries.items()
        },
    }
    # json.dumps encodes in C; json.dump always takes the pure-Python encoder
    text = json.dumps(doc) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_table(path) -> MomentTable:
    """Read a table written by save_table.  ValueError for any malformed
    record, for precision_bits below MIN_PRECISION_BITS, and unless the file
    holds exactly the keys of its maxdeg: complex m >= n and every real key."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("version") != CACHE_FORMAT_VERSION:
        raise ValueError(f"unsupported moment cache version in {path}")
    precision_bits, maxdeg = doc.get("precision_bits"), doc.get("maxdeg")
    if not (isinstance(doc.get("fingerprint"), str) and isinstance(precision_bits, int)
            and isinstance(maxdeg, int) and isinstance(doc.get("complex"), dict)
            and isinstance(doc.get("real"), dict)):
        raise ValueError(f"malformed moment cache header in {path}")
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(f"moment cache in {path} has precision_bits {precision_bits}, "
                         f"below {MIN_PRECISION_BITS}")
    for kind, section in (("c", "complex"), ("I", "real")):
        stored = {tuple(int(s) for s in key.split(",")) for key in doc[section]}
        if stored != set(_table_keys(maxdeg, kind)):
            raise ValueError(
                f"{section} moments in {path} are not the keys of maxdeg {maxdeg}")
    complex_entries = {}
    real_entries = {}
    for key, pair in doc["complex"].items():
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"complex moment {key} in {path} is not a (re, im) pair")
        m, n = (int(s) for s in key.split(","))
        re, im = (_num_from_json(rec) for rec in pair)
        complex_entries[(m, n)] = mp.make_mpc((re, im))
        if m != n:
            complex_entries[(n, m)] = mp.make_mpc((re, mpf_neg(im)))
    for key, rec in doc["real"].items():
        m, n = (int(s) for s in key.split(","))
        real_entries[(m, n)] = mp.make_mpf(_num_from_json(rec))
    return MomentTable(doc["fingerprint"], maxdeg, precision_bits,
                       complex_entries, real_entries)
