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

A kernel pass (_Pass) runs in Python ints, from the vertices' mpf mantissas
to exact edge sums: _edge_sums scales the polygon by a power of two into the
square (-1, 1)^2 and sums in fixed point, with one walk per half.  The
complex half's walk takes three multiplications to a complex product and
never swaps, as B = conj(A); the real half's values are all real ints, one
multiplication to a product.  A _Pass runs on its first call and keeps the
sums.  A table half (_Half) over a pass rounds an entry the first time it is
read, applying the prefactor and rounding each part once, to nearest, at the
table's precision, so the bits are those of an eager build in any read
order.  One int function, _nearest, does every such rounding, to a pair
(man, exp).  A half holds only pairs, and the package reads only pairs: the
Gram solve shifts them into its fixed point (MomentTable._c_parts),
cross_check and save_table read them, and load_table decodes a cache file
into them.  Each read of an entry as an mpmath value builds it anew.

A moment_table's two halves each run their pass on the first read of that
half.  The Gram solves read only complex moments, about half of them, and
the closed forms for rho_1 and rho_2 only real ones; cross_check, save_table
and the moments subcommand read every entry.  _rounded_table builds a second
table, at a lower precision, over the same two passes: rho certifies its
digits against a table 64 bits finer and rounds the table it answers from
out of the same sums.

Inside _reusing_prior_member, which extremal._sweep runs its serial loop in,
a complex walk takes from the polygon walked just before it, at the same
degree and w, the monomial rows of each vertex whose ints match and the walk
terms of each edge the two share, and then holds its own in their place in
a plain dict, {(top, w): (rows, walks)}: one polygon's rows, and the terms
of its edges whose two ends were vertices of the polygon before it.  Rows
and terms are a pure function of a vertex's or an edge's ints, the degree
and w, so the sums are the ints of a fresh walk; _edge_sums applies the
scale 2^e after it.  Every walk outside that block runs fresh.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from math import comb, lcm
from operator import add

from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_sqrt, round_nearest

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
    h.update(p._fingerprint.encode())
    h.update(str(precision_bits).encode())
    return h.hexdigest()[:16]


@dataclass
class MomentTable:
    """All complex and real moments of one polygon up to total degree maxdeg.

    complex_entries and real_entries map (m, n) to c[m][n] and I[m][n], each
    a _Half: over a kernel pass, run on the half's first read, rounding each
    entry on that entry's first read (moment_table, _rounded_table), or
    holding a cache file's parts (load_table).  The package reads the parts;
    c, real and the Mapping are the read view, building an entry's mpmath
    value from its parts on each read, while len() and iteration run nothing.
    Treated as immutable once built; safe to share across workers.
    """

    fingerprint: str
    maxdeg: int
    precision_bits: int
    complex_entries: Mapping
    real_entries: Mapping

    def c(self, m: int, n: int):
        return self._entry(self.complex_entries.__getitem__, "c", m, n)

    def real(self, m: int, n: int):
        return self._entry(self.real_entries.__getitem__, "I", m, n)

    def _c_parts(self, m: int, n: int):
        """c(m, n) as its int parts (re_man, re_exp, im_man, im_exp)."""
        return self._entry(self.complex_entries._parts, "c", m, n)

    def _entry(self, read, name, m, n):
        try:
            return read((m, n))
        except KeyError:
            raise InsufficientMoments(
                f"{name}[{m}][{n}] not in table (maxdeg {self.maxdeg})") from None


# ---- Green's-theorem kernel ------------------------------------------------------

def _edge_rows(verts, rows, held=None):
    """(start, end, start's rows, end's rows) for each edge of verts, rows
    the monomial table of a vertex.  Each vertex's table is built once, for
    the two edges that meet there, and the first vertex's is kept for the
    last edge's end: n tables for n vertices, three alive at once.  A vertex
    that held, a dict, maps to a table takes that table instead of a build."""
    def table(vert):
        found = held.get(vert) if held else None
        return rows(*vert) if found is None else found

    first = end = table(verts[0])
    for k, vert in enumerate(verts):
        nxt = verts[(k + 1) % len(verts)]
        start = end
        end = table(nxt) if k + 1 < len(verts) else first
        yield vert, nxt, start, end


def _powers(x, count, w):
    """x^k for k <= count at scale 2^w, each truncated from the last."""
    out = [1 << w]
    for _ in range(count):
        out.append(out[-1] * x >> w)
    return out


def _complex_rows(x, y, deg, w):
    """rows[d] = (re, im): the parts of |A|^(2b) A^(d-2b), the first half of
    the row A^(d-b) conj(A)^b, for b <= d // 2 and d <= deg, A = x + iy at
    scale 2^w."""
    apow = [(1 << w, 0)]
    for _ in range(deg):
        ur, ui = apow[-1]
        apow.append(((ur * x - ui * y) >> w, (ur * y + ui * x) >> w))
    npow = _powers((x * x + y * y) >> w, deg // 2, w)
    rows = []
    for d in range(deg + 1):
        pairs = list(zip(apow[d::-2], npow))
        rows.append(([ur * nr >> w for (ur, _), nr in pairs],
                     [ui * nr >> w for (_, ui), nr in pairs]))
    return rows


def _real_rows(x, y, deg, w):
    """rows[d][b] = x^(d-b) y^b for d <= deg at scale 2^w."""
    xpow, ypow = _powers(x, deg, w), _powers(y, deg, w)
    return [[u * v >> w for u, v in zip(xpow[d::-1], ypow)] for d in range(deg + 1)]


# the store of the running _reusing_prior_member block, else None: a dict
# {(top, w): (rows, walks)} holding the complex kernel work of the polygon
# walked last, rows mapping each of its vertices, as int points, to the
# vertex's _complex_rows and walks each of its edges (start, end) whose two
# ends were vertices of the polygon before it to the edge's walk terms,
# (re[s], im[s]) by anti-diagonal
_prior = ContextVar("_prior", default=None)


@contextmanager
def _reusing_prior_member():
    """Run the body with an empty store for its complex walks, emptied and
    unset on the way out.  extremal._sweep runs its serial loop in one,
    where consecutive members share vertices and edges; every other walk
    runs fresh."""
    store = {}
    token = _prior.set(store)
    try:
        yield
    finally:
        _prior.reset(token)
        store.clear()


def _complex_edge(start, end, rows0, rows1, top, w, sums_re, sums_im):
    """Add one edge's terms to the complex half's sums (see _complex_walk),
    from its int ends and their _complex_rows."""
    (x0, y0), (x1, y1) = start, end
    dx, dy = x1 - x0, y1 - y0
    norm = dx * dx + dy * dy
    if not norm:  # an edge below the fixed-point unit: equal ends, zero sums
        return
    # r = dB / dA = conj(dA) / dA
    rr, ri = ((dx * dx - dy * dy) << w) // norm, (-2 * dx * dy << w) // norm
    # (c, c + d, d - c) of c + id = j r, for the three-product form
    jc = [j * rr for j in range(top + 1)]
    jcpd = [j * (rr + ri) for j in range(top + 1)]
    jdmc = [j * (ri - rr) for j in range(top + 1)]
    for s in range(1, top + 1):
        (re1, im1), (re0, im0) = rows1[s + 1], rows0[s + 1]
        tr, ti = sums_re[s], sums_im[s]
        den = s + 1  # i + 1, i = s - j the exponent of P
        xr, xi = (re1[0] - re0[0]) // den, (im1[0] - im0[0]) // den
        for j in range(1, len(tr) + 1):
            den -= 1
            k1 = jc[j] * (xr + xi)
            xr, xi = ((re1[j] - re0[j] - ((k1 - xi * jcpd[j]) >> w)) // den,
                      (im1[j] - im0[j] - ((k1 + xr * jdmc[j]) >> w)) // den)
            tr[j - 1] += xr
            ti[j - 1] += xi


def _complex_walk(verts, top, w):
    """The complex half's sums by anti-diagonal s and n, as lists re[s][n]
    and im[s][n] for n <= (s - 1) // 2; see _edge_sums.  B = conj(A), so
    |dB| = |dA| and no edge swaps.  Inside _reusing_prior_member, the rows
    and edge terms of the polygon walked before are taken, not recomputed."""
    def zeros():
        return [[0] * ((s + 1) // 2) for s in range(top + 1)]

    def rows(x, y):
        return _complex_rows(x, y, top + 1, w)

    sums_re, sums_im = zeros(), zeros()
    store = _prior.get()
    held, walks = ({}, {}) if store is None else store.get((top, w), ({}, {}))
    kept_rows, kept_walks = {}, {}
    for start, end, rows0, rows1 in _edge_rows(verts, rows, held):
        kept_rows[start] = rows0
        if not (start in held and end in held):  # an edge unlikely to recur
            _complex_edge(start, end, rows0, rows1, top, w, sums_re, sums_im)
            continue
        terms = walks.get((start, end))
        if terms is None:
            terms = zeros(), zeros()
            _complex_edge(start, end, rows0, rows1, top, w, *terms)
        kept_walks[start, end] = terms
        for sums, part in zip((sums_re, sums_im), terms):
            for s in range(1, top + 1):
                sums[s] = list(map(add, sums[s], part[s]))
    if store is not None:
        store.clear()
        store[top, w] = kept_rows, kept_walks
    return sums_re, sums_im


def _real_walk(verts, top, w):
    """The real half's sums by anti-diagonal s and n, as lists re[s][n] for
    n < s; see _edge_sums.  Every value is a real int."""
    sums = [[0] * s for s in range(top + 1)]
    edges = _edge_rows(verts, lambda x, y: _real_rows(x, y, top + 1, w))
    for (x0, y0), (x1, y1), start, end in edges:
        dx, dy = x1 - x0, y1 - y0
        swap = dy * dy > dx * dx
        dp, dq = (dy, dx) if swap else (dx, dy)
        if not dp:  # an edge below the fixed-point unit: equal ends, zero sums
            continue
        r = (dq << w) // dp
        jr = [j * r for j in range(top + 1)]
        for s in range(1, top + 1):
            diff = [u - v for u, v in zip(end[s + 1], start[s + 1])]
            # step j gives L(s - j, j) from [P^(s-j+1) Q^j], whose B exponent
            # is j, or s + 1 - j when swapped
            x = 0
            walk = [x := (e - (c * x >> w)) // den
                    for e, c, den in zip(diff[:1:-1] if swap else diff, jr, range(s + 1, 0, -1))]
            if swap:  # P = y: L(s - j, j) is of key (j, s - 1 - j), and dA J = r L
                sums[s] = [t + (r * u >> w) for t, u in zip(sums[s], reversed(walk))]
            else:  # L(s - j, j) is of key (s - j, j - 1)
                sums[s] = [t + u for t, u in zip(sums[s], walk[1:])]
    return sums


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
    The walk runs on L = dP J, so that (i+1) L(i, j) + j r L(i+1, j-1) =
    [P^(i+1) Q^j] with r = dQ / dP; dA J is L, or r L when swapped.

    The arithmetic is in ints.  Coordinates are divided by 2^e, e the top of
    p's integer frame, so each lies in (-1, 1), and held at scale 2^w with
        w = precision_bits + 2 maxdeg + 42 + max(0, _lost_bits(p._frame)):
    precision_bits + maxdeg + 32 working bits, 8 guard bits for the
    truncations, maxdeg + 2 for the monomials, which reach degree maxdeg + 2
    (a degree-d monomial can be 2^-d of the largest coordinate, itself as
    small as 1/2), and the bits the sums cancel.  Each half has its own
    walk.  A complex half (_complex_walk) never swaps, as |dB| = |dA|, and
    reads each vertex's monomials only to b = d // 2; its step takes each
    product (a + ib)(c + id) of x by j r in three multiplications,
    k1 = c(a + b), re = k1 - b(c + d), im = k1 + a(d - c), with the three
    multiples of j r per edge at hand.  In a real half (_real_walk) every
    value is a real int: a monomial is one product, a step one product and
    one floor division, and the swapped walk's r L one product.  Both are
    exact in ints with the truncations of the four-product complex form, so
    the sums are its sums."""
    keys = _table_keys(maxdeg, kind)
    frame = p._frame
    e = frame.top
    w = precision_bits + 2 * maxdeg + 42 + max(0, _lost_bits(frame))
    verts = [(geometry._fixed(x._mpf_, w - e), geometry._fixed(y._mpf_, w - e))
             for x, y in p.vertices]
    if kind == "c":
        sums_re, sums_im = _complex_walk(verts, maxdeg + 1, w)
        return {(m, n): (sums_re[m + n + 1][n], sums_im[m + n + 1][n], e * (m + n + 2) - w)
                for m, n in keys}
    sums = _real_walk(verts, maxdeg + 1, w)
    return {(m, n): (sums[m + n + 1][n], 0, e * (m + n + 2) - w) for m, n in keys}


def _nearest(num: int, den: int, exp: int, prec: int):
    """(man, e): the int man of at most prec bits (prec + 1 on a carry to a
    power of two) with man 2^e nearest num / den * 2^exp, ties to even, for
    den > 0; (0, 0) for num = 0.  The quotient is taken to at least prec + 1
    bits, and the remainder breaks a tie in the bits below prec."""
    if not num:
        return 0, 0
    a = abs(num)
    shift = max(prec + 1 + den.bit_length() - a.bit_length(), 0)
    q, r = divmod(a << shift, den)
    extra = q.bit_length() - prec  # >= 1: q >= 2^prec
    low = q & ((1 << extra) - 1)
    q >>= extra
    half = 1 << (extra - 1)
    if low > half or (low == half and (r or q & 1)):
        q += 1
    return (-q if num < 0 else q), exp - shift + extra


def _rounded(num: int, den: int, exp: int, prec: int):
    """The raw mpf nearest num / den * 2^exp with prec bits, for den > 0:
    _nearest's (man, e), normalized."""
    return from_man_exp(*_nearest(num, den, exp, prec))


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

    On the int points of p's frame, at scale 2^low, an edge's integral is
        dA sum_{j,k} C(m,j) C(n+1,k) A0^(m-j) dA^j B0^(n+1-k) dB^k / (j+k+1),
    so with L = lcm(1..m+n+2) the edge sum is S 2^(low (m+n+2)) / L for a
    Gaussian int S.  Per edge, each k takes small multiples of the m+1 terms
    A0^(m-j) dA^j and one big product with B0^(n+1-k) dB^k."""
    _check_precision(precision_bits)
    if m < 0 or n < 0:
        raise ValueError("moment orders must be nonnegative")
    frame = p._frame
    verts = [((x, y), (x, -y)) if kind == "c" else ((x, 0), (y, 0)) for x, y in frame.pts]
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

    den, exp = (n + 1) * common, frame.low * (m + n + 2)
    if kind == "I":  # I = -S / (n+1)
        return mp.make_mpf(_rounded(-sr, den, exp, precision_bits))
    # c = S / (2i(n+1)) = (Im S - i Re S) / (2(n+1)), real on the diagonal
    return mp.make_mpc((_rounded(si, den, exp - 1, precision_bits),
                        _rounded(-sr, den, exp - 1, precision_bits)))


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


class _Pass:
    """One kernel pass: the edge sums of p's half kind to total degree
    maxdeg, _edge_sums at precision_bits, run on the first call and kept.
    Holds the polygon and the pass parameters, not a closure, so it pickles
    before and after the pass; every table rounded from it shares it."""

    def __init__(self, p: geometry.Polygon, maxdeg: int, precision_bits: int, kind: str):
        self.p, self.maxdeg, self.precision_bits, self.kind = p, maxdeg, precision_bits, kind
        self.sums = None

    def __call__(self) -> dict:
        if self.sums is None:
            self.sums = _edge_sums(self.p, self.maxdeg, self.precision_bits, self.kind)
        return self.sums


class _Half(Mapping):
    """One half of a moment table, kind "c" or "I", to total degree maxdeg,
    as int parts: (re_man, re_exp, im_man, im_exp) for c[m][n] and
    (man, exp) for I[m][n], each part man 2^exp.  held maps the keys of
    _table_keys to their parts; c[n][m] for n < m is the conjugate of
    c[m][n].  A half given a kernel, a _Pass, holds nothing at first and
    rounds each key's parts from the pass's edge sums on that key's first
    read: each part once, to nearest, at precision_bits by _nearest, so the
    bits depend neither on the read order nor on the caller's context.
    The package reads _parts; the Mapping builds an entry's mpmath value
    anew on each read.  len() and iteration answer from maxdeg, in one order."""

    def __init__(self, maxdeg: int, kind: str, held: dict,
                 kernel: _Pass | None = None, precision_bits: int = 0):
        self._maxdeg, self._kind, self._held = maxdeg, kind, held
        self._pass, self._bits = kernel, precision_bits

    def _stored(self, key):
        parts = self._held.get(key)
        if parts is None:
            if self._pass is None:
                raise KeyError(key)
            re, im, exp = self._pass()[key]
            m, n = key
            if self._kind == "I":  # I[m][n] = -S / (n+1)
                parts = _nearest(-re, n + 1, exp, self._bits)
            else:
                # c[m][n] = S / (2i(n+1)) = (Im S - i Re S) / (2(n+1)); c[m][m]
                # is a squared norm, so its imaginary part, roundoff, is dropped
                parts = _nearest(im, n + 1, exp - 1, self._bits) + (
                    (0, 0) if m == n else _nearest(-re, n + 1, exp - 1, self._bits))
            self._held[key] = parts
        return parts

    def _parts(self, key):
        """The parts of the entry at key; KeyError outside the half."""
        if self._kind == "c" and isinstance(key, tuple) and len(key) == 2 and key[0] < key[1]:
            rm, re, im, ie = self._stored(key[::-1])
            return rm, re, -im, ie
        return self._stored(key)

    def __getitem__(self, key):
        parts = self._parts(key)
        if self._kind == "I":
            return mp.make_mpf(from_man_exp(*parts))
        return mp.make_mpc((from_man_exp(*parts[:2]), from_man_exp(*parts[2:])))

    def __iter__(self):
        for m, n in _table_keys(self._maxdeg, self._kind):
            yield m, n
            if self._kind == "c" and m != n:
                yield n, m

    def __len__(self) -> int:
        return (self._maxdeg + 1) * (self._maxdeg + 2) // 2


def _table_over(passes, precision_bits: int) -> MomentTable:
    """The table at precision_bits whose halves round the edge sums of
    passes, its complex and its real _Pass."""
    p, maxdeg = passes[0].p, passes[0].maxdeg
    return MomentTable(table_fingerprint(p, precision_bits), maxdeg, precision_bits,
                       *(_Half(maxdeg, k.kind, {}, k, precision_bits) for k in passes))


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
    return _table_over([_Pass(p, maxdeg, precision_bits, kind) for kind in ("c", "I")],
                       precision_bits)


def _lost_bits(frame) -> int:
    """About the bits _edge_sums loses to cancellation, on top of the total
    degree, from a polygon's integer frame: log2(2^(2 top) / |area|), with
    2^top the kernel's scale, from the largest coordinate, and the frame's
    exact area.  That is about 2 log2(R / s) for a side-s polygon at
    distance R from the origin and log2(L / h) for a length-L sliver of
    height h."""
    return 2 * (frame.top - frame.low) + 1 - abs(frame.twice_area).bit_length()


def _rounded_table(t: MomentTable, precision_bits: int) -> MomentTable:
    """The moments of t, a moment_table or a table rounded from one, at
    precision_bits <= its own: each part rounded once, to nearest, from the
    exact edge sums of t's kernel passes, which both tables share.  The sums
    carry the accuracy of the first table's precision, so a part can differ
    from a separate build at precision_bits, but only where that build's
    kernel error shows."""
    _check_precision(precision_bits)
    return _table_over([t.complex_entries._pass, t.real_entries._pass], precision_bits)


def cross_check(t: MomentTable):
    """Max residual of the identity expanding z^m conj(z)^n over real moments:
    c[m][n] = sum_{j,k} C(m,j) C(n,k) i^j (-i)^k I[m+n-j-k][j+k].

    Summed exactly, in ints, from the halves' parts at the common scale
    2^low, low the least exponent of any nonzero part, over m >= n, as
    c[n][m]'s residual is c[m][n]'s; the largest |c - sum| is rounded once,
    to nearest, at the table's precision."""
    complex_parts = {key: t.complex_entries._parts(key) for key in _table_keys(t.maxdeg, "c")}
    real_parts = {key: t.real_entries._parts(key) for key in _table_keys(t.maxdeg, "I")}
    low = min((e for parts in (*complex_parts.values(), *real_parts.values())
               for man, e in zip(parts[::2], parts[1::2]) if man), default=0)

    def fixed(man, exp):  # exact: a nonzero part's exp is at least low
        return man << (exp - low) if man else 0

    real = {key: fixed(*parts) for key, parts in real_parts.items()}
    worst = 0  # the largest |c - sum|^2, at scale 2^(2 low)
    for (m, n), (re_man, re_exp, im_man, im_exp) in complex_parts.items():
        acc = [0, 0, 0, 0]  # the sum's terms by their unit i^q, q = 0..3
        for j in range(m + 1):
            cmj = comb(m, j)
            for k in range(n + 1):
                # i^j (-i)^k = i^(j + 3k)
                acc[(j + 3 * k) % 4] += cmj * comb(n, k) * real[(m + n - j - k, j + k)]
        re = fixed(re_man, re_exp) - (acc[0] - acc[2])
        im = fixed(im_man, im_exp) - (acc[1] - acc[3])
        worst = max(worst, re * re + im * im)
    return mp.make_mpf(mpf_sqrt(from_man_exp(worst, 2 * low), t.precision_bits, round_nearest))


# ---- cache files ----------------------------------------------------------------

def _num_to_json(man: int, exp: int):
    """The record (sign, hex mantissa, exponent) of man 2^exp, normalized."""
    sign, man, exp, _ = from_man_exp(man, exp)
    return [int(sign), hex(int(man)), int(exp)]


def _parts_from_json(rec):
    """(man, exp), man signed, of a record exactly as _num_to_json writes it,
    [sign, hex(man), exp] with sign 0 or 1 and man odd, or [0, "0x0", 0];
    ValueError for any other record, another spelling of its number included."""
    if type(rec) is list and len(rec) == 3:
        sign, text, exp = rec
        if type(sign) is int and type(text) is str and type(exp) is int:
            man = int(text, 16)
            if (sign in (0, 1) and man >= 0 and hex(man) == text
                    and (man & 1 or rec == [0, "0x0", 0])):
                return (-man if sign else man), exp
    raise ValueError(f"not a (sign, hex mantissa, exponent) record as save_table writes: {rec!r}")


def save_table(t: MomentTable, path) -> None:
    """Write a table's parts as exact JSON (sign, mantissa, exponent) records:
    the complex keys m >= n and every real key, in _table_keys order."""
    doc = {
        "version": CACHE_FORMAT_VERSION,
        "fingerprint": t.fingerprint,
        "maxdeg": t.maxdeg,
        "precision_bits": t.precision_bits,
        "complex": {
            f"{m},{n}": [_num_to_json(*parts[:2]), _num_to_json(*parts[2:])]
            for m, n in _table_keys(t.maxdeg, "c") for parts in (t.complex_entries._parts((m, n)),)
        },
        "real": {f"{m},{n}": _num_to_json(*t.real_entries._parts((m, n)))
                 for m, n in _table_keys(t.maxdeg, "I")},
    }
    # json.dumps encodes in C; json.dump always takes the pure-Python encoder
    text = json.dumps(doc) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_table(path) -> MomentTable:
    """Read a table written by save_table.  ValueError for a malformed header
    or record, for precision_bits below MIN_PRECISION_BITS, and unless each
    section holds exactly the keys of a maxdeg >= 0 as save_table spells
    them, counted first.  Every record is checked and decoded to parts here."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("version") != CACHE_FORMAT_VERSION:
        raise ValueError(f"unsupported moment cache version in {path}")
    precision_bits, maxdeg = doc.get("precision_bits"), doc.get("maxdeg")
    if not (isinstance(doc.get("fingerprint"), str) and type(precision_bits) is int
            and type(maxdeg) is int and maxdeg >= 0 and isinstance(doc.get("complex"), dict)
            and isinstance(doc.get("real"), dict)):
        raise ValueError(f"malformed moment cache header in {path}")
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(f"moment cache in {path} has precision_bits {precision_bits}, "
                         f"below {MIN_PRECISION_BITS}")
    halves = []
    for kind, section, count in (("c", "complex", (maxdeg + 2) ** 2 // 4),
                                 ("I", "real", (maxdeg + 1) * (maxdeg + 2) // 2)):
        found = doc[section]
        texts = len(found) == count and {f"{m},{n}": (m, n) for m, n in _table_keys(maxdeg, kind)}
        if not texts or texts.keys() != found.keys():
            raise ValueError(f"{section} moments in {path} are not the keys of maxdeg {maxdeg}")
        parts = {}
        for text, rec in found.items():
            if kind == "I":
                parts[texts[text]] = _parts_from_json(rec)
            elif isinstance(rec, list) and len(rec) == 2:
                parts[texts[text]] = _parts_from_json(rec[0]) + _parts_from_json(rec[1])
            else:
                raise ValueError(f"complex moment {text} in {path} is not a (re, im) pair")
        halves.append(_Half(maxdeg, kind, parts))
    return MomentTable(doc["fingerprint"], maxdeg, precision_bits, *halves)
