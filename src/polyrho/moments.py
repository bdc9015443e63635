"""Boundary-integral moments of simple polygons.

c[m][n] = integral of z^m conj(z)^n dA over the polygon and I[m][n] = integral
of x^m y^n dx dy.  Green's theorem turns both into the same sum over edges,
    dA * integral_0^1 (A0 + t dA)^m (B0 + t dB)^(n+1) dt,
with A = z and B = conj(z) and the prefactor 1 / (2i(n+1)) for c, and A = x,
B = y and the prefactor -1 / (n+1) for I (P. J. Davis, J. Approx. Theory 19,
1977).  The table kernel, _edge_sums, integrates by parts: down each column
m of the complex half, in the direction that damps its errors (W. Gautschi,
SIAM Review 9, 1967), and along each anti-diagonal of the real half.  It
carries the total degree plus 32 guard bits above the entries' precision.
The single-entry reference, _exact_moment, expands each edge binomially in
Gaussian ints and rounds the exact sum once, so complex_moment and
real_moment are correctly rounded.  The recurrence's endpoint differences
lose ~log2(max |vertex| / min |edge|) bits on top of the edge sum's
cancellation of as many: under 10 bits in all in a polygon's own frame, 30
on a side-1.5e-3 triangle at (100, 100).  A sliver of length L and height h
loses log2(L / h) as its edge sums cancel down to its area.  _lost_bits
measures either loss, and the table kernel widens its scale by that many
bits, so a table keeps its accuracy wherever the polygon sits.

A kernel pass (_Pass) runs in Python ints, from the vertices' mpf mantissas
to exact edge sums: _edge_sums scales the polygon by a power of two into the
square (-1, 1)^2 and sums in fixed point.  The complex half's sums
(_Columns) are built a column at a time, on the first read of one of the
column's keys, as no column depends on another; a step takes three
multiplications to a complex product.  The real half's walk runs over every
key at once, and its values are all real ints, one multiplication to a
product.  A _Pass calls _edge_sums on its first call and keeps the sums.  A
table half (_Half) over a pass rounds an entry the first time it is read,
applying the prefactor and rounding each part once, to nearest, at the
table's precision, so the bits are those of an eager build in any read
order.  One int function, _nearest, does every such rounding, to a pair
(man, exp).  A half holds only pairs, and the package reads only pairs: the
Gram solve shifts the complex half's _parts into its fixed point,
cross_check, save_table and the moments subcommand's output read them, and
load_table decodes a cache file into them.  Each read of an entry as an
mpmath value builds it anew.

A moment_table's two halves each run their pass on the first read of that
half.  The degree-N Gram solves read only complex moments, those of columns
m <= N + 1, about half of the keys, so their pass builds only those
columns; the closed forms for rho_1 and rho_2 read only real ones.
cross_check, save_table and the moments subcommand read every entry.
_rounded_table builds a second table, at a lower precision, over the same
two passes: rho certifies its digits against a table 64 bits finer and
rounds the table it answers from out of the same sums.

_working_bits is the one place a request's working precision is decided
and checked, with its degree: moment_table, _exact_moment, content's
solves, the rho and moments subcommands, the sweeps and maximize_1d each
call it before any polygon is read or any table, member or pool is made.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from math import comb, lcm
from operator import index

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


def _working_bits(precision_bits, n=None) -> int:
    """A request's working precision, checked before any of its work:
    precision_bits, else precision_for_degree(n) for a degree-n request and
    DEFAULT_PRECISION_BITS for a table with no degree.  TypeError for a
    degree or precision that is not an integer (operator.index), ValueError
    for a negative degree, PrecisionTooLow below MIN_PRECISION_BITS."""
    if n is not None and index(n) < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {n}")
    if precision_bits is None:
        return DEFAULT_PRECISION_BITS if n is None else precision_for_degree(n)
    if index(precision_bits) < MIN_PRECISION_BITS:
        raise PrecisionTooLow(
            f"precision_bits must be >= {MIN_PRECISION_BITS}, got {precision_bits}")
    return precision_bits


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

    def _entry(self, read, name, m, n):
        try:
            return read((m, n))
        except KeyError:
            raise InsufficientMoments(
                f"{name}[{m}][{n}] not in table (maxdeg {self.maxdeg})") from None


# ---- Green's-theorem kernel ------------------------------------------------------

def _edge_rows(verts, rows):
    """(start, end, start's rows, end's rows) for each edge of verts, rows
    the monomial table of a vertex.  Each vertex's table is built once, for
    the two edges that meet there, and the first vertex's is kept for the
    last edge's end: n tables for n vertices, three alive at once."""
    first = end = rows(*verts[0])
    for k, vert in enumerate(verts):
        nxt = verts[(k + 1) % len(verts)]
        start = end
        end = rows(*nxt) if k + 1 < len(verts) else first
        yield vert, nxt, start, end


def _powers(x, count, w):
    """x^k for k <= count at scale 2^w, each truncated from the last."""
    out = [1 << w]
    for _ in range(count):
        out.append(out[-1] * x >> w)
    return out


def _real_rows(x, y, deg, w):
    """rows[d][b] = x^(d-b) y^b for d <= deg at scale 2^w."""
    xpow, ypow = _powers(x, deg, w), _powers(y, deg, w)
    return [[u * v >> w for u, v in zip(xpow[d::-1], ypow)] for d in range(deg + 1)]


def _column_steps(start, end, size, w):
    """The multiples (b c, b (c + d), b (d - c)) for b < size of the edge's
    c + id = c0 = conj(A0) - r A0, r = dB / dA = conj(dA) / dA, for the
    three-product form of a step; None for an edge below the fixed-point
    unit, whose equal ends give zero sums."""
    (x0, y0), (x1, y1) = start, end
    dx, dy = x1 - x0, y1 - y0
    norm = dx * dx + dy * dy
    if not norm:
        return None
    rr, ri = ((dx * dx - dy * dy) << w) // norm, (-2 * dx * dy << w) // norm
    cr, ci = x0 - ((rr * x0 - ri * y0) >> w), -y0 - ((rr * y0 + ri * x0) >> w)
    return ([b * cr for b in range(size)], [b * (cr + ci) for b in range(size)],
            [b * (ci - cr) for b in range(size)])


def _column_walk(m, rows0, rows1, steps, w, sums_re, sums_im):
    """Add one edge's walk down column m to the column's sums: L(m, b) at
    n = b - 1 for 1 <= b < len(rows0), from the column's rows at the edge's
    ends and its _column_steps; see _edge_sums."""
    (re0, im0), (re1, im1) = rows0, rows1
    bc, bcpd, bdmc = steps
    den = m + 1
    xr, xi = (re1[0] - re0[0]) // den, (im1[0] - im0[0]) // den
    for b in range(1, len(re0)):
        den += 1
        k1 = bc[b] * (xr + xi)
        xr, xi = ((re1[b] - re0[b] + ((k1 - xi * bcpd[b]) >> w)) // den,
                  (im1[b] - im0[b] + ((k1 + xr * bdmc[b]) >> w)) // den)
        sums_re[b - 1] += xr
        sums_im[b - 1] += xi


class _Columns(Mapping):
    """The complex half's edge sums, {(m, n): (re, im, exp)} for the keys of
    _table_keys(maxdeg, "c"), built a column at a time: the first read of a
    key of column m builds that column's rows at each vertex and its walk on
    each edge, for every n at once; KeyError outside the half.  Columns do
    not depend on each other, so a column's ints do not depend on which
    were built before it.  len() and iteration run nothing."""

    def __init__(self, verts, maxdeg: int, e: int, w: int):
        self._maxdeg, self._e, self._w = maxdeg, e, w
        # per vertex A = x + iy: x, y, |A|^2, and the lists of A^k as (re, im)
        # and of |A|^(2b), each power truncated from the last and the lists
        # extended only as far as a built column reads them
        self._powers = [(x, y, (x * x + y * y) >> w, [(1 << w, 0)], [1 << w]) for x, y in verts]
        self._steps = [_column_steps(start, end, maxdeg // 2 + 2, w)
                       for start, end in zip(verts, verts[1:] + verts[:1])]
        self._sums = {}

    def _column(self, m):
        w, height = self._w, min(m, self._maxdeg - m) + 2  # L(m, b) for b < height
        rows = []  # each vertex's parts of A^(m+1) conj(A)^b = A^(m+1-b) |A|^(2b), b < height
        for x, y, norm, apow, npow in self._powers:
            while len(apow) <= m + 1:
                ur, ui = apow[-1]
                apow.append(((ur * x - ui * y) >> w, (ur * y + ui * x) >> w))
            while len(npow) < height:
                npow.append(npow[-1] * norm >> w)
            rows.append(([ur * nr >> w for (ur, _), nr in zip(apow[m + 1::-1], npow[:height])],
                         [ui * nr >> w for (_, ui), nr in zip(apow[m + 1::-1], npow[:height])]))
        sums_re, sums_im = [0] * (height - 1), [0] * (height - 1)
        for rows0, rows1, steps in zip(rows, rows[1:] + rows[:1], self._steps):
            if steps is not None:
                _column_walk(m, rows0, rows1, steps, w, sums_re, sums_im)
        for n, parts in enumerate(zip(sums_re, sums_im)):
            self._sums[m, n] = *parts, self._e * (m + n + 2) - w

    def __getitem__(self, key):
        if key not in self._sums:  # a key of the half missing here: its column is unbuilt
            m, n = key if type(key) is tuple and len(key) == 2 else (None, None)
            if not (type(m) is type(n) is int and 0 <= n <= min(m, self._maxdeg - m)):
                raise KeyError(key)
            self._column(m)
        return self._sums[key]

    def __iter__(self):
        return iter(_table_keys(self._maxdeg, "c"))

    def __len__(self) -> int:
        return (self._maxdeg + 2) ** 2 // 4


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


def _edge_sums(p: geometry.Polygon, maxdeg: int, precision_bits: int, kind: str) -> Mapping:
    """The edge sum of every key of one half (see _table_keys), as a Mapping
    {(m, n): (re, im, exp)}: the sum is (re + i im) 2^exp, exactly.  With
    A = x + iy and B = x - iy (kind "c") or A = x and B = y (kind "I"),
    P = A_k + t dA and Q = B_k + t dB along the edge from vertex k to k + 1,
    and J(a, b) = integral_0^1 P^a Q^b dt, the edge sum of (m, n) is
    dA J(m, n + 1), and
        (a+1) dA J(a, b) + b dB J(a+1, b-1) = E(a+1, b),
    E(i, j) = [P^i Q^j] between the edge's endpoints.  The walks run on
    L = dP J, so that (i+1) L(i, j) + j r L(i+1, j-1) = E(i+1, j) with
    r = dQ / dP.

    The real half (_real_walk) walks each anti-diagonal a + b = s from
    L(s, 0), or from L(0, s) with A and B swapped if |dB| > |dA|; an error
    in the first entry reaches the k-th times r^k / C(s, k),
    r = min/max(|dA|, |dB|), and dA J is L, or r L when swapped.  The
    complex half (_Columns) walks down each column m instead: Q = c0 + r P
    with c0 = conj(A0) - r A0, the edge's Q at P = 0, so
    J(m, b) = c0 J(m, b-1) + r J(m+1, b-1) and
        (m + b + 1) L(m, b) = E(m+1, b) + b c0 L(m, b-1),
    from L(m, 0) = E(m+1, 0) / (m+1); key (m, n) is L(m, n+1), as dA J = L.
    Each key is reached from the one below it, and no column reads another,
    so a column is built on the first read of one of its keys.  An error in
    L(m, b-1) reaches L(m, b) times b |c0| / (m+b+1), which is at most
    |c0| / 2, as b <= m + 1 on the stored keys; |c0| = 2 dist(0, the
    edge's line) is below 2 sqrt(2) in the kernel's frame, so a step damps
    an error on an edge whose line passes within 1 of the origin and at
    most multiplies it by sqrt(2) on any other.

    The arithmetic is in ints.  Coordinates are divided by 2^e, e the top of
    p's integer frame, so each lies in (-1, 1), and held at scale 2^w with
        w = precision_bits + 2 maxdeg + 42 + max(0, _lost_bits(p._frame)):
    precision_bits + maxdeg + 32 working bits, 8 guard bits for the
    truncations, maxdeg + 2 for the monomials, which reach degree maxdeg + 2
    (a degree-d monomial can be 2^-d of the largest coordinate, itself as
    small as 1/2), and the bits the sums cancel.  The truncation errors
    can outgrow the 8 guard bits at high degree: against a pass 400 bits
    wider, the complex sums of a sliver err by up to 826 units of 2^-w at
    (maxdeg, precision_bits) = (36, 560) and 8.5e5 at (66, 920), yet keep
    the working bits against the largest sum of their degree.  A complex
    step takes the product (a + ib)(c + id) of L by b c0 in three
    multiplications, k1 = c(a + b), re = k1 - b(c + d), im = k1 + a(d - c),
    with the three multiples of b c0 per edge at hand; a vertex's monomial
    A^(m+1) conj(A)^b is |A|^(2b) A^(m+1-b), one complex power times a
    real one.  In a real half every value is a real int: a monomial is one
    product, a step one product and one floor division, and the swapped
    walk's r L one product.  Both are exact in ints with the truncations of
    the four-product complex form, so the sums are its sums."""
    frame = p._frame
    e = frame.top
    w = precision_bits + 2 * maxdeg + 42 + max(0, _lost_bits(frame))
    verts = [(geometry._fixed(x._mpf_, w - e), geometry._fixed(y._mpf_, w - e))
             for x, y in p.vertices]
    if kind == "c":
        return _Columns(verts, maxdeg, e, w)
    sums = _real_walk(verts, maxdeg + 1, w)
    return {(m, n): (sums[m + n + 1][n], 0, e * (m + n + 2) - w)
            for m, n in _table_keys(maxdeg, kind)}


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
    precision_bits = _working_bits(precision_bits)
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
    maxdeg, _edge_sums at precision_bits, called on the first call and
    kept.  A complex pass's sums build each column on its first read, so a
    pass runs only as far as its tables read.  Holds the polygon and the
    pass parameters, not a closure, so it pickles before, during and after
    the pass; every table rounded from it shares it."""

    def __init__(self, p: geometry.Polygon, maxdeg: int, precision_bits: int, kind: str):
        self.p, self.maxdeg, self.precision_bits, self.kind = p, maxdeg, precision_bits, kind
        self.sums = None

    def __call__(self) -> Mapping:
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
    bits depend neither on the read order nor on the caller's context.  A
    complex half's first read of a column builds that column of the pass.
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
    if index(maxdeg) < 2:
        raise ValueError(f"maxdeg must be >= 2, got {maxdeg}")
    precision_bits = _working_bits(precision_bits)
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
    kernel error shows.  precision_bits is taken as checked."""
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
    """The record (sign, hex mantissa, exponent) of man 2^exp, normalized:
    the mantissa odd, its trailing zero bits moved into the exponent, or
    [0, "0x0", 0] for zero."""
    if not man:
        return [0, "0x0", 0]
    zeros = (man & -man).bit_length() - 1
    return [int(man < 0), hex(abs(man) >> zeros), exp + zeros]


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
    """Read a table written by save_table.  ValueError for a version other
    than the int CACHE_FORMAT_VERSION, a malformed header or record, for
    precision_bits below MIN_PRECISION_BITS, and unless each section holds
    exactly the keys of a maxdeg >= 0 as save_table spells them, counted
    first.  Every record is checked and decoded to parts here."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("version") if isinstance(doc, dict) else None
    if type(version) is not int or version != CACHE_FORMAT_VERSION:  # not true, not 1.0
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
