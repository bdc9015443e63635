"""rho_N: squared L2(dA) distance from conj(z) to polynomials of degree <= N.

rho_n solves the monomial Gram system once, in fixed-point Python integers
(_ldl_solve): rows scaled by powers of two to a unit diagonal, an LDL*
factorization that divides only by the pivots, one rounding at the end.  It
reads the table as ints: each moment part as the (man, exp) the table
rounded it to, shifted to the fixed point without an mpmath value in
between.  rho_n_partials reads every partial rho_0..rho_N off the same
factor, as prefix sums of the last row's products, each rounded once; rho_n
rounds none of them.
rho_n_telescoping computes the same numbers by Gram-Schmidt on the monomials,
taken as the Cholesky factorization G = L L* of the Gram matrix in floating
point, unscaled and with square roots; L^-1 applied to the right-hand side
telescopes the projection into every partial rho_k.  It reads the table's
mpc entries, and returns (RhoResult, partials) as rho_n_partials does.
Both need moments to degree 2N, read the same bits of the table, and share
no other arithmetic; telescoping is the independent check in the tests and
in verify's monotonicity (triangle, N=12) and pentagon-rho33 (--long)
checks.  Both cost O(N^3).
Monomial Gram matrices are catastrophically ill-conditioned in double
precision for N beyond ~12, so everything here runs at the moments precision
policy plus guard bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul, sub

from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_div, round_nearest, to_float

from . import geometry, moments
from .errors import AreaNotNormalized, GramNotPD, InsufficientMoments

METHOD_CHOLESKY = "gram-cholesky"
METHOD_TELESCOPING = "gram-schmidt-telescoping"

AREA_TOLERANCE = mp.mpf("1e-10")

# bits the fixed-point solve carries below the working precision
_GUARD_BITS = 64


@dataclass(frozen=True)
class RhoResult:
    value: object
    n: int
    precision_bits: int
    condition_estimate: float
    method: str


def _gram_degree(n: int) -> int:
    """Moment degree the degree-n Gram system reads: G to 2n, the right-hand
    side to n + 1 and the target norm c[1][1] to 2."""
    return max(2 * n, 2)


def _check_degree(t: moments.MomentTable, n: int) -> None:
    if t.maxdeg < _gram_degree(n):
        raise InsufficientMoments(
            f"degree-{n} content needs moments to degree {_gram_degree(n)}, "
            f"table has {t.maxdeg}")


def _ldl_solve(t: moments.MomentTable, n: int, prec: int):
    """(rho, cond, rhos): rho = t - b* G^{-1} b, cond the max/min ratio of
    G's pivots, and rhos an iterator of rho_0, ..., rho_N, for the degree-n
    bordered system M = [[G, b], [b*, t]]: the normal equations for projecting
    conj(z) onto span{1, z, ..., z^N}, G[j][k] = <z^k, z^j> = c[k][j] and
    b[j] = <conj(z), z^j> = c[0][j+1], bordered by t = <conj(z), conj(z)> =
    c[1][1].

    M's lower triangle is read row by row, each entry as the int parts
    (re_man, re_exp, im_man, im_exp) of t.complex_entries._parts, every key
    being in the table once _check_degree has passed: rows i <= n hold
    G[i][j] = c[j][i], the last conj(b[k]) = c[k+1][0] and t = c[1][1],
    whose imaginary part is dropped.

    M is scaled by powers of two, 2^(e_k) on row and column k with
    e_k = -floor((exp + bc) / 2) from the diagonal M_kk (exp + bc =
    floor(log2 M_kk) + 1), so every diagonal entry lies in [1/2, 2) and no
    entry exceeds 2 in modulus; by van der Sluis (Numer. Math. 14, 1969) this
    is close to the best diagonal scaling.  Each part man 2^exp is shifted
    to an int at scale 2^w, w = prec + _GUARD_BITS, truncated toward zero,
    and M factored as L D L* with L unit lower, dividing only by the pivots.
    Each complex product (a + ib)(c + id) of the inner sums takes three
    multiplications, k1 = c(a + b), re = k1 - b(c + d), im = k1 + a(d - c),
    with W's a + b and L's c + d and d - c kept beside their rows; exact in
    ints.  The last pivot of the bordered system is t - b* G^{-1} b, rounded
    once to prec bits.  Raises GramNotPD on a non-positive diagonal entry or
    pivot of G, or a negative residual, each sign read off the int.

    cond is the ratio of G's largest pivot to its least, each rounded once to
    nearest at prec + 32 bits, divided at prec + 32 bits and converted to a
    float, both to nearest.  The two are chosen among the int pivots, by
    exact comparison at one common scale; rounding is monotonic, so they are
    the largest and the least of all the pivots so rounded.

    The last pivot is t minus the sum over k <= N of the last row's
    W[N+1][k] conj(L[N+1][k]) = |L[N+1][k]|^2 D_k >= 0, and the sum cut after
    term K is the last pivot of the bordered degree-K system, whose factor is
    the leading part of this one: rho_K, bit for bit as a degree-K solve on
    the same table.  Each term is >= 0 in the ints too (L = floor(W 2^w / D)
    has W's sign), so the rhos are non-increasing.  Each is rounded only when
    the iterator reaches it."""
    _check_degree(t, n)
    parts = t.complex_entries._parts
    rows = [[parts((j, i)) for j in range(i + 1)] for i in range(n + 1)]
    rows.append([parts((k + 1, 0)) for k in range(n + 1)] + [parts((1, 1))[:2] + (0, 0)])
    dim = n + 1
    w = prec + _GUARD_BITS
    diag = [row[-1][:2] for row in rows]
    for k, (man, exp) in enumerate(diag):
        if not man > 0:
            what = f"Gram pivot {k}" if k < dim else "norm of conj(z)"
            raise GramNotPD(f"{what} is {mp.nstr(mp.make_mpf(from_man_exp(man, exp)), 6)}; "
                            "polygon degenerate or precision exhausted")
    exps = [-((exp + man.bit_length()) >> 1) for man, exp in diag]

    def unscaled(pivot, k, bits):  # pivot k as a raw mpf, rounded once to bits
        return from_man_exp(pivot, -w - 2 * exps[k], bits, round_nearest)

    def fixed(man, exp):  # man 2^exp truncated toward zero
        if exp >= 0:
            return man << exp
        return man >> -exp if man >= 0 else -(-man >> -exp)

    # m_re[i][j], m_im[i][j]: M[i][j] at scale 2^w
    m_re, m_im = [], []
    for i, row in enumerate(rows):
        shifts = [w + exps[i] + e for e in exps[:i + 1]]
        m_re.append([fixed(rm, re + sh) for (rm, re, _, _), sh in zip(row, shifts)])
        m_im.append([fixed(im, ie + sh) for (_, _, im, ie), sh in zip(row, shifts)])
    # row i of W = L D as w_re[i], w_im[i] and w_sum[i] = w_re + w_im; row j
    # of L as l_re[j], l_minus[j] = l_re - l_im and l_plus[j] = l_re + l_im.
    # Column 0 of W is M's, its sums being empty
    w_re = [[row[0]] for row in m_re]
    w_im = [[0]] + [[row[0]] for row in m_im[1:]]
    w_sum = [[a[0] + b[0]] for a, b in zip(w_re, w_im)]
    l_re, l_minus, l_plus = [[] for _ in rows], [[] for _ in rows], [[] for _ in rows]
    pivots = []
    for j in range(dim):
        d = w_re[j][j]
        if not d > 0:
            raise GramNotPD(f"Gram pivot {j} is {mp.nstr(mp.make_mpf(unscaled(d, j, prec)), 6)}; "
                            "polygon degenerate or precision exhausted")
        pivots.append(d)
        for i in range(j + 1, dim + 1):
            a, b = (w_re[i][j] << w) // d, (w_im[i][j] << w) // d
            l_re[i].append(a)
            l_minus[i].append(a - b)
            l_plus[i].append(a + b)
        # column j + 1 of W, from row j + 1 of L, now whole
        lr, lm, lp = l_re[j + 1], l_minus[j + 1], l_plus[j + 1]
        for i in range(j + 1, dim + 1):
            # W[i][j+1] = M[i][j+1] - sum_k W[i][k] conj(L[j+1][k]), the sum
            # at scale 2^(2w): with a + ib = W and c + id = conj(L), d = -l_im
            k1 = sum(map(mul, w_sum[i], lr))
            wr = m_re[i][j + 1] - ((k1 - sum(map(mul, w_im[i], lm))) >> w)
            wi = 0 if i == j + 1 else m_im[i][j + 1] - ((k1 - sum(map(mul, w_re[i], lp))) >> w)
            w_re[i].append(wr)
            w_im[i].append(wi)
            w_sum[i].append(wr + wi)
    last = w_re[dim][dim]
    value = mp.make_mpf(unscaled(last, dim, prec))
    if last < 0:
        raise GramNotPD(
            f"negative residual {mp.nstr(value, 6)} at {prec} bits; precision exhausted")
    # the real part of W conj(L), k1 - b(c + d), term by term
    terms = map(sub, map(mul, w_sum[dim], l_re[dim]), map(mul, w_im[dim], l_minus[dim]))
    rhos = (mp.make_mpf(unscaled(m_re[dim][dim] - (acc >> w), dim, prec))
            for acc in accumulate(terms))
    # pivot k is d_k 2^(-w - 2 e_k): at the common scale 2^(w + 2 top) it is
    # d_k 2^(2 (top - e_k)), an int, so the largest and the least are found
    # exactly, and as rounding is monotonic they are the largest and the
    # least of the pivots each rounded to prec + 32 bits
    top = max(exps[:dim])
    common = [p << 2 * (top - e) for p, e in zip(pivots, exps)]
    hi = max(range(dim), key=common.__getitem__)
    lo = min(range(dim), key=common.__getitem__)
    bits = prec + 32
    ratio = mpf_div(unscaled(pivots[hi], hi, bits), unscaled(pivots[lo], lo, bits),
                    bits, round_nearest)
    return value, to_float(ratio, rnd=round_nearest), rhos


def _resolve(p, n, precision_bits, table):
    if table is not None and precision_bits is None:
        precision_bits = table.precision_bits
    prec = moments._working_bits(precision_bits, n)
    if table is None:
        return prec, moments.moment_table(p, _gram_degree(n), prec)
    if table.fingerprint != moments.table_fingerprint(p, prec):
        raise ValueError(
            f"moment table {table.fingerprint} was not built for this polygon "
            f"at {prec} bits")
    return prec, table


def rho_n(p: geometry.Polygon, n: int, precision_bits=None, table=None) -> RhoResult:
    """rho_N = c[1][1] - rhs* G^{-1} rhs by one fixed-point LDL* solve.

    The degree and the working precision (precision_bits, else the table's
    own, else the policy's for n) are checked first, by
    moments._working_bits; a given table must have been built for p at that
    precision, ValueError otherwise."""
    prec, table = _resolve(p, n, precision_bits, table)
    value, cond, _ = _ldl_solve(table, n, prec)
    return RhoResult(value, n, prec, cond, METHOD_CHOLESKY)


def rho_n_partials(p: geometry.Polygon, n: int, precision_bits=None, table=None):
    """(RhoResult, partials) with partials[k] = rho_k for every k <= N, read off
    rho_n's one LDL* factor: the result equals rho_n's and partials[N] its
    value, bit for bit, and partials[k] is rho_n's degree-k value on the same
    table.  Non-increasing; arguments and errors as for rho_n."""
    prec, table = _resolve(p, n, precision_bits, table)
    value, cond, partials = _ldl_solve(table, n, prec)
    return RhoResult(value, n, prec, cond, METHOD_CHOLESKY), tuple(partials)


def rho_n_telescoping(p: geometry.Polygon, n: int, precision_bits=None, table=None):
    """rho_N via Gram-Schmidt; returns (RhoResult, partials) as rho_n_partials
    does, partials[k] = rho_k for every k <= N (non-increasing).

    Gram-Schmidt on the monomials is the Cholesky factorization G = L L* of
    the Gram matrix G[k][j] = <z^j, z^k> = c[j][k], here taken row by row in
    mpf at prec + 32 bits, unscaled.  Pivot k is ||q_k||^2 for the monic q_k,
    and y = L^-1 b, b[k] = <conj(z), z^k> = c[0][k+1], holds <conj(z), p_k>
    for the orthonormal p_k = q_k / ||q_k||, so rho_k = c[1][1] -
    sum_{j<=k} |y_j|^2.  O(N^3).  No arithmetic is shared with rho_n's solve;
    arguments and errors as for rho_n."""
    prec, table = _resolve(p, n, precision_bits, table)
    _check_degree(table, n)
    c = table.c
    with mp.workprec(prec + 32):
        factor = []  # factor[k]: row k of L left of the diagonal
        norms, y, partials = [], [], []
        target = c(1, 1).real
        acc = mp.mpf(0)
        for k in range(n + 1):
            row = []
            for j in range(k):
                row.append((c(j, k) - mp.fdot(row, factor[j], conjugate=True)) / norms[j])
            nrm2 = (c(k, k) - mp.fdot(row, row, conjugate=True)).real
            if not nrm2 > 0:
                raise GramNotPD(
                    f"Gram-Schmidt norm^2 of degree {k} is {mp.nstr(nrm2, 6)}; "
                    "precision exhausted")
            nrm = mp.sqrt(nrm2)
            factor.append(row)
            norms.append(nrm)
            y.append((c(0, k + 1) - mp.fdot(row, y)) / nrm)
            acc += abs(y[-1]) ** 2
            partials.append(target - acc)
        value = partials[-1]
        if not value >= 0:
            raise GramNotPD(
                f"negative residual {mp.nstr(value, 6)} at {prec} bits; precision exhausted")
        cond = float((max(norms) / min(norms)) ** 2)
    with mp.workprec(prec):
        partials = tuple(+v for v in partials)
    return RhoResult(partials[-1], n, prec, cond, METHOD_TELESCOPING), partials


def _centered(p):
    cx, cy = geometry.centroid(p)
    return geometry.translate(p, (-cx, -cy))


def rho1_closed(p: geometry.Polygon, precision_bits: int = moments.DEFAULT_PRECISION_BITS):
    """rho_1 = 4 (I20 I02 - I11^2) / (I20 + I02) about the centroid.

    Recenters internally; area is used as-is (the formula is valid for any
    area, unlike the rho_2 closed form).  The precision, None for
    DEFAULT_PRECISION_BITS, is checked first, by moments._working_bits.
    """
    prec = moments._working_bits(precision_bits)
    with mp.workprec(prec + 32):
        t = moments.moment_table(_centered(p), 2, prec)
        i20, i02, i11 = t.real(2, 0), t.real(0, 2), t.real(1, 1)
        value = 4 * (i20 * i02 - i11 ** 2) / (i20 + i02)
    with mp.workprec(prec):
        return +value


def rho2_closed(p: geometry.Polygon, precision_bits: int = moments.DEFAULT_PRECISION_BITS):
    """rho_2 from real moments through degree 4, for unit-area polygons.

    The rational expression is not homogeneous across its terms, so area
    normalization is the caller's job; off-center input is recentered here.
    The precision is checked first, as in rho1_closed, then the area.
    """
    prec = moments._working_bits(precision_bits)
    with mp.workprec(prec + 32):
        if abs(geometry.area(p) - 1) > AREA_TOLERANCE:
            raise AreaNotNormalized(
                f"rho2 closed form needs area 1 to {mp.nstr(AREA_TOLERANCE, 2)}, "
                f"got {mp.nstr(geometry.area(p), 12)}")
        t = moments.moment_table(_centered(p), 4, prec)
        i20, i02, i11 = t.real(2, 0), t.real(0, 2), t.real(1, 1)
        i40, i04, i22 = t.real(4, 0), t.real(0, 4), t.real(2, 2)
        i30, i03 = t.real(3, 0), t.real(0, 3)
        i21, i12 = t.real(2, 1), t.real(1, 2)
        num = (i04 * i11 ** 2 - 4 * i11 ** 4 - 2 * i03 * i11 * i12
               + i02 ** 3 * i20 + i03 ** 2 * i20 + 4 * i12 ** 2 * i20
               - i11 ** 2 * i20 ** 2 - i02 ** 2 * (i11 ** 2 + 2 * i20 ** 2)
               - 6 * i11 * i12 * i21 - 2 * i03 * i20 * i21 + i20 * i21 ** 2
               + 2 * i11 ** 2 * i22 + 2 * i03 * i11 * i30 - 2 * i11 * i21 * i30
               + i02 * (4 * i21 ** 2 + (i12 - i30) ** 2
                        + i20 * (-i04 + 6 * i11 ** 2 + i20 ** 2 - 2 * i22 - i40))
               + i11 ** 2 * i40)
        den = ((i03 + i21) ** 2 + (i12 + i30) ** 2
               + (i02 + i20) * (-i04 + 4 * i11 ** 2 + (i02 - i20) ** 2 - 2 * i22 - i40))
        value = 4 * num / den
    with mp.workprec(prec):
        return +value
