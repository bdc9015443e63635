"""rho_N: squared L2(dA) distance from conj(z) to polynomials of degree <= N.

rho_n solves the monomial Gram system once, in fixed-point Python integers
(_ldl_solve): rows scaled by powers of two to a unit diagonal, an LDL*
factorization that divides only by the pivots, one rounding at the end.
rho_n_partials reads every partial rho_0..rho_N off the same factor, as
prefix sums of the last row's products, each rounded once.
rho_n_telescoping computes the same numbers by Gram-Schmidt on the monomials,
taken as the Cholesky factorization G = L L* of the Gram matrix in floating
point, unscaled and with square roots; row k of L^-1 gives the orthonormal
p_k, and L^-1 applied to the right-hand side telescopes the projection into
every partial rho_k.  Both read the table through build_gram, which needs
moments to degree 2N, and share no other arithmetic; telescoping is the
independent check in the tests and in verify's monotonicity (triangle, N=12)
and pentagon-rho33 (--long) checks.  Both cost O(N^3).
orthonormality_residual re-integrates the basis against the table, as the
independent check of the basis.  Monomial Gram matrices are catastrophically
ill-conditioned in double precision for N beyond ~12, so everything here runs
at the moments precision policy plus guard bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, mul

from mpmath import mp
from mpmath.libmp import from_man_exp, fzero, mpf_neg, round_nearest

from . import geometry, moments
from .errors import AreaNotNormalized, GramNotPD, InsufficientMoments

METHOD_CHOLESKY = "gram-cholesky"
METHOD_TELESCOPING = "gram-schmidt-telescoping"

AREA_TOLERANCE = mp.mpf("1e-10")

# bits the fixed-point solve carries below the working precision
_GUARD_BITS = 64


@dataclass(frozen=True)
class GramSystem:
    """Normal equations for projecting conj(z) onto span{1, z, ..., z^N}.

    matrix[j][k] = <z^k, z^j> = c[k][j]; rhs[j] = <conj(z), z^j> = c[0][j+1];
    target_norm = <conj(z), conj(z)> = c[1][1].
    """

    n: int
    matrix: tuple
    rhs: tuple
    target_norm: object
    precision_bits: int


@dataclass(frozen=True)
class RhoResult:
    value: object
    n: int
    precision_bits: int
    condition_estimate: float
    method: str


@dataclass(frozen=True)
class BergmanBasis:
    """Orthonormal polynomials p_0..p_N; row k of coefficients holds the
    monomial coefficients of p_k (length k+1, leading entry last)."""

    n: int
    coefficients: tuple
    norms: tuple


def _gram_degree(n: int) -> int:
    """Moment degree the degree-n Gram system reads: G to 2n, the right-hand
    side to n + 1 and the target norm c[1][1] to 2."""
    return max(2 * n, 2)


def build_gram(t: moments.MomentTable, n: int) -> GramSystem:
    """The degree-n Gram system read from t, which must hold moments to
    degree max(2n, 2); InsufficientMoments otherwise."""
    if t.maxdeg < _gram_degree(n):
        raise InsufficientMoments(
            f"degree-{n} content needs moments to degree {_gram_degree(n)}, "
            f"table has {t.maxdeg}")
    matrix = tuple(tuple(t.c(k, j) for k in range(n + 1)) for j in range(n + 1))
    rhs = tuple(t.c(0, j + 1) for j in range(n + 1))
    return GramSystem(n, matrix, rhs, t.c(1, 1).real, t.precision_bits)


def _ldl_solve(gram: GramSystem, prec: int, partials: bool = False):
    """(rho, cond, rhos): rho = t - b* G^{-1} b, cond the max/min ratio of
    G's pivots, and rhos = (rho_0, ..., rho_N) if partials, else None.

    The bordered system M = [[G, b], [b*, t]] (t = c[1][1]) is scaled by
    powers of two, 2^(e_k) on row and column k with e_k = -floor((exp + bc) / 2)
    from the diagonal mpf M_kk (exp + bc = floor(log2 M_kk) + 1), so every
    diagonal entry lies in [1/2, 2) and no entry exceeds 2 in modulus; by van der Sluis (Numer. Math. 14, 1969) this is
    close to the best diagonal scaling.  The entries are read as (re, im)
    ints at scale 2^w, w = prec + _GUARD_BITS, and factored M = L D L* with
    L unit lower, dividing only by the pivots.  The last pivot of the
    bordered system is t - b* G^{-1} b, rounded once to prec bits.  Raises
    GramNotPD on a non-positive diagonal entry or pivot of G, or a negative
    residual.

    The last pivot is t minus the sum over k <= N of the last row's
    W[N+1][k] conj(L[N+1][k]) = |L[N+1][k]|^2 D_k >= 0, and the sum cut after
    term K is the last pivot of the bordered degree-K system, whose factor is
    the leading part of this one: rho_K, bit for bit as a degree-K solve on
    the same table.  Each term is >= 0 in the ints too (L = floor(W 2^w / D)
    has W's sign), so the rhos are non-increasing."""
    dim = gram.n + 1
    w = prec + _GUARD_BITS
    diag = [gram.matrix[k][k].real for k in range(dim)] + [gram.target_norm]
    for k, d in enumerate(diag):
        if not d > 0:
            what = f"Gram pivot {k}" if k < dim else "norm of conj(z)"
            raise GramNotPD(f"{what} is {mp.nstr(d, 6)}; polygon degenerate "
                            "or precision exhausted")
    exps = [-((d._mpf_[2] + d._mpf_[3]) >> 1) for d in diag]

    def unscaled(pivot, k, bits):  # pivot k as an mpf, rounded once to bits
        return mp.make_mpf(from_man_exp(pivot, -w - 2 * exps[k], bits, round_nearest))

    # row i of the bordered lower triangle; the last row is conj(b), then t
    rows = [[gram.matrix[i][j]._mpc_ for j in range(i + 1)] for i in range(dim)]
    rows.append([(re, mpf_neg(im)) for re, im in (b._mpc_ for b in gram.rhs)]
                + [(gram.target_norm._mpf_, fzero)])
    # w_re[i], w_im[i]: row i of W = L D; l_re[j], l_im[j]: row j of L
    w_re, w_im = [[] for _ in rows], [[] for _ in rows]
    l_re, l_im = [[] for _ in rows], [[] for _ in rows]
    pivots = []
    for j in range(dim + 1):
        lr, li = l_re[j], l_im[j]
        for i in range(j, dim + 1):
            re, im = rows[i][j]
            shift = w + exps[i] + exps[j]
            # W[i][j] = M[i][j] - sum_k W[i][k] conj(L[j][k]), the sum at scale 2^(2w)
            wr, wi = w_re[i], w_im[i]
            s_re = sum(map(mul, wr, lr)) + sum(map(mul, wi, li))
            s_im = sum(map(mul, wi, lr)) - sum(map(mul, wr, li))
            wr.append(geometry._fixed(re, shift) - (s_re >> w))
            wi.append(0 if i == j else geometry._fixed(im, shift) - (s_im >> w))
        d = w_re[j][j]
        pivots.append(d)
        if j < dim and not d > 0:
            raise GramNotPD(f"Gram pivot {j} is {mp.nstr(unscaled(d, j, prec), 6)}; "
                            "polygon degenerate or precision exhausted")
        for i in range(j + 1, dim + 1):
            l_re[i].append((w_re[i][j] << w) // d)
            l_im[i].append((w_im[i][j] << w) // d)
    value = unscaled(pivots.pop(), dim, prec)
    if value < 0:
        raise GramNotPD(
            f"negative residual {mp.nstr(value, 6)} at {prec} bits; precision exhausted")
    rhos = None
    if partials:
        t_fix = geometry._fixed(gram.target_norm._mpf_, w + 2 * exps[dim])
        terms = map(add, map(mul, w_re[dim], l_re[dim]), map(mul, w_im[dim], l_im[dim]))
        rhos = tuple(unscaled(t_fix - (acc >> w), dim, prec) for acc in accumulate(terms))
    pivots = [unscaled(d, k, prec + 32) for k, d in enumerate(pivots)]
    with mp.workprec(prec + 32):
        return value, float(max(pivots) / min(pivots)), rhos


def _resolve(p, n, precision_bits, table):
    if n < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {n}")
    if table is not None:
        prec = table.precision_bits if precision_bits is None else precision_bits
        if table.fingerprint != moments.table_fingerprint(p, prec):
            raise ValueError(
                f"moment table {table.fingerprint} was not built for this polygon "
                f"at {prec} bits")
        return prec, table
    prec = moments.precision_for_degree(n) if precision_bits is None else precision_bits
    return prec, moments.moment_table(p, _gram_degree(n), prec)


def rho_n(p: geometry.Polygon, n: int, precision_bits=None, table=None) -> RhoResult:
    """rho_N = c[1][1] - rhs* G^{-1} rhs by one fixed-point LDL* solve.

    A given table must have been built for p at the working precision
    (precision_bits, else the table's own); ValueError otherwise."""
    prec, table = _resolve(p, n, precision_bits, table)
    value, cond, _ = _ldl_solve(build_gram(table, n), prec)
    return RhoResult(value, n, prec, cond, METHOD_CHOLESKY)


def rho_n_partials(p: geometry.Polygon, n: int, precision_bits=None, table=None):
    """(RhoResult, partials) with partials[k] = rho_k for every k <= N, read off
    rho_n's one LDL* factor: the result equals rho_n's and partials[N] its
    value, bit for bit, and partials[k] is rho_n's degree-k value on the same
    table.  Non-increasing; arguments and errors as for rho_n."""
    prec, table = _resolve(p, n, precision_bits, table)
    value, cond, partials = _ldl_solve(build_gram(table, n), prec, partials=True)
    return RhoResult(value, n, prec, cond, METHOD_CHOLESKY), partials


def _poly_ip(pa, pb, table):
    """<sum_i pa[i] z^i, sum_j pb[j] z^j> against the moment table."""
    return mp.fdot((ai * mp.conj(bj), table.c(i, j))
                   for i, ai in enumerate(pa) for j, bj in enumerate(pb))


def rho_n_telescoping(p: geometry.Polygon, n: int, precision_bits=None, table=None):
    """rho_N via Gram-Schmidt; returns (RhoResult, BergmanBasis, partials) where
    partials[k] = rho_k for every k <= N (non-increasing).

    Gram-Schmidt on the monomials is the Cholesky factorization G = L L* of
    build_gram's matrix, here taken row by row in mpf at prec + 32 bits,
    unscaled.  Pivot k is ||q_k||^2 for the monic q_k, so norms = diag L.  Row
    k of L^-1, conjugated, holds the coefficients of p_k = q_k / ||q_k||, and
    y = L^-1 b holds <conj(z), p_k>, so rho_k = t - sum_{j<=k} |y_j|^2.
    O(N^3).  No arithmetic is shared with rho_n's solve."""
    prec, table = _resolve(p, n, precision_bits, table)
    gram = build_gram(table, n)
    with mp.workprec(prec + 32):
        factor = []  # factor[k]: row k of L left of the diagonal
        columns = []  # columns[j]: column j of L^-1, from row j down
        norms, y, partials = [], [], []
        acc = mp.mpf(0)
        for k in range(n + 1):
            row = []
            for j in range(k):
                row.append((gram.matrix[k][j] - mp.fdot(row, factor[j], conjugate=True))
                           / norms[j])
            nrm2 = (gram.matrix[k][k] - mp.fdot(row, row, conjugate=True)).real
            if not nrm2 > 0:
                raise GramNotPD(
                    f"Gram-Schmidt norm^2 of degree {k} is {mp.nstr(nrm2, 6)}; "
                    "precision exhausted")
            nrm = mp.sqrt(nrm2)
            # row k of L L^-1 = I, solved for row k of L^-1
            for j, col in enumerate(columns):
                col.append(-mp.fdot(row[j:], col) / nrm)
            columns.append([mp.mpc(1) / nrm])
            factor.append(row)
            norms.append(nrm)
            y.append((gram.rhs[k] - mp.fdot(row, y)) / nrm)
            acc += abs(y[-1]) ** 2
            partials.append(gram.target_norm - acc)
        value = partials[-1]
        if not value >= 0:
            raise GramNotPD(
                f"negative residual {mp.nstr(value, 6)} at {prec} bits; precision exhausted")
        cond = float((max(norms) / min(norms)) ** 2)
    with mp.workprec(prec):
        partials = tuple(+v for v in partials)
        basis = tuple(tuple(+mp.conj(columns[j][k - j]) for j in range(k + 1))
                      for k in range(n + 1))
        norms = tuple(+v for v in norms)
    result = RhoResult(partials[-1], n, prec, cond, METHOD_TELESCOPING)
    return result, BergmanBasis(n, basis, norms), partials


def orthonormality_residual(basis: BergmanBasis, table: moments.MomentTable):
    """Max |<p_j, p_k> - delta_jk| re-integrated against the table."""
    worst = mp.mpf(0)
    with mp.workprec(table.precision_bits + 32):
        for j, pj in enumerate(basis.coefficients):
            for k in range(j + 1):
                ip = _poly_ip(pj, basis.coefficients[k], table)
                expect = 1 if j == k else 0
                worst = max(worst, abs(ip - expect))
    return +worst


def _centered(p):
    cx, cy = geometry.centroid(p)
    return geometry.translate(p, (-cx, -cy))


def rho1_closed(p: geometry.Polygon, precision_bits: int = moments.DEFAULT_PRECISION_BITS):
    """rho_1 = 4 (I20 I02 - I11^2) / (I20 + I02) about the centroid.

    Recenters internally; area is used as-is (the formula is valid for any
    area, unlike the rho_2 closed form).
    """
    with mp.workprec(precision_bits + 32):
        t = moments.moment_table(_centered(p), 2, precision_bits)
        i20, i02, i11 = t.real(2, 0), t.real(0, 2), t.real(1, 1)
        value = 4 * (i20 * i02 - i11 ** 2) / (i20 + i02)
    with mp.workprec(precision_bits):
        return +value


def rho2_closed(p: geometry.Polygon, precision_bits: int = moments.DEFAULT_PRECISION_BITS):
    """rho_2 from real moments through degree 4, for unit-area polygons.

    The rational expression is not homogeneous across its terms, so area
    normalization is the caller's job; off-center input is recentered here.
    """
    with mp.workprec(precision_bits + 32):
        if abs(geometry.area(p) - 1) > AREA_TOLERANCE:
            raise AreaNotNormalized(
                f"rho2 closed form needs area 1 to {mp.nstr(AREA_TOLERANCE, 2)}, "
                f"got {mp.nstr(geometry.area(p), 12)}")
        t = moments.moment_table(_centered(p), 4, precision_bits)
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
    with mp.workprec(precision_bits):
        return +value
