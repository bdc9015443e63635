"""rho_N: squared L2(dA) distance from conj(z) to polynomials of degree <= N.

Two independent paths compute the same number: a Hermitian Cholesky solve of
the monomial Gram system, and Gram-Schmidt orthonormalization with termwise
telescoping of the projection.  Both read the table through build_gram and
share no other arithmetic.  Their agreement is the built-in self-check;
neither is trusted alone.  Both cost O(N^3): Gram-Schmidt keeps each basis
polynomial's Gram product <z^i, p_j> instead of re-integrating p_j against
the table for every projection.  orthonormality_residual does re-integrate,
as the independent check of the basis.  Monomial Gram matrices are
catastrophically ill-conditioned in double precision for N beyond ~12, so
everything here runs in mpmath arithmetic at the moments precision policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from . import geometry, moments
from .errors import AreaNotNormalized, GramNotPD, InsufficientMoments

METHOD_CHOLESKY = "gram-cholesky"
METHOD_TELESCOPING = "gram-schmidt-telescoping"

AREA_TOLERANCE = mp.mpf("1e-10")


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


def build_gram(t: moments.MomentTable, n: int) -> GramSystem:
    if t.maxdeg < 2 * n + 2:
        raise InsufficientMoments(
            f"degree-{n} content needs moments to degree {2 * n + 2}, table has {t.maxdeg}")
    matrix = tuple(tuple(t.c(k, j) for k in range(n + 1)) for j in range(n + 1))
    rhs = tuple(t.c(0, j + 1) for j in range(n + 1))
    return GramSystem(n, matrix, rhs, t.c(1, 1).real, t.precision_bits)


def _cholesky(matrix, dim):
    """Lower factor of a Hermitian positive definite matrix given by rows.
    Raises GramNotPD when a pivot is not strictly positive."""
    lower = [[mp.mpc(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1):
            s = matrix[i][j]
            for k in range(j):
                s -= lower[i][k] * mp.conj(lower[j][k])
            if i == j:
                piv = s.real
                if not piv > 0:
                    raise GramNotPD(
                        f"Gram pivot {i} is {mp.nstr(piv, 6)}; polygon degenerate "
                        "or precision exhausted")
                lower[i][j] = mp.sqrt(piv)
            else:
                lower[i][j] = s / lower[j][j]
    return lower


def _condition_estimate(diag) -> float:
    return float((max(diag) / min(diag)) ** 2)


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
    return prec, moments.moment_table(p, 2 * n + 2, prec)


def rho_n(p: geometry.Polygon, n: int, precision_bits=None, table=None) -> RhoResult:
    """rho_N via Cholesky: c[1][1] - rhs* G^{-1} rhs.

    A given table must have been built for p at the working precision
    (precision_bits, else the table's own); ValueError otherwise."""
    prec, table = _resolve(p, n, precision_bits, table)
    gram = build_gram(table, n)
    dim = n + 1
    with mp.workprec(prec + 32):
        lower = _cholesky(gram.matrix, dim)
        y = [mp.mpc(0)] * dim
        for i in range(dim):
            s = gram.rhs[i]
            for j in range(i):
                s -= lower[i][j] * y[j]
            y[i] = s / lower[i][i]
        proj = mp.mpf(0)
        for yi in y:
            proj += abs(yi) ** 2
        value = gram.target_norm - proj
        if not value >= 0:
            raise GramNotPD(
                f"negative residual {mp.nstr(value, 6)} at {prec} bits; precision exhausted")
        cond = _condition_estimate([lower[i][i].real for i in range(dim)])
    with mp.workprec(prec):
        value = +value
    return RhoResult(value, n, prec, cond, METHOD_CHOLESKY)


def _poly_ip(pa, pb, table):
    """<sum_i pa[i] z^i, sum_j pb[j] z^j> against the moment table."""
    s = mp.mpc(0)
    for i, ai in enumerate(pa):
        if ai == 0:
            continue
        for j, bj in enumerate(pb):
            if bj == 0:
                continue
            s += ai * mp.conj(bj) * table.c(i, j)
    return s


def rho_n_telescoping(p: geometry.Polygon, n: int, precision_bits=None, table=None):
    """rho_N via Gram-Schmidt; returns (RhoResult, BergmanBasis, partials) where
    partials[k] = rho_k for every k <= N (non-increasing).

    Modified Gram-Schmidt on the monomials, O(N^3) in all: each finished p_j
    keeps its Gram product u_j[i] = <z^i, p_j> (i <= N), so a projection
    coefficient <q, p_j> = sum_i q_i u_j[i] costs O(k), and one product
    v = G conj(q) per degree gives both ||q||^2 = sum_i q_i v_i and
    u_k = v / ||q||.  No arithmetic is shared with the Cholesky path."""
    prec, table = _resolve(p, n, precision_bits, table)
    gram = build_gram(table, n)
    dim = n + 1
    with mp.workprec(prec + 32):
        # rows[i][l] = c[i][l] = <z^i, z^l>; gram.matrix is its transpose
        rows = list(zip(*gram.matrix))
        basis = []
        products = []
        norms = []
        partials = []
        acc = mp.mpf(0)
        for k in range(dim):
            q = [mp.mpc(0)] * (k + 1)
            q[k] = mp.mpc(1)
            for prev, u in zip(basis, products):
                r = mp.fdot(q, u)  # <q, p_j>; zip in fdot stops at len(q)
                for j in range(len(prev)):
                    q[j] -= r * prev[j]
            v = [mp.fdot(row, q, conjugate=True) for row in rows]
            nrm2 = mp.fdot(q, v).real
            if not nrm2 > 0:
                raise GramNotPD(
                    f"Gram-Schmidt norm^2 of degree {k} is {mp.nstr(nrm2, 6)}; "
                    "precision exhausted")
            nrm = mp.sqrt(nrm2)
            basis.append([qi / nrm for qi in q])
            products.append([vi / nrm for vi in v])
            norms.append(nrm)
            # <conj(z), p_k> = sum_j conj(p_k[j]) c[0][j+1]
            acc += abs(mp.fdot(gram.rhs, basis[-1], conjugate=True)) ** 2
            partials.append(gram.target_norm - acc)
        value = partials[-1]
        if not value >= 0:
            raise GramNotPD(
                f"negative residual {mp.nstr(value, 6)} at {prec} bits; precision exhausted")
        cond = _condition_estimate(norms)
    with mp.workprec(prec):
        partials = tuple(+v for v in partials)
        basis = tuple(tuple(+c for c in row) for row in basis)
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
