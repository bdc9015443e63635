import dataclasses

import pytest
from mpmath import mp

from polyrho import content, geometry, moments
from polyrho.errors import AreaNotNormalized, GramNotPD, InsufficientMoments, PrecisionTooLow


def test_build_gram_layout(square):
    t = moments.moment_table(square, 8)
    g = content.build_gram(t, 3)
    assert g.n == 3
    assert len(g.matrix) == 4 and all(len(row) == 4 for row in g.matrix)
    with mp.workprec(300):
        for j in range(4):
            for k in range(4):
                assert g.matrix[j][k] == t.c(k, j)
        assert g.rhs[2] == t.c(0, 3)
        assert g.target_norm == t.c(1, 1).real


def test_build_gram_needs_enough_moments(square):
    t = moments.moment_table(square, 5)
    with pytest.raises(InsufficientMoments, match="to degree 6,"):
        content.build_gram(t, 3)  # needs degree 2N = 6
    # degree 0 still reads the target norm c[1][1], of degree 2
    t = moments.moment_table(square, 2)
    assert content.build_gram(t, 0).n == 0
    with pytest.raises(InsufficientMoments, match="to degree 2,"):
        content.build_gram(dataclasses.replace(t, maxdeg=1), 0)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_rho_n_builds_the_degree_the_gram_system_reads(square, monkeypatch, n):
    built = []
    moment_table = moments.moment_table

    def recorded(p, maxdeg, precision_bits):
        built.append(maxdeg)
        return moment_table(p, maxdeg, precision_bits)
    monkeypatch.setattr(moments, "moment_table", recorded)
    content.rho_n(square, n)
    content.rho_n_telescoping(square, n)
    assert built == [max(2 * n, 2)] * 2


def test_square_rho1_is_one_sixth(square):
    r = content.rho_n(square, 1)
    with mp.workprec(300):
        assert abs(r.value - mp.mpf(1) / 6) < mp.mpf("1e-70")
    assert r.method == content.METHOD_CHOLESKY
    assert r.n == 1
    assert r.precision_bits == moments.precision_for_degree(1)


def test_dual_paths_agree(any_polygon):
    n = 8
    prec = moments.precision_for_degree(n)
    table = moments.moment_table(any_polygon, 2 * n + 2, prec)
    direct = content.rho_n(any_polygon, n, prec, table=table)
    telescoped, basis, partials = content.rho_n_telescoping(
        any_polygon, n, prec, table=table)
    with mp.workprec(prec + 16):
        tol = mp.mpf(2) ** (-(prec // 4))
        assert abs(direct.value - telescoped.value) <= tol * (1 + abs(direct.value))
        assert len(partials) == n + 1
        assert partials[-1] == telescoped.value
        # partial sequence is the value at every lower degree
        for k in (0, 3, 5):
            lower = content.rho_n(any_polygon, k, prec, table=table)
            assert abs(partials[k] - lower.value) <= tol * (1 + abs(lower.value))


@pytest.mark.parametrize("n", [2, 10, 20])
def test_equilateral_triangle_exact_value(n):
    # the unit-area equilateral triangle has a cubic torsion function, so the
    # projection of conj(z) is exact from degree 2 on: rho_N = sqrt(3)/15
    tri = geometry.make_regular_ngon(3)
    prec = moments.precision_for_degree(n)
    table = moments.moment_table(tri, 2 * n + 2, prec)
    direct = content.rho_n(tri, n, prec, table=table)
    telescoped, _, partials = content.rho_n_telescoping(tri, n, prec, table=table)
    with mp.workprec(prec + 32):
        exact = mp.sqrt(3) / 15
        # vertices are stored at 320 bits, which bounds the accuracy above that
        tol = mp.mpf(2) ** (16 - min(prec, 320)) * exact
        for value in (direct.value, telescoped.value, *partials[2:]):
            assert abs(value - exact) <= tol


@pytest.mark.parametrize("name, n", [("pentagon", 18), ("windmill-20", 12)])
def test_telescoping_high_degree(name, n):
    # windmill(20) at N=12 has condition estimate 8.5e25
    poly = {
        "pentagon": lambda: geometry.make_regular_ngon(5),
        "windmill-20": lambda: geometry.make_windmill(20),
    }[name]()
    prec = moments.precision_for_degree(n)
    table = moments.moment_table(poly, 2 * n + 2, prec)
    _, basis, partials = content.rho_n_telescoping(poly, n, prec, table=table)
    with mp.workprec(prec + 16):
        tol = mp.mpf(2) ** (-(prec // 2))
        for k in range(n + 1):
            lower = content.rho_n(poly, k, prec, table=table).value
            assert abs(partials[k] - lower) <= tol * (1 + abs(lower)), k
    assert content.orthonormality_residual(basis, table) <= mp.mpf(2) ** (-(prec // 4))


def test_partials_non_increasing(any_polygon):
    result, _, partials = content.rho_n_telescoping(any_polygon, 10)
    with mp.workprec(result.precision_bits + 16):
        slack = mp.mpf(2) ** -120
        for k in range(len(partials) - 1):
            assert partials[k + 1] <= partials[k] + slack


def test_orthonormality_residual(any_polygon):
    n = 6
    prec = moments.precision_for_degree(n)
    table = moments.moment_table(any_polygon, 2 * n + 2, prec)
    _, basis, _ = content.rho_n_telescoping(any_polygon, n, prec, table=table)
    resid = content.orthonormality_residual(basis, table)
    assert resid <= mp.mpf(2) ** (-(prec // 4))


def test_rho1_closed_matches_gram(any_polygon):
    closed = content.rho1_closed(any_polygon)
    direct = content.rho_n(any_polygon, 1)
    with mp.workprec(300):
        assert abs(closed - direct.value) <= mp.mpf("1e-60") * (1 + abs(closed))


def test_rho1_closed_ignores_position(triangle):
    base = content.rho1_closed(triangle)
    moved = content.rho1_closed(geometry.translate(triangle, (7, -4)))
    with mp.workprec(300):
        assert abs(base - moved) <= mp.mpf("1e-55") * (1 + abs(base))


def test_rho2_closed_matches_gram(pentagon):
    closed = content.rho2_closed(pentagon)
    direct = content.rho_n(pentagon, 2)
    with mp.workprec(300):
        assert abs(closed - direct.value) <= mp.mpf("1e-60") * (1 + abs(closed))


def test_rho2_closed_requires_unit_area(triangle):
    # the scalene fixture has area 0.4
    with pytest.raises(AreaNotNormalized):
        content.rho2_closed(triangle)
    val = content.rho2_closed(geometry.normalize(triangle))
    assert val > 0


def test_scaling_law(triangle):
    n = 3
    base = content.rho_n(triangle, n).value
    scaled = content.rho_n(geometry.scale(triangle, 1.75), n).value
    with mp.workprec(300):
        r4 = mp.mpf("1.75") ** 4
        assert abs(scaled - r4 * base) <= mp.mpf("1e-60") * (1 + abs(scaled))


def test_rigid_motion_invariance(pentagon):
    n = 4
    base = content.rho_n(pentagon, n).value
    rotated = content.rho_n(geometry.rotate(pentagon, 0.9), n).value
    moved = content.rho_n(geometry.translate(pentagon, (-2, 5)), n).value
    with mp.workprec(300):
        assert abs(rotated - base) <= mp.mpf("1e-60") * (1 + abs(base))
        assert abs(moved - base) <= mp.mpf("1e-60") * (1 + abs(base))


def test_gram_not_pd_on_tampered_table(square):
    t = moments.moment_table(square, 6)
    bad = dict(t.complex_entries)
    with mp.workprec(300):
        bad[(1, 1)] = mp.mpc(-1)  # breaks positive definiteness
    tampered = dataclasses.replace(t, complex_entries=bad)
    for solve in (content.rho_n, content.rho_n_partials, content.rho_n_telescoping):
        with pytest.raises(GramNotPD):
            solve(square, 2, table=tampered)


def test_gram_not_pd_at_an_interior_pivot(square):
    # the diagonal stays positive, so only the factorization can see that
    # c[0][3] = 10 (against c[0][0] = 1 and a small c[3][3]) makes G indefinite
    t = moments.moment_table(square, 10)
    bad = dict(t.complex_entries)
    with mp.workprec(300):
        bad[(0, 3)] = bad[(3, 0)] = mp.mpc(10)
    tampered = dataclasses.replace(t, complex_entries=bad)
    for solve in (content.rho_n, content.rho_n_partials):
        with pytest.raises(GramNotPD, match="pivot 3 "):
            solve(square, 4, table=tampered)
    with pytest.raises(GramNotPD, match="degree 3 "):
        content.rho_n_telescoping(square, 4, table=tampered)


@pytest.mark.parametrize("n", [5, 18])
def test_solve_agrees_with_telescoping(any_polygon, n):
    prec = moments.precision_for_degree(n)
    table = moments.moment_table(any_polygon, 2 * n + 2, prec)
    direct = content.rho_n(any_polygon, n, prec, table=table)
    telescoped, _, telescoped_partials = content.rho_n_telescoping(any_polygon, n, prec,
                                                                   table=table)
    _, partials = content.rho_n_partials(any_polygon, n, prec, table=table)
    with mp.workprec(prec + 32):
        tol = mp.mpf(2) ** -prec * direct.condition_estimate
        assert abs(direct.value - telescoped.value) <= tol * direct.value
        for k, (got, want) in enumerate(zip(partials, telescoped_partials, strict=True)):
            assert abs(got - want) <= tol * want, k


@pytest.mark.parametrize("n", [0, 1, 2, 12, 20])
def test_partials_end_in_rho_n_bit_for_bit(any_polygon, n):
    result, partials = content.rho_n_partials(any_polygon, n)
    direct = content.rho_n(any_polygon, n)
    assert result == direct
    assert partials[-1]._mpf_ == direct.value._mpf_
    assert len(partials) == n + 1
    assert all(partials[k + 1] <= partials[k] for k in range(n))


def test_partial_k_is_the_degree_k_solve(any_polygon):
    # the bordered degree-k system's factor is the leading part of the
    # degree-N one, so on one table partials[k] is rho_n(p, k) bit for bit
    n, prec = 12, 384
    table = moments.moment_table(any_polygon, 2 * n, prec)
    _, partials = content.rho_n_partials(any_polygon, n, table=table)
    for k in range(n + 1):
        assert partials[k]._mpf_ == content.rho_n(any_polygon, k, table=table).value._mpf_, k


def test_solve_keeps_its_digits_on_a_tiny_copy():
    # the LDL* scales every row, the target norm c[1][1] included, by its own
    # power of two, and the unscaled Cholesky factor of telescoping runs in
    # floating point, so a copy scaled by 2^-80 (rho_2 ~ 2^-320) loses nothing
    tri = geometry.make_regular_ngon(3)
    s = mp.mpf(2) ** -80
    for solve in (content.rho_n, lambda p, n: content.rho_n_telescoping(p, n)[0]):
        centred = solve(tri, 2).value
        tiny = solve(geometry.scale(tri, s), 2).value
        with mp.workprec(400):
            exact = mp.sqrt(3) / 15
            assert abs(tiny / s ** 4 - exact) <= 2 * abs(centred - exact) + mp.mpf(2) ** -300


@pytest.mark.parametrize("name", ["pentagon", "windmill-20"])
def test_basis_has_a_real_positive_leading_coefficient(name):
    # orthonormality leaves each p_k's phase free; Gram-Schmidt fixes it by
    # p_k = q_k / ||q_k|| with q_k monic, so the leading coefficient is 1 / ||q_k||
    poly = {
        "pentagon": lambda: geometry.make_regular_ngon(5),
        "windmill-20": lambda: geometry.make_windmill(20),
    }[name]()
    n = 12
    result, basis, _ = content.rho_n_telescoping(poly, n)
    prec = result.precision_bits
    with mp.workprec(prec + 32):
        for k, row in enumerate(basis.coefficients):
            assert len(row) == k + 1
            assert row[k].imag == 0, k
            assert abs(row[k].real * basis.norms[k] - 1) <= mp.mpf(2) ** (8 - prec), k


def test_degree_zero(square):
    # best constant approximation of conj(z); for a centered shape the
    # projection is zero and rho_0 equals the second moment
    r = content.rho_n(square, 0)
    with mp.workprec(300):
        assert abs(r.value - mp.mpf(1) / 6) < mp.mpf("1e-70")
    with pytest.raises(ValueError):
        content.rho_n(square, -1)


def test_explicit_precision_respected(square, triangle):
    r = content.rho_n(square, 2, precision_bits=512)
    assert r.precision_bits == 512
    t, _, _ = content.rho_n_telescoping(square, 2, precision_bits=512)
    assert t.precision_bits == 512
    # a table only serves the polygon and precision it was built for
    table_256 = moments.moment_table(triangle, 6, 256)
    for solve in (content.rho_n, content.rho_n_partials, content.rho_n_telescoping):
        with pytest.raises(ValueError):
            solve(square, 2, table=table_256)
        with pytest.raises(ValueError):
            solve(triangle, 2, precision_bits=1024, table=table_256)
    # 0 is an explicit precision like any other, not a request for the default
    with pytest.raises(PrecisionTooLow):
        content.rho_n(square, 2, precision_bits=0)
