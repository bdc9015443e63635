import dataclasses
import hashlib

import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest

from polyrho import content, geometry, moments
from polyrho.errors import AreaNotNormalized, GramNotPD, InsufficientMoments, PrecisionTooLow


def test_solvers_need_enough_moments(square):
    t = moments.moment_table(square, 5)
    for solve in (content.rho_n, content.rho_n_partials, content.rho_n_telescoping):
        with pytest.raises(InsufficientMoments, match="to degree 6,"):
            solve(square, 3, table=t)  # needs degree 2N = 6
    # degree 0 still reads the target norm c[1][1], of degree 2
    t = moments.moment_table(square, 2)
    for solve in (content.rho_n, content.rho_n_partials, content.rho_n_telescoping):
        solve(square, 0, table=t)
        with pytest.raises(InsufficientMoments, match="to degree 2,"):
            solve(square, 0, table=dataclasses.replace(t, maxdeg=1))


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
    telescoped, partials = content.rho_n_telescoping(any_polygon, n, prec, table=table)
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
    telescoped, partials = content.rho_n_telescoping(tri, n, prec, table=table)
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
    _, partials = content.rho_n_telescoping(poly, n, prec, table=table)
    with mp.workprec(prec + 16):
        tol = mp.mpf(2) ** (-(prec // 2))
        for k in range(n + 1):
            lower = content.rho_n(poly, k, prec, table=table).value
            assert abs(partials[k] - lower) <= tol * (1 + abs(lower)), k


def test_partials_non_increasing(any_polygon):
    result, partials = content.rho_n_telescoping(any_polygon, 10)
    with mp.workprec(result.precision_bits + 16):
        slack = mp.mpf(2) ** -120
        for k in range(len(partials) - 1):
            assert partials[k + 1] <= partials[k] + slack


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


# sha256 of repr((value._mpf_, repr(condition_estimate))) of rho_n, and of
# the same with [v._mpf_ for v in partials] appended for rho_n_partials, on
# rho's check table (maxdeg 2N at bits) and on the table rounded from it at
# bits - 64, as the rho subcommand solves them; recorded from the solve that
# read the table's mpc entries, before it read the table as ints
_RHO_SHA256 = {
    ("pentagon", 18, 560): (
        "8430f1b68fd0f354bdda03583567532717df1810cd8d30e4ee1a7a2a974dbaf2",
        "f0a260ad9b5f4994a48070d6504d32a68265a6820b02d3cfa298f3f0c718d728",
        "f6907910ac9ba4c0495bcfb2486c9857a7e58c5480fcdcf03b8876601b583471",
        "42a0f6eea8ab064c476200354151b98bef4e3bae87a657be13d09ab5f42d3849"),
    ("windmill-2", 12, 416): (
        "7eb6733a5d7fee776c6b17d990b01e63226e6d29c8921a476a31c612fdad35f8",
        "94303540c96f6fec6a370c1461d3aad6576c6b7d9d9c0daf5012c437463d5137",
        "7241b6a4a16f63a418cc058560fb173a59603ada9766a29397e8ef644ddb7cb1",
        "f41775e1a180b52f374f2bd0ec8283a4da7d3ed6241b68039366f1ad16a9804b"),
    ("star-8-3", 12, 416): (
        "760f1c13f254dd8ebfbbe7d679e2cddc18a59ee7bbe4c472ec06f8d9f35c0e0c",
        "efbffca96d4a1e303192d51f233e9ac8d94c5c681098ec4fe7643ec8dbfd3579",
        "a145e39eb34f7b4052f43e0840a0c8f37586589b7d53174ded43cae20ce7dd58",
        "21d38ca3eb520c64ab4f78b3514e4d7fd01bb5a7a253b9e39213e3d4844dae63"),
}
_PINNED_POLYGONS = {
    "pentagon": lambda: geometry.make_regular_ngon(5),
    "windmill-2": lambda: geometry.make_windmill(2),
    "star-8-3": lambda: geometry.random_star_polygon(8, 3),
    # side 1.5e-3 at (100, 100): the frame defect leaves G indefinite at N=10
    "far-triangle": lambda: geometry.polygon_new(
        [(100, 100), (100.0015, 100), (100.00075, 100.0013)]),
}


def _sha256(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("name,n,bits", list(_RHO_SHA256))
def test_rho_bits_are_pinned(name, n, bits):
    poly = _PINNED_POLYGONS[name]()
    check = moments.moment_table(poly, 2 * n, bits)
    digests = []
    for t in (check, moments._rounded_table(check, bits - 64)):
        r = content.rho_n(poly, n, table=t)
        digests.append(_sha256((r.value._mpf_, repr(r.condition_estimate))))
        r, partials = content.rho_n_partials(poly, n, table=t)
        assert partials[-1] == r.value
        digests.append(_sha256((r.value._mpf_, repr(r.condition_estimate),
                                [v._mpf_ for v in partials])))
    assert tuple(digests) == _RHO_SHA256[(name, n, bits)]


# sha256 of repr((value._mpf_, repr(condition_estimate), [v._mpf_ for v in
# partials])) of rho_n_telescoping on the same two tables per polygon,
# recorded when telescoping also built the orthonormal basis; on these tables
# they equal rho_n_partials' digests above
_TELESCOPING_SHA256 = {
    ("pentagon", 18, 560): (
        "f0a260ad9b5f4994a48070d6504d32a68265a6820b02d3cfa298f3f0c718d728",
        "42a0f6eea8ab064c476200354151b98bef4e3bae87a657be13d09ab5f42d3849"),
    ("windmill-2", 12, 416): (
        "94303540c96f6fec6a370c1461d3aad6576c6b7d9d9c0daf5012c437463d5137",
        "f41775e1a180b52f374f2bd0ec8283a4da7d3ed6241b68039366f1ad16a9804b"),
    ("star-8-3", 12, 416): (
        "efbffca96d4a1e303192d51f233e9ac8d94c5c681098ec4fe7643ec8dbfd3579",
        "21d38ca3eb520c64ab4f78b3514e4d7fd01bb5a7a253b9e39213e3d4844dae63"),
}


@pytest.mark.parametrize("name,n,bits", list(_TELESCOPING_SHA256))
def test_telescoping_bits_are_pinned(name, n, bits):
    poly = _PINNED_POLYGONS[name]()
    check = moments.moment_table(poly, 2 * n, bits)
    digests = []
    for t in (check, moments._rounded_table(check, bits - 64)):
        r, partials = content.rho_n_telescoping(poly, n, table=t)
        assert r.method == content.METHOD_TELESCOPING and partials[-1] == r.value
        digests.append(_sha256((r.value._mpf_, repr(r.condition_estimate),
                                [v._mpf_ for v in partials])))
    assert tuple(digests) == _TELESCOPING_SHA256[(name, n, bits)]


@pytest.mark.parametrize("bits,message", [
    (368, "Gram pivot 10 is -1.7106e-69; polygon degenerate or precision exhausted"),
    (304, "Gram pivot 10 is -2.51674e-51; polygon degenerate or precision exhausted"),
])
def test_gram_not_pd_message_is_pinned(bits, message):
    poly = _PINNED_POLYGONS["far-triangle"]()
    t = moments.moment_table(poly, 20, 368)
    if bits < 368:
        t = moments._rounded_table(t, bits)
    for solve in (content.rho_n, content.rho_n_partials):
        with pytest.raises(GramNotPD) as info:
            solve(poly, 10, table=t)
        assert str(info.value) == message


def _tampered(t, parts):
    """t with the complex parts of parts' keys, m >= n, replaced; every
    other entry is rounded from t's own kernel pass."""
    bad = moments._Half(t.maxdeg, "c", dict(parts), t.complex_entries._pass, t.precision_bits)
    return dataclasses.replace(t, complex_entries=bad)


def test_gram_not_pd_on_tampered_table(square):
    t = moments.moment_table(square, 6)
    tampered = _tampered(t, {(1, 1): (-1, 0, 0, 0)})  # c[1][1] = -1 breaks definiteness
    for solve in (content.rho_n, content.rho_n_partials, content.rho_n_telescoping):
        with pytest.raises(GramNotPD):
            solve(square, 2, table=tampered)


def test_gram_not_pd_at_an_interior_pivot(square):
    # the diagonal stays positive, so only the factorization can see that
    # c[0][3] = 10 (against c[0][0] = 1 and a small c[3][3]) makes G indefinite
    t = moments.moment_table(square, 10)
    tampered = _tampered(t, {(3, 0): (10, 0, 0, 0)})  # and c[0][3], its conjugate
    for solve in (content.rho_n, content.rho_n_partials):
        with pytest.raises(GramNotPD, match="pivot 3 "):
            solve(square, 4, table=tampered)
    with pytest.raises(GramNotPD, match="degree 3 "):
        content.rho_n_telescoping(square, 4, table=tampered)


@pytest.mark.parametrize("target,message", [
    ((0, 0), "norm of conj(z) is 0.0; polygon degenerate or precision exhausted"),
    (moments._nearest(1, 10**30, 0, 300),  # 1e-30 at 300 bits
     "negative residual -0.103556 at 256 bits; precision exhausted"),
], ids=["zero-norm", "negative-residual"])
def test_gram_not_pd_on_the_target_norm(target, message):
    # G = c[0][0] is fine at N = 0; only the bordered row's c[1][1] is tampered
    poly = geometry.polygon_new([(0, 0), (1, 0), (0.3, 0.8)])
    t = moments.moment_table(poly, 2)
    tampered = _tampered(t, {(1, 1): target + (0, 0)})
    for solve in (content.rho_n, content.rho_n_partials):
        with pytest.raises(GramNotPD) as info:
            solve(poly, 0, table=tampered)
        assert str(info.value) == message


def test_telescoping_raises_on_a_negative_residual():
    # at N = 0 the residual c[1][1] - |c[0][1]|^2 / c[0][0] goes negative with
    # c[1][1] = 2^-100; at N >= 1 the Gram-Schmidt norm check would fire first
    poly = geometry.polygon_new([(0, 0), (1, 0), (0.3, 0.8)])
    tampered = _tampered(moments.moment_table(poly, 2), {(1, 1): (1, -100, 0, 0)})
    with pytest.raises(GramNotPD, match="^negative residual -.* at 256 bits; precision exhausted$"):
        content.rho_n_telescoping(poly, 0, table=tampered)


@pytest.mark.parametrize("n", [5, 18])
def test_solve_agrees_with_telescoping(any_polygon, n):
    prec = moments.precision_for_degree(n)
    table = moments.moment_table(any_polygon, 2 * n + 2, prec)
    direct = content.rho_n(any_polygon, n, prec, table=table)
    telescoped, telescoped_partials = content.rho_n_telescoping(any_polygon, n, prec,
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
    t, _ = content.rho_n_telescoping(square, 2, precision_bits=512)
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


@pytest.mark.parametrize("call, error", [
    (lambda tri, mill: content.rho1_closed(tri, 8), PrecisionTooLow),
    (lambda tri, mill: content.rho1_closed(tri, 300.5), TypeError),
    (lambda tri, mill: content.rho2_closed(tri, 8), PrecisionTooLow),  # area 0.4 too
    (lambda tri, mill: content.rho2_closed(mill, 8), PrecisionTooLow),
], ids=["rho1-8-bits", "rho1-fractional-bits", "rho2-8-bits-off-area", "rho2-8-bits"])
def test_closed_forms_check_precision_before_any_work(triangle, frame_work, call, error):
    windmill = geometry.make_windmill(2)
    frame_work.update(image=0, area=0, fingerprint=0)
    with pytest.raises(error):
        call(triangle, windmill)
    assert frame_work["image"] == 0


def test_closed_forms_take_none_for_the_default_precision(square):
    assert content.rho1_closed(square, None) == content.rho1_closed(square)
    assert content.rho2_closed(square, None) == content.rho2_closed(square)


def _fixed_point_pivots(t, n, prec):
    """(pivots, exps, w): G's pivots as _ldl_solve's ints at scale 2^w,
    pivot k worth pivots[k] 2^(-w - 2 exps[k]), from a plain factorization
    of the same fixed-point system: each entry shifted as the solve shifts
    it, four multiplications to a complex product, one shift per sum."""
    w, dim, parts = prec + content._GUARD_BITS, n + 1, t.complex_entries._parts
    exps = [-((exp + man.bit_length()) >> 1) for man, exp in
            (parts((k, k))[:2] for k in range(dim))]

    def fixed(man, exp):
        if exp >= 0:
            return man << exp
        return man >> -exp if man >= 0 else -(-man >> -exp)

    lower, factor, pivots = {}, {}, []  # W = L D and L, as (re, im) ints
    for j in range(dim):
        for i in range(j, dim):
            rm, re, im, ie = parts((j, i))  # G[i][j] = c[j][i]
            shift = w + exps[i] + exps[j]
            acc_re = acc_im = 0
            for k in range(j):  # W[i][k] conj(L[j][k])
                (a, b), (c, d) = lower[i, k], factor[j, k]
                acc_re += a * c + b * d
                acc_im += b * c - a * d
            lower[i, j] = (fixed(rm, re + shift) - (acc_re >> w),
                           0 if i == j else fixed(im, ie + shift) - (acc_im >> w))
        pivots.append(lower[j, j][0])
        for i in range(j + 1, dim):
            a, b = lower[i, j]
            factor[i, j] = ((a << w) // pivots[j], (b << w) // pivots[j])
    return pivots, exps, w


def _condition_by_every_pivot(t, n, prec):
    """The condition estimate as the solve formed it before it picked the
    extreme pivots among its ints: every pivot rounded to an mpf at
    prec + 32 bits, then float(max / min) at prec + 32 bits."""
    pivots, exps, w = _fixed_point_pivots(t, n, prec)
    with mp.workprec(prec + 32):
        rounded = [mp.make_mpf(from_man_exp(d, -w - 2 * e, prec + 32, round_nearest))
                   for d, e in zip(pivots, exps)]
        return float(max(rounded) / min(rounded))


_CONDITION_POLYGONS = (
    [(f"star-{v}", lambda v=v: geometry.random_star_polygon(v, seed=10 + v)) for v in range(3, 10)]
    + [(f"windmill-{a}", lambda a=a: geometry.make_windmill(a)) for a in (0.6, 2, 7)]
    + [(f"pentagon-{th}-{ph}", lambda th=th, ph=ph: geometry._pentagon_member(th, ph))
       for th, ph in ((96, 132), (108, 108), (150, 60))])


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
def test_condition_estimate_is_the_ratio_of_the_rounded_extreme_pivots(n):
    # at the policy's precision and 64 bits finer, as rho solves them
    for name, build in _CONDITION_POLYGONS:
        poly = build()
        for prec in (moments.precision_for_degree(n), moments.precision_for_degree(n) + 64):
            table = moments.moment_table(poly, content._gram_degree(n), prec)
            got = content.rho_n(poly, n, table=table).condition_estimate
            assert repr(got) == repr(_condition_by_every_pivot(table, n, prec)), (name, prec)


def test_condition_estimate_with_tied_pivots():
    # G = diag(2, 8, 2, 8): pivots 1 and 3 tie for the largest, 0 and 2 for
    # the least, and the estimate is 4, while the scaled diagonal, and so
    # every int pivot, is 1/2.  b[k] = c[0][k+1] is G[0][k+1] but for b[3];
    # t = c[1][1] is G[1][1]
    n, prec = 3, 256
    diag = {0: (1, 1), 1: (1, 3), 2: (1, 1), 3: (1, 3)}
    complex_parts = {(m, k): diag[m] + (0, 0) if m == k and m in diag else (0, 0, 0, 0)
                     for m, k in moments._table_keys(2 * n, "c")}
    complex_parts[4, 0] = (1, -3, 1, -4)  # b[3] = conj(c[4][0])
    table = moments.MomentTable("0", 2 * n, prec, moments._Half(2 * n, "c", complex_parts),
                                moments._Half(2 * n, "I", {}))
    pivots, _, w = _fixed_point_pivots(table, n, prec)
    assert pivots == [1 << (w - 1)] * 4
    _, cond, _ = content._ldl_solve(table, n, prec)
    assert repr(cond) == repr(_condition_by_every_pivot(table, n, prec)) == "4.0"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_condition_estimate_of_a_polygon_whose_pivots_tie(n):
    # the right isosceles triangle with legs 3 about its centroid: c[0][0] =
    # c[1][1] = 9/2 and c[1][0] = 0, so pivots 0 and 1 are equal
    poly = geometry.polygon_new([(-1, -1), (2, -1), (-1, 2)])
    for prec in (256, 320):
        table = moments.moment_table(poly, 2 * n, prec)
        pivots, exps, _ = _fixed_point_pivots(table, n, prec)
        common = [d << 2 * (max(exps) - e) for d, e in zip(pivots, exps)]
        assert common[0] == common[1]
        _, cond, _ = content._ldl_solve(table, n, prec)
        assert repr(cond) == repr(_condition_by_every_pivot(table, n, prec))
