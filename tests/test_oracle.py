import pytest
from mpmath import mp

from polyrho import content, geometry, moments, oracle
from polyrho.errors import IllConditioned, NumericalError


def test_oracle_checks_its_degree_before_triangulating(square, monkeypatch):
    calls = []

    def triangulate(p, _inner=oracle.triangulate):
        calls.append(p)
        return _inner(p)
    monkeypatch.setattr(oracle, "triangulate", triangulate)
    with pytest.raises(TypeError):
        oracle.oracle_rho_n(square, 2.0)
    with pytest.raises(ValueError):
        oracle.oracle_rho_n(square, -1)
    assert calls == []


def test_triangulate_covers_polygon(any_polygon):
    mesh = oracle.triangulate(any_polygon)
    assert len(mesh.triangles) == len(any_polygon) - 2
    covered = sum(abs(oracle._tri_area2(t)) / 2.0 for t in mesh.triangles)
    assert abs(covered - float(geometry.area(any_polygon))) < 1e-12
    for t in mesh.triangles:
        assert oracle._tri_area2(t) > 0  # counterclockwise pieces


def test_quadrature_matches_boundary_integrals(any_polygon):
    mesh = oracle.triangulate(any_polygon)
    for m in range(5):
        for n in range(5 - m):
            ref = complex(moments.complex_moment(any_polygon, m, n))
            got = oracle.quad_moment(mesh, m, n)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))


def test_quadrature_rule_is_exact_not_approximate(square):
    # degree argument at or above m+n gives the same answer: the rule is exact,
    # so refining it changes nothing beyond roundoff
    mesh = oracle.triangulate(square)
    z6, w6 = oracle._mesh_nodes(mesh, 6)
    z12, w12 = oracle._mesh_nodes(mesh, 12)
    v6 = complex((w6 * z6 ** 3 * z6.conjugate() ** 3).sum())
    v12 = complex((w12 * z12 ** 3 * z12.conjugate() ** 3).sum())
    assert abs(v6 - v12) < 1e-15


def test_oracle_rho_matches_high_precision(any_polygon):
    for n in (1, 4):
        got = oracle.oracle_rho_n(any_polygon, n)
        ref = content.rho_n(any_polygon, n).value
        assert abs(mp.mpf(got) - ref) / ref < 1e-10


def _rel(got, ref):
    return abs(got - float(ref)) / float(ref)


def test_oracle_rho_matches_rho_n_at_high_degree(any_polygon):
    _, partials = content.rho_n_partials(any_polygon, 33)
    for n in (20, 25, 33):
        assert _rel(oracle.oracle_rho_n(any_polygon, n), partials[n]) < 1e-13


@pytest.mark.long
def test_oracle_rho_windmill_at_n60():
    poly = geometry.make_windmill(2)
    assert _rel(oracle.oracle_rho_n(poly, 60), content.rho_n(poly, 60).value) < 1e-13


TRIANGLE = [(0, 0), (1, 0), (0.3, 0.8)]
SLIVER = [(0, 0), (1, 0), (0.3, 1e-5)]


def _off_frame(base, s, offset):
    # offset + s T with float64 vertices, so triangulate sees the polygon
    # exactly; rounding them moves rho_N by less than 1e-10 of its value
    return geometry.polygon_new([(offset + s * x, offset + s * y) for x, y in base])


def test_oracle_rho_reports_its_own_breakdown(triangle):
    # 2 (N+2) eps |f| / |r| reads 2.4e-9 here; the value would be good to 2e-11,
    # but a bound over 1e-9 is refused, not returned
    with pytest.raises(IllConditioned):
        oracle.oracle_rho_n(_off_frame(TRIANGLE, 1.5e-3, 100.0), 10)
    with pytest.raises(ValueError):
        oracle.oracle_rho_n(triangle, -1)


# off-frame copies offset + s T of T = (0, 0), (1, 0), apex, as the benchmark's
# certify-high-n workload writes them (seeds 1-7 of its milli copy, seed 7 of
# its centi copy): rounding these vertices to float64 moves the area by
# 1.2e-12 to 8.5e-12 of it, so triangulate compares with the rounded vertices
PROBES = {
    "off-milli-1": (("0.217640", "0.765585"), "1.082058e-03", [
        ("102.217282000", "103.892298000"), ("102.218364058", "103.892298000"),
        ("102.217517499103120", "103.893126407373930")]),
    "off-milli-2": (("0.596897", "0.641848"), "1.071017e-03", [
        ("98.665311000", "99.621897000"), ("98.666382017", "99.621897000"),
        ("98.665950286834249", "99.622584430119416")]),
    "off-milli-3": (("0.377846", "0.776442"), "1.364684e-03", [
        ("100.757729000", "102.245939000"), ("100.759093684", "102.245939000"),
        ("100.758244640390664", "102.246998597974328")]),
    "off-milli-4": (("0.419891", "0.954314"), "1.831013e-03", [
        ("103.361490000", "104.195908000"), ("103.363321013", "104.195908000"),
        ("103.362258825879583", "104.197655361340082")]),
    "off-milli-5": (("0.562625", "0.730336"), "1.405272e-03", [
        ("99.123281000", "98.731430000"), ("99.124686272", "98.731430000"),
        ("99.124071641159000", "98.732456320731392")]),
    "off-milli-6": (("0.743344", "0.583087"), "1.408287e-03", [
        ("99.303812000", "101.547573000"), ("99.305220287", "101.547573000"),
        ("99.304858841691728", "101.548394153841969")]),
    "off-milli-7": (("0.516158", "0.784530"), "1.234327e-03", [
        ("104.455703000", "97.979504000"), ("104.456937327", "97.979504000"),
        ("104.456340107755666", "97.980472366561310")]),
    "off-centi-7": (("0.443135", "0.989620"), "1.002373e-02", [
        ("99.01672900", "104.25634500"), ("99.02675273", "104.25634500"),
        ("99.02117086559355", "104.26626468368260")]),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_triangulate_tiles_off_frame_copies(name):
    _, _, vertices = PROBES[name]
    poly = geometry.polygon_new(vertices)
    rounded = [(float(x), float(y)) for x, y in poly.vertices]
    mesh = oracle.triangulate(poly)
    assert [v for t in mesh.triangles for v in t] == rounded
    assert _rel(oracle._tri_area2(mesh.triangles[0]) / 2, geometry.area(poly)) > 1e-12


@pytest.mark.parametrize("base, s, copy", [
    (TRIANGLE, 1e-2, 100.0), (TRIANGLE, 1.5e-3, 100.0), (TRIANGLE, 1e-4, 1.0),
    (TRIANGLE, 1e-5, 1.0), (SLIVER, 1.0, 0.0),
    *(pytest.param([(0, 0), (1, 0), apex], s, vertices, id=name)
      for name, (apex, s, vertices) in sorted(PROBES.items()))])
def test_oracle_rho_returns_or_refuses_off_frame(base, s, copy):
    """Small copies far from the origin, and a 1 x 1e-5 sliver: the oracle
    raises, or returns within 1e-9 of s^4 rho_N(T) computed at 800 bits.
    copy is the offset of a float64 copy, or the copy's literal vertices."""
    poly = geometry.polygon_new(copy) if isinstance(copy, list) else _off_frame(base, s, copy)
    for n in (3, 10):
        ref = mp.mpf(s) ** 4 * content.rho_n(geometry.polygon_new(base), n, 800).value
        try:
            got = oracle.oracle_rho_n(poly, n)
        except NumericalError:
            continue
        assert _rel(got, ref) < 1e-9
