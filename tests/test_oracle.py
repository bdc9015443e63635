import pytest
from mpmath import mp

from polyrho import content, geometry, moments, oracle
from polyrho.errors import IllConditioned, NumericalError


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


@pytest.mark.parametrize("base, s, offset", [(TRIANGLE, 1e-2, 100.0), (TRIANGLE, 1.5e-3, 100.0),
                                             (TRIANGLE, 1e-4, 1.0), (TRIANGLE, 1e-5, 1.0),
                                             (SLIVER, 1.0, 0.0)])
def test_oracle_rho_returns_or_refuses_off_frame(base, s, offset):
    """Small copies far from the origin, and a 1 x 1e-5 sliver: the oracle
    raises, or returns within 1e-9 of s^4 rho_N(T) computed at 800 bits."""
    poly = _off_frame(base, s, offset)
    for n in (3, 10):
        ref = mp.mpf(s) ** 4 * content.rho_n(geometry.polygon_new(base), n, 800).value
        try:
            got = oracle.oracle_rho_n(poly, n)
        except NumericalError:
            continue
        assert _rel(got, ref) < 1e-9
