import pytest
from mpmath import mp

from polyrho import content, geometry, moments, oracle
from polyrho.errors import IllConditioned


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


def test_oracle_rho_reports_its_own_breakdown(triangle):
    with pytest.raises(IllConditioned):
        oracle.oracle_rho_n(triangle, 25)
    with pytest.raises(ValueError):
        oracle.oracle_rho_n(triangle, -1)
