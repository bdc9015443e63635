import itertools
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

from polyrho import content, geometry, moments
from polyrho.errors import (
    AngleOutOfRange,
    ApexDegenerate,
    ConstraintViolated,
    DegenerateFamilyParameter,
    DegenerateVertex,
    GeometryError,
    NonpositiveBase,
    NonpositiveScale,
    NotSimple,
    TooFewVertices,
)


def test_polygon_new_reverses_clockwise_input():
    ccw = geometry.polygon_new([(0, 0), (1, 0), (0, 1)])
    cw = geometry.polygon_new([(0, 0), (0, 1), (1, 0)])
    assert geometry.area(ccw) > 0
    assert geometry.area(cw) > 0
    assert set(map(tuple, cw.vertices)) == set(map(tuple, ccw.vertices))


def test_polygon_new_rejects_bad_input():
    with pytest.raises(TooFewVertices):
        geometry.polygon_new([(0, 0), (1, 0)])
    with pytest.raises(DegenerateVertex):
        geometry.polygon_new([(0, 0), (0, 0), (1, 0), (0, 1)])
    with pytest.raises(NotSimple):
        geometry.polygon_new([(0, 0), (1, 1), (1, 0), (0, 1)])  # bowtie
    with pytest.raises(NotSimple):
        geometry.polygon_new([(0, 0), (1, 0), (2, 0)])  # collinear
    with pytest.raises(NotSimple):
        geometry.polygon_new([(0, 0), (2, 0), (1, 0), (1, 1)])  # boundary spike


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_polygon_new_rejects_non_finite_coordinates(bad):
    # bad input, named by vertex: nan passes every geometric comparison and
    # would surface only as a numerical failure of the Gram solve
    with pytest.raises(GeometryError, match="vertex 2 is not finite"):
        geometry.polygon_new([(0, 0), (1, 0), (bad, 1)])
    with pytest.raises(GeometryError, match="vertex 1 is not finite"):
        geometry.polygon_new([(0, 0), (0.5, bad), (0, 1)])


def _vertex_on_edge_pentagons(draws, seed=1):
    """Pentagons A, B, (1, 3), M, (-1, 2) with M = A + (k/256)(B - A) on the
    non-adjacent edge AB.  A and B have coordinates +-1 + j 2^-318, j < 2^300;
    only draws whose M also fits in 320 bits are kept, so every vertex is exact."""
    rng = random.Random(seed)
    one = 1 << 318
    out = []
    for _ in range(draws):
        a, b = ([rng.choice((-one, one)) + rng.randrange(1 << 300) for _ in "xy"] for _ in "ab")
        k = rng.randrange(1, 256)
        m = [256 * ai + k * (bi - ai) for ai, bi in zip(a, b)]  # at scale 2^326
        if all((c // (c & -c)).bit_length() <= 320 for c in m if c):
            with mp.workprec(geometry.GEOMETRY_MIN_BITS):
                out.append([(mp.ldexp(x, -s), mp.ldexp(y, -s)) for (x, y), s in
                            ((a, 318), (b, 318), ((1, 3), 0), (m, 326), ((-1, 2), 0))])
    return out


def test_vertex_on_a_non_adjacent_edge_is_not_simple():
    # orientation signs rounded at 320 bits let 8 of these 133 pass; the
    # clockwise draws are reversed, which puts M on edge 3
    pentagons = _vertex_on_edge_pentagons(4000)
    assert len(pentagons) >= 100
    for pts in pentagons:
        with pytest.raises(NotSimple, match="edges 0 and [23] intersect"):
            geometry.polygon_new(pts)


def _touch_reference(p1, p2, p3, p4):
    """Whether segments p1p2 and p3p4 (p1 != p2) meet, in exact rationals."""
    dx, dy = p2[0] - p1[0], p2[1] - p1[1]
    ex, ey = p4[0] - p3[0], p4[1] - p3[1]
    fx, fy = p3[0] - p1[0], p3[1] - p1[1]
    den = dx * ey - dy * ex
    if den:  # p1 + t d = p3 + s e at one point
        t = Fraction(fx * ey - fy * ex, den)
        s = Fraction(fx * dy - fy * dx, den)
        return 0 <= t <= 1 and 0 <= s <= 1
    if fx * dy - fy * dx:  # parallel, on different lines
        return False
    # collinear: the parameters of p3 and p4 along p1 + t d against [0, 1]
    norm = dx * dx + dy * dy
    t3 = Fraction(fx * dx + fy * dy, norm)
    t4 = t3 + Fraction(ex * dx + ey * dy, norm)
    return max(min(t3, t4), 0) <= min(max(t3, t4), 1)


def test_segments_touch_matches_exact_reference():
    grid = [(x, y) for x in range(4) for y in range(4)]
    segments = list(itertools.combinations(grid, 2))
    for s, t in itertools.product(segments, repeat=2):
        assert geometry._segments_touch(*s, *t) == _touch_reference(*s, *t), (s, t)


def test_tiny_coordinate_builds_quickly():
    # a coordinate 2^-3.3e9 below the others lies beyond the integer image's
    # 2^4096 span and is truncated, not shifted into a 3.3e9-bit int
    start = time.process_time()
    p = geometry.polygon_new([(0, 0), (1, 0), (1, 1), ("1e-1000000000", 1)])
    assert time.process_time() - start < 0.5
    assert geometry.area(p) > 0


def test_vertices_merged_by_the_integer_image_are_degenerate():
    # 1e-2000 is below the integer image's 2^-4096 resolution, so vertex 1
    # lands on vertex 0: the vertices are named, not the edges that then meet
    with pytest.raises(DegenerateVertex, match="vertices 0 and 1 .*2\\^-4096"):
        geometry.polygon_new([(0, 0), ("1e-2000", 0), (1, 0), (1, 1), (0, 1)])


def test_orientation_is_exact_where_the_area_rounds_away():
    # twice the area is k 2^-280 while the cross products reach 2^66: a sum
    # rounded at 320 bits cancels to 0, the sum over the integer image does not
    b = mp.mpf(2) ** 33
    for k in range(1, 200):
        with mp.workprec(400):  # the vertices are exact; the build runs at 320 bits
            pts = ((b, b), (b + 1, b), (b + mp.mpf(1) / 2, b + k * mp.ldexp(1, -280)))
        assert geometry.polygon_new(pts).vertices == pts  # counterclockwise
        assert geometry.polygon_new(pts[::-1]).vertices == pts  # reversed to it


def test_area_and_centroid_of_square(square):
    assert abs(geometry.area(square) - 1) < mp.mpf("1e-70")
    cx, cy = geometry.centroid(square)
    assert abs(cx) < mp.mpf("1e-70")
    assert abs(cy) < mp.mpf("1e-70")


def test_transforms(triangle):
    a0 = geometry.area(triangle)
    assert abs(geometry.area(geometry.translate(triangle, (3, -1))) - a0) < mp.mpf("1e-60")
    assert abs(geometry.area(geometry.rotate(triangle, 1.1)) - a0) < mp.mpf("1e-60")
    assert abs(geometry.area(geometry.scale(triangle, 2)) - 4 * a0) < mp.mpf("1e-60")
    with pytest.raises(NonpositiveScale):
        geometry.scale(triangle, 0)
    norm = geometry.normalize(triangle)
    assert abs(geometry.area(norm) - 1) < mp.mpf("1e-60")
    cx, cy = geometry.centroid(norm)
    assert abs(cx) < mp.mpf("1e-60") and abs(cy) < mp.mpf("1e-60")


def test_fingerprint_sensitivity(square, triangle):
    assert geometry.fingerprint(square) == geometry.fingerprint(
        geometry.polygon_new([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]))
    assert geometry.fingerprint(square) != geometry.fingerprint(triangle)
    assert geometry.fingerprint(square) != geometry.fingerprint(
        geometry.translate(square, (1e-20, 0)))


@pytest.mark.parametrize("a", [0.3, 1, 2, 10])
def test_windmill_unit_area(a):
    g = geometry.make_windmill(a)
    assert len(g) == 6
    assert abs(geometry.area(g) - 1) < mp.mpf("1e-60")


def test_windmill_rejects_bad_parameter():
    with pytest.raises(DegenerateFamilyParameter):
        geometry.make_windmill(0)
    with pytest.raises(DegenerateFamilyParameter):
        geometry.make_windmill(-2)


def test_windmill_regular_hexagon_case():
    # eps equals a exactly when a^4 = 4/27; the vertices then sit at the six
    # corners of a regular hexagon
    a = (mp.mpf(4) / 27) ** mp.mpf("0.25")
    g = geometry.make_windmill(a)
    radii = [mp.sqrt(x * x + y * y) for x, y in g.vertices]
    assert max(radii) - min(radii) < mp.mpf("1e-50")


def test_triangle_fixed_base():
    t = geometry.make_triangle_fixed_base(3, 1.0)
    assert abs(geometry.area(t) - 1) < mp.mpf("1e-60")
    ys = sorted(float(y) for x, y in t.vertices if x == 0)
    assert ys == [0.0, 3.0]
    with pytest.raises(NonpositiveBase):
        geometry.make_triangle_fixed_base(0, 1)


def test_triangle_fixed_angle():
    with mp.workprec(320):
        theta = mp.pi / 3
        t = geometry.make_triangle_fixed_angle(theta, 2)
        assert abs(geometry.area(t) - 1) < mp.mpf("1e-60")
        cx, cy = geometry.centroid(t)
        assert abs(cx) < mp.mpf("1e-60") and abs(cy) < mp.mpf("1e-60")
        # recover the interior angle between the two sides of prescribed length
        sides = []
        n = len(t.vertices)
        for i in range(n):
            x0, y0 = t.vertices[i]
            x1, y1 = t.vertices[(i + 1) % n]
            sides.append(mp.sqrt((x1 - x0) ** 2 + (y1 - y0) ** 2))
        a, b, c = sorted(sides)
        angles = []
        for opp, s1, s2 in ((a, b, c), (b, a, c), (c, a, b)):
            angles.append(mp.acos((s1 ** 2 + s2 ** 2 - opp ** 2) / (2 * s1 * s2)))
        assert min(abs(ang - theta) for ang in angles) < mp.mpf("1e-40")
    with pytest.raises(AngleOutOfRange):
        geometry.make_triangle_fixed_angle(0, 1)
    with pytest.raises(AngleOutOfRange):
        geometry.make_triangle_fixed_angle(3.2, 1)


def test_equilateral_pentagon_sides_and_area():
    p = geometry.make_equilateral_pentagon(mp.pi * 0.6, mp.pi * 0.59)
    assert len(p) == 5
    assert abs(geometry.area(p) - 1) < mp.mpf("1e-60")
    lens = []
    for i in range(5):
        x0, y0 = p.vertices[i]
        x1, y1 = p.vertices[(i + 1) % 5]
        lens.append(mp.sqrt((x1 - x0) ** 2 + (y1 - y0) ** 2))
    assert max(lens) - min(lens) < mp.mpf("1e-50")


def test_equilateral_pentagon_constraints():
    with pytest.raises(ConstraintViolated):
        geometry.make_equilateral_pentagon(2.95, 2.95)  # closing chord too long
    with pytest.raises(ConstraintViolated):
        geometry.make_equilateral_pentagon(0.2, 0.1)  # known sides cross
    with pytest.raises(ApexDegenerate):
        geometry.make_equilateral_pentagon(mp.pi / 3, mp.pi / 3)  # endpoints meet
    with pytest.raises(ApexDegenerate):
        # theta = phi = 2pi/3 puts the closing chord at length exactly 2
        geometry.make_equilateral_pentagon(2 * mp.pi / 3, 2 * mp.pi / 3)
    with pytest.raises(AngleOutOfRange):
        geometry.make_equilateral_pentagon(-0.3, 1.0)


def test_equilateral_pentagon_regular_case_matches_ngon():
    reg = geometry.make_equilateral_pentagon(mp.pi * 108 / 180, mp.pi * 108 / 180)
    ngon = geometry.make_regular_ngon(5)
    # same shape up to rigid motion: compare sorted pairwise vertex distances
    def dists(p):
        out = []
        for i in range(5):
            for j in range(i + 1, 5):
                xi, yi = p.vertices[i]
                xj, yj = p.vertices[j]
                out.append(mp.sqrt((xi - xj) ** 2 + (yi - yj) ** 2))
        return sorted(out)
    for u, v in zip(dists(reg), dists(ngon)):
        assert abs(u - v) < mp.mpf("1e-40")


def test_regular_ngon():
    for n in (3, 4, 7):
        g = geometry.make_regular_ngon(n)
        assert len(g) == n
        assert abs(geometry.area(g) - 1) < mp.mpf("1e-60")
    with pytest.raises(TooFewVertices):
        geometry.make_regular_ngon(2)


def test_random_star_polygon_deterministic():
    p1 = geometry.random_star_polygon(7, seed=11)
    p2 = geometry.random_star_polygon(7, seed=11)
    p3 = geometry.random_star_polygon(7, seed=12)
    assert p1.vertices == p2.vertices
    assert p1.vertices != p3.vertices
    with pytest.raises(TooFewVertices):
        geometry.random_star_polygon(2)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_steiner_preserves_area_and_centers_slices(axis):
    p = geometry.make_windmill(3)
    s = geometry.steiner_symmetrize(p, axis)
    assert abs(geometry.area(s) - geometry.area(p)) < mp.mpf("1e-40")
    # all slices centered on the axis: moments odd in the slice direction vanish
    t = moments.moment_table(s, 3)
    m, n = (0, 1) if axis == "x" else (1, 0)
    assert abs(t.real(m, n)) < mp.mpf("1e-40")
    assert abs(t.real(1, 1)) < mp.mpf("1e-40")
    assert abs(t.real(2 * m, 3 * n) if axis == "x" else t.real(3 * m, 2 * n)) < mp.mpf("1e-40")


def test_steiner_on_symmetric_input_is_identity_up_to_vertices(square):
    s = geometry.steiner_symmetrize(square, "x")
    assert abs(geometry.area(s) - 1) < mp.mpf("1e-40")
    for x, y in s.vertices:
        assert abs(abs(x) - 0.5) < mp.mpf("1e-40")
        assert abs(abs(y) - 0.5) < mp.mpf("1e-40")


def test_steiner_on_regular_pentagon_keeps_it():
    # the pentagon is symmetric about the x axis; its mirror vertices'
    # abscissas, from cos 72 and cos 288 degrees, differ only by roundoff
    p = geometry.make_regular_ngon(5)
    s = geometry.steiner_symmetrize(p, "x")
    assert abs(geometry.area(s) - 1) < mp.mpf("1e-30")
    assert abs(content.rho1_closed(s) - content.rho1_closed(p)) < mp.mpf("1e-30")


def test_steiner_rejects_bad_axis(square):
    with pytest.raises(ValueError):
        geometry.steiner_symmetrize(square, "z")


def test_polygon_file_round_trip(tmp_path, pentagon):
    path = tmp_path / "pentagon.txt"
    geometry.write_polygon(pentagon, path)
    back = geometry.read_polygon(path)
    assert len(back) == len(pentagon)
    for (x0, y0), (x1, y1) in zip(pentagon.vertices, back.vertices):
        assert abs(x0 - x1) < mp.mpf("1e-45")
        assert abs(y0 - y1) < mp.mpf("1e-45")


def test_read_polygon_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0\n1 0 7\n0 1\n")
    with pytest.raises(ValueError):
        geometry.read_polygon(path)


def test_family_spec_validation():
    with pytest.raises(ValueError):
        geometry.FamilySpec("hexagon", (), ("a",))
    with pytest.raises(ValueError):
        geometry.FamilySpec("windmill", (("a", 1.0),), ("a",))  # duplicated
    with pytest.raises(ValueError):
        geometry.FamilySpec("triangle-base", (("a", 3.0),), ())  # lambda missing
    spec = geometry.FamilySpec("triangle-base", (("a", 3.0),), ("lambda",))
    with pytest.raises(ValueError):
        spec.build()  # free value not supplied
    t = spec.build(1.5)
    assert abs(geometry.area(t) - 1) < mp.mpf("1e-60")


def test_build_family_pentagon_takes_degrees():
    spec = geometry.FamilySpec("pentagon", (), ("theta_deg", "phi_deg"))
    p = spec.build(108, 108)
    with mp.workprec(geometry.GEOMETRY_MIN_BITS):
        ang = mp.mpf(108) * mp.pi / 180
    q = geometry.make_equilateral_pentagon(ang, ang)
    assert p.vertices == q.vertices


@pytest.fixture
def simplicity_checks(monkeypatch):
    """The number of _check_simple calls so far, as a one-element list."""
    calls = [0]
    check = geometry._check_simple

    def counted(*args):
        calls[0] += 1
        return check(*args)

    monkeypatch.setattr(geometry, "_check_simple", counted)
    return calls


@pytest.mark.parametrize("kind, params", [
    ("windmill", {"a": 2}),
    ("triangle-base", {"a": 3, "lambda": 1.2}),
    ("triangle-angle", {"theta": 1.1, "a": 2}),
    ("pentagon", {"theta_deg": 108, "phi_deg": 110}),
    ("regular-ngon", {"n": 5}),
])
def test_family_build_checks_simplicity_once(simplicity_checks, kind, params):
    geometry.build_family(kind, params)
    assert simplicity_checks[0] == 1


def test_similarity_maps_do_not_check_simplicity(pentagon, simplicity_checks):
    geometry.translate(pentagon, (3, -1))
    geometry.rotate(pentagon, 1.1)
    geometry.scale(pentagon, 2)
    geometry.normalize(pentagon)
    assert simplicity_checks[0] == 0


def test_similarity_maps_reject_what_they_can_break(triangle):
    # at 320 bits, -0.5 + 2^-400 rounds to -0.5, so vertices 1 and 2 merge
    thin = geometry.polygon_new([(0, 0), (1, 0), (1, mp.mpf(2) ** -400), (0, 1)])
    with pytest.raises(DegenerateVertex, match="vertices 1 and 2 coincide"):
        geometry.translate(thin, (-0.5, -0.5))
    with pytest.raises(GeometryError, match="not finite"):
        geometry.translate(triangle, ("inf", 0))
    with pytest.raises(GeometryError, match="not finite"):
        geometry.rotate(triangle, "nan")
    with pytest.raises(GeometryError, match="not finite"):
        geometry.scale(triangle, "inf")
