import itertools
import pickle
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


def _made_every_way():
    """Polygons from each way one is made: a vertex list in either order, the
    maps, a family build and a Steiner symmetrization."""
    star = geometry.random_star_polygon(7, 2)
    return [star, geometry.polygon_new(star.vertices[::-1]),
            geometry.polygon_new([(0, 0), (1, 0), (0.3, 0.8)]),
            geometry.translate(star, (3, -1)), geometry.rotate(star, 0.7),
            geometry.scale(star, "1e-30"), geometry.normalize(star),
            geometry.build_family("pentagon", {"theta_deg": 100, "phi_deg": 120}),
            geometry.steiner_symmetrize(geometry.make_windmill(2))]


def test_polygons_keep_the_frame_of_their_stored_vertices():
    for p in _made_every_way():
        pts, low, top = geometry._int_image(p.vertices)
        assert p._frame == (tuple(pts), low, top, geometry._twice_signed_area(pts))
        assert p._frame.twice_area > 0
        # a polygon made any other way computes the same frame on first use
        bare = geometry.Polygon(p.vertices)
        assert "_frame" not in vars(bare) and bare._frame == p._frame


def test_kept_frame_and_fingerprint_leave_equality_hash_and_repr_alone():
    for p in _made_every_way():
        bare = geometry.Polygon(p.vertices)
        assert geometry.fingerprint(p) == p._fingerprint
        assert bare == p and hash(bare) == hash(p) and repr(bare) == repr(p)


def test_pickled_polygon_round_trips_with_its_frame():
    for p in _made_every_way():
        assert p._fingerprint == geometry.fingerprint(p)
        back = pickle.loads(pickle.dumps(p))
        assert back == p
        assert vars(back)["_frame"] == p._frame
        assert vars(back)["_fingerprint"] == p._fingerprint


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


def test_pentagon_membership_is_the_simplicity_test():
    # the chord's normal points toward the base midpoint at the first three,
    # yet each is a simple pentagon with the requested angles; (30, 60)
    # crosses itself.  polygon_new's exact simplicity test decides both
    spec = geometry.FamilySpec("pentagon", (), ("theta_deg", "phi_deg"))
    for angles in ((1, 90), (174, 1), (12, 96)):
        v = spec.build(*angles).vertices
        with mp.workprec(geometry.GEOMETRY_MIN_BITS):
            # interior angles at the images of (0,0) and (1,0), counterclockwise
            for i, deg in zip((0, 1), angles):
                (ax, ay), (bx, by) = [(q[0] - v[i][0], q[1] - v[i][1])
                                      for q in (v[i + 1], v[i - 1])]
                got = mp.atan2(ax * by - ay * bx, ax * bx + ay * by)
                assert abs(got - mp.radians(deg)) < mp.mpf("1e-80")
    with pytest.raises(ConstraintViolated, match="the pentagon crosses itself"):
        spec.build(30, 60)


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


def _crossing_width(verts, x):
    """The length of the line at abscissa x inside the polygon through verts,
    x no vertex's abscissa: the edges' crossings sorted and paired."""
    ys = sorted(y0 + (x - x0) * (y1 - y0) / (x1 - x0)
                for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1])
                if min(x0, x1) < x < max(x0, x1))
    return sum(ys[1::2]) - sum(ys[::2])


# vertical edges at shared abscissas, and slices in three parts about x
_COMB = ((0, 0), (1, 0), (1, 5), (0, 5), (0, 4), (0.6, 4), (0.6, 3),
         (0, 3), (0, 2), (0.6, 2), (0.6, 1), (0, 1))


@pytest.mark.parametrize("axis", ["x", "y"])
def test_steiner_on_a_comb(axis):
    p = geometry.polygon_new(_COMB)
    s = geometry.steiner_symmetrize(p, axis)
    tol = mp.mpf(2) ** -300
    with mp.workprec(320):
        assert abs(geometry.area(s) - geometry.area(p)) < tol
        t = moments.moment_table(s, 3, 320)
        odd = [(m, n) for m in range(4) for n in range(4 - m)
               if (n if axis == "x" else m) % 2]
        assert all(abs(t.real(m, n)) < tol for m, n in odd)
        swap = (lambda v: v) if axis == "x" else (lambda v: [(y, x) for x, y in v])
        before, after = swap(p.vertices), swap(s.vertices)
        xs = sorted({x for x, _ in before})
        for x0, x1 in zip(xs, xs[1:]):
            mid = (x0 + x1) / 2
            assert abs(_crossing_width(after, mid) - _crossing_width(before, mid)) < tol


@pytest.mark.parametrize("s", ["1e-50", "1e60"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_steiner_commutes_with_scaling(axis, s):
    # the breakpoint merge is relative to the largest coordinate, so a copy
    # scaled by s symmetrizes to s times the unit-scale output
    for p in (geometry.make_regular_ngon(5), geometry.make_windmill(5),
              geometry.random_star_polygon(8, 3), geometry.polygon_new(_COMB)):
        unit = geometry.steiner_symmetrize(p, axis).vertices
        scaled = geometry.steiner_symmetrize(geometry.scale(p, s), axis).vertices
        assert len(scaled) == len(unit)
        with mp.workprec(geometry.GEOMETRY_MIN_BITS):
            r = mp.mpf(s)
            tol = mp.ldexp(r * max(abs(c) for v in unit for c in v), -250)
            for (x0, y0), (x1, y1) in zip(unit, scaled):
                assert abs(x1 - r * x0) <= tol and abs(y1 - r * y0) <= tol


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


def test_written_polygons_read_back_exactly(tmp_path):
    path = tmp_path / "polygon.txt"
    shapes = [geometry.make_regular_ngon(5), geometry.make_windmill(2),
              geometry.random_star_polygon(9, 4)]
    for p in shapes + [geometry.scale(q, s) for q in shapes for s in ("1e-60", "1e60")]:
        geometry.write_polygon(p, path)
        assert geometry.fingerprint(geometry.read_polygon(path)) == geometry.fingerprint(p)


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


def test_build_family_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown family 'nope'"):
        geometry.build_family("nope", {})


def test_build_family_rejects_a_missing_or_an_extra_key():
    with pytest.raises(ValueError, match=r"takes parameters \('a', 'lambda'\)"):
        geometry.build_family("triangle-base", {"a": 3})
    with pytest.raises(ValueError, match="family 'windmill' has no parameter 'b'"):
        geometry.build_family("windmill", {"a": 2, "b": 1})


def test_triangle_fixed_angle_rejects_a_nonpositive_side():
    with pytest.raises(NonpositiveBase):
        geometry.make_triangle_fixed_angle(1, 0)


def test_triangle_base_has_no_twin_for_an_int_base():
    # the mirror apex a - lambda is taken only for a finite float a
    assert geometry.FamilySpec("triangle-base", (("a", 3),), ("lambda",)).twin(1.0) is None


def test_build_family_pentagon_takes_degrees():
    spec = geometry.FamilySpec("pentagon", (), ("theta_deg", "phi_deg"))
    p = spec.build(108, 108)
    with mp.workprec(geometry.GEOMETRY_MIN_BITS):
        ang = mp.mpf(108) * mp.pi / 180
    q = geometry.make_equilateral_pentagon(ang, ang)
    assert p.vertices == q.vertices


# geometry.fingerprint of family members and maps, pinned while cos and sin
# were two mpmath calls: mp.cos_sin gives the same bits.  The pentagon
# members span a 30-degree grid; "reflex" marks the non-convex ones.
PINNED_PENTAGON_FINGERPRINTS = {
    (20, 110): "6e7c98d5b55b8a37",  # reflex
    (20, 140): "14f23a11fd252034",  # reflex
    (20, 170): "46419137d0321f89",  # reflex
    (50, 80): "f886c5a735968089",  # reflex
    (50, 110): "cec032e7c585aa09",  # reflex
    (50, 140): "34a6b26cec93c86d",
    (50, 170): "b945ee8fb65fe16b",
    (80, 20): "1e47067069caf04d",  # reflex
    (80, 50): "a1766d097770b830",  # reflex
    (80, 80): "fc21422ac565ab80",
    (80, 110): "8f750e56c41ea330",
    (80, 140): "61c3fd4d1f2b3f8b",
    (80, 170): "56beb4e43b017986",
    (110, 20): "86d810a31fde796a",  # reflex
    (110, 50): "31b4771b980c443b",  # reflex
    (110, 80): "adf77f308744cc4d",
    (110, 110): "8f2c6492dca5a415",
    (140, 20): "65364ba014955dbc",  # reflex
    (140, 50): "993ca1118f59184f",
    (140, 80): "75e72291d00e2fec",
    (170, 20): "18fbe93beb3bf936",  # reflex
    (170, 50): "26065c7e3f43b4cc",
    (170, 80): "a98c851478b0b9f6",
}
PINNED_STAR_FINGERPRINTS = {
    3: "7f8eddec193b0dd6", 4: "2e4b8cb5dc7d9690", 5: "6f19b3937a5381a4",
    6: "70dc679c2ef44977", 7: "4daec6691b9d5885", 8: "5682641c4a642398",
    9: "f853753844a2245a", 10: "d58655d35545d395", 11: "23f872534a29de49",
}
PINNED_NGON_FINGERPRINTS = {
    3: "a5b7cdfc5e96e72a", 4: "b199cc62dae0056a", 5: "a208c3c5e8f2f026",
    6: "cd2027a74c7fcf15", 7: "0f474e1c61bccaf6", 8: "ffcfeb0848b2355f",
}
PINNED_ANGLE_FINGERPRINTS = {
    0.3: "4bcd62db06f6511b", 1.1: "99c7c1cb31ed59ed", 2.5: "5a01eb084ae6e558",
}


def test_member_fingerprints_are_pinned():
    got = {}
    for (th, ph), fp in PINNED_PENTAGON_FINGERPRINTS.items():
        got[th, ph] = geometry.fingerprint(
            geometry.build_family("pentagon", {"theta_deg": th, "phi_deg": ph}))
    assert got == PINNED_PENTAGON_FINGERPRINTS
    # the rest of the 30-degree grid is infeasible
    for th, ph in itertools.product(range(20, 180, 30), repeat=2):
        if (th, ph) not in got:
            with pytest.raises(GeometryError):
                geometry.build_family("pentagon", {"theta_deg": th, "phi_deg": ph})
    assert {v: geometry.fingerprint(geometry.random_star_polygon(v, v))
            for v in PINNED_STAR_FINGERPRINTS} == PINNED_STAR_FINGERPRINTS
    assert {k: geometry.fingerprint(geometry.make_regular_ngon(k))
            for k in PINNED_NGON_FINGERPRINTS} == PINNED_NGON_FINGERPRINTS
    assert {th: geometry.fingerprint(geometry.make_triangle_fixed_angle(th, 1.7))
            for th in PINNED_ANGLE_FINGERPRINTS} == PINNED_ANGLE_FINGERPRINTS
    star = geometry.random_star_polygon(6, 1)
    assert geometry.fingerprint(geometry.rotate(star, 0.7)) == "a8eb63016174e6d4"


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


def _without_angle_caches(patch):
    """Make the angle caches compute anew on every call, by the mpmath
    arithmetic they keep: the members as built before they were cached."""
    def radians(deg, prec, rounding):
        with mp.workprec(prec):
            return mp.make_mpf(deg) * mp.pi / 180

    def cos_sin(rad, prec, rounding):
        with mp.workprec(prec):
            return mp.cos_sin(mp.make_mpf(rad))

    def chain_eps(prec, rounding):
        with mp.workprec(prec):
            return mp.mpf("1e-12")

    patch.setattr(geometry, "_radians", radians)
    patch.setattr(geometry, "_cos_sin", cos_sin)
    patch.setattr(geometry, "_chain_eps", chain_eps)


def _angle_family_members():
    """The raw vertices, or the error, of each member of the benchmark's
    7x7 pentagon grid and of a 9-step triangle-angle sweep, as sweeps build
    them."""
    def raw(make, *params):
        try:
            return [(x._mpf_, y._mpf_) for x, y in make(*params).vertices]
        except GeometryError as exc:
            return type(exc), str(exc)

    degrees = [96 + 6 * i for i in range(7)]
    _, pentagon, _ = geometry._FAMILIES["pentagon"]
    _, triangle, _ = geometry._FAMILIES["triangle-angle"]
    return ([raw(pentagon, th, ph) for th in degrees for ph in degrees]
            + [raw(triangle, 1.2, 0.9 + 0.2375 * i) for i in range(9)])


def test_cached_angles_give_the_members_built_without_them():
    with pytest.MonkeyPatch.context() as patch:
        _without_angle_caches(patch)
        expected = _angle_family_members()
        with mp.workprec(400):
            expected_400 = _angle_family_members()
    built = [i for i, member in enumerate(expected) if isinstance(member, list)]
    assert len(built) == 38 + 9
    # every member built moves with the precision, so none can take a
    # 320-bit angle into a 400-bit build unseen
    assert all(expected[i] != expected_400[i] for i in built)
    caches = (geometry._radians, geometry._cos_sin, geometry._chain_eps)
    for cache in caches:
        cache.cache_clear()
    assert _angle_family_members() == expected  # filling the caches
    assert _angle_family_members() == expected  # warm
    misses = [cache.cache_info().misses for cache in caches]
    with mp.workprec(400):
        assert _angle_family_members() == expected_400
    # seven degree values, the same on both axes, and the triangle's angle:
    # every one a new entry at 400 bits
    assert [cache.cache_info().misses - m for cache, m in zip(caches, misses)] == [7, 8, 1]
    for cache in caches:
        cache.cache_clear()
    assert _angle_family_members() == expected
