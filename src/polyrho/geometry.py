"""Polygon model, family constructors, affine maps, Steiner symmetrization.

Coordinates are mpmath floats so downstream boundary integrals can run at
arbitrary precision.  Construction always uses at least GEOMETRY_MIN_BITS
regardless of the ambient mpmath context; stored values are exact binary
floats and read back identically at any later precision.  polygon_new, where
vertices enter, also checks simplicity (O(V^2)), exactly: its orientation
tests run on the vertices' mantissas as ints at one common scale, so a vertex
on another edge is never rounded off it.  translate, rotate and scale keep a
polygon simple and check only finiteness, distinct neighbours and area.
steiner_symmetrize reads each slice width off the edges that cross it: the
width is linear between vertex abscissas, so its ends on each interval are
exact up to the rounding of the working precision; abscissas are merged
relative to the polygon's largest coordinate, so the result scales with the
input.  make_equilateral_pentagon leaves membership to polygon_new's exact
simplicity test, so an angle pair builds exactly when its pentagon is simple.
Each polygon keeps its exact integer frame (_Frame: the vertices as ints at
one scale 2^low, the top exponent, the exact twice signed area) and its
fingerprint, each computed once; moments and extremal read them from the
polygon instead of rebuilding them.
_FAMILIES is the one table of named families: each kind's parameter names,
its constructor, called with their values in that order, and whether
FamilySpec.build normalizes the member; sweeps solve the normalized members
as constructed and divide by their area squared.  The family
constructors take each angle's radians and cos/sin from bounded caches,
keyed by the angle's bits and the working precision and rounding, so the
members of a grid or sweep compute each distinct angle once.
write_polygon writes enough digits for read_polygon to return the same bits.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from mpmath import mp
from mpmath.libmp import (finf, fnan, fninf, from_float, from_int, from_man_exp, from_str,
                          mpf_cos_sin, mpf_div, mpf_mul, mpf_pi, mpf_sub, round_nearest)

from .errors import (
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

GEOMETRY_MIN_BITS = 320


def _wp() -> int:
    return max(mp.prec, GEOMETRY_MIN_BITS)


# A grid's members share its rows' and columns' angles, a sweep's members
# its fixed angle.  Each cache keeps the bits mpmath's arithmetic gives at
# the precision and rounding of its key; _angle_radians and _angle_cos_sin
# key them by the caller's context.

@lru_cache(maxsize=1024)
def _radians(deg, prec: int, rounding):
    """deg * pi / 180 as mpf arithmetic rounds it, as an mpf; deg a raw mpf."""
    rad = mpf_div(mpf_mul(deg, mpf_pi(prec, rounding), prec, rounding), from_int(180),
                  prec, rounding)
    return mp.make_mpf(rad)


@lru_cache(maxsize=1024)
def _cos_sin(rad, prec: int, rounding):
    """mp.cos_sin of the raw mpf rad, as a pair of mpfs."""
    c, s = mpf_cos_sin(rad, prec, rounding)
    return mp.make_mpf(c), mp.make_mpf(s)


@lru_cache(maxsize=16)
def _chain_eps(prec: int, rounding):
    """mp.mpf("1e-12"), _pentagon_chain's degeneracy threshold."""
    return mp.make_mpf(from_str("1e-12", prec, rounding))


def _angle_radians(deg):
    return _radians(mp.mpf(deg)._mpf_, *mp._prec_rounding)


def _angle_cos_sin(rad):
    return _cos_sin(rad._mpf_, *mp._prec_rounding)


class _Frame(NamedTuple):
    """A polygon's exact integer frame: pts, its vertices in its order as
    int points at scale 2^low, and top, as _int_image gives them, and
    twice_area, the exact twice signed area of pts."""

    pts: tuple
    low: int
    top: int
    twice_area: int


def _frame_of(verts) -> _Frame:
    pts, low, top = _int_image(verts)
    return _Frame(tuple(pts), low, top, _twice_signed_area(pts))


@dataclass(frozen=True)
class Polygon:
    """Simple polygon, vertices in counterclockwise order, mpmath coordinates.

    A polygon keeps its exact integer frame, _frame (a _Frame: the vertices
    as int points at one scale 2^low, in this order, the top exponent of
    the coordinates and the exact twice signed area, positive), and its
    fingerprint, _fingerprint, each computed on first use.  _polygon stores
    the frame it oriented the vertices by, so a polygon that polygon_new or
    a map built never computes its frame again.  Neither takes part in
    equality, hashing or repr, and both pickle with the polygon."""

    vertices: tuple

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def _frame(self) -> _Frame:
        return _frame_of(self.vertices)

    @cached_property
    def _fingerprint(self) -> str:
        return fingerprint(self)


def _fixed(raw, shift):
    """A raw mpf tuple times 2^shift, truncated to an int."""
    sign, man, exp, _ = raw
    exp += shift
    man = man << exp if exp >= 0 else man >> -exp
    return -man if sign else man


def _orient(a, b, c) -> int:
    """The cross product (b-a) x (c-a) of int points, exactly."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_touch(p1, p2, p3, p4) -> bool:
    """Whether closed segments p1p2 and p3p4 of int points share any point."""
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if d1 or d2 or d3 or d4:
        return d1 * d2 <= 0 and d3 * d4 <= 0
    # collinear: the segments touch where their projections on both axes overlap
    return all(max(min(p1[k], p2[k]), min(p3[k], p4[k]))
               <= min(max(p1[k], p2[k]), max(p3[k], p4[k])) for k in (0, 1))


def _twice_signed_area(verts):
    """Twice the signed area of the chain through verts; exact for ints."""
    return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]))


def _int_image(verts):
    """(pts, low, top): the vertices as int points at scale 2^low, and the
    least top with every |coordinate| < 2^top.  low is the lowest exponent of
    any nonzero coordinate within 2^4096 of the largest: coordinates in that
    range are exact, smaller ones truncated toward zero."""
    raws = [(x._mpf_, y._mpf_) for x, y in verts]
    top = max(exp + bc for v in raws for _, man, exp, bc in v if man)
    low = min(exp for v in raws for _, man, exp, bc in v if man and exp + bc >= top - 4096)
    return [(_fixed(x, -low), _fixed(y, -low)) for x, y in raws], low, top


def _check_simple(p: Polygon):
    """Raise NotSimple unless p's boundary is simple.

    The orientation tests run on the int points of p's frame, so their signs
    are exact.  Raise DegenerateVertex for two distinct vertices that the
    frame's truncation merges."""
    verts, pts = p.vertices, p._frame.pts
    first = {}
    for i, pt in enumerate(pts):
        j = first.setdefault(pt, i)
        if verts[j] != verts[i]:
            raise DegenerateVertex(
                f"vertices {j} and {i} differ only below 2^-4096 of the largest "
                "coordinate, the resolution of the simplicity test")
    n = len(pts)
    # a spike (boundary backtracking along itself) is collinear with positive dot
    for i in range(n):
        u, v, w = pts[i - 1], pts[i], pts[(i + 1) % n]
        dot = (u[0] - v[0]) * (w[0] - v[0]) + (u[1] - v[1]) * (w[1] - v[1])
        if _orient(u, v, w) == 0 and dot > 0:
            raise NotSimple(f"boundary backtracks at vertex {i}")
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        for j in range(i + 2, n):
            if (j + 1) % n == i:
                continue
            if _segments_touch(a1, a2, pts[j], pts[(j + 1) % n]):
                raise NotSimple(f"edges {i} and {j} intersect")


_NONFINITE = (finf, fninf, fnan)


def _polygon(verts) -> Polygon:
    """polygon_new's O(V) checks, on mpf pairs; vertices keep their bits.
    The zero-area test and the orientation come from the exact area of the
    vertices' integer frame, not from a sum rounded at _wp().  The polygon
    keeps that frame as its _frame: _int_image's int points, low and top,
    and the twice signed area, with the points reversed and the area
    negated along with the vertices for clockwise input."""
    for i, (x, y) in enumerate(verts):
        if x._mpf_ in _NONFINITE or y._mpf_ in _NONFINITE:
            raise GeometryError(f"vertex {i} is not finite: {mp.nstr(x, 8)}, {mp.nstr(y, 8)}")
    if len(verts) < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {len(verts)}")
    n = len(verts)
    for i in range(n):
        if verts[i] == verts[(i + 1) % n]:
            raise DegenerateVertex(f"vertices {i} and {(i + 1) % n} coincide")
    frame = _frame_of(verts)
    if frame.twice_area == 0:
        raise NotSimple("vertex list encloses zero area")
    if frame.twice_area < 0:
        verts.reverse()
        frame = frame._replace(pts=frame.pts[::-1], twice_area=-frame.twice_area)
    p = Polygon(tuple(verts))
    object.__setattr__(p, "_frame", frame)  # what the cached property would compute
    return p


def polygon_new(points) -> Polygon:
    """Validate a vertex list and normalize it to counterclockwise order.

    Accepts (x, y) pairs of finite values mp.mpf() understands (float, int,
    str, mpf).  Raises GeometryError, TooFewVertices, DegenerateVertex, or NotSimple.
    """
    with mp.workprec(_wp()):
        p = _polygon([(mp.mpf(x), mp.mpf(y)) for x, y in points])
        _check_simple(p)
        return p


def area(p: Polygon):
    with mp.workprec(_wp()):
        return _twice_signed_area(p.vertices) / 2


def centroid(p: Polygon):
    with mp.workprec(_wp()):
        a2 = mp.mpf(0)
        cx = mp.mpf(0)
        cy = mp.mpf(0)
        n = len(p.vertices)
        for i in range(n):
            x0, y0 = p.vertices[i]
            x1, y1 = p.vertices[(i + 1) % n]
            cr = x0 * y1 - x1 * y0
            a2 += cr
            cx += (x0 + x1) * cr
            cy += (y0 + y1) * cr
        return (cx / (3 * a2), cy / (3 * a2))


def translate(p: Polygon, v) -> Polygon:
    with mp.workprec(_wp()):
        vx, vy = mp.mpf(v[0]), mp.mpf(v[1])
        return _polygon([(x + vx, y + vy) for x, y in p.vertices])


def rotate(p: Polygon, alpha) -> Polygon:
    with mp.workprec(_wp()):
        c, s = mp.cos_sin(mp.mpf(alpha))
        return _polygon([(c * x - s * y, s * x + c * y) for x, y in p.vertices])


def scale(p: Polygon, r) -> Polygon:
    with mp.workprec(_wp()):
        r = mp.mpf(r)
        if not r > 0:
            raise NonpositiveScale(f"scale factor must be positive, got {r}")
        return _polygon([(r * x, r * y) for x, y in p.vertices])


def normalize(p: Polygon) -> Polygon:
    """Scale to unit area, then translate the centroid to the origin."""
    with mp.workprec(_wp()):
        q = scale(p, 1 / mp.sqrt(area(p)))
        cx, cy = centroid(q)
        return translate(q, (-cx, -cy))


def _area_squared(p: Polygon, prec: int):
    """A^2 as a raw mpf, A p's area rounded once, to nearest, at prec bits
    from the exact twice area of its frame, then squared at prec bits."""
    frame = p._frame
    a = from_man_exp(frame.twice_area, 2 * frame.low - 1, prec, round_nearest)
    return mpf_mul(a, a, prec, round_nearest)


def fingerprint(p: Polygon) -> str:
    """Stable hash of the exact stored vertex values.  p keeps it as
    p._fingerprint, which the moment tables read."""
    h = hashlib.sha256()
    for x, y in p.vertices:
        h.update(repr(x._mpf_).encode())
        h.update(repr(y._mpf_).encode())
    return h.hexdigest()[:16]


# ---- named families ----------------------------------------------------------

def make_windmill(a) -> Polygon:
    """Unit-area hexagonal "windmill": a small central triangle with three thin
    triangular blades whose tips sit at distance ~a; non-convex for most a."""
    with mp.workprec(_wp()):
        a = mp.mpf(a)
        if not a > 0 or not mp.isfinite(a):
            raise DegenerateFamilyParameter(f"windmill parameter must be positive, got {a}")
        s3 = mp.sqrt(3)
        eps = 2 / (3 * a * s3)
        zero = mp.mpf(0)
        pts = [
            (-eps, zero),
            (-a / 2, -a * s3 / 2),
            (eps / 2, -eps * s3 / 2),
            (a, zero),
            (eps / 2, eps * s3 / 2),
            (-a / 2, a * s3 / 2),
        ]
        try:
            return polygon_new(pts)
        except GeometryError as exc:
            raise DegenerateFamilyParameter(
                f"windmill with a={mp.nstr(a, 8)} is degenerate: {exc}") from exc


def make_triangle_fixed_base(a, lam) -> Polygon:
    """Unit-area triangle with one side of length a on the y-axis and apex at
    (-2/a, lam).  Not recentered; callers normalize when they need centroid 0."""
    with mp.workprec(_wp()):
        a = mp.mpf(a)
        if not a > 0:
            raise NonpositiveBase(f"base length must be positive, got {a}")
        lam = mp.mpf(lam)
        zero = mp.mpf(0)
        return polygon_new([(zero, zero), (zero, a), (-2 / a, lam)])


def make_triangle_fixed_angle(theta, a) -> Polygon:
    """Unit-area triangle, centroid at the origin, with interior angle theta
    between a side of length a (along the x-direction) and the side toward the
    apex at height 2/a."""
    with mp.workprec(_wp()):
        theta = mp.mpf(theta)
        a = mp.mpf(a)
        if not 0 < theta < mp.pi:
            raise AngleOutOfRange(f"angle must lie in (0, pi), got {theta}")
        if not a > 0:
            raise NonpositiveBase(f"side length must be positive, got {a}")
        zero = mp.mpf(0)
        corner = (zero, zero)
        c, s = _angle_cos_sin(theta)
        apex = (-2 * c / (a * s), 2 / a)
        far = (-a, zero)
        gx = (corner[0] + apex[0] + far[0]) / 3
        gy = (corner[1] + apex[1] + far[1]) / 3
        return polygon_new([(x - gx, y - gy) for x, y in (corner, apex, far)])


def make_equilateral_pentagon(theta, phi) -> Polygon:
    """Equilateral pentagon determined by two adjacent interior angles,
    rescaled to area 1 and recentered: normalize of _pentagon_chain(theta,
    phi), the member as built on the unit base.  theta, phi in radians.

    rho_N scales as area squared and ignores translation, so sweeps solve
    the chain itself and divide by its exact area squared (see
    extremal._sweep); this unit-area copy is for callers that want the
    member in a common frame.
    """
    return normalize(_pentagon_chain(theta, phi))


def _pentagon_chain(theta, phi) -> Polygon:
    """The equilateral pentagon with unit sides on the base (0,0)-(1,0),
    angle theta at (0,0) and phi at (1,0), and the apex at unit distance from
    both free ends, on the closing chord's normal n = (-dy, dx)/d.

    Raises AngleOutOfRange outside (0, pi); ApexDegenerate where the free ends
    coincide or the chord is 2 long; ConstraintViolated where the chord is
    longer than 2 or where polygon_new finds the chain not simple.  The
    chain's signed area is positive (the quadrilateral of base, known sides
    and chord, plus the triangle on n), so a simple member is counterclockwise
    and its angles at (0,0) and (1,0) are theta and phi.
    """
    with mp.workprec(_wp()):
        theta = mp.mpf(theta)
        phi = mp.mpf(phi)
        for name, ang in (("theta", theta), ("phi", phi)):
            if not 0 < ang < mp.pi:
                raise AngleOutOfRange(f"{name} must lie in (0, pi), got {ang}")
        v1 = _angle_cos_sin(theta)
        c, s = _angle_cos_sin(phi)
        v2 = (1 - c, s)
        dx, dy = v2[0] - v1[0], v2[1] - v1[1]
        d2 = dx * dx + dy * dy
        d = mp.sqrt(d2)
        eps = _chain_eps(*mp._prec_rounding)
        # degeneracy wins over the inequality constraints: at either boundary
        # the sign of the violated inequality is pure roundoff
        if d < eps:
            raise ApexDegenerate("free endpoints coincide; pentagon collapses")
        if abs(2 - d) < eps:
            raise ApexDegenerate("apex falls on the closing chord")
        if d2 > 4:
            raise ConstraintViolated(
                "chord between the free endpoints exceeds the two remaining unit sides")
        h = mp.sqrt(1 - d2 / 4)
        mx, my = (v1[0] + v2[0]) / 2, (v1[1] + v2[1]) / 2
        nx, ny = -dy / d, dx / d
        apex = (mx + h * nx, my + h * ny)
        zero = mp.mpf(0)
        try:
            return polygon_new([(zero, zero), (mp.mpf(1), zero), v2, apex, v1])
        except NotSimple as exc:
            raise ConstraintViolated(f"the pentagon crosses itself: {exc}") from None


def random_star_polygon(n_vertices: int, seed: int = 0) -> Polygon:
    """Random simple polygon: vertices at jittered sorted angles about the
    origin with radii in [0.6, 1.4].  Star-shaped, hence always simple;
    deterministic for a given seed."""
    if n_vertices < 3:
        raise TooFewVertices(f"need n >= 3, got {n_vertices}")
    import random

    rng = random.Random(seed)
    with mp.workprec(_wp()):
        pts = []
        for k in range(n_vertices):
            jitter = (rng.random() - 0.5) * 0.7
            ang = 2 * mp.pi * (k + jitter) / n_vertices
            rad = mp.mpf(rng.uniform(0.6, 1.4))
            c, s = mp.cos_sin(ang)
            pts.append((rad * c, rad * s))
        return polygon_new(pts)


def make_regular_ngon(n: int) -> Polygon:
    """Regular n-gon with area 1, centroid at the origin, vertex on the +x axis."""
    if n < 3:
        raise TooFewVertices(f"regular polygon needs n >= 3, got {n}")
    with mp.workprec(_wp()):
        r = mp.sqrt(2 / (n * mp.sin(2 * mp.pi / n)))
        pts = []
        for k in range(n):
            c, s = mp.cos_sin(2 * mp.pi * k / n)
            pts.append((r * c, r * s))
        return polygon_new(pts)


# ---- Steiner symmetrization ---------------------------------------------------

def steiner_symmetrize(p: Polygon, axis="x") -> Polygon:
    """Replace every slice perpendicular to the axis by a segment of the same
    total length centered on the axis.

    Area is preserved.  The slice width is linear between breakpoints, the
    vertex abscissas merged where they differ by at most 2^-(prec/2) times
    the largest |coordinate| of the vertices: roundoff is relative to the
    coordinates, so a copy scaled by s gives s times the output, but a
    polygon smaller than 2^-(prec/2) of its distance from the origin has its
    breakpoints merged.  On each interval the edges spanning its midpoint
    span all of it, and the width is |sum of sign(dx) y_e(x)| over them,
    evaluated at both ends; differing left/right limits become vertical edges
    of the output.
    """
    ax = str(axis).lower()
    if ax not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    with mp.workprec(_wp()):
        verts = p.vertices if ax == "x" else tuple((y, x) for x, y in p.vertices)
        tol = mp.ldexp(max(abs(c) for v in verts for c in v), -(mp.prec // 2))
        # abscissas equal up to roundoff (mirror vertices of a symmetric
        # polygon) are one breakpoint: an interval between them would put
        # vertices apart only by roundoff into the output
        xs = []
        for x in sorted({x for x, _ in verts}):
            if not xs or x - xs[-1] > tol:
                xs.append(x)
        k = len(xs)
        wl = [mp.mpf(0)] * k  # slice width just left of each breakpoint
        wr = [mp.mpf(0)] * k  # and just right of it
        edges = list(zip(verts, verts[1:] + verts[:1]))
        for i in range(k - 1):
            x0, x1 = xs[i], xs[i + 1]
            mid = (x0 + x1) / 2
            s0 = s1 = mp.mpf(0)
            # counterclockwise, lower edges run in +x and upper ones in -x;
            # abs covers the clockwise order of the "y" swap
            for (xa, ya), (xb, yb) in edges:
                if min(xa, xb) < mid < max(xa, xb):
                    slope = (yb - ya) / (xb - xa)
                    sign = 1 if xb > xa else -1
                    s0 += sign * (ya + (x0 - xa) * slope)
                    s1 += sign * (ya + (x1 - xa) * slope)
            wr[i], wl[i + 1] = abs(s0), abs(s1)
        wl[0] = wr[0]
        wr[k - 1] = wl[k - 1]

        def same(u, v):
            return abs(u[1] - v[1]) <= tol and u[0] == v[0]

        pts = []

        def push(pt):
            if not pts or not same(pts[-1], pt):
                pts.append(pt)

        # the lower chain left to right, then its mirror image right to left
        lower = [(x, -w / 2) for x, left, right in zip(xs, wl, wr) for w in (left, right)]
        for pt in lower + [(x, -y) for x, y in reversed(lower)]:
            push(pt)
        while len(pts) > 1 and same(pts[0], pts[-1]):
            pts.pop()
        if ax == "y":
            pts = [(y, x) for x, y in pts]
        return polygon_new(pts)


# ---- polygon files -------------------------------------------------------------

def read_polygon(path) -> Polygon:
    """Read a polygon file: one 'x y' pair per line, '#' starts a comment."""
    pts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'x y', got {line!r}")
            pts.append((parts[0], parts[1]))
    return polygon_new(pts)


def write_polygon(p: Polygon, path) -> None:
    """Write p for read_polygon, with enough significant digits that, read
    back at the same precision, every coordinate is the same binary float."""
    digits = int(_wp() * math.log10(2)) + 2
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# polygon with {len(p.vertices)} vertices\n")
        for x, y in p.vertices:
            fh.write(f"{mp.nstr(x, digits)} {mp.nstr(y, digits)}\n")


# ---- parametric family dispatch -------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """A named polygon family with some parameters fixed and the rest free.

    Free parameters are the sweep axes; build() takes their values positionally
    in the order listed in `free`.  Angles are radians except the pentagon
    family, which is parameterized in degrees to match its usual presentation.
    The spec is checked when made: ValueError for an unknown kind, a name the
    family lacks, or names that do not cover its parameters exactly once.
    """

    kind: str
    fixed: tuple = ()
    free: tuple = ()

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ValueError(
                f"unknown family {self.kind!r}; known: {', '.join(sorted(_FAMILIES))}")
        names = _FAMILIES[self.kind][0]
        got = tuple(n for n, _ in self.fixed) + tuple(self.free)
        for name in got:
            if name not in names:
                raise ValueError(
                    f"family {self.kind!r} has no parameter {name!r} (it has {names})")
        if sorted(got) != sorted(names):
            raise ValueError(f"family {self.kind!r} takes parameters {names}, each fixed "
                             f"or free once; got {got}")

    def params(self, *free_values) -> dict:
        if len(free_values) != len(self.free):
            raise ValueError(f"expected {len(self.free)} free values, got {len(free_values)}")
        out = dict(self.fixed)
        out.update(zip(self.free, free_values))
        return out

    def _member(self, *free_values):
        """(member, normalized): the member at free_values as the family's
        constructor builds it, and whether build normalizes it."""
        names, make, normalized = _FAMILIES[self.kind]
        params = self.params(*free_values)
        return make(*(params[name] for name in names)), normalized

    def build(self, *free_values) -> Polygon:
        poly, normalized = self._member(*free_values)
        return normalize(poly) if normalized else poly

    def twin(self, *free_values):
        """The free values of this member's mirror image, or None.

        pentagon with both angles free: reflection in x = 1/2 swaps the base
        angles, (theta, phi) -> (phi, theta).  triangle-base with a float a
        fixed: reflection in y = a/2 moves the apex lambda to a - lambda,
        given only where that difference is exact.  No other family or free
        set has a twin.  rho_N is the same on both members: a reflection
        keeps area, and for z -> 1 - conj(z) the best degree-N polynomial p
        of one polygon becomes q(z) = 1 - conj(p(1 - conj(z))), of the same
        degree, for the other (likewise for any other line).
        """
        params = self.params(*free_values)
        if self.kind == "pentagon" and len(self.free) == 2:
            return free_values[::-1]
        if self.kind == "triangle-base" and self.free == ("lambda",):
            return _mirror_apex(params["a"], params["lambda"])
        return None


def _mirror_apex(a, lam):
    """(a - lam,) in lam's type, a float or an mpf, where a is a finite
    float and the difference is finite and exact; otherwise None."""
    if not (isinstance(a, float) and math.isfinite(a)):
        return None
    if isinstance(lam, float) and math.isfinite(a - lam) \
            and Fraction(a - lam) == Fraction(a) - Fraction(lam):
        return (a - lam,)
    if isinstance(lam, mp.mpf) and mp.isfinite(lam):
        return (mp.make_mpf(mpf_sub(from_float(a), lam._mpf_, 0)),)  # prec 0: exact
    return None


def _pentagon_member(theta_deg, phi_deg) -> Polygon:
    with mp.workprec(_wp()):
        th, ph = _angle_radians(theta_deg), _angle_radians(phi_deg)
    return _pentagon_chain(th, ph)


def _regular_member(n) -> Polygon:
    if not float(n).is_integer():
        raise GeometryError(f"regular-ngon takes an integer n, got {n}")
    return make_regular_ngon(int(n))


# kind -> (the parameter names, in the order the constructor takes them; the
# constructor; whether FamilySpec.build returns normalize of its member
# rather than the member).  The members left as they are have unit area by
# construction.
_FAMILIES = {
    "windmill": (("a",), make_windmill, False),
    "triangle-base": (("a", "lambda"), make_triangle_fixed_base, True),
    "triangle-angle": (("theta", "a"), make_triangle_fixed_angle, False),
    "pentagon": (("theta_deg", "phi_deg"), _pentagon_member, True),
    "regular-ngon": (("n",), _regular_member, False),
}

FAMILY_PARAMS = {kind: names for kind, (names, _, _) in _FAMILIES.items()}


def build_family(kind: str, params: dict) -> Polygon:
    return FamilySpec(kind, tuple(params.items())).build()
