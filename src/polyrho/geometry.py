"""Polygon model, family constructors, affine maps, Steiner symmetrization.

Coordinates are mpmath floats so downstream boundary integrals can run at
arbitrary precision.  Construction always uses at least GEOMETRY_MIN_BITS
regardless of the ambient mpmath context; stored values are exact binary
floats and read back identically at any later precision.  polygon_new, where
vertices enter, also checks simplicity (O(V^2)), exactly: its orientation
tests run on the vertices' mantissas as ints at one common scale, so a vertex
on another edge is never rounded off it.  translate, rotate and scale keep a
polygon simple and check only finiteness, distinct neighbours and area.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_float, mpf_sub

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


@dataclass(frozen=True)
class Polygon:
    """Simple polygon, vertices in counterclockwise order, mpmath coordinates."""

    vertices: tuple

    def __len__(self) -> int:
        return len(self.vertices)


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


def _check_simple(verts, pts):
    """Raise NotSimple unless the closed chain through verts is simple.

    pts is _int_image's points of verts, in the same order, so the
    orientation signs are exact.  Raise DegenerateVertex for two distinct
    vertices that the image's truncation merges."""
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


def _polygon(verts):
    """polygon_new's O(V) checks, on mpf pairs; vertices keep their bits.
    Returns the polygon and _int_image's points of its vertices, in its
    order; the zero-area test and the orientation come from those points'
    exact area, not from a sum rounded at _wp()."""
    for i, (x, y) in enumerate(verts):
        if not (mp.isfinite(x) and mp.isfinite(y)):
            raise GeometryError(f"vertex {i} is not finite: {mp.nstr(x, 8)}, {mp.nstr(y, 8)}")
    if len(verts) < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {len(verts)}")
    n = len(verts)
    for i in range(n):
        if verts[i] == verts[(i + 1) % n]:
            raise DegenerateVertex(f"vertices {i} and {(i + 1) % n} coincide")
    pts, _, _ = _int_image(verts)
    s2 = _twice_signed_area(pts)
    if s2 == 0:
        raise NotSimple("vertex list encloses zero area")
    if s2 < 0:
        verts.reverse()
        pts.reverse()
    return Polygon(tuple(verts)), pts


def polygon_new(points) -> Polygon:
    """Validate a vertex list and normalize it to counterclockwise order.

    Accepts (x, y) pairs of finite values mp.mpf() understands (float, int,
    str, mpf).  Raises GeometryError, TooFewVertices, DegenerateVertex, or NotSimple.
    """
    with mp.workprec(_wp()):
        p, pts = _polygon([(mp.mpf(x), mp.mpf(y)) for x, y in points])
        _check_simple(p.vertices, pts)
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
        return _polygon([(x + vx, y + vy) for x, y in p.vertices])[0]


def rotate(p: Polygon, alpha) -> Polygon:
    with mp.workprec(_wp()):
        c, s = mp.cos(mp.mpf(alpha)), mp.sin(mp.mpf(alpha))
        return _polygon([(c * x - s * y, s * x + c * y) for x, y in p.vertices])[0]


def scale(p: Polygon, r) -> Polygon:
    with mp.workprec(_wp()):
        r = mp.mpf(r)
        if not r > 0:
            raise NonpositiveScale(f"scale factor must be positive, got {r}")
        return _polygon([(r * x, r * y) for x, y in p.vertices])[0]


def normalize(p: Polygon) -> Polygon:
    """Scale to unit area, then translate the centroid to the origin."""
    with mp.workprec(_wp()):
        q = scale(p, 1 / mp.sqrt(area(p)))
        cx, cy = centroid(q)
        return translate(q, (-cx, -cy))


def fingerprint(p: Polygon) -> str:
    """Stable hash of the exact stored vertex values."""
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
        apex = (-2 * mp.cos(theta) / (a * mp.sin(theta)), 2 / a)
        far = (-a, zero)
        gx = (corner[0] + apex[0] + far[0]) / 3
        gy = (corner[1] + apex[1] + far[1]) / 3
        return polygon_new([(x - gx, y - gy) for x, y in (corner, apex, far)])


def make_equilateral_pentagon(theta, phi) -> Polygon:
    """Equilateral pentagon determined by two adjacent interior angles.

    Built with unit sides on the base (0,0)-(1,0), angle theta at (0,0) and phi
    at (1,0), apex on the far side of the closing chord; then rescaled to area
    1 and recentered.  theta, phi in radians.
    """
    with mp.workprec(_wp()):
        theta = mp.mpf(theta)
        phi = mp.mpf(phi)
        for name, ang in (("theta", theta), ("phi", phi)):
            if not 0 < ang < mp.pi:
                raise AngleOutOfRange(f"{name} must lie in (0, pi), got {ang}")
        v1 = (mp.cos(theta), mp.sin(theta))
        v2 = (1 - mp.cos(phi), mp.sin(phi))
        dx, dy = v2[0] - v1[0], v2[1] - v1[1]
        d2 = dx * dx + dy * dy
        d = mp.sqrt(d2)
        # degeneracy wins over the inequality constraints: at either boundary
        # the sign of the violated inequality is pure roundoff
        if d < mp.mpf("1e-12"):
            raise ApexDegenerate("free endpoints coincide; pentagon collapses")
        if abs(2 - d) < mp.mpf("1e-12"):
            raise ApexDegenerate("apex falls on the closing chord")
        if v1[0] > v2[0]:
            raise ConstraintViolated(
                "cos(theta) <= 1 - cos(phi) fails; the two known sides cross")
        if d2 > 4:
            raise ConstraintViolated(
                "chord between the free endpoints exceeds the two remaining unit sides")
        h = mp.sqrt(1 - d2 / 4)
        mx, my = (v1[0] + v2[0]) / 2, (v1[1] + v2[1]) / 2
        nx, ny = -dy / d, dx / d
        # apex goes on the side of the chord away from the base midpoint (1/2, 0)
        if (mx - mp.mpf(1) / 2) * nx + my * ny < 0:
            nx, ny = -nx, -ny
        apex = (mx + h * nx, my + h * ny)
        zero = mp.mpf(0)
        raw = polygon_new([(zero, zero), (mp.mpf(1), zero), v2, apex, v1])
        return normalize(raw)


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
            pts.append((rad * mp.cos(ang), rad * mp.sin(ang)))
        return polygon_new(pts)


def make_regular_ngon(n: int) -> Polygon:
    """Regular n-gon with area 1, centroid at the origin, vertex on the +x axis."""
    if n < 3:
        raise TooFewVertices(f"regular polygon needs n >= 3, got {n}")
    with mp.workprec(_wp()):
        r = mp.sqrt(2 / (n * mp.sin(2 * mp.pi / n)))
        pts = []
        for k in range(n):
            ang = 2 * mp.pi * k / n
            pts.append((r * mp.cos(ang), r * mp.sin(ang)))
        return polygon_new(pts)


# ---- Steiner symmetrization ---------------------------------------------------

def _slice_width(verts, x):
    """Total 1-D measure of the vertical slice at abscissa x (x strictly between
    two distinct vertex abscissas, so no edge endpoint lies on the slice)."""
    ys = []
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        if (x0 < x < x1) or (x1 < x < x0):
            t = (x - x0) / (x1 - x0)
            ys.append(y0 + t * (y1 - y0))
    if len(ys) % 2:
        raise GeometryError(f"slice at x={mp.nstr(x, 8)} crossed the boundary an odd number of times")
    ys.sort()
    w = mp.mpf(0)
    for i in range(0, len(ys), 2):
        w += ys[i + 1] - ys[i]
    return w


def steiner_symmetrize(p: Polygon, axis="x") -> Polygon:
    """Replace every slice perpendicular to the axis by a segment of the same
    total length centered on the axis.

    Area is preserved.  The slice-width function of a polygon is piecewise
    linear between vertex abscissas, so each interval is sampled at two interior
    points and extrapolated to one-sided limits at the breakpoints; differing
    left/right limits become vertical edges of the output.
    """
    ax = str(axis).lower()
    if ax not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    with mp.workprec(_wp()):
        verts = p.vertices if ax == "x" else tuple((y, x) for x, y in p.vertices)
        tol = mp.mpf(2) ** (-(mp.prec // 2))
        # abscissas equal up to roundoff (mirror vertices of a symmetric
        # polygon) are one breakpoint: sampling between them divides by zero
        xs = []
        for x in sorted({x for x, _ in verts}):
            if not xs or x - xs[-1] > tol * (1 + abs(x) + abs(xs[-1])):
                xs.append(x)
        k = len(xs)
        wl = [mp.mpf(0)] * k
        wr = [mp.mpf(0)] * k
        for i in range(k - 1):
            x0, x1 = xs[i], xs[i + 1]
            t1 = x0 + (x1 - x0) / 3
            t2 = x0 + 2 * (x1 - x0) / 3
            w1 = _slice_width(verts, t1)
            w2 = _slice_width(verts, t2)
            slope = (w2 - w1) / (t2 - t1)
            wr[i] = w1 + slope * (x0 - t1)
            wl[i + 1] = w1 + slope * (x1 - t1)
        wl[0] = wr[0]
        wr[k - 1] = wl[k - 1]

        def same(u, v):
            return abs(u[1] - v[1]) <= tol * (1 + abs(u[1]) + abs(v[1])) and u[0] == v[0]

        pts = []

        def push(pt):
            if not pts or not same(pts[-1], pt):
                pts.append(pt)

        for i in range(k):
            push((xs[i], -wl[i] / 2))
            push((xs[i], -wr[i] / 2))
        for i in reversed(range(k)):
            push((xs[i], wr[i] / 2))
            push((xs[i], wl[i] / 2))
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# polygon with {len(p.vertices)} vertices\n")
        for x, y in p.vertices:
            fh.write(f"{mp.nstr(x, 50)} {mp.nstr(y, 50)}\n")


# ---- parametric family dispatch -------------------------------------------------

FAMILY_PARAMS = {
    "windmill": ("a",),
    "triangle-base": ("a", "lambda"),
    "triangle-angle": ("theta", "a"),
    "pentagon": ("theta_deg", "phi_deg"),
    "regular-ngon": ("n",),
}


@dataclass(frozen=True)
class FamilySpec:
    """A named polygon family with some parameters fixed and the rest free.

    Free parameters are the sweep axes; build() takes their values positionally
    in the order listed in `free`.  Angles are radians except the pentagon
    family, which is parameterized in degrees to match its usual presentation.
    """

    kind: str
    fixed: tuple = ()
    free: tuple = ()

    def __post_init__(self):
        if self.kind not in FAMILY_PARAMS:
            raise ValueError(f"unknown family {self.kind!r}; known: {sorted(FAMILY_PARAMS)}")
        names = FAMILY_PARAMS[self.kind]
        got = tuple(n for n, _ in self.fixed) + tuple(self.free)
        if sorted(got) != sorted(names):
            raise ValueError(f"family {self.kind!r} takes parameters {names}, got {got}")

    def params(self, *free_values) -> dict:
        if len(free_values) != len(self.free):
            raise ValueError(f"expected {len(self.free)} free values, got {len(free_values)}")
        out = dict(self.fixed)
        out.update(zip(self.free, free_values))
        return out

    def build(self, *free_values) -> Polygon:
        return build_family(self.kind, self.params(*free_values))

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


def build_family(kind: str, params: dict) -> Polygon:
    if kind == "windmill":
        return make_windmill(params["a"])
    if kind == "triangle-base":
        return normalize(make_triangle_fixed_base(params["a"], params["lambda"]))
    if kind == "triangle-angle":
        return make_triangle_fixed_angle(params["theta"], params["a"])
    if kind == "pentagon":
        with mp.workprec(_wp()):
            th = mp.mpf(params["theta_deg"]) * mp.pi / 180
            ph = mp.mpf(params["phi_deg"]) * mp.pi / 180
        return make_equilateral_pentagon(th, ph)
    if kind == "regular-ngon":
        if not float(params["n"]).is_integer():
            raise GeometryError(f"regular-ngon takes an integer n, got {params['n']}")
        return make_regular_ngon(int(params["n"]))
    raise ValueError(f"unknown family {kind!r}")
