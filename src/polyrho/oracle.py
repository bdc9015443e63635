"""Brute-force verification path: triangulate, integrate with Gauss rules
exact for polynomials, recompute moments and rho_N in double precision.

Deliberately shares no algorithm with moments/content: quadrature instead of
boundary integrals, a float64 orthonormal basis built by Arnoldi on the nodes
instead of an arbitrary-precision LDL* factor of the Gram matrix.  The overlap
in failure modes between the two stacks is what the cross-checks rely on being
small.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import index

import numpy as np

from . import geometry
from .errors import IllConditioned, TriangulationFailed


@dataclass(frozen=True)
class TriMesh:
    """Positively oriented, interior-disjoint triangles covering one polygon."""

    triangles: tuple  # of ((x,y), (x,y), (x,y)) float triples


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _tri_area2(t) -> float:
    return _cross(t[0], t[1], t[2])


def _point_in_tri(pt, a, b, c, eps) -> bool:
    d1 = _cross(a, b, pt)
    d2 = _cross(b, c, pt)
    d3 = _cross(c, a, pt)
    return d1 >= -eps and d2 >= -eps and d3 >= -eps


def triangulate(p: geometry.Polygon) -> TriMesh:
    """Fan for convex polygons, ear clipping otherwise; n-2 triangles of the
    polygon's vertices rounded to float64.  Raises TriangulationFailed when
    their areas do not sum to the exact area of those float64 vertices
    within 1e-12 of it."""
    verts = [(float(x), float(y)) for x, y in p.vertices]
    n = len(verts)
    scale = max(max(abs(x), abs(y)) for x, y in verts)
    eps = 1e-14 * scale * scale

    crosses = [_cross(verts[i], verts[(i + 1) % n], verts[(i + 2) % n]) for i in range(n)]
    tris = []
    if all(c > -eps for c in crosses):
        tris = [(verts[0], verts[i], verts[i + 1]) for i in range(1, n - 1)]
    else:
        idx = list(range(n))
        while len(idx) > 3:
            clipped = False
            for pos in range(len(idx)):
                ia = idx[(pos - 1) % len(idx)]
                ib = idx[pos]
                ic = idx[(pos + 1) % len(idx)]
                a, b, c = verts[ia], verts[ib], verts[ic]
                if _cross(a, b, c) <= eps:
                    continue
                if any(_point_in_tri(verts[j], a, b, c, eps)
                       for j in idx if j not in (ia, ib, ic)):
                    continue
                tris.append((a, b, c))
                idx.pop(pos)
                clipped = True
                break
            if not clipped:
                raise TriangulationFailed(
                    f"no ear found with {len(idx)} vertices remaining")
        tris.append((verts[idx[0]], verts[idx[1]], verts[idx[2]]))

    total = sum(_tri_area2(t) for t in tris) / 2.0
    # the rounding to float64 alone can move a small polygon far from the
    # origin by more than the bound, so compare with the area of what is tiled
    target = float(sum(Fraction(x0) * Fraction(y1) - Fraction(x1) * Fraction(y0)
                       for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]))) / 2.0
    if abs(total - target) > 1e-12 * abs(target):
        raise TriangulationFailed(
            f"triangle areas sum to {total!r}, the float64 vertices enclose {target!r}")
    return TriMesh(tuple(tris))


@lru_cache(maxsize=None)
def _reference_rule(degree: int):
    """Nodes/weights on the triangle (0,0),(1,0),(0,1), exact for total degree
    <= degree: tensor Gauss-Legendre collapsed through x=u(1-v), y=uv with
    Jacobian u, which raises the u-degree by one."""
    g = (degree + 3) // 2
    x, w = np.polynomial.legendre.leggauss(g)
    u = (x + 1.0) / 2.0
    wu = w / 2.0
    uu, vv = np.meshgrid(u, u, indexing="ij")
    uw, vw = np.meshgrid(wu, wu, indexing="ij")
    xs = (uu * (1.0 - vv)).ravel()
    ys = (uu * vv).ravel()
    ws = (uw * vw * uu).ravel()
    return xs, ys, ws


@lru_cache(maxsize=8)
def _mesh_nodes(mesh: TriMesh, degree: int):
    """(z, w): the nodes and weights of _reference_rule(degree) mapped onto
    every triangle of the mesh, read-only.  Kept for the last few (mesh,
    degree) pairs, so quad_moment over many (m, n) of one mesh builds them
    once per degree."""
    xs, ys, ws = _reference_rule(degree)
    zs = []
    weights = []
    for (p0, p1, p2) in mesh.triangles:
        px = p0[0] + xs * (p1[0] - p0[0]) + ys * (p2[0] - p0[0])
        py = p0[1] + xs * (p1[1] - p0[1]) + ys * (p2[1] - p0[1])
        zs.append(px + 1j * py)
        weights.append(ws * _tri_area2((p0, p1, p2)))
    z, w = np.concatenate(zs), np.concatenate(weights)
    z.flags.writeable = w.flags.writeable = False
    return z, w


def quad_moment(mesh: TriMesh, m: int, n: int) -> complex:
    """Integral of z^m conj(z)^n dA by quadrature exact for degree m+n."""
    z, w = _mesh_nodes(mesh, m + n)
    return complex(np.sum(w * z ** m * np.conj(z) ** n))


def oracle_rho_n(p: geometry.Polygon, n: int) -> float:
    """Double-precision rho_N = |r|^2, r the residual of f = sqrt(w) conj(z)
    against sqrt(w) {1, z, ..., z^N} on the quadrature nodes, by Vandermonde
    with Arnoldi (Brubeck, Nakatsukasa, Trefethen, SIAM Review 63, 2021).

    Relative error against content.rho_n on the five test fixtures and
    random_star_polygon(8, 3): <= 6.2e-16 at N <= 12, <= 3.9e-15 at N <= 40,
    and on windmill(2), the regular pentagon and the star <= 3.5e-15 at N=60.
    Each of the two projection passes adds N+2 roundings of at most eps |f|/2
    to r (eps = 2^-52), so to first order the relative error of |r|^2 is at
    most 2 (N+2) eps |f| / |r|; measured errors stayed under half that bound.
    Raises IllConditioned when the value is not finite or the bound exceeds
    1e-9: a small polygon far from the origin has a large |f| / |r|.  A
    degree that is not an integer is a TypeError before any work."""
    if index(n) < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {n}")
    z, w = _mesh_nodes(triangulate(p), 2 * n + 2)
    sw = np.sqrt(w)
    f = sw * np.conj(z)
    # orthonormal rows q_k = sqrt(w) p_k(z), z q_k orthogonalised twice (CGS2);
    # q^H v is taken as conj(q conj(v)), so no conjugate copy of q is made
    q = np.empty((n + 1, z.size), dtype=complex)
    q[0] = sw / np.linalg.norm(sw)
    for k in range(n):
        v = z * q[k]
        for _ in range(2):
            v -= (q[:k + 1] @ v.conj()).conj() @ q[:k + 1]
        q[k + 1] = v / np.linalg.norm(v)
    r = f
    for _ in range(2):
        r = r - (q @ r.conj()).conj() @ q
    norm_r = float(np.linalg.norm(r))
    value = norm_r * norm_r
    bound = 2 * (n + 2) * 2.0 ** -52 * float(np.linalg.norm(f)) / norm_r if norm_r else np.inf
    if not (np.isfinite(value) and bound <= 1e-9):
        raise IllConditioned(f"rho_{n} = {value:.3e}: relative error bound {bound:.1e} > 1e-9")
    return value
