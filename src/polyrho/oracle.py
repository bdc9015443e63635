"""Brute-force verification path: triangulate, integrate with Gauss rules
exact for polynomials, recompute moments and rho_N in double precision.

Deliberately shares no algorithm with moments/content: quadrature instead of
boundary integrals, numpy normal equations with column scaling and iterative
refinement instead of arbitrary-precision Cholesky.  The overlap in failure
modes between the two stacks is what the cross-checks rely on being small.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    """Fan for convex polygons, ear clipping otherwise; n-2 triangles."""
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
    target = float(geometry.area(p))
    if abs(total - target) > 1e-12 * abs(target):
        raise TriangulationFailed(
            f"triangle areas sum to {total!r}, polygon area is {target!r}")
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


def _mesh_nodes(mesh: TriMesh, degree: int):
    xs, ys, ws = _reference_rule(degree)
    zs = []
    weights = []
    for (p0, p1, p2) in mesh.triangles:
        px = p0[0] + xs * (p1[0] - p0[0]) + ys * (p2[0] - p0[0])
        py = p0[1] + xs * (p1[1] - p0[1]) + ys * (p2[1] - p0[1])
        zs.append(px + 1j * py)
        weights.append(ws * _tri_area2((p0, p1, p2)))
    return np.concatenate(zs), np.concatenate(weights)


def quad_moment(mesh: TriMesh, m: int, n: int) -> complex:
    """Integral of z^m conj(z)^n dA by quadrature exact for degree m+n."""
    z, w = _mesh_nodes(mesh, m + n)
    return complex(np.sum(w * z ** m * np.conj(z) ** n))


def oracle_rho_n(p: geometry.Polygon, n: int) -> float:
    """Double-precision rho_N: least-squares residual of conj(z) against
    {1, z, ..., z^N} from quadrature normal equations.

    Relative error against content.rho_n, measured on the regular pentagon,
    windmill(2) and a normalized 8-vertex random star: <= 3e-16 at N = 8,
    <= 6e-15 at N = 20.  When refinement cannot certify the value it raises
    IllConditioned instead of returning it; off-frame inputs (a small polygon
    far from the origin) raise IllConditioned, or TriangulationFailed when
    float64 cannot resolve their triangle areas."""
    if n < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {n}")
    mesh = triangulate(p)
    z, w = _mesh_nodes(mesh, 2 * n + 2)
    cols = np.column_stack([z ** k for k in range(n + 1)])
    gram = (cols.conj().T * w) @ cols
    rhs = cols.conj().T @ (w * np.conj(z))
    d = 1.0 / np.sqrt(np.real(np.diag(gram)))
    gs = gram * d[:, None] * d[None, :]
    target = float(np.sum(w * np.abs(z) ** 2))
    try:
        coef = d * np.linalg.solve(gs, d * rhs)
        bias = np.inf
        for _ in range(30):
            resid = rhs - gram @ coef
            delta = d * np.linalg.solve(gs, d * resid)
            coef = coef + delta
            # error left in the residual value is e^H G e for the remaining
            # coefficient error e, and G e = resid, so it is ~ delta^H resid
            bias = abs(np.real(np.vdot(delta, resid)))
            if bias <= 1e-18 * target:
                break
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"normal equations singular at N={n}") from exc
    err = np.conj(z) - cols @ coef
    value = float(np.sum(w * np.abs(err) ** 2))
    if not np.isfinite(value) or bias > 1e-9 * max(value, 1e-300):
        raise IllConditioned(
            f"refinement cannot certify rho_{n}: value bias {bias:.2e} vs {value:.2e}")
    return value
