"""Polynomial Bergman content of simple polygons.

rho_N(Omega) is the squared L^2(Omega) distance from conj(z) to the
polynomials of degree at most N.  The package computes it to arbitrary
precision from exact boundary-integral moments, provides closed forms for
low degrees and special families, a float64 quadrature oracle for
cross-validation, and parameter sweeps over named polygon families.
"""

from .content import (
    RhoResult,
    rho1_closed,
    rho2_closed,
    rho_n,
    rho_n_partials,
    rho_n_telescoping,
)
from .errors import GeometryError, NumericalError, PolyRhoError
from .extremal import (
    CriticalPoint,
    CriticalPointReport,
    SweepResult,
    maximize_1d,
    pentagon_grid,
    read_sweep,
    sweep_family,
    sweep_fixed_angle,
    sweep_fixed_base,
    t_star,
    windmill_rho_closed,
    write_sweep,
)
from .geometry import (
    FamilySpec,
    Polygon,
    area,
    build_family,
    centroid,
    make_equilateral_pentagon,
    make_regular_ngon,
    make_triangle_fixed_angle,
    make_triangle_fixed_base,
    make_windmill,
    normalize,
    polygon_new,
    random_star_polygon,
    read_polygon,
    rotate,
    scale,
    steiner_symmetrize,
    translate,
    write_polygon,
)
from .moments import (
    MomentTable,
    complex_moment,
    cross_check,
    load_table,
    moment_table,
    precision_for_degree,
    real_moment,
    save_table,
)

__version__ = "0.1.0"

# the float64 oracle needs numpy, so it is imported on first use (PEP 562)
_ORACLE_NAMES = ("oracle_rho_n", "quad_moment", "triangulate")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CriticalPoint",
    "CriticalPointReport",
    "FamilySpec",
    "GeometryError",
    "MomentTable",
    "NumericalError",
    "PolyRhoError",
    "Polygon",
    "RhoResult",
    "SweepResult",
    "area",
    "build_family",
    "centroid",
    "complex_moment",
    "cross_check",
    "load_table",
    "make_equilateral_pentagon",
    "make_regular_ngon",
    "make_triangle_fixed_angle",
    "make_triangle_fixed_base",
    "make_windmill",
    "maximize_1d",
    "moment_table",
    "normalize",
    "oracle_rho_n",
    "pentagon_grid",
    "polygon_new",
    "precision_for_degree",
    "quad_moment",
    "random_star_polygon",
    "read_polygon",
    "read_sweep",
    "real_moment",
    "rho1_closed",
    "rho2_closed",
    "rho_n",
    "rho_n_partials",
    "rho_n_telescoping",
    "rotate",
    "save_table",
    "scale",
    "steiner_symmetrize",
    "sweep_family",
    "sweep_fixed_angle",
    "sweep_fixed_base",
    "t_star",
    "translate",
    "triangulate",
    "windmill_rho_closed",
    "write_polygon",
    "write_sweep",
]
