"""Parameter sweeps and critical points of rho_N over the polygon families.

Values are computed by content.rho_n; the closed forms in the sweep parameter
live here as well.  Critical points come from a coarse scan that brackets
every interior local extremum and one Newton loop per bracket on
central-difference derivatives, whose last second derivative gives the
classification.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from mpmath import mp

from . import content, geometry, moments
from .errors import (
    AngleOutOfRange,
    ApexDegenerate,
    ConstraintViolated,
    EmptyFeasibleSet,
    NoBracketFound,
    NonpositiveParameter,
)

_WORK_BITS = 288
_NEWTON_CAP = 32  # Newton from a scan point settles in a few steps, not this many

CLASS_LOCAL_MAX = "local-max"
CLASS_LOCAL_MIN = "local-min"
CLASS_UNKNOWN = "unknown"

_INFEASIBLE = (ConstraintViolated, ApexDegenerate, AngleOutOfRange)


def windmill_rho_closed(a, order: int = 1):
    """Closed-form rho_1 or rho_2 of the unit-area windmill hexagon; both grow
    like a^2, which is the divergence the family exists to exhibit."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    with mp.workprec(_WORK_BITS):
        a = mp.mpf(a)
        if not a > 0:
            raise NonpositiveParameter(f"windmill parameter must be positive, got {a}")
        s3 = mp.sqrt(3)
        base = 3 * s3 + 4 / a ** 2 + 27 * a ** 2
        if order == 1:
            value = base / 162
        else:
            value = (3 * s3 + 4 / a ** 2
                     + 27 * a ** 2 * (1 + 90 / (27 * a ** 4 - 6 * s3 * a ** 2 + 4))) / 1620
    with mp.workprec(256):
        return +value


def t_star():
    """Unique positive root t of 999 x^4/64 - 93 x^3 - 664 x^2 - 5376 x - 9216
    (one sign change, so exactly one by Descartes), and its fourth root.

    The fourth root is the base-length threshold separating the regimes where
    the isosceles apex position is a local max vs. local min of rho_2.
    """
    with mp.workprec(_WORK_BITS):
        # Newton from x = 12, just left of the root, where the quartic is
        # increasing and convex: one step overshoots, the rest fall onto the
        # root, quadratically until the steps stop shrinking at roundoff
        t, last = mp.mpf(12), mp.inf
        while True:
            slope = ((mp.mpf(999) / 16 * t - 279) * t - 1328) * t - 5376
            step = t_star_poly(t) / slope
            if not abs(step) < last:
                break
            t, last = t - step, abs(step)
        threshold = mp.root(t, 4)
    with mp.workprec(256):
        return +t, +threshold


def t_star_poly(x):
    """The quartic whose positive root defines t_star, for residual checks."""
    with mp.workprec(_WORK_BITS):
        x = mp.mpf(x)
        val = (((mp.mpf(999) / 64 * x - 93) * x - 664) * x - 5376) * x - 9216
    return val


@dataclass(frozen=True)
class SweepResult:
    family: geometry.FamilySpec
    grid: tuple        # parameter tuples, one per point
    values: tuple      # float rho_N, or None where infeasible
    n: int
    precision_bits: int
    argmax: tuple
    max_value: float


@dataclass(frozen=True)
class CriticalPoint:
    param: float
    classification: str
    first_derivative_residual: float


@dataclass(frozen=True)
class CriticalPointReport:
    family: geometry.FamilySpec
    n: int
    points: tuple  # CriticalPoint, ascending by param


def _eval_point(args):
    family, vals, n, prec = args
    try:
        poly = family.build(*vals)
    except _INFEASIBLE:
        return None
    return float(content.rho_n(poly, n, prec).value)


def _linspace(lo: float, hi: float, steps: int):
    lo, hi = float(lo), float(hi)
    if steps < 2:
        raise ValueError(f"need at least 2 grid points, got {steps}")
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


def _sweep(family, grid, n, precision_bits, parallelism) -> SweepResult:
    """rho_N at each point of grid (tuples of the family's free values), run
    serially or, for parallelism > 1, on a process pool.

    Points where the family raises ConstraintViolated, ApexDegenerate or
    AngleOutOfRange come back as None values, not errors; a grid with no
    feasible point raises EmptyFeasibleSet.  A point whose family.twin is an
    earlier grid point, by exact equality, takes that point's value (None
    included) instead of being evaluated: rho_N is the same on both.
    """
    prec = moments.precision_for_degree(n) if precision_bits is None else precision_bits
    todo = []   # the points evaluated, in grid order
    slots = []  # each grid point's index in todo
    seen = {}   # grid point -> its index in todo
    for vals in grid:
        k = seen.get(family.twin(*vals))  # twin None is never a grid point
        if k is None:
            k = len(todo)
            todo.append(vals)
        seen.setdefault(vals, k)
        slots.append(k)
    args = [(family, vals, n, prec) for vals in todo]
    if parallelism and parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            solved = list(pool.map(_eval_point, args))
    else:
        solved = [_eval_point(a) for a in args]
    values = [solved[k] for k in slots]
    best = None
    for pt, val in zip(grid, values):
        if val is not None and (best is None or val > best[1]):
            best = (pt, val)
    if best is None:
        raise EmptyFeasibleSet("no feasible grid point in the requested range")
    return SweepResult(family, tuple(grid), tuple(values), n, prec, best[0], best[1])


def sweep_family(family: geometry.FamilySpec, lo, hi, steps: int, n: int,
                 precision_bits=None, parallelism: int = 1) -> SweepResult:
    """rho_N over a 1-D grid of the family's single free parameter; infeasible
    points are None values, as in every sweep (see _sweep)."""
    if len(family.free) != 1:
        raise ValueError(f"1-D sweep needs exactly one free parameter, got {family.free}")
    grid = [(x,) for x in _linspace(lo, hi, steps)]
    return _sweep(family, grid, n, precision_bits, parallelism)


def sweep_fixed_base(a, lam_range, steps: int, n: int,
                     precision_bits=None, parallelism: int = 1) -> SweepResult:
    """rho_N of unit-area triangles with fixed base a, apex ordinate swept."""
    if steps < 3:
        raise ValueError(f"sweep needs at least 3 steps, got {steps}")
    family = geometry.FamilySpec("triangle-base", (("a", float(a)),), ("lambda",))
    return sweep_family(family, lam_range[0], lam_range[1], steps, n,
                        precision_bits, parallelism)


def sweep_fixed_angle(theta, a_range, steps: int, n: int,
                      precision_bits=None, parallelism: int = 1) -> SweepResult:
    """rho_N of unit-area triangles with fixed interior angle, side length swept."""
    if steps < 3:
        raise ValueError(f"sweep needs at least 3 steps, got {steps}")
    family = geometry.FamilySpec("triangle-angle", (("theta", float(theta)),), ("a",))
    return sweep_family(family, a_range[0], a_range[1], steps, n,
                        precision_bits, parallelism)


def pentagon_grid(theta_range, phi_range, steps_per_axis: int, n: int,
                  precision_bits=None, parallelism: int = 1) -> SweepResult:
    """rho_N over a (theta, phi) degree grid of equilateral pentagons."""
    family = geometry.FamilySpec("pentagon", (), ("theta_deg", "phi_deg"))
    thetas = _linspace(theta_range[0], theta_range[1], steps_per_axis)
    phis = _linspace(phi_range[0], phi_range[1], steps_per_axis)
    grid = [(th, ph) for th in thetas for ph in phis]
    return _sweep(family, grid, n, precision_bits, parallelism)


def maximize_1d(family: geometry.FamilySpec, lo, hi, n: int, tol=1e-6,
                steps: int = 33, precision_bits=None) -> CriticalPointReport:
    """Locate and classify every interior critical point of rho_N over one free
    parameter: a coarse scan of `steps` points brackets each interior extremum,
    then one Newton loop per bracket, from its scan point, runs on central
    differences with h = 2^-floor(p/3) at rho precision p (good to about 2p/3
    bits).  `tol` bounds the last Newton step (floored at h^2; quadratic
    convergence puts the point far closer).  The class is the sign of the last
    f'' and first_derivative_residual is the last |f'|, taken before that step.
    NoBracketFound: the scan finds no extremum, or an iterate leaves its
    bracket or has not settled after a fixed number of steps."""
    points = [CriticalPoint(float(x), CLASS_LOCAL_MAX if d2 < 0 else
                            CLASS_LOCAL_MIN if d2 > 0 else CLASS_UNKNOWN, float(abs(d1)))
              for x, d1, d2 in _newton_points(family, lo, hi, n, tol, steps, precision_bits)]
    return CriticalPointReport(family, n, tuple(points))


def _newton_points(family, lo, hi, n, tol, steps, precision_bits):
    """maximize_1d's critical points as (x, f', f'') at working precision."""
    if len(family.free) != 1:
        raise ValueError(f"need exactly one free parameter, got {family.free}")
    if steps < 5:
        raise ValueError(f"coarse scan needs at least 5 steps, got {steps}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    prec = moments.precision_for_degree(n) if precision_bits is None else precision_bits
    cache = {}

    def f(x):
        if x not in cache:
            twin = family.twin(x)
            if twin is not None and twin[0] in cache:  # rho_N is the same on both
                cache[x] = cache[twin[0]]
            else:
                cache[x] = content.rho_n(family.build(x), n, prec).value
        return cache[x]

    # x, and the polygons built from it, carry 32 bits above rho's precision:
    # at _WORK_BITS alone f'' turns to noise at high N (N=16 never settles)
    with mp.workprec(max(_WORK_BITS, prec + 32)):
        h = mp.ldexp(1, -(prec // 3))
        stop = max(mp.mpf(tol), h * h)
        lo, hi = mp.mpf(float(lo)), mp.mpf(float(hi))
        xs = [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]
        ys = [f(x) for x in xs]
        found = [i for i in range(1, steps - 1)
                 if (ys[i] - ys[i - 1]) * (ys[i] - ys[i + 1]) > 0]  # strict extrema
        if not found:
            raise NoBracketFound(
                f"no interior extremum of rho_{n} in [{float(lo)}, {float(hi)}] "
                f"at {steps} samples")
        points = []
        for i in found:
            a, b, x = xs[i - 1], xs[i + 1], xs[i]
            for _ in range(_NEWTON_CAP):
                fm, f0, fp = f(x - h), f(x), f(x + h)
                d1, d2 = (fp - fm) / (2 * h), (fp - 2 * f0 + fm) / (h * h)
                step = d1 / d2 if d2 else 0
                x -= step
                if not a <= x <= b:
                    raise NoBracketFound(f"Newton on rho_{n} left [{float(a)}, {float(b)}]")
                if abs(step) <= stop:
                    break
            else:
                raise NoBracketFound(f"Newton on rho_{n} did not settle in "
                                     f"[{float(a)}, {float(b)}] after {_NEWTON_CAP} steps")
            points.append((x, d1, d2))
    return sorted(points)


# ---- sweep serialization ---------------------------------------------------------

CSV_HEADER = ("param1", "param2", "rho_N", "feasible")


def write_sweep(sweep: SweepResult, csv_path) -> None:
    """CSV of grid values plus a JSON sidecar (same path + '.json') holding the
    family, N, precision, and argmax.  Floats are written as repr so the pair
    of files round-trips exactly."""
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        write_sweep_csv(sweep, fh)
    with open(str(csv_path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar_dict(sweep), fh, indent=2)
        fh.write("\n")


def write_sweep_csv(sweep: SweepResult, fh) -> None:
    """The CSV half of write_sweep, to an open text handle (csv line ends)."""
    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER)
    for pt, val in zip(sweep.grid, sweep.values):
        p1 = repr(float(pt[0]))
        p2 = repr(float(pt[1])) if len(pt) > 1 else ""
        writer.writerow([p1, p2,
                         "" if val is None else repr(val),
                         "true" if val is not None else "false"])


def sidecar_dict(sweep: SweepResult) -> dict:
    return {
        "family": {
            "kind": sweep.family.kind,
            "fixed": [[name, val] for name, val in sweep.family.fixed],
            "free": list(sweep.family.free),
        },
        "n": sweep.n,
        "precision_bits": sweep.precision_bits,
        "argmax": list(sweep.argmax),
        "max_value": sweep.max_value,
    }


def read_sweep(csv_path) -> SweepResult:
    with open(str(csv_path) + ".json", "r", encoding="utf-8") as fh:
        side = json.load(fh)
    family = geometry.FamilySpec(
        side["family"]["kind"],
        tuple((name, val) for name, val in side["family"]["fixed"]),
        tuple(side["family"]["free"]),
    )
    grid = []
    values = []
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected sweep CSV header {header}")
        for p1, p2, rho, feasible in reader:
            grid.append((float(p1), float(p2)) if p2 else (float(p1),))
            values.append(float(rho) if feasible == "true" else None)
    return SweepResult(family, tuple(grid), tuple(values), int(side["n"]),
                       int(side["precision_bits"]), tuple(side["argmax"]),
                       float(side["max_value"]))
