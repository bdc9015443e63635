"""Seeded inputs and the fixed op list of each benchmark workload.

An op is one call to ``polyrho.cli.main(argv)`` or to one ``polyrho.extremal``
function.  The workload seed picks the random-star polygons, the off-frame
offsets and scales, and the sweep parameters; the program only ever sees the
generated polygon files and command lines.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from decimal import Decimal

WORKLOADS = ("certify-high-n", "sweep-low-n", "cache-verify")

# precision_for_degree(12) under the seed policy max(256, 24 N + 64); the cold
# `moments` write must use the precision the warm `rho --n 12` reads ask for,
# or every read misses the cache
CACHE_N = 12
CACHE_BITS = 24 * CACHE_N + 64


@dataclass
class Op:
    """One timed call.  ``argv`` entries may contain ``{d}`` (the pass's own
    output directory) and ``{in}`` (the shared input directory)."""

    name: str
    kind: str                      # rho | moments | sweep | grid | maximize | verify
    argv: tuple = ()
    outputs: tuple = ()            # files the op writes, relative to {d}
    spec: dict = field(default_factory=dict)   # what the checks need to know
    probe: bool = False            # off-frame input of the known frame defect

    def command(self, pass_dir: str, input_dir: str) -> list:
        return [a.replace("{d}", pass_dir).replace("{in}", input_dir) for a in self.argv]


@dataclass
class Workload:
    ops: list
    files: dict                    # input file name -> text, written before the first op


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _polygon_text(points) -> str:
    return "".join(f"{x} {y}\n" for x, y in points)


def _star_points(n_vertices: int, seed: int):
    """Vertices of polyrho's seeded random star, printed to 40 digits; the
    polygon the program reads is the one the checks rebuild from this text."""
    from mpmath import mp

    from polyrho import geometry

    poly = geometry.random_star_polygon(n_vertices, seed=seed)
    return [(mp.nstr(x, 40), mp.nstr(y, 40)) for x, y in poly.vertices]


def _off_frame(rng: random.Random, decade: int):
    """A seeded triangle scaled by s in [1, 2) * 10^-decade and translated by
    about (100, 100).  Coordinates are short decimals, so the file is exact and
    the reference can use rho_N(offset + s T) = s^4 rho_N(T)."""
    tri = [("0", "0"), ("1", "0"),
           (f"{rng.uniform(0.2, 0.8):.6f}", f"{rng.uniform(0.5, 1.0):.6f}")]
    s = f"{rng.uniform(1.0, 2.0) * 10.0 ** -decade:.6e}"
    ox = f"{100 + rng.uniform(-5, 5):.6f}"
    oy = f"{100 + rng.uniform(-5, 5):.6f}"
    ds, dx, dy = Decimal(s), Decimal(ox), Decimal(oy)
    points = [(str(dx + ds * Decimal(tx)), str(dy + ds * Decimal(ty))) for tx, ty in tri]
    return points, {"triangle": tri, "scale": s}


def _rho_op(name, source, n, out, probe=False, extra=(), spec=None):
    argv = ("rho", *source, "--n", str(n), *extra, "--output", "{d}/" + out)
    return Op(name, "rho", argv, (out,), dict(spec or {}, n=n, source=source), probe)


def certify_high_n(seed: int, small: bool) -> Workload:
    rng = _rng("certify-high-n", seed)
    n_pent, n_wind, n_star, n_milli, n_centi = (4, 3, 3, 3, 4) if small else (18, 12, 12, 10, 12)
    star_seed = rng.randrange(1 << 30)
    milli, milli_spec = _off_frame(rng, 3)
    centi, centi_spec = _off_frame(rng, 2)
    files = {
        "star.txt": _polygon_text(_star_points(6 if small else 8, star_seed)),
        "off_milli.txt": _polygon_text(milli),
        "off_centi.txt": _polygon_text(centi),
    }
    ops = [
        _rho_op("rho:pentagon", ("--family", "regular-ngon:5"), n_pent, "pentagon.json"),
        _rho_op("rho:windmill", ("--family", "windmill:2"), n_wind, "windmill.json"),
        _rho_op("rho:star", ("--polygon", "{in}/star.txt"), n_star, "star.json"),
        _rho_op("rho:off-milli", ("--polygon", "{in}/off_milli.txt"), n_milli,
                "off_milli.json", probe=True, spec={"off_frame": milli_spec}),
        _rho_op("rho:off-centi", ("--polygon", "{in}/off_centi.txt"), n_centi,
                "off_centi.json", probe=True, spec={"off_frame": centi_spec}),
    ]
    return Workload(ops, files)


def sweep_low_n(seed: int, small: bool) -> Workload:
    rng = _rng("sweep-low-n", seed)
    theta = rng.uniform(0.6, 2.0)
    wlo, whi = rng.uniform(0.5, 1.0), rng.uniform(3.0, 5.0)
    steps = 3 if small else 7
    n_grid = 2 if small else 5
    # 96..132 in 6-degree steps puts the regular corner 108 on the grid and
    # leaves 11 of 49 points outside the feasible region
    grid_range = "102:114" if small else "96:132"
    ops = [
        Op("grid:pentagon", "grid",
           ("pentagon-grid", "--theta", grid_range, "--phi", grid_range,
            "--steps", str(steps), "--n", str(n_grid), "--output", "{d}/grid.csv"),
           ("grid.csv", "grid.csv.json"), {"n": n_grid}),
        Op("sweep:triangle-angle", "sweep",
           ("sweep", "--family", f"triangle-angle:{theta!r}", "--param", "a",
            "--range", "0.9:2.8", "--steps", str(steps if small else 9), "--n", "2",
            "--output", "{d}/angle.csv"),
           ("angle.csv", "angle.csv.json"), {"n": 2, "kind": "triangle-angle", "theta": theta}),
        Op("sweep:triangle-base", "sweep",
           ("sweep", "--family", "triangle-base:3", "--param", "lambda",
            "--range", "0.1:3", "--steps", str(steps if small else 30), "--n", "2",
            "--output", "{d}/base.csv"),
           ("base.csv", "base.csv.json"), {"n": 2, "kind": "triangle-base"}),
        Op("sweep:windmill", "sweep",
           ("sweep", "--family", "windmill", "--param", "a",
            "--range", f"{wlo!r}:{whi!r}", "--steps", str(steps if small else 9), "--n", "2",
            "--output", "{d}/windmill.csv"),
           ("windmill.csv", "windmill.csv.json"), {"n": 2, "kind": "windmill"}),
        Op("maximize:triangle-base", "maximize", (), (),
           {"n": 2, "lo": 0.0, "hi": 3.0, "steps": 9 if small else 33,
            "tol": 1e-3 if small else 1e-6}),
    ]
    return Workload(ops, {})


def cache_verify(seed: int, small: bool) -> Workload:
    rng = _rng("cache-verify", seed)
    n = 3 if small else CACHE_N
    bits = 256 if small else CACHE_BITS
    files = {"cache_star.txt": _polygon_text(_star_points(8, rng.randrange(1 << 30)))}
    src = ("--polygon", "{in}/cache_star.txt")
    cache = ("--moment-cache", "{d}/cache.json")
    ops = [
        Op("verify", "verify", ("verify",)),
        Op("moments:cold", "moments",
           ("moments", *src, "--maxdeg", str(2 * n + 2), "--precision-bits", str(bits),
            *cache, "--output", "{d}/moments.json"),
           ("moments.json", "cache.json"), {"source": src}),
    ]
    for k in range(2 if small else 5):
        ops.append(_rho_op(f"rho:warm{k}", src, n, f"rho_warm{k}.json", extra=cache))
    return Workload(ops, files)


BUILDERS = {
    "certify-high-n": certify_high_n,
    "sweep-low-n": sweep_low_n,
    "cache-verify": cache_verify,
}


def build(name: str, seed: int, small: bool = False) -> Workload:
    return BUILDERS[name](seed, small)


def write_inputs(wl: Workload, input_dir: str) -> None:
    os.makedirs(input_dir, exist_ok=True)
    for fname, text in wl.files.items():
        with open(os.path.join(input_dir, fname), "w", encoding="utf-8") as fh:
            fh.write(text)
