"""Output checks, run after the timed passes.

Every value an op produces is compared with a reference that the timed call
did not produce:

* closed forms (``windmill_rho_closed``, ``rho1_closed``/``rho2_closed``) where
  N <= 2;
* ``oracle_rho_n`` to 1e-8 wherever the float64 oracle certifies its answer;
* otherwise ``rho_n`` recomputed at 64 more bits than the program used.  Off-frame
  copies ``offset + s T`` are recomputed on the triangle T itself and scaled by
  s^4, so their reference does not depend on the frame defect they probe.

References for the seed-independent inputs and for seed 0 are stored in
``refs.json`` (see ``make_refs.py``); any other reference is computed here.

A value further from its reference than its tolerance is a mismatch: RHO_TOL
for the multiprecision values of ``rho`` (every one is computed at 256 bits or
more and claims far more than 20 digits), FLOAT_TOL for the float64 values of
sweeps and grids.  On an ordinary
input a mismatch, a missing output or a non-zero exit makes the run incorrect.
The off-frame inputs (``Op.probe``) carry the frame defect recorded in the
roadmap: their failures and mismatches are counted as failed ops instead, so
the defect stays visible without hiding every other check behind it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re

from mpmath import mp

from polyrho import content, extremal, geometry, moments, oracle
from polyrho.errors import GeometryError, NumericalError

RHO_TOL = "1e-20"
FLOAT_TOL = "1e-9"
ORACLE_TOL = 1e-8
SWAP_TOL = 1e-9
EXTRA_BITS = 64
# maximize_1d on triangle-base:3 at N=2: the apex bifurcation of the paper
APEX_OFFSET = 0.86508
APEX_EXPECTED = (("local-max", 1.5 - APEX_OFFSET), ("local-min", 1.5),
                 ("local-max", 1.5 + APEX_OFFSET))
# the regular pentagon maximizes rho_N among equilateral pentagons
REGULAR_CORNER = (108.0, 108.0)
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def polygon_key(poly) -> str:
    h = hashlib.sha256()
    for x, y in poly.vertices:
        h.update(repr((x._mpf_, y._mpf_)).encode())
    return h.hexdigest()[:20]


def _digits(bits: int) -> float:
    return bits * math.log10(2)


class References:
    """Stored references plus a memo of everything computed in this run."""

    def __init__(self, path=REFS_PATH):
        self.stored = {}
        if path and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self.stored = json.load(fh)
        self.computed = {}
        self._tables = {}

    def table(self, poly, maxdeg: int, bits: int):
        key = (polygon_key(poly), maxdeg, bits)
        if key not in self._tables:
            self._tables[key] = moments.moment_table(poly, maxdeg, bits)
        return self._tables[key]

    def rho(self, poly, n: int, bits: int, scale=None):
        """rho_N of poly at `bits` (times scale^4 when given)."""
        key = f"rho:{polygon_key(poly)}:{n}:{bits}:{scale or 1}"
        with mp.workprec(bits):
            if key in self.stored:
                return mp.mpf(self.stored[key])
            if key not in self.computed:
                value = content.rho_n(poly, n, bits, table=self.table(poly, 2 * n + 2, bits)).value
                if scale is not None:
                    value = value * mp.mpf(scale) ** 4
                self.computed[key] = +value
            return self.computed[key]

    def dump(self, path=REFS_PATH) -> None:
        doc = dict(self.stored)
        for key, val in self.computed.items():
            bits = int(key.split(":")[3])
            doc[key] = mp.nstr(val, int(_digits(bits)) + 5)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


class Report:
    def __init__(self):
        self.correct = True
        self.problems = []        # make the run incorrect
        self.notes = []           # known-defect findings on probe inputs
        self.mismatched = set()   # op names whose output missed its reference
        self.digits = []          # correct digits of every value that passed
        self.overclaims = []      # certified_digits minus correct digits, rho ops
        self.oracle_failed = 0

    def fail(self, msg: str) -> None:
        self.correct = False
        self.problems.append(msg)

    def miss(self, op, msg: str) -> None:
        self.mismatched.add(op.name)
        if op.probe:
            self.notes.append(msg)
        else:
            self.fail(msg)


def _relerr(got, want):
    with mp.workprec(max(mp.prec, 128)):
        return abs(mp.mpf(got) - want) / max(abs(want), mp.mpf(2) ** -200)


def _correct_digits(rel, cap_bits: int) -> float:
    if rel == 0:
        return _digits(cap_bits)
    return min(float(-mp.log10(rel)), _digits(cap_bits))


def _family_polygon(text: str):
    kind, _, vals = text.partition(":")
    names = geometry.FAMILY_PARAMS[kind]
    fixed = tuple(zip(names, (float(v) for v in vals.split(","))))
    return geometry.FamilySpec(kind, fixed, ()).build()


def _file_polygon(text: str):
    return geometry.polygon_new([tuple(line.split()) for line in text.splitlines() if line])


def source_polygon(wl, source):
    flag, arg = source
    if flag == "--family":
        return _family_polygon(arg)
    return _file_polygon(wl.files[os.path.basename(arg)])


def _oracle_check(report, op, poly, n, value) -> None:
    """Compare with the float64 oracle where it certifies; count its refusals
    (also on inputs whose op failed, where there is no value to compare)."""
    try:
        got = oracle.oracle_rho_n(poly, n)
    except NumericalError as exc:
        report.oracle_failed += 1
        if op.probe:
            report.notes.append(f"{op.name}: oracle refused ({type(exc).__name__})")
        return
    if value is not None and _relerr(got, value) > ORACLE_TOL:
        report.miss(op, f"{op.name}: oracle {got!r} vs {mp.nstr(value, 17)}")


def check_rho(report, refs, wl, op, run, out_dir) -> None:
    with open(os.path.join(out_dir, op.outputs[0]), encoding="utf-8") as fh:
        doc = json.load(fh)
    n, bits = doc["n"], doc["precision_bits"]
    ref_bits = bits + EXTRA_BITS
    poly = source_polygon(wl, op.spec["source"])
    frame = op.spec.get("off_frame")
    if frame:
        ref = refs.rho(geometry.polygon_new(frame["triangle"]), n, ref_bits,
                       scale=frame["scale"])
    else:
        ref = refs.rho(poly, n, ref_bits)
    with mp.workprec(ref_bits):
        value = mp.mpf(doc["value"])
        rel = _relerr(value, ref)
    digits = _correct_digits(rel, ref_bits)
    report.overclaims.append(doc["certified_digits"] - digits)
    if rel > mp.mpf(RHO_TOL):
        report.miss(op, f"{op.name}: {doc['value'][:20]} has {digits:.1f} correct digits "
                        f"(claims {doc['certified_digits']})")
    else:
        report.digits.append(digits)
    _oracle_check(report, op, poly, n, value)


def _read_sweep(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    with open(os.path.join(out_dir, name + ".json"), encoding="utf-8") as fh:
        side = json.load(fh)
    points = []
    for p1, p2, rho, feasible in rows:
        pt = (float(p1), float(p2)) if p2 else (float(p1),)
        points.append((pt, float(rho) if feasible == "true" else None))
    return points, side


def _check_values(report, op, pairs) -> None:
    """pairs: (point, program float, reference mpf)."""
    for pt, got, ref in pairs:
        rel = _relerr(got, ref)
        if rel > mp.mpf(FLOAT_TOL):
            report.miss(op, f"{op.name} at {pt}: {got!r} vs {mp.nstr(ref, 17)}")
        else:
            report.digits.append(_correct_digits(rel, 256))


def _check_argmax(report, op, side, pairs) -> None:
    """The reported argmax must hold the reference maximum (to FLOAT_TOL, so a
    near-tie between grid points may go either way)."""
    refs = {pt: ref for pt, _, ref in pairs}
    if not refs:
        return
    best = max(refs.values())
    at = refs.get(tuple(side["argmax"]))
    if at is None or _relerr(at, best) > mp.mpf(FLOAT_TOL):
        report.miss(op, f"{op.name}: argmax {side['argmax']} does not hold the "
                        f"reference maximum {mp.nstr(best, 12)}")


def _closed_form(op, a):
    """rho_1 or rho_2 of the swept family member with parameter a."""
    kind, n = op.spec["kind"], op.spec["n"]
    if kind == "windmill":
        return extremal.windmill_rho_closed(a, n)
    fixed = (("theta", op.spec["theta"]),) if kind == "triangle-angle" else (("a", 3.0),)
    free = ("a",) if kind == "triangle-angle" else ("lambda",)
    poly = geometry.FamilySpec(kind, fixed, free).build(a)
    return (content.rho1_closed if n == 1 else content.rho2_closed)(poly)


def check_sweep(report, refs, wl, op, run, out_dir) -> None:
    points, side = _read_sweep(out_dir, op.outputs[0])
    pairs = []
    for pt, got in points:
        if got is None:
            report.miss(op, f"{op.name}: no value at {pt}")
            continue
        with mp.workprec(256):
            pairs.append((pt, got, _closed_form(op, pt[0])))
    _check_values(report, op, pairs)
    _check_argmax(report, op, side, pairs)


def check_grid(report, refs, wl, op, run, out_dir) -> None:
    points, side = _read_sweep(out_dir, op.outputs[0])
    n, bits = side["n"], side["precision_bits"]
    spec = geometry.FamilySpec("pentagon", (), ("theta_deg", "phi_deg"))
    values = dict(points)
    pairs = []
    for pt, got in points:
        try:
            poly = spec.build(*pt)
        except GeometryError:
            if got is not None:
                report.miss(op, f"{op.name}: infeasible {pt} has value {got!r}")
            continue
        if got is None:
            report.miss(op, f"{op.name}: feasible {pt} reported infeasible")
            continue
        pairs.append((pt, got, refs.rho(poly, n, bits + EXTRA_BITS)))
        _oracle_check(report, op, poly, n, mp.mpf(got))
        twin = values.get((pt[1], pt[0]))
        if twin is None or abs(got - twin) > SWAP_TOL * abs(got):
            report.miss(op, f"{op.name}: swap asymmetry at {pt}: {got!r} vs {twin!r}")
    _check_values(report, op, pairs)
    _check_argmax(report, op, side, pairs)
    if REGULAR_CORNER in values and tuple(side["argmax"]) != REGULAR_CORNER:
        report.miss(op, f"{op.name}: argmax {side['argmax']} is not the regular pentagon")


def check_moments(report, refs, wl, op, run, out_dir) -> None:
    with open(os.path.join(out_dir, op.outputs[0]), encoding="utf-8") as fh:
        doc = json.load(fh)
    bits, maxdeg = doc["precision_bits"], doc["maxdeg"]
    poly = source_polygon(wl, op.spec["source"])
    ref = refs.table(poly, maxdeg, bits + EXTRA_BITS)
    with mp.workprec(bits + EXTRA_BITS):
        scale = {}
        for (m, k), c in ref.complex_entries.items():
            scale[m + k] = max(scale.get(m + k, mp.mpf(0)), abs(c), abs(ref.real(m, k)))
        keys = {(e["m"], e["n"]) for e in doc["entries"]}
        if keys != set(ref.complex_entries):
            report.miss(op, f"{op.name}: table holds {len(keys)} entries, "
                            f"expected {len(ref.complex_entries)}")
        for e in doc["entries"]:
            m, k = e["m"], e["n"]
            tol = mp.mpf(2) ** (32 - bits) * max(scale[m + k], 1)
            err = max(abs(mp.mpc(*map(mp.mpf, e["c"])) - ref.c(m, k)),
                      abs(mp.mpf(e["I"]) - ref.real(m, k)))
            if err > tol:
                report.miss(op, f"{op.name}: c/I[{m}][{k}] off by {mp.nstr(err, 3)}")
                return


def check_maximize(report, refs, wl, op, run, out_dir) -> None:
    tol = max(1e-4, 10 * op.spec["tol"])
    got = [(cp.classification, cp.param) for cp in run.result.points]
    ok = len(got) == len(APEX_EXPECTED) and all(
        g[0] == w[0] and abs(g[1] - w[1]) <= tol for g, w in zip(got, APEX_EXPECTED))
    if not ok:
        report.miss(op, f"{op.name}: critical points {got}, expected {APEX_EXPECTED}")


def check_verify(report, refs, wl, op, run, out_dir) -> None:
    if not re.search(r"^\d+ passed, 0 failed", run.stdout, re.M):
        report.miss(op, f"{op.name}: verify reported failures: {run.stdout[-300:]!r}")


CHECKS = {
    "rho": check_rho,
    "sweep": check_sweep,
    "grid": check_grid,
    "moments": check_moments,
    "maximize": check_maximize,
    "verify": check_verify,
}


def _file_digest(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_run(wl, passes, refs: References) -> Report:
    """Check the first pass's outputs against references, and every later pass
    against the first (byte-identical files, equal API results)."""
    report = Report()
    first = passes[0]
    for i, op in enumerate(wl.ops):
        runs = [p.runs[i] for p in passes]
        bad = [r for r in runs if r.failed]
        if bad:
            msg = f"{op.name}: {bad[0].why} in {len(bad)} of {len(runs)} passes"
            if op.probe:
                report.notes.append(msg)
            else:
                report.fail(msg)
        if runs[0].failed:
            if op.kind == "rho":
                _oracle_check(report, op, source_polygon(wl, op.spec["source"]), op.spec["n"], None)
            continue
        try:
            CHECKS[op.kind](report, refs, wl, op, runs[0], first.dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            report.miss(op, f"{op.name}: unreadable output ({type(exc).__name__}: {exc})")
        for p, r in zip(passes[1:], runs[1:]):
            if op.kind == "maximize" and not r.failed and r.result != runs[0].result:
                report.fail(f"{op.name}: pass {p.index} result differs from pass 0")
            for out in op.outputs:
                if _file_digest(os.path.join(p.dir, out)) != _file_digest(os.path.join(first.dir, out)):
                    report.fail(f"{op.name}: {out} differs between pass 0 and pass {p.index}")
    return report
