"""Acceptance gate: the end-to-end checks the package must satisfy.

Each test prints one PASS/FAIL line (visible with pytest -s or in the captured
output of a failure) and enforces both the numerical claim and a wall-clock
budget.  The N=33 pentagon check carries the `long` marker, so `-m long` selects it.
"""

import time

import pytest
from mpmath import mp

from polyrho import content, extremal, geometry, moments, oracle

A_SET = (0.5, 1, 2, 5, 10)


def _report(label, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"{status} {label}: {detail} [{elapsed:.1f}s / limit {limit:.0f}s]")
    assert ok, f"{label}: {detail}"
    assert elapsed < limit, f"{label} exceeded budget: {elapsed:.1f}s >= {limit}s"


def _relerr(got, want):
    return abs(got - want) / max(abs(want), mp.mpf(2) ** -80)


def fixture_set():
    return [
        ("triangle", geometry.polygon_new([(0, 0), (1, 0), (0.3, 0.8)])),
        ("square", geometry.polygon_new(
            [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])),
        ("windmill-1", geometry.make_windmill(1)),
        ("windmill-2", geometry.make_windmill(2)),
        ("pentagon", geometry.make_regular_ngon(5)),
    ]


def test_01_windmill_rho1_closed_form():
    t0 = time.perf_counter()
    worst = mp.mpf(0)
    with mp.workprec(280):
        for a in A_SET:
            am = mp.mpf(a)
            expect = (3 * mp.sqrt(3) + 4 / am ** 2 + 27 * am ** 2) / 162
            poly = geometry.make_windmill(a)
            worst = max(worst,
                        _relerr(content.rho1_closed(poly), expect),
                        _relerr(content.rho_n(poly, 1).value, expect))
    _report("criterion 01 windmill rho_1", worst <= 1e-9,
            f"max rel err {mp.nstr(worst, 3)} over a in {A_SET}",
            time.perf_counter() - t0, 1.0)


def test_02_windmill_rho2_closed_form():
    t0 = time.perf_counter()
    worst = mp.mpf(0)
    with mp.workprec(280):
        for a in A_SET:
            am = mp.mpf(a)
            bulge = 1 + 90 / (27 * am ** 4 - 6 * mp.sqrt(3) * am ** 2 + 4)
            expect = (3 * mp.sqrt(3) + 4 / am ** 2 + 27 * am ** 2 * bulge) / 1620
            poly = geometry.make_windmill(a)
            worst = max(worst,
                        _relerr(content.rho2_closed(poly), expect),
                        _relerr(content.rho_n(poly, 2).value, expect))
    _report("criterion 02 windmill rho_2", worst <= 1e-9,
            f"max rel err {mp.nstr(worst, 3)} over a in {A_SET}",
            time.perf_counter() - t0, 1.0)


def test_03_quartic_threshold():
    t0 = time.perf_counter()
    t, threshold = extremal.t_star()
    resid = abs(extremal.t_star_poly(t))
    err = abs(threshold - mp.mpf("1.86637"))
    _report("criterion 03 base-length threshold",
            err <= 5e-6 and resid <= mp.mpf("1e-30"),
            f"t^(1/4) = {mp.nstr(threshold, 8)}, residual {mp.nstr(resid, 3)}",
            time.perf_counter() - t0, 1.0)


def test_04_isosceles_bifurcation():
    t0 = time.perf_counter()
    fam3 = geometry.FamilySpec("triangle-base", (("a", 3.0),), ("lambda",))
    rep3 = extremal.maximize_1d(fam3, 0.0, 3.0, 2, tol=1e-6)
    maxima = sorted(cp.param for cp in rep3.points
                    if cp.classification == extremal.CLASS_LOCAL_MAX)
    minima = [cp.param for cp in rep3.points
              if cp.classification == extremal.CLASS_LOCAL_MIN]
    off = 0.86508
    ok3 = (len(maxima) == 2 and len(minima) == 1
           and abs(maxima[0] - (1.5 - off)) <= 1e-4
           and abs(maxima[1] - (1.5 + off)) <= 1e-4
           and abs(minima[0] - 1.5) <= 1e-4)

    fam1 = geometry.FamilySpec("triangle-base", (("a", 1.0),), ("lambda",))
    rep1 = extremal.maximize_1d(fam1, -0.5, 1.5, 2, tol=1e-7)
    ok1 = (len(rep1.points) == 1
           and rep1.points[0].classification == extremal.CLASS_LOCAL_MAX
           and abs(rep1.points[0].param - 0.5) <= 1e-6)
    detail = (f"a=3 extrema {[round(cp.param, 6) for cp in rep3.points]}, "
              f"a=1 max at {rep1.points[0].param:.8f}")
    _report("criterion 04 apex bifurcation", ok3 and ok1, detail,
            time.perf_counter() - t0, 30.0)


def test_05_fixed_angle_maximizer():
    t0 = time.perf_counter()
    worst = 0.0
    for theta in (mp.pi / 6, mp.pi / 3, mp.pi / 2, 2 * mp.pi / 3):
        with mp.workprec(280):
            expect = float(mp.sqrt(2 / mp.sin(theta)))
        fam = geometry.FamilySpec("triangle-angle", (("theta", float(theta)),), ("a",))
        for n in (1, 2):
            rep = extremal.maximize_1d(fam, 0.9, 2.8, n, tol=1e-6)
            best = min((cp for cp in rep.points
                        if cp.classification == extremal.CLASS_LOCAL_MAX),
                       key=lambda cp: abs(cp.param - expect))
            worst = max(worst, abs(best.param - expect))
    _report("criterion 05 fixed-angle maximizer", worst <= 1e-5,
            f"max |a - sqrt(2 csc theta)| = {worst:.2e} over 4 angles x N in (1,2)",
            time.perf_counter() - t0, 120.0)


def test_06_closed_forms_on_random_polygons():
    t0 = time.perf_counter()
    worst = mp.mpf(0)
    for seed in range(50):
        poly = geometry.normalize(
            geometry.random_star_polygon(3 + seed % 6, seed=seed))
        _, partials = content.rho_n_telescoping(poly, 2)
        with mp.workprec(280):
            worst = max(worst,
                        _relerr(partials[1], content.rho1_closed(poly)),
                        _relerr(partials[2], content.rho2_closed(poly)))
    _report("criterion 06 random-polygon closed forms", worst <= 1e-9,
            f"max rel err {mp.nstr(worst, 3)} over 50 polygons",
            time.perf_counter() - t0, 60.0)


def test_07_oracle_equivalence():
    t0 = time.perf_counter()
    worst_rho = mp.mpf(0)
    worst_mom = 0.0
    for _, poly in fixture_set():
        prec = moments.precision_for_degree(8)
        table = moments.moment_table(poly, 18, prec)
        mesh = oracle.triangulate(poly)
        for n in range(9):
            got = mp.mpf(oracle.oracle_rho_n(poly, n))
            ref = content.rho_n(poly, n, prec, table=table).value
            worst_rho = max(worst_rho, _relerr(got, ref))
        for m in range(11):
            for n in range(11 - m):
                ref = complex(moments.complex_moment(poly, m, n))
                got = oracle.quad_moment(mesh, m, n)
                worst_mom = max(worst_mom, abs(got - ref) / max(1.0, abs(ref)))
    ok = worst_rho <= 1e-8 and worst_mom <= 1e-12
    _report("criterion 07 float64 oracle equivalence", ok,
            f"rho rel err {mp.nstr(worst_rho, 3)} (N<=8), "
            f"moment err {worst_mom:.2e} (m+n<=10)",
            time.perf_counter() - t0, 120.0)


def test_08_invariant_property_suite():
    t0 = time.perf_counter()
    failures = []
    for name, poly in fixture_set():
        result, partials = content.rho_n_telescoping(poly, 20)
        with mp.workprec(result.precision_bits + 16):
            slack = mp.mpf(2) ** -120
            if not all(partials[k + 1] <= partials[k] + slack
                       for k in range(len(partials) - 1)):
                failures.append(f"{name}: partials increase")
        base = content.rho_n(poly, 3).value
        rot = content.rho_n(geometry.rotate(poly, 0.7), 3).value
        tra = content.rho_n(geometry.translate(poly, (0.3, -0.2)), 3).value
        scl = content.rho_n(geometry.scale(poly, 1.7), 3).value
        with mp.workprec(280):
            if _relerr(rot, base) > 1e-10:
                failures.append(f"{name}: rotation")
            if _relerr(tra, base) > 1e-10:
                failures.append(f"{name}: translation")
            if _relerr(scl, base * mp.mpf("1.7") ** 4) > 1e-10:
                failures.append(f"{name}: scaling")
        t = moments.moment_table(poly, 8)
        with mp.workprec(t.precision_bits + 16):
            if not all(t.c(n, m) == mp.conj(v)
                       for (m, n), v in t.complex_entries.items()):
                failures.append(f"{name}: hermitian")
        if moments.cross_check(t) > mp.mpf(2) ** (-t.precision_bits + 20):
            failures.append(f"{name}: cross-check")
    _report("criterion 08 invariant suite", not failures,
            "monotone to N=20, rigid motions, scaling, moment identities"
            if not failures else "; ".join(failures),
            time.perf_counter() - t0, 300.0)


def test_09_pentagon_grid_peak():
    t0 = time.perf_counter()
    sweep = extremal.pentagon_grid((107.5, 108.5), (107.5, 108.5), 5, 10)
    ok_peak = sweep.argmax == (108.0, 108.0)
    worst = 0.0
    for (th, ph), v in zip(sweep.grid, sweep.values):
        if th > ph:  # copied from its twin (ph, th): solve the point on its own
            w = float(content.rho_n(sweep.family.build(th, ph), 10).value)
            worst = max(worst, abs(v - w) / max(abs(v), 1e-30))
    _report("criterion 09 pentagon grid peak",
            ok_peak and worst <= 1e-9,
            f"argmax {sweep.argmax}, swap asymmetry {worst:.2e}",
            time.perf_counter() - t0, 600.0)


@pytest.mark.long
def test_10_pentagon_degree_33():
    t0 = time.perf_counter()
    poly = geometry.make_regular_ngon(5)
    prec = moments.precision_for_degree(33)
    table = moments.moment_table(poly, content._gram_degree(33), prec)
    direct = content.rho_n(poly, 33, prec, table=table)
    telescoped, _ = content.rho_n_telescoping(poly, 33, prec, table=table)
    err = _relerr(direct.value, telescoped.value)
    ok = direct.value >= mp.mpf("0.149429") and err <= 1e-9
    _report("criterion 10 pentagon rho_33 (long)", ok,
            f"rho_33 = {mp.nstr(direct.value, 12)}, dual-path rel err {mp.nstr(err, 3)}",
            time.perf_counter() - t0, 600.0)


def test_11_steiner_contrast():
    t0 = time.perf_counter()
    sym_vals = []
    ok = True
    for a in (5, 10, 20):
        blades = geometry.make_windmill(a)
        raw = content.rho1_closed(blades)
        sym = content.rho1_closed(geometry.steiner_symmetrize(blades, "x"))
        sym_vals.append(sym)
        ok = ok and sym < raw
    big = extremal.windmill_rho_closed(20, 1)
    ok = ok and max(sym_vals) < 1 and big > 60
    _report("criterion 11 symmetrization contrast", ok,
            f"symmetrized rho_1 max {mp.nstr(max(sym_vals), 4)} < 1, "
            f"while rho_1(blades a=20) = {mp.nstr(big, 5)} > 60",
            time.perf_counter() - t0, 60.0)
