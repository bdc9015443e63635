import random
from types import SimpleNamespace

import pytest
from mpmath import mp

from polyrho import content, extremal, geometry, moments
from polyrho.errors import (
    ApexDegenerate,
    ConstraintViolated,
    EmptyFeasibleSet,
    NoBracketFound,
    NonpositiveParameter,
)


@pytest.mark.parametrize("a", [0.7, 1.5, 4])
@pytest.mark.parametrize("order", [1, 2])
def test_windmill_closed_form_matches_generic(a, order):
    poly = geometry.make_windmill(a)
    formula = extremal.windmill_rho_closed(a, order)
    direct = content.rho_n(poly, order).value
    closed = content.rho1_closed(poly) if order == 1 else content.rho2_closed(poly)
    with mp.workprec(280):
        assert abs(formula - direct) <= mp.mpf("1e-40") * (1 + abs(formula))
        assert abs(formula - closed) <= mp.mpf("1e-40") * (1 + abs(formula))


def test_windmill_closed_form_validation():
    with pytest.raises(ValueError):
        extremal.windmill_rho_closed(2, 3)
    with pytest.raises(NonpositiveParameter):
        extremal.windmill_rho_closed(-1, 1)


def test_t_star_is_a_root_with_expected_fourth_root():
    t, threshold = extremal.t_star()
    assert abs(extremal.t_star_poly(t)) < mp.mpf("1e-60")
    with mp.workprec(280):
        assert abs(threshold ** 4 - t) < mp.mpf("1e-60")
    assert 1.8 < threshold < 1.9
    # the quartic changes sign across the root
    assert extremal.t_star_poly(t - mp.mpf("1e-10")) < 0
    assert extremal.t_star_poly(t + mp.mpf("1e-10")) > 0


def test_t_star_bits_are_pinned():
    # the root and its fourth root as 304 bisection steps at 288 bits gave them
    t, threshold = extremal.t_star()
    assert t._mpf_ == (
        0, 43905594430561251371899608438472604120736308825016394991477156192315580527881,
        -251, 255)
    assert threshold._mpf_ == (
        0, 27013859727748542885497351169084325517187372895692491513691302602607396570885,
        -253, 254)


def test_sweep_family_grid_and_argmax():
    spec = geometry.FamilySpec("windmill", (), ("a",))
    sweep = extremal.sweep_family(spec, 1.0, 3.0, 5, 1)
    assert len(sweep.grid) == 5
    assert [pt[0] for pt in sweep.grid] == [1.0, 1.5, 2.0, 2.5, 3.0]
    assert all(v is not None for v in sweep.values)
    # rho_1 grows with a in this range, so the argmax is the right endpoint
    assert sweep.argmax == (3.0,)
    assert sweep.max_value == max(sweep.values)
    ref = float(extremal.windmill_rho_closed(2.0, 1))
    assert abs(sweep.values[2] - ref) < 1e-12 * (1 + abs(ref))


def test_sweep_symmetry_about_isosceles_position():
    # the sweep copies each mirror point's value from its twin, so the value
    # is checked against rho_2 of the mirror triangle, solved on its own
    sweep = extremal.sweep_fixed_base(3.0, (0.0, 3.0), 13, 2)
    for (lam,), left in zip(sweep.grid, sweep.values):
        right = float(content.rho_n(sweep.family.build(3.0 - lam), 2).value)
        assert abs(left - right) <= 1e-12 * (1 + abs(left))


def test_sweep_fixed_angle_wrapper():
    sweep = extremal.sweep_fixed_angle(float(mp.pi / 2), (1.0, 2.0), 5, 1)
    assert len(sweep.values) == 5
    assert all(v > 0 for v in sweep.values)


def test_parallel_sweep_matches_serial():
    spec = geometry.FamilySpec("triangle-base", (("a", 2.0),), ("lambda",))
    serial = extremal.sweep_family(spec, 0.0, 2.0, 6, 2, parallelism=1)
    parallel = extremal.sweep_family(spec, 0.0, 2.0, 6, 2, parallelism=3)
    assert serial.values == parallel.values
    assert serial.argmax == parallel.argmax


def test_pentagon_grid_marks_infeasible_points():
    sweep = extremal.pentagon_grid((60.0, 170.0), (60.0, 170.0), 4, 1)
    assert len(sweep.grid) == 16
    assert any(v is None for v in sweep.values)
    assert any(v is not None for v in sweep.values)
    feasible = [v for v in sweep.values if v is not None]
    assert sweep.max_value == max(feasible)
    # a 1-D sweep marks infeasible points the same way
    spec = geometry.FamilySpec("pentagon", (("theta_deg", 108.0),), ("phi_deg",))
    line = extremal.sweep_family(spec, 60, 170, 6, 1)
    assert any(v is None for v in line.values)
    assert any(isinstance(v, float) for v in line.values)


def test_pentagon_grid_swap_symmetry():
    # the grid copies (phi, theta) from (theta, phi): compare with a fresh solve
    sweep = extremal.pentagon_grid((100.0, 116.0), (100.0, 116.0), 3, 2)
    for (th, ph), v in zip(sweep.grid, sweep.values):
        w = float(content.rho_n(sweep.family.build(ph, th), 2).value)
        assert abs(v - w) <= 1e-11 * (1 + abs(v))


def _feasible_angles(rng):
    spec = geometry.FamilySpec("pentagon", (), ("theta_deg", "phi_deg"))
    while True:
        pair = (rng.uniform(90.0, 130.0), rng.uniform(90.0, 130.0))
        try:
            spec.build(*pair)
            return pair
        except (ConstraintViolated, ApexDegenerate):
            continue


def test_twins_are_mirror_images_with_equal_rho():
    rng = random.Random(17)
    pentagon = geometry.FamilySpec("pentagon", (), ("theta_deg", "phi_deg"))
    base = geometry.FamilySpec("triangle-base", (("a", 3.0),), ("lambda",))
    with mp.workprec(300):
        mpf_lam = mp.mpf(rng.uniform(0.0, 3.0)) / 7
    cases = [(pentagon, _feasible_angles(rng)) for _ in range(3)]
    # 3 - lambda is exact for a float lambda in [1.5, 3] and for any mpf
    cases += [(base, (rng.uniform(1.5, 3.0),)) for _ in range(2)] + [(base, (mpf_lam,))]
    for spec, vals in cases:
        twin = spec.twin(*vals)
        assert twin is not None and spec.twin(*twin) == vals
        assert twin != vals
        v = content.rho_n(spec.build(*vals), 3).value
        w = content.rho_n(spec.build(*twin), 3).value
        with mp.workprec(300):
            assert abs(v - w) <= mp.mpf("1e-60") * v


def test_twin_is_none_without_an_exact_mirror_member():
    assert geometry.FamilySpec("windmill", (), ("a",)).twin(2.0) is None
    assert geometry.FamilySpec("triangle-angle", (("theta", 1.1),), ("a",)).twin(2.0) is None
    assert geometry.FamilySpec("regular-ngon", (), ("n",)).twin(5.0) is None
    assert geometry.FamilySpec("pentagon", (("theta_deg", 108.0),), ("phi_deg",)).twin(110.0) is None
    assert geometry.FamilySpec("triangle-base", (), ("a", "lambda")).twin(3.0, 1.0) is None
    assert geometry.FamilySpec("triangle-base", (("lambda", 1.0),), ("a",)).twin(3.0) is None
    # 3 - 0.1 needs bits below 0.1's last one, so it is not a float
    assert geometry.FamilySpec("triangle-base", (("a", 3.0),), ("lambda",)).twin(0.1) is None


def _counting(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_symmetric_grid_solves_each_mirror_pair_once(monkeypatch):
    evals = _counting(monkeypatch, extremal, "_eval_point")
    solves = _counting(monkeypatch, content, "rho_n")
    # 7 x 7 points, 28 up to the swap, of which 7 are infeasible
    sweep = extremal.pentagon_grid((96.0, 132.0), (96.0, 132.0), 7, 1)
    assert (len(evals), len(solves)) == (28, 21)
    assert sum(v is not None for v in sweep.values) == 38


def test_maximize_reads_mirror_points_from_their_twins(monkeypatch):
    solves = _counting(monkeypatch, content, "rho_n")
    spec = geometry.FamilySpec("triangle-base", (("a", 3.0),), ("lambda",))
    report = extremal.maximize_1d(spec, 0, 3, 2)
    assert len(solves) <= 29
    assert [cp.classification for cp in report.points] == \
        [extremal.CLASS_LOCAL_MAX, extremal.CLASS_LOCAL_MIN, extremal.CLASS_LOCAL_MAX]


def test_symmetric_grid_same_serial_and_in_a_pool():
    serial = extremal.pentagon_grid((100.0, 116.0), (100.0, 116.0), 3, 1)
    pooled = extremal.pentagon_grid((100.0, 116.0), (100.0, 116.0), 3, 1, parallelism=2)
    assert serial == pooled


def test_pentagon_grid_empty_region_raises():
    with pytest.raises(EmptyFeasibleSet):
        extremal.pentagon_grid((165.0, 172.0), (165.0, 172.0), 3, 1)


def test_maximize_finds_windmill_minimum():
    # rho_1 of the windmill family has a single interior minimum at
    # a = (4/27)^(1/4), the regular hexagon
    spec = geometry.FamilySpec("windmill", (), ("a",))
    report = extremal.maximize_1d(spec, 0.3, 1.5, 1, tol=1e-8)
    assert len(report.points) == 1
    cp = report.points[0]
    assert cp.classification == extremal.CLASS_LOCAL_MIN
    expected = float((mp.mpf(4) / 27) ** mp.mpf("0.25"))
    assert abs(cp.param - expected) < 1e-7
    assert cp.first_derivative_residual < 1e-6


def _closed(expr):
    with mp.workprec(320):
        return expr()


CLOSED_FORM_POINTS = [
    # (family, lo, hi, N, expected critical point, expected sign of f'')
    *[(geometry.FamilySpec("triangle-angle", (("theta", th),), ("a",)), 0.9, 2.8, n,
       _closed(lambda th=th: mp.sqrt(2 / mp.sin(th))), -1)
      for th in (0.8, 1.6) for n in (1, 2)],
    (geometry.FamilySpec("triangle-base", (("a", 1.0),), ("lambda",)), -0.5, 1.5, 2,
     mp.mpf("0.5"), -1),
    (geometry.FamilySpec("windmill", (), ("a",)), 0.3, 1.5, 1,
     _closed(lambda: (mp.mpf(4) / 27) ** mp.mpf("0.25")), 1),
]


@pytest.mark.parametrize("spec, lo, hi, n, expected, sign", CLOSED_FORM_POINTS)
def test_newton_points_match_closed_forms_to_30_digits(spec, lo, hi, n, expected, sign):
    points = extremal._newton_points(spec, lo, hi, n, 1e-30, 33, None)
    x, d1, d2 = min(points, key=lambda pt: abs(pt[0] - expected))
    with mp.workprec(320):
        assert abs(x - expected) <= mp.mpf("1e-30") * expected
    assert mp.sign(d2) == sign
    assert abs(d1) <= mp.mpf("1e-30")


def test_newton_points_keep_30_digits_above_work_bits():
    # at N=16 rho runs at 448 bits: x must carry more than _WORK_BITS, or the
    # second difference is noise and the loop does not settle
    spec = geometry.FamilySpec("triangle-angle", (("theta", 1.6),), ("a",))
    (x, _, d2), = extremal._newton_points(spec, 1.2, 1.7, 16, 1e-30, 5, None)
    with mp.workprec(480):
        assert abs(x - mp.sqrt(2 / mp.sin(mp.mpf(1.6)))) <= mp.mpf("1e-30")
    assert d2 < 0


def test_apex_bifurcation_maxima_to_30_digits():
    spec = geometry.FamilySpec("triangle-base", (("a", 3.0),), ("lambda",))
    points = extremal._newton_points(spec, 0.0, 3.0, 2, 1e-30, 33, None)
    assert [mp.sign(d2) for _, _, d2 in points] == [-1, 1, -1]
    (left, _, _), (mid, _, _), (right, _, _) = points
    with mp.workprec(320):
        eps = mp.mpf("1e-30")
        # right's Newton loop may read left's values through the twins, so it
        # is checked against the reference, not against 3 - left
        ref = mp.mpf("0.634918846502124432725511375701")
        assert abs(left - ref) <= eps
        assert abs(right - (3 - ref)) <= eps
        assert abs(mid - mp.mpf("1.5")) <= eps


def test_maximize_rejects_bad_tol_and_range_before_evaluating(monkeypatch):
    calls = []
    monkeypatch.setattr(content, "rho_n", lambda *args: calls.append(args))
    spec = geometry.FamilySpec("triangle-base", (("a", 1.0),), ("lambda",))
    for tol in (0, -1, float("nan")):
        with pytest.raises(ValueError):
            extremal.maximize_1d(spec, -0.5, 1.5, 1, tol=tol, steps=9)
    spec3 = geometry.FamilySpec("triangle-base", (("a", 3.0),), ("lambda",))
    for lo, hi in ((3.0, 0.0), (1.0, 1.0)):
        with pytest.raises(ValueError):
            extremal.maximize_1d(spec3, lo, hi, 2)
    assert calls == []


class _Curve:
    """A one-parameter stand-in family whose "polygon" is its parameter, so a
    patched content.rho_n can hand the Newton loop any curve."""
    free = ("x",)

    def build(self, x):
        return x

    def twin(self, x):
        return None


def test_newton_loop_guards(monkeypatch):
    curve = {}
    monkeypatch.setattr(content, "rho_n",
                        lambda x, n, prec: SimpleNamespace(value=curve["g"](x)))

    def points(g, tol=1e-6):
        curve["g"] = g
        return extremal.maximize_1d(_Curve(), -1, 1, 1, tol=tol, steps=5).points

    # f'' exactly 0 at the scan point: the loop stops and cannot classify
    (cp,) = points(lambda x: min(2 * x + 1, mp.mpf(0.5) - x))
    assert (cp.param, cp.classification, cp.first_derivative_residual) == \
        (0.0, extremal.CLASS_UNKNOWN, 1.0)
    # a tol below what the differences resolve still ends at the h^2 floor,
    # with noise of the size of rho_n's roundoff at 256 bits
    (cp,) = points(lambda x: -(x - mp.mpf(1) / 3) ** 2 + mp.ldexp(mp.sin(x * 2 ** 100), -258),
                   tol=1e-300)
    assert cp.classification == extremal.CLASS_LOCAL_MAX
    assert cp.param == pytest.approx(1 / 3, rel=1e-15)
    # each step overshoots by a factor 4 until the iterate leaves [-0.5, 0.5]
    with pytest.raises(NoBracketFound, match="left"):
        points(lambda x: -abs(x - mp.mpf("0.1")) ** mp.mpf("1.2"))
    # on a quartic Newton only gains a factor 2/3 per step
    with pytest.raises(NoBracketFound, match="did not settle"):
        points(lambda x: -(x - mp.mpf("0.1")) ** 4, tol=1e-12)


@pytest.mark.parametrize("n, eigenvalues", [(2, (-0.404, -0.0426)), (5, (-0.289, -0.0305))])
def test_regular_pentagon_is_strict_local_maximum(n, eigenvalues):
    # gradient and Hessian of rho_N over the equilateral (theta, phi) pentagons
    # at the regular one, from 7 evaluations with h = 2^(-p/4) radians
    prec = moments.precision_for_degree(n)
    with mp.workprec(prec + 64):
        t0, h = 3 * mp.pi / 5, mp.ldexp(1, -(prec // 4))

        def f(i, j):
            poly = geometry.make_equilateral_pentagon(t0 + i * h, t0 + j * h)
            return content.rho_n(poly, n, prec).value

        f00, fp0, fm0, f0p, f0m = f(0, 0), f(1, 0), f(-1, 0), f(0, 1), f(0, -1)
        fpp, fmm = f(1, 1), f(-1, -1)
        grad = ((fp0 - fm0) / (2 * h), (f0p - f0m) / (2 * h))
        hxx = (fp0 - 2 * f00 + fm0) / h ** 2
        hyy = (f0p - 2 * f00 + f0m) / h ** 2
        hxy = (fpp + fmm - fp0 - fm0 - f0p - f0m + 2 * f00) / (2 * h ** 2)
        mean, rad = (hxx + hyy) / 2, mp.sqrt(((hxx - hyy) / 2) ** 2 + hxy ** 2)
        low, high = mean - rad, mean + rad
    assert max(abs(g) for g in grad) <= mp.mpf("1e-30")
    assert low < 0 and high < 0
    assert abs(low / eigenvalues[0] - 1) <= 0.01
    assert abs(high / eigenvalues[1] - 1) <= 0.01


def test_maximize_reports_no_bracket_on_monotone_stretch():
    spec = geometry.FamilySpec("windmill", (), ("a",))
    with pytest.raises(NoBracketFound):
        extremal.maximize_1d(spec, 2.0, 10.0, 1, steps=17)


def test_sweep_csv_round_trip(tmp_path):
    sweep = extremal.pentagon_grid((60.0, 170.0), (60.0, 170.0), 3, 1)
    path = tmp_path / "grid.csv"
    extremal.write_sweep(sweep, path)
    back = extremal.read_sweep(path)
    assert back.grid == sweep.grid
    assert back.values == sweep.values
    assert back.n == sweep.n
    assert back.precision_bits == sweep.precision_bits
    assert back.argmax == sweep.argmax
    assert back.max_value == sweep.max_value
    assert back.family == sweep.family


def test_sweep_csv_round_trip_one_parameter(tmp_path):
    spec = geometry.FamilySpec("windmill", (), ("a",))
    sweep = extremal.sweep_family(spec, 0.5, 2.0, 4, 1)
    path = tmp_path / "sweep.csv"
    extremal.write_sweep(sweep, path)
    back = extremal.read_sweep(path)
    assert back == sweep


def test_sweep_validation():
    spec2 = geometry.FamilySpec("pentagon", (), ("theta_deg", "phi_deg"))
    with pytest.raises(ValueError):
        extremal.sweep_family(spec2, 0, 1, 5, 1)  # two free parameters
    spec1 = geometry.FamilySpec("windmill", (), ("a",))
    with pytest.raises(ValueError):
        extremal.sweep_family(spec1, 0.5, 2.0, 1, 1)  # too few steps
    with pytest.raises(ValueError):
        extremal.maximize_1d(spec1, 0.3, 1.5, 1, steps=3)
