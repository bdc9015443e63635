import pytest
from mpmath import mp

from polyrho import content, extremal, geometry
from polyrho.errors import EmptyFeasibleSet, NoBracketFound, NonpositiveParameter


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
    sweep = extremal.sweep_fixed_base(3.0, (0.0, 3.0), 13, 2)
    vals = sweep.values
    for left, right in zip(vals, vals[::-1]):
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
    sweep = extremal.pentagon_grid((100.0, 116.0), (100.0, 116.0), 3, 2)
    byparam = dict(zip(sweep.grid, sweep.values))
    for (th, ph), v in byparam.items():
        w = byparam[(ph, th)]
        assert abs(v - w) <= 1e-11 * (1 + abs(v))


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
