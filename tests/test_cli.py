import dataclasses
import json
import os
import subprocess
import sys
from decimal import Decimal

import pytest
from mpmath import mp

from polyrho import cli, content, extremal, geometry, moments


def run_cli(*argv):
    return cli.main(list(argv))


def test_rho_json_output(tmp_path, capsys):
    out = tmp_path / "rho.json"
    assert run_cli("rho", "--family", "windmill:2", "--n", "1",
                   "--output", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 1
    assert doc["precision_bits"] == moments.precision_for_degree(1)
    ref = extremal.windmill_rho_closed(2, 1)
    with mp.workprec(300):
        assert abs(mp.mpf(doc["value"]) - ref) < mp.mpf("1e-40")
    assert doc["certified_digits"] > 40
    assert doc["methods"] == [content.METHOD_CHOLESKY]
    assert "rho_1" in capsys.readouterr().out


def test_rho_csv_output(tmp_path):
    out = tmp_path / "rho.csv"
    assert run_cli("rho", "--family", "regular-ngon:4", "--n", "2",
                   "--format", "csv", "--output", str(out)) == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "value,n,precision_bits,condition_estimate,certified_digits"
    assert row.split(",")[1] == "2"


def test_rho_from_polygon_file(tmp_path):
    square = geometry.polygon_new([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    poly_path = tmp_path / "square.txt"
    geometry.write_polygon(square, poly_path)
    out = tmp_path / "rho.json"
    assert run_cli("rho", "--polygon", str(poly_path), "--n", "1",
                   "--output", str(out)) == 0
    with mp.workprec(300):
        value = mp.mpf(json.loads(out.read_text())["value"])
        assert abs(value - mp.mpf(1) / 6) < mp.mpf("1e-40")
    # an edge of length 1e-120, shorter than the moment kernel's fixed-point
    # unit; the polygon is the unit right triangle to 1e-120, rho_1 = 1/24
    thin_path = tmp_path / "thin.txt"
    thin_path.write_text("0 0\n1 0\n1 1e-120\n0 1\n")
    assert run_cli("rho", "--polygon", str(thin_path), "--n", "1",
                   "--output", str(out)) == 0
    with mp.workprec(300):
        value = mp.mpf(json.loads(out.read_text())["value"])
        assert abs(value - mp.mpf(1) / 24) < mp.mpf("1e-40")


def test_rho_output_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("rho", "--family", "pentagon:100,110", "--n", "3", "--output", str(a))
    run_cli("rho", "--family", "pentagon:100,110", "--n", "3", "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_moment_cache_reuse(tmp_path):
    cache = tmp_path / "cache.json"
    cold = tmp_path / "cold.json"
    warm = tmp_path / "warm.json"
    run_cli("rho", "--family", "windmill:1.5", "--n", "2",
            "--moment-cache", str(cache), "--output", str(cold))
    assert cache.exists()
    run_cli("rho", "--family", "windmill:1.5", "--n", "2",
            "--moment-cache", str(cache), "--output", str(warm))
    assert cold.read_bytes() == warm.read_bytes()


def test_moment_cache_mismatch_is_rebuilt(tmp_path):
    cache = tmp_path / "cache.json"
    run_cli("rho", "--family", "windmill:1.5", "--n", "2", "--moment-cache", str(cache))
    first = cache.read_bytes()
    out = tmp_path / "other.json"
    assert run_cli("rho", "--family", "windmill:2.5", "--n", "2",
                   "--moment-cache", str(cache), "--output", str(out)) == 0
    assert cache.read_bytes() != first  # replaced with the new polygon's table
    ref = extremal.windmill_rho_closed(2.5, 2)
    with mp.workprec(300):
        assert abs(mp.mpf(json.loads(out.read_text())["value"]) - ref) < mp.mpf("1e-40")


def test_corrupt_moment_cache_is_input_error(tmp_path):
    cache = tmp_path / "cache.json"
    cache.write_text("{not json")
    assert run_cli("rho", "--family", "windmill:1", "--n", "1",
                   "--moment-cache", str(cache)) == 2


def test_moments_csv_stdout(capsys):
    assert run_cli("moments", "--family", "regular-ngon:3", "--maxdeg", "3",
                   "--format", "csv") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,n,c_re,c_im,I"
    assert len(lines) == 1 + 10  # all m + n <= 3


def test_moments_json_stdout(capsys):
    assert run_cli("moments", "--family", "regular-ngon:3", "--maxdeg", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["maxdeg"] == 2
    entries = {(e["m"], e["n"]): e for e in doc["entries"]}
    assert abs(float(entries[(0, 0)]["I"]) - 1.0) < 1e-12


def test_moments_prints_roundoff_zeros_as_zero(capsys):
    # 5-fold symmetry makes c[m][n] vanish unless m = n (mod 5); at 256 bits
    # the table holds c[0][1] as roundoff near 1e-91
    assert run_cli("moments", "--family", "regular-ngon:5", "--maxdeg", "12") == 0
    entries = {(e["m"], e["n"]): e for e in json.loads(capsys.readouterr().out)["entries"]}
    assert entries[(0, 1)]["c"] == ["0", "0"]
    assert entries[(0, 5)]["c"][1] == "0"
    assert float(entries[(0, 5)]["c"][0]) > 1e-3


def test_moments_output_ignores_cache_degree(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    assert run_cli("moments", "--family", "regular-ngon:3", "--maxdeg", "6",
                   "--moment-cache", str(cache)) == 0
    capsys.readouterr()
    docs = []
    for extra in ((), ("--moment-cache", str(cache))):  # cold, then warm from degree 6
        assert run_cli("moments", "--family", "regular-ngon:3", "--maxdeg", "2", *extra) == 0
        docs.append(json.loads(capsys.readouterr().out))
    cold, warm = docs
    assert warm["maxdeg"] == cold["maxdeg"] == 2
    cold_entries = {(e["m"], e["n"]): e for e in cold["entries"]}
    warm_entries = {(e["m"], e["n"]): e for e in warm["entries"]}
    assert warm_entries.keys() == cold_entries.keys()
    # values agree to the table precision; zero entries carry roundoff that
    # depends on the degree the table was built to
    with mp.workprec(cold["precision_bits"]):
        tol = mp.mpf(2) ** (16 - cold["precision_bits"])
        for key, e in cold_entries.items():
            w = warm_entries[key]
            for got, want in zip([*w["c"], w["I"]], [*e["c"], e["I"]]):
                assert abs(mp.mpf(got) - mp.mpf(want)) <= tol


def test_sweep_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--family", "triangle-base:3", "--param", "lambda",
                   "--range", "0:3", "--steps", "7", "--n", "2",
                   "--output", str(out)) == 0
    sweep = extremal.read_sweep(out)
    assert len(sweep.grid) == 7
    assert sweep.family.kind == "triangle-base"
    assert capsys.readouterr().out.startswith("wrote ")


def test_sweep_stdout_csv(capsys):
    assert run_cli("sweep", "--family", "windmill", "--param", "a",
                   "--range", "1:2", "--steps", "3", "--n", "1") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(extremal.CSV_HEADER)
    assert len(lines) == 4
    assert lines[1].endswith(",true")


def test_sweep_files_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        run_cli("sweep", "--family", "windmill", "--param", "a",
                "--range", "0.5:2", "--steps", "4", "--n", "1",
                "--parallelism", "2", "--output", str(path))
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.json").read_bytes() == (tmp_path / "b.csv.json").read_bytes()


def test_pentagon_grid_cli(tmp_path):
    out = tmp_path / "grid.csv"
    assert run_cli("pentagon-grid", "--theta", "104:112", "--phi", "104:112",
                   "--steps", "3", "--n", "1", "--output", str(out)) == 0
    sweep = extremal.read_sweep(out)
    assert len(sweep.grid) == 9
    assert sweep.argmax == (108.0, 108.0)


def test_exit_codes_for_bad_input(tmp_path):
    assert run_cli("rho", "--family", "windmill:-1", "--n", "1") == 2
    assert run_cli("rho", "--family", "nosuch:1", "--n", "1") == 2
    assert run_cli("rho", "--family", "windmill:1,9", "--n", "1") == 2
    assert run_cli("rho", "--polygon", "/does/not/exist", "--n", "1") == 2
    assert run_cli("rho", "--n", "1") == 2  # no polygon source
    assert run_cli("rho", "--family", "windmill:1", "--n", "-1") == 2
    assert run_cli("sweep", "--family", "windmill", "--param", "b",
                   "--range", "1:2", "--steps", "5", "--n", "1") == 2
    assert run_cli("sweep", "--family", "windmill", "--param", "a",
                   "--range", "1:2", "--steps", "2", "--n", "1") == 2
    assert run_cli("pentagon-grid", "--theta", "165:172", "--phi", "165:172",
                   "--steps", "3", "--n", "1") == 2  # empty feasible set
    assert run_cli("sweep", "--family", "windmill", "--param", "a",
                   "--range", "1:2", "--steps", "5", "--parallelism", "0") == 2
    assert run_cli("rho", "--polygon", "/does/not/exist", "--family", "windmill:1") == 2
    # options a subcommand does not read are unknown to it
    assert run_cli("rho", "--family", "windmill:1", "--parallelism", "2") == 2
    assert run_cli("sweep", "--family", "windmill", "--param", "a",
                   "--range", "1:2", "--steps", "5", "--format", "csv") == 2
    assert run_cli("pentagon-grid", "--theta", "104:112", "--phi", "104:112",
                   "--steps", "3", "--moment-cache", "x.json") == 2
    assert run_cli("pentagon-grid", "--theta", "104:112", "--phi", "104:112",
                   "--steps", "1", "--n", "1") == 2
    assert run_cli("rho", "--family", "regular-ngon:4.7", "--n", "1") == 2
    nan_file = tmp_path / "nan.txt"
    nan_file.write_text("0 0\n1 0\nnan 1\n")
    assert run_cli("rho", "--polygon", str(nan_file), "--n", "1") == 2
    # a moment cache must hold every key its maxdeg promises
    cache = tmp_path / "c.json"
    assert run_cli("moments", "--family", "windmill:2", "--maxdeg", "8",
                   "--moment-cache", str(cache), "--output", str(tmp_path / "m8.json")) == 0
    saved = json.loads(cache.read_text())
    cache.write_text(json.dumps(dict(saved, maxdeg=20)))
    assert run_cli("moments", "--family", "windmill:2", "--maxdeg", "10",
                   "--moment-cache", str(cache), "--output", str(tmp_path / "m.json")) == 2
    assert run_cli("rho", "--family", "windmill:2", "--n", "5",
                   "--moment-cache", str(cache)) == 2
    saved["complex"].pop("3,1")
    cache.write_text(json.dumps(saved))
    assert run_cli("rho", "--family", "windmill:2", "--n", "3",
                   "--moment-cache", str(cache)) == 2
    # and every value must have the type save_table writes
    saved["complex"]["3,1"] = [0, "0x1"]
    cache.write_text(json.dumps(saved))
    assert run_cli("rho", "--family", "windmill:2", "--n", "3",
                   "--moment-cache", str(cache)) == 2
    cache.write_text(json.dumps(dict(saved, real=5)))
    assert run_cli("rho", "--family", "windmill:2", "--n", "3",
                   "--moment-cache", str(cache)) == 2
    # a cache below the minimum precision, with a fingerprint that matches it,
    # is bad input: without the cache the same command is a numerical failure
    windmill = geometry.make_windmill(2)
    moments.save_table(moments.moment_table(windmill, 4), cache)
    cache.write_text(json.dumps(dict(json.loads(cache.read_text()), precision_bits=8,
                                     fingerprint=moments.table_fingerprint(windmill, 8))))
    assert run_cli("rho", "--family", "windmill:2", "--n", "1", "--precision-bits=8",
                   "--moment-cache", str(cache)) == 2


def test_exit_code_for_numerical_failure():
    assert run_cli("rho", "--family", "windmill:1", "--n", "1",
                   "--precision-bits", "32") == 3
    assert run_cli("rho", "--family", "windmill:1", "--n", "1",
                   "--precision-bits", "0") == 3


@pytest.mark.parametrize("argv", [
    ("sweep", "--family", "windmill", "--param", "a", "--range", "1:inf", "--steps", "3"),
    ("sweep", "--family", "windmill", "--param", "a", "--range", "nan:2", "--steps", "3"),
    ("pentagon-grid", "--theta", "nan:120", "--phi", "100:120", "--steps", "3"),
    ("pentagon-grid", "--theta", "100:120", "--phi", "100:inf", "--steps", "3"),
    ("pentagon-grid", "--theta=-inf:120", "--phi", "100:120", "--steps", "3"),
])
def test_range_bounds_must_be_finite(capsys, argv):
    assert run_cli(*argv, "--n", "1") == 2
    assert "range bounds must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", ["1", "a:2", "1:b"])
def test_range_must_be_lo_hi(capsys, bounds):
    assert run_cli("sweep", "--family", "windmill", "--param", "a", "--range", bounds,
                   "--steps", "3", "--n", "1") == 2
    assert f"range must be lo:hi, got '{bounds}'" in capsys.readouterr().err


def test_argparse_errors_become_exit_2(capsys):
    assert run_cli("nosuchcommand") == 2
    assert run_cli("rho", "--range", "1:2") == 2
    capsys.readouterr()  # swallow argparse usage text


def test_precision_env_var_is_ignored(tmp_path, monkeypatch):
    # precision comes from --precision-bits or the policy, never the environment
    monkeypatch.setenv("POLYRHO_PRECISION_BITS", "192")
    out = tmp_path / "rho.json"
    assert run_cli("rho", "--family", "windmill:1", "--n", "1",
                   "--output", str(out)) == 0
    assert json.loads(out.read_text())["precision_bits"] == moments.precision_for_degree(1)


def test_explicit_precision_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("POLYRHO_PRECISION_BITS", "192")
    out = tmp_path / "rho.json"
    assert run_cli("rho", "--family", "windmill:1", "--n", "1",
                   "--precision-bits", "256", "--output", str(out)) == 0
    assert json.loads(out.read_text())["precision_bits"] == 256


def test_verify_suite_passes(capsys):
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 11
    assert "FAIL" not in out


def test_verify_runs_telescoping_once_by_default(monkeypatch, capsys):
    # the default suite reads its partials off the LDL* factor; telescoping,
    # the independent solver, runs once at N=12, and --long adds N=33
    degrees = []
    telescoping = content.rho_n_telescoping

    def counted(p, n, *args, **kwargs):
        degrees.append(n)
        return telescoping(p, n, *args, **kwargs)
    monkeypatch.setattr(content, "rho_n_telescoping", counted)
    assert run_cli("verify") == 0
    assert degrees == [12]
    assert run_cli("verify", "--long") == 0
    assert degrees == [12, 12, 33]
    assert "PASS pentagon-rho33" in capsys.readouterr().out


def test_verify_reports_failures(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_check_t_star", lambda: (False, "forced failure"))
    assert run_cli("verify") == 1
    out = capsys.readouterr().out
    assert "FAIL t-star-threshold" in out


def test_verify_counts_crashed_check_as_failure(monkeypatch, capsys):
    def boom():
        raise RuntimeError("broken")
    monkeypatch.setattr(cli, "_check_invariance", boom)
    assert run_cli("verify") == 1
    assert "raised RuntimeError" in capsys.readouterr().out


def test_invariance_check_compares_at_the_values_precision():
    ok, detail = cli._check_invariance()
    assert ok
    assert mp.mpf(detail.removeprefix("max rel err ")) < mp.mpf("1e-60")


def test_certified_digits_reporting():
    assert cli._certified_digits(mp.mpf(1) / 3, mp.mpf(1) / 3, 256) == \
        cli._digits_for_bits(256)
    few = cli._certified_digits(mp.mpf("0.123456"), mp.mpf("0.123461"), 256)
    assert 1 <= few <= 5
    assert cli._certified_digits(mp.mpf(1), mp.mpf(1.5), 256) == 0


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polyrho.cli", "rho", "--family", "windmill:2", "--n", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "rho_1 = " in proc.stdout


def test_import_and_rho_leave_numpy_unloaded():
    import polyrho
    script = (
        "import sys\n"
        "import polyrho\n"
        "assert 'numpy' not in sys.modules, 'import polyrho'\n"
        "from polyrho import cli\n"
        "assert cli.main(['rho', '--family', 'windmill:2', '--n', '1']) == 0\n"
        "assert 'numpy' not in sys.modules, 'polyrho rho'\n"
        "print(polyrho.oracle_rho_n(polyrho.make_windmill(2), 1))\n")
    src = os.path.dirname(os.path.dirname(polyrho.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    with mp.workprec(300):
        ref = extremal.windmill_rho_closed(2, 1)
        assert abs(float(proc.stdout.splitlines()[-1]) - ref) <= 1e-8 * ref


def _claimed_and_true_digits(tmp_path, argv, n, ref):
    """certified_digits of `polyrho rho` (None when it exits 3) and the
    digits against ref of the value it printed, as solved before printing
    rounded it to those digits."""
    solved = []
    rho_n = content.rho_n

    def spy(poly, n, prec, **kwargs):
        result = rho_n(poly, n, prec, **kwargs)
        solved.append((prec, result.value))
        return result

    out = tmp_path / "rho.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(content, "rho_n", spy)
        code = run_cli("rho", *argv, "--n", str(n), "--output", str(out))
    assert code in (0, 3)
    if code == 3:
        return None, None
    doc = json.loads(out.read_text())
    claimed = doc["certified_digits"]
    [value] = [v for prec, v in solved if prec == doc["precision_bits"]]
    assert doc["value"] == mp.nstr(value, claimed)
    with mp.workprec(2048):
        true = -mp.log10(abs(value - ref) / abs(ref)) if value != ref else mp.inf
    return claimed, true


@pytest.mark.parametrize("n", [2, 10, 20])
@pytest.mark.parametrize("log2_s", [-54, 27])
def test_certified_digits_are_honest_on_scaled_equilateral(tmp_path, monkeypatch, capsys,
                                                           n, log2_s):
    # rho_N = s^4 sqrt(3)/15 for N >= 2; the vertices carry 128 bits beyond
    # the working precision so the exact value is the reference
    prec = moments.precision_for_degree(n)
    with mp.workprec(prec + 128):
        s = mp.mpf(2) ** log2_s
        tri = geometry.scale(geometry.make_regular_ngon(3), s)
        exact = mp.sqrt(3) / 15 * s ** 4
    # no polygon file or family carries the extra bits, so hand rho the copy
    monkeypatch.setattr(cli, "_load_polygon", lambda cfg: tri)
    claimed, true = _claimed_and_true_digits(
        tmp_path, ("--family", "regular-ngon:3"), n, exact)
    assert claimed is not None and claimed <= true
    capsys.readouterr()


@pytest.mark.parametrize("vertices, n", [
    # (0,0), (1,0), (0.3,0.8) scaled by 1.5e-3 and moved to (100, 100): the
    # moment stage loses about 10 digits here, which the solve cannot see
    ("100 100\n100.0015 100\n100.00045 100.0012\n", 5),
    # the same triangle scaled by 1e-27 and moved to (1e-20, 1e-20): rho_2 is
    # about 1e-110, below 2^-256, and has about 46 correct digits of 77
    ("1e-20 1e-20\n1.0000001e-20 1e-20\n1.00000003e-20 1.00000008e-20\n", 2),
], ids=["far", "tiny-far"])
def test_certified_digits_are_honest_off_frame(tmp_path, capsys, vertices, n):
    path = tmp_path / "far.txt"
    path.write_text(vertices)
    poly = geometry.read_polygon(path)
    ref = content.rho_n(poly, n, moments.precision_for_degree(n) + 128).value
    claimed, true = _claimed_and_true_digits(tmp_path, ("--polygon", str(path)), n, ref)
    # an exit 3 is accepted until rho works in the polygon's own frame
    assert claimed is None or claimed <= true
    capsys.readouterr()


def _far_triangle(decade):
    # (0, 0), (1, 0), (0.3, 0.8) scaled by 1.37e-decade and moved to (100, 100.5)
    s = Decimal(f"1.37e-{decade}")
    return "".join(f"{Decimal(100) + s * Decimal(x)} {Decimal('100.5') + s * Decimal(y)}\n"
                   for x, y in (("0", "0"), ("1", "0"), ("0.3", "0.8")))


@pytest.mark.parametrize("vertices, bits", [
    # rho rounds its table from the check's kernel pass, so the check cannot
    # see the kernel's error, and the kernel's scale must absorb what its
    # sums cancel: about 2 log2(100 / 1.37e-decade) bits here, 52 at decade
    # 6 and 132 at decade 18.  Without those bits, decade 12 prints 6.8
    # correct digits instead of 19, and decade 15 claims 1 of 0.2 correct
    (_far_triangle(6), None),
    (_far_triangle(12), None),
    (_far_triangle(15), None),
    (_far_triangle(18), None),
    # slivers (0, 0), (1, 0), (0.5, h) lose about log2(1 / h) bits: 60 at
    # h = 1e-18 and 299 at h = 1e-90, where a scale short of them would
    # certify about 146 digits of a value with 71
    ("0 0\n1 0\n0.5 1e-18\n", None),
    ("0 0\n1 0\n0.5 1e-90\n", 1024),
], ids=["far-6", "far-12", "far-15", "far-18", "sliver-18", "sliver-90"])
def test_certified_digits_are_honest_far_off_frame_and_thin(tmp_path, capsys, vertices, bits):
    path = tmp_path / "poly.txt"
    path.write_text(vertices)
    poly = geometry.read_polygon(path)
    prec = bits or moments.precision_for_degree(2)
    ref = content.rho_n(poly, 2, prec + 1024).value
    extra = ("--precision-bits", str(bits)) if bits else ()
    claimed, true = _claimed_and_true_digits(tmp_path, ("--polygon", str(path), *extra), 2, ref)
    # an exit 3 is accepted until rho works in the polygon's own frame
    assert claimed is None or claimed <= true
    capsys.readouterr()


def test_certified_digits_are_honest_at_degree_33(tmp_path, capsys):
    poly = geometry.build_family("triangle-base", {"a": 3, "lambda": 1.2})
    n = 33
    ref = content.rho_n(poly, n, moments.precision_for_degree(n) + 128).value
    claimed, true = _claimed_and_true_digits(
        tmp_path, ("--family", "triangle-base:3,1.2"), n, ref)
    assert claimed is not None and claimed <= true
    capsys.readouterr()


# Output files written by the mpmath table kernel that the fixed-point kernel
# replaced; a table that moved by more than roundoff changes these bytes.
PINNED_PENTAGON_18 = (
    '{\n  "value": "0.14943594794924107489416219167409492808635575149212168524352536'
    '426149454352680313809892420293364008477959203751651793539637585541675660522341'
    '778823798",\n  "n": 18,\n  "precision_bits": 496,\n'
    '  "condition_estimate": 7548785467.371008,\n  "certified_digits": 149,\n'
    '  "methods": [\n    "gram-cholesky"\n  ]\n}\n')
PINNED_WINDMILL_12 = (
    '{\n  "value": "0.03045599621190166941080754412659628903149316650267672568595978'
    '23906064488211935939717761176444654304237837",\n  "n": 12,\n'
    '  "precision_bits": 352,\n  "condition_estimate": 134.41698137877148,\n'
    '  "certified_digits": 105,\n'
    '  "methods": [\n    "gram-cholesky"\n  ]\n}\n')
PINNED_SWEEP_ROWS = [
    "param1,param2,rho_N,feasible",
    "0.1,,0.0664494443903258,true", "0.2,,0.06792064045789739,true",
    "0.3,,0.069080123974194,true", "0.4,,0.06991410891484497,true",
    "0.5,,0.07042835618556763,true", "0.6,,0.07064809871968213,true",
    "0.7,,0.07061555472552375,true", "0.8,,0.0703855375844103,true",
    "0.8999999999999999,,0.07002001878655299,true",
    "0.9999999999999999,,0.06958257338518187,true", "1.1,,0.06913345917398961,true",
    "1.2,,0.06872576172177744,true", "1.3,,0.0684027080565984,true",
    "1.4,,0.0681960068073703,true", "1.5000000000000002,,0.06812495029526189,true",
    "1.6,,0.0681960068073703,true", "1.7,,0.0684027080565984,true",
    "1.8,,0.06872576172177744,true", "1.9,,0.06913345917398961,true",
    "2.0,,0.06958257338518187,true", "2.1,,0.07002001878655299,true",
    "2.2,,0.0703855375844103,true", "2.3,,0.07061555472552375,true",
    "2.4000000000000004,,0.07064809871968213,true", "2.5,,0.07042835618556763,true",
    "2.6,,0.06991410891484497,true", "2.6999999999999997,,0.069080123974194,true",
    "2.8,,0.0679206404578974,true", "2.9000000000000004,,0.0664494443903258,true",
    "3.0,,0.06469754933525246,true",
]


# The moments subcommand reads every entry of both halves; these files were
# written by the build that rounded each half at once.
PINNED_DIR = os.path.join(os.path.dirname(__file__), "pinned")


def _pinned(name):
    with open(os.path.join(PINNED_DIR, name), "rb") as fh:
        return fh.read().decode()


@pytest.mark.parametrize("argv,expected", [
    (("rho", "--family", "regular-ngon:5", "--n", "18"), PINNED_PENTAGON_18),
    (("rho", "--family", "windmill:2", "--n", "12"), PINNED_WINDMILL_12),
    (("sweep", "--family", "triangle-base:3", "--param", "lambda", "--range", "0.1:3",
      "--steps", "30", "--n", "2"), "\r\n".join(PINNED_SWEEP_ROWS) + "\r\n"),
    (("moments", "--family", "regular-ngon:5", "--maxdeg", "12"),
     _pinned("moments-pentagon-12.json")),
    (("moments", "--family", "regular-ngon:5", "--maxdeg", "12", "--format", "csv"),
     _pinned("moments-pentagon-12.csv")),
], ids=["rho-pentagon-18", "rho-windmill-12", "sweep-triangle-base",
        "moments-pentagon-12-json", "moments-pentagon-12-csv"])
def test_outputs_match_pinned_bytes(tmp_path, capsys, argv, expected):
    out = tmp_path / "out"
    assert run_cli(*argv, "--output", str(out)) == 0
    assert out.read_bytes() == expected.encode()
    capsys.readouterr()


@pytest.mark.parametrize("family,n,expected", [
    ("regular-ngon:5", 18, PINNED_PENTAGON_18),
    ("windmill:2", 12, PINNED_WINDMILL_12),
], ids=["pentagon-18", "windmill-12"])
def test_rho_bytes_do_not_depend_on_the_cache(tmp_path, capsys, family, n, expected):
    # no cache; a cold cache, written from the check's kernel pass; the same
    # cache warm; and a cache that moments wrote at the same maxdeg and bits
    from_moments = tmp_path / "moments-cache.json"
    assert run_cli("moments", "--family", family, "--maxdeg", str(2 * n + 2),
                   "--precision-bits", str(moments.precision_for_degree(n)),
                   "--moment-cache", str(from_moments), "--output", str(tmp_path / "m.json")) == 0
    cache = tmp_path / "rho-cache.json"
    outputs = []
    for extra in ((), ("--moment-cache", str(cache)), ("--moment-cache", str(cache)),
                  ("--moment-cache", str(from_moments))):
        out = tmp_path / f"out{len(outputs)}.json"
        assert run_cli("rho", "--family", family, "--n", str(n), *extra,
                       "--output", str(out)) == 0
        outputs.append(out.read_bytes())
    assert outputs == [expected.encode()] * 4
    capsys.readouterr()


def test_a_cache_of_degree_2n_serves_rho(tmp_path, monkeypatch, capsys):
    # the Gram system of degree N reads moments to degree 2N, so a cache that
    # moments wrote to exactly that degree is a hit and prints the same bytes
    n, cache = 18, tmp_path / "cache.json"
    assert run_cli("moments", "--family", "regular-ngon:5", "--maxdeg", str(2 * n),
                   "--precision-bits", str(moments.precision_for_degree(n)),
                   "--moment-cache", str(cache), "--output", str(tmp_path / "m.json")) == 0
    saved = []
    monkeypatch.setattr(moments, "save_table", lambda *args: saved.append(args))
    out = tmp_path / "rho.json"
    assert run_cli("rho", "--family", "regular-ngon:5", "--n", str(n),
                   "--moment-cache", str(cache), "--output", str(out)) == 0
    assert saved == []  # a miss would write the cache
    assert out.read_bytes() == PINNED_PENTAGON_18.encode()
    capsys.readouterr()


def test_rho_runs_one_complex_kernel_pass(tmp_path, monkeypatch, capsys):
    passes = []
    kernel = moments._edge_sums

    def counted(p, maxdeg, precision_bits, kind):
        passes.append((kind, precision_bits))
        return kernel(p, maxdeg, precision_bits, kind)
    monkeypatch.setattr(moments, "_edge_sums", counted)
    check_bits = moments.precision_for_degree(4) + cli._CHECK_EXTRA_BITS
    cache = tmp_path / "cache.json"
    # uncached, then a cold cache (whose write adds the real half), then warm
    for extra, expected in (((), [("c", check_bits)]),
                            (("--moment-cache", str(cache)), [("c", check_bits),
                                                              ("I", check_bits)]),
                            (("--moment-cache", str(cache)), [("c", check_bits)])):
        passes.clear()
        assert run_cli("rho", "--family", "windmill:2", "--n", "4", *extra) == 0
        assert sorted(passes) == sorted(expected)
    # a sliver whose edge sums cancel about 299 bits, far more than the
    # check's extra bits, still answers from the check's pass
    sliver = tmp_path / "sliver.txt"
    sliver.write_text("0 0\n1 0\n0.5 1e-90\n")
    passes.clear()
    assert run_cli("rho", "--polygon", str(sliver), "--n", "4",
                   "--precision-bits", "1024") == 0
    assert passes == [("c", 1024 + cli._CHECK_EXTRA_BITS)]
    capsys.readouterr()


def test_rho_exits_3_when_the_check_agrees_in_no_digit(monkeypatch, capsys):
    rho_n = content.rho_n

    def off_check(poly, n, prec, **kwargs):
        result = rho_n(poly, n, prec, **kwargs)
        if prec > moments.precision_for_degree(n):  # the check's solve
            result = dataclasses.replace(result, value=result.value * 3)
        return result
    monkeypatch.setattr(content, "rho_n", off_check)
    assert run_cli("rho", "--family", "windmill:2", "--n", "2") == 3
    captured = capsys.readouterr()
    assert "rho_2 =" not in captured.out
    assert "agree in no digit" in captured.err
