import dataclasses
import json
import os
import re
import subprocess
import sys
from decimal import Decimal

import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp

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


def _moments_text_by_view(table, maxdeg, fmt):
    """The moments output rendered through the tables' mpmath view and
    json.dumps(doc, indent=2): the reference for cli._moments_text."""
    prec = table.precision_bits
    dps = cli._digits_for_bits(prec)
    rows = [(m, n, table.c(m, n), table.real(m, n))
            for m, n in sorted(k for k in table.complex_entries if k[0] + k[1] <= maxdeg)]
    scale = {}
    for m, n, c, i in rows:
        scale[m + n] = max(scale.get(m + n, 1), abs(c), abs(i))
    roundoff = mp.mpf(2) ** (16 - prec)

    def parts(m, n, c, i):
        return ["0" if abs(x) < roundoff * scale[m + n] else mp.nstr(x, dps)
                for x in (c.real, c.imag, i)]

    if fmt == "csv":
        return "m,n,c_re,c_im,I\n" + "".join(
            ",".join([str(m), str(n), *parts(m, n, c, i)]) + "\n" for m, n, c, i in rows)
    entries = []
    for m, n, c, i in rows:
        c_re, c_im, i_part = parts(m, n, c, i)
        entries.append({"m": m, "n": n, "c": [c_re, c_im], "I": i_part})
    doc = {"fingerprint": table.fingerprint, "maxdeg": maxdeg,
           "precision_bits": table.precision_bits, "entries": entries}
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("maxdeg", [2, 9, 20])
@pytest.mark.parametrize("bits", [64, 256, 500])
@pytest.mark.parametrize("source", ["star-file", "windmill:2", "triangle-base:3,1.2"])
def test_moments_text_matches_the_view_rendering(tmp_path, source, maxdeg, bits):
    # the zero test rounds at 53 bits whatever the caller's context, so the
    # text inside narrower and wider contexts is the view's at 53 bits
    if source == "star-file":
        path = tmp_path / "star.txt"
        geometry.write_polygon(geometry.random_star_polygon(8, 3), path)
        poly = geometry.read_polygon(path)
    else:
        poly = cli._parse_family(source).build()
    table = moments.moment_table(poly, maxdeg, bits)
    for fmt in ("json", "csv"):
        with mp.workprec(53):
            expected = _moments_text_by_view(table, maxdeg, fmt)
        for context in (mp.prec, 30, 200):
            with mp.workprec(context):
                assert cli._moments_text(table, maxdeg, fmt) == expected


def _table_with_a_part_below_its_threshold(table):
    """table's entries to maxdeg 2, with Re c[1][0] 2^-40 below its degree's
    threshold 2^(16 - bits) x 1: below it at 53 bits, while rounded to 30
    bits it lands on it and the view at 30 bits prints its digits."""
    maxdeg, bits = 2, table.precision_bits
    complex_parts = {key: table.complex_entries._parts(key)
                     for key in moments._table_keys(maxdeg, "c")}
    complex_parts[1, 0] = ((1 << 40) - 1, 16 - bits - 40, 0, 0)
    real_parts = {key: table.real_entries._parts(key) for key in moments._table_keys(maxdeg, "I")}
    return moments.MomentTable(table.fingerprint, maxdeg, bits,
                               moments._Half(maxdeg, "c", complex_parts),
                               moments._Half(maxdeg, "I", real_parts))


def test_moments_zero_test_rounds_at_53_bits_in_any_context():
    zeros = {key: (0, 0, 0, 0) for key in moments._table_keys(2, "c")}
    ones = {key: (1, 0) if key == (0, 0) else (0, 0) for key in moments._table_keys(2, "I")}
    table = _table_with_a_part_below_its_threshold(moments.MomentTable(
        "0", 2, 64, moments._Half(2, "c", zeros), moments._Half(2, "I", ones)))
    with mp.workprec(53):
        expected = _moments_text_by_view(table, 2, "csv")
    with mp.workprec(30):
        assert _moments_text_by_view(table, 2, "csv") != expected
    assert "1,0,0,0,0" in expected.splitlines()
    for context in (30, 53, 200):
        with mp.workprec(context):
            assert cli._moments_text(table, 2, "csv") == expected


def _run_in_contexts(argv, out):
    """The bytes cli.main writes for argv at the default context and inside
    mp.workprec(30) and (200)."""
    texts = []
    for context in (None, 30, 200):
        if context is None:
            assert run_cli(*argv, "--output", str(out)) == 0
        else:
            with mp.workprec(context):
                assert run_cli(*argv, "--output", str(out)) == 0
        texts.append(out.read_bytes())
    return texts


@pytest.mark.parametrize("argv", [
    ("rho", "--family", "windmill:2", "--n", "3"),
    ("rho", "--family", "triangle-base:3,1.2", "--n", "12", "--format", "csv"),
    ("moments", "--family", "triangle-base:3,1.2", "--maxdeg", "11", "--precision-bits", "300"),
    ("moments", "--family", "windmill:2", "--maxdeg", "9", "--precision-bits", "64",
     "--format", "csv"),
], ids=["rho-windmill-3", "rho-triangle-base-12-csv", "moments-triangle-base-11",
        "moments-windmill-9-csv"])
def test_outputs_do_not_depend_on_the_callers_context(tmp_path, capsys, argv):
    texts = _run_in_contexts(argv, tmp_path / "out")
    assert texts[1:] == texts[:1] * 2
    capsys.readouterr()


def test_moments_from_a_cache_do_not_depend_on_the_callers_context(tmp_path, capsys):
    # a cache holding a part that the zero test reads as 0 at 53 bits but,
    # rounded at 30, as digits
    poly = cli._parse_family("windmill:2").build()
    cache = tmp_path / "cache.json"
    moments.save_table(_table_with_a_part_below_its_threshold(
        moments.moment_table(poly, 2, 64)), cache)
    texts = _run_in_contexts(("moments", "--family", "windmill:2", "--maxdeg", "2",
                              "--precision-bits", "64", "--moment-cache", str(cache),
                              "--format", "csv"), tmp_path / "out")
    assert "1,0,0,0,0" in texts[0].decode().splitlines()
    assert texts[1:] == texts[:1] * 2
    capsys.readouterr()


def test_certified_digits_do_not_depend_on_the_callers_context(tmp_path, capsys):
    # a cache whose c[1][1] moves the answered rho_2 off the check's by a
    # relative 10^-5 (1 + 2^-40): 4 digits agree, and -log10 of that ratio,
    # 5 - 4e-13, is 5 once the ratio is rounded to 30 bits
    poly = cli._parse_family("windmill:2").build()
    n, prec = 2, moments.precision_for_degree(2)
    table = moments.moment_table(poly, 2 * n, prec)
    rho = content.rho_n(poly, n, prec, table=table).value
    complex_parts = {key: table.complex_entries._parts(key)
                     for key in moments._table_keys(2 * n, "c")}
    with mp.workprec(prec + 64):
        ratio = mp.mpf(10) ** -5 * (1 + mp.mpf(2) ** -40)
        man, exp = complex_parts[1, 1][:2]
        moved = mp.make_mpf(from_man_exp(man, exp)) + rho * ratio / (1 - ratio)
    with mp.workprec(prec):
        sign, man, exp, _ = (+moved)._mpf_
    complex_parts[1, 1] = (-man if sign else man, exp, 0, 0)
    real_parts = {key: table.real_entries._parts(key) for key in moments._table_keys(2 * n, "I")}
    cache = tmp_path / "cache.json"
    moments.save_table(moments.MomentTable(
        table.fingerprint, 2 * n, prec, moments._Half(2 * n, "c", complex_parts),
        moments._Half(2 * n, "I", real_parts)), cache)
    texts = _run_in_contexts(("rho", "--family", "windmill:2", "--n", str(n),
                              "--moment-cache", str(cache)), tmp_path / "out")
    assert json.loads(texts[0])["certified_digits"] == 4
    assert texts[1:] == texts[:1] * 2
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_moments_from_a_deeper_cache_matches_the_view_rendering(tmp_path, capsys, fmt):
    star = tmp_path / "star.txt"
    geometry.write_polygon(geometry.random_star_polygon(8, 3), star)
    cache, out = tmp_path / "cache.json", tmp_path / "out"
    argv = ("moments", "--polygon", str(star), "--precision-bits", "300",
            "--moment-cache", str(cache), "--format", fmt, "--output", str(out))
    assert run_cli(*argv, "--maxdeg", "20") == 0
    assert run_cli(*argv, "--maxdeg", "9") == 0  # a hit on the degree-20 table
    assert out.read_text() == _moments_text_by_view(moments.load_table(cache), 9, fmt)
    capsys.readouterr()


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
    # is bad input; asking for that precision is a numerical failure, found
    # before the cache is read
    windmill = geometry.make_windmill(2)
    moments.save_table(moments.moment_table(windmill, 4), cache)
    cache.write_text(json.dumps(dict(json.loads(cache.read_text()), precision_bits=8,
                                     fingerprint=moments.table_fingerprint(windmill, 8))))
    assert run_cli("rho", "--family", "windmill:2", "--n", "1",
                   "--moment-cache", str(cache)) == 2
    assert run_cli("rho", "--family", "windmill:2", "--n", "1", "--precision-bits=8",
                   "--moment-cache", str(cache)) == 3


@pytest.mark.parametrize("argv, message", [
    (("rho", "--family", "nope:1"), "unknown family 'nope'; known: pentagon, regular-ngon"),
    (("sweep", "--family", "triangle-base:3", "--param", "bogus", "--range", "0:1",
      "--steps", "3"), "family 'triangle-base' has no parameter 'bogus'"),
    (("rho", "--family", "windmill:1,9"), "family 'windmill' needs values for ['a'], got 2"),
    (("rho", "--family", "triangle-base:3"),
     "family 'triangle-base' takes parameters ('a', 'lambda'), each fixed or free once; "
     "got ('a',)"),
], ids=["unknown-kind", "param-names-nothing", "extra-value", "missing-value"])
def test_family_errors_are_usage_errors_that_name_the_problem(capsys, argv, message):
    assert run_cli(*argv) == 2
    assert message in capsys.readouterr().err


def test_moments_maxdeg_below_2_is_a_usage_error(capsys):
    assert run_cli("moments", "--family", "windmill:2", "--maxdeg", "1") == 2
    assert "argument --maxdeg: must be >= 2, got 1" in capsys.readouterr().err


def test_a_complex_record_that_is_not_a_pair_is_bad_input(tmp_path, capsys):
    cache = tmp_path / "c.json"
    assert run_cli("rho", "--family", "windmill:2", "--n", "3",
                   "--moment-cache", str(cache)) == 0
    saved = json.loads(cache.read_text())
    record = saved["complex"]["3,1"]
    saved["complex"]["3,1"] = record + record[:1]
    cache.write_text(json.dumps(saved))
    capsys.readouterr()
    assert run_cli("rho", "--family", "windmill:2", "--n", "3",
                   "--moment-cache", str(cache)) == 2
    err = capsys.readouterr().err
    assert f"complex moment 3,1 in {cache} is not a (re, im) pair" in err


def test_exit_code_for_numerical_failure():
    assert run_cli("rho", "--family", "windmill:1", "--n", "1",
                   "--precision-bits", "32") == 3
    assert run_cli("rho", "--family", "windmill:1", "--n", "1",
                   "--precision-bits", "0") == 3


@pytest.mark.parametrize("cache", ["none", "malformed", "other-precision"])
@pytest.mark.parametrize("argv", [("rho", "--n", "2"), ("moments", "--maxdeg", "6")],
                         ids=["rho", "moments"])
def test_precision_is_checked_before_the_cache_is_read(tmp_path, argv, cache):
    # the same command fails the same way whatever file --moment-cache names
    path = tmp_path / "c.json"
    if cache == "malformed":
        path.write_text("{not json")
    elif cache == "other-precision":
        moments.save_table(moments.moment_table(geometry.make_windmill(2), 6), path)
    assert run_cli(*argv, "--family", "windmill:2", "--precision-bits", "32",
                   "--moment-cache", str(path)) == 3
    assert path.exists() == (cache != "none")


def test_precision_error_names_the_given_precision(capsys):
    # the check's table is built 64 bits finer; the message is about the
    # precision the user asked for, not that one
    assert run_cli("rho", "--family", "windmill:2", "--n", "2",
                   "--precision-bits", "-5") == 3
    assert "precision_bits must be >= 64, got -5\n" in capsys.readouterr().err


def test_a_malformed_real_record_in_a_warm_cache_is_bad_input(tmp_path, capsys):
    # rho reads only complex moments, yet every record of the cache is checked
    cache = tmp_path / "c.json"
    assert run_cli("rho", "--family", "windmill:2", "--n", "3",
                   "--moment-cache", str(cache)) == 0
    assert run_cli("rho", "--family", "windmill:2", "--n", "3",
                   "--moment-cache", str(cache)) == 0
    saved = json.loads(cache.read_text())
    for bad in ([0, "-0x5", 0], [0, "0xzz", 0], [2, "0x5", 0], [0, "0x5"]):
        saved["real"]["2,4"] = bad
        cache.write_text(json.dumps(saved))
        capsys.readouterr()
        assert run_cli("rho", "--family", "windmill:2", "--n", "3",
                       "--moment-cache", str(cache)) == 2
        assert f"unreadable moment cache {cache}" in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["beside", "instead"])
def test_a_cache_key_spelled_another_way_is_bad_input(tmp_path, capsys, edit):
    # "01,1" is c[1][1]'s key read as ints: beside "1,1" its record would
    # replace c[1][1], and in place of "1,1" it would pass for it
    cache = tmp_path / "c.json"
    argv = ("--family", "windmill:2", "--moment-cache", str(cache))
    assert run_cli("moments", "--maxdeg", "4", *argv) == 0
    saved = json.loads(cache.read_text())
    if edit == "beside":
        saved["complex"]["01,1"] = [[0, "0x1", 0], [0, "0x0", 0]]  # c[1][1] = 1
    else:
        saved["complex"]["01,1"] = saved["complex"].pop("1,1")
    cache.write_text(json.dumps(saved))
    for command in (("moments", "--maxdeg", "4"), ("rho", "--n", "2")):
        capsys.readouterr()
        assert run_cli(*command, *argv) == 2
        assert f"unreadable moment cache {cache}" in capsys.readouterr().err


def _keys_of_maxdeg_1_under_maxdeg_true(doc):
    doc["complex"] = {k: doc["complex"][k] for k in ("0,0", "1,0")}
    doc["real"] = {k: doc["real"][k] for k in ("0,0", "1,0", "0,1")}
    doc["maxdeg"] = True


@pytest.mark.parametrize("edit", [
    lambda doc: doc["real"].update({"0,0": [0, "0x1", True]}),
    lambda doc: doc["real"].update({"0,0": [1.0, "0x1", 0]}),
    lambda doc: doc["real"].update({"0,0": [0, "1", 0]}),
    lambda doc: doc["real"].update({"0,0": [0, " 0X1 ", 0]}),
    lambda doc: doc["real"].update({"0,0": [0, "0x1_0", -4]}),
    lambda doc: doc["real"].update({"0,0": [0, "0x2", -1]}),
    lambda doc: doc["real"].update({"1,0": [1, "0x0", 0]}),
    lambda doc: doc["real"].update({"1,0": [0, "0x0", 5]}),
    _keys_of_maxdeg_1_under_maxdeg_true,
    lambda doc: doc.update(version=True),
    lambda doc: doc.update(version=1.0),
], ids=["exponent-true", "sign-float", "mantissa-without-prefix", "mantissa-padded-upper",
        "mantissa-underscored", "mantissa-even", "zero-signed", "zero-with-exponent",
        "maxdeg-true", "version-true", "version-float"])
def test_a_cache_value_in_another_form_than_save_table_writes_is_bad_input(
        tmp_path, capsys, edit):
    # each edit spells a number another way than save_table does: I[0][0] = 1
    # as 1 x 2^true, -1, 1, 1, 16 x 2^-4 and 2 x 2^-1, zero signed or with an
    # exponent, the header's maxdeg 1 as true and its version 1 as true or 1.0
    cache = tmp_path / "c.json"
    argv = ("--family", "windmill:2", "--moment-cache", str(cache))
    assert run_cli("moments", "--maxdeg", "4", *argv) == 0
    doc = json.loads(cache.read_text())
    edit(doc)
    cache.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        moments.load_table(cache)
    for command in (("moments", "--maxdeg", "4"), ("rho", "--n", "2")):
        capsys.readouterr()
        assert run_cli(*command, *argv) == 2
        assert f"unreadable moment cache {cache}" in capsys.readouterr().err


def test_an_infeasible_grid_below_the_least_precision_is_a_numerical_failure(capsys):
    # every member of this grid self-crosses; the precision is checked first
    assert run_cli("pentagon-grid", "--theta", "170:175", "--phi", "170:175",
                   "--steps", "2", "--n", "2", "--precision-bits", "8") == 3
    assert "precision_bits must be >= 64, got 8\n" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("rho", "--n", "2"), ("moments",)])
@pytest.mark.parametrize("source", [("--family", "windmill:-1"),
                                    ("--polygon", "no-such-polygon.txt")])
def test_precision_is_checked_before_the_polygon_is_read(tmp_path, capsys, command, source):
    # input wrong twice, a bad polygon and a precision below 64, is a
    # numerical failure, as for sweep and pentagon-grid
    cache = tmp_path / "c.json"
    assert run_cli(*command, *source, "--precision-bits", "8",
                   "--moment-cache", str(cache)) == 3
    assert "precision_bits must be >= 64, got 8\n" in capsys.readouterr().err
    assert not cache.exists()


def test_a_grid_below_the_least_precision_starts_no_pool(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert run_cli("pentagon-grid", "--theta", "100:110", "--phi", "100:110", "--steps", "2",
                   "--n", "2", "--precision-bits", "8", "--parallelism", "2") == 3


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


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main reuses one parser per process: each call of a sequence gives the
    # exit code, stdout, stderr and file it gives alone, on a parser built
    # for it; an option set in one call is not the default of the next
    assert cli._build_parser() is cli._build_parser()
    calls = [
        ("rho", "--family", "windmill:2", "--n", "4", "--precision-bits", "300",
         "--output", "rho-300.json"),
        ("rho", "--family", "windmill:2", "--n", "4", "--output", "rho.json"),
        ("moments", "--family", "windmill:2", "--maxdeg", "4", "--format", "csv",
         "--output", "moments.csv"),
        ("moments", "--family", "windmill:2", "--maxdeg", "4", "--output", "moments.out"),
        ("rho", "--family", "windmill:2", "--n", "-1"),
        ("rho", "--family", "windmill:2", "--n", "2"),
    ]

    def run(argv, folder):
        folder.mkdir(exist_ok=True)
        out = folder / argv[-1] if "--output" in argv else None
        code = run_cli(*argv[:-1], str(out)) if out else run_cli(*argv)
        captured = capsys.readouterr()
        stdout = re.sub(r"wall time [0-9.]+s", "wall time", captured.out)
        return code, stdout, captured.err, out.read_bytes() if out else None

    in_sequence = [run(argv, tmp_path / "sequence") for argv in calls]
    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(run(argv, tmp_path / "alone"))
    assert in_sequence == alone
    assert [code for code, *_ in in_sequence] == [0, 0, 0, 0, 2, 0]
    assert json.loads(in_sequence[0][3])["precision_bits"] == 300
    assert json.loads(in_sequence[1][3])["precision_bits"] == moments.precision_for_degree(4)
    assert in_sequence[2][3].startswith(b"m,n,c_re,c_im,I\n")
    assert json.loads(in_sequence[3][3])["maxdeg"] == 4
    assert "must be >= 0" in in_sequence[4][2]


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


def test_import_loads_neither_the_process_pool_nor_numpy():
    # a serial sweep never starts a pool, so only a parallel one imports it
    import polyrho
    script = (
        "import sys\n"
        "import polyrho\n"
        "from polyrho import cli, extremal, geometry\n"
        "spec = geometry.FamilySpec('windmill', (), ('a',))\n"
        "extremal.sweep_family(spec, 1, 2, 3, 1)\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'numpy') if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(polyrho.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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


# Files in PINNED_DIR: CI compares the installed console script's output
# against them.  The moments subcommand reads every entry of both halves; its
# files were written by the build that rounded each half at once.
PINNED_DIR = os.path.join(os.path.dirname(__file__), "pinned")


def _pinned(name):
    with open(os.path.join(PINNED_DIR, name), "rb") as fh:
        return fh.read().decode()


# Output files written by the mpmath table kernel that the fixed-point kernel
# replaced; a table that moved by more than roundoff changes these bytes.
# The pentagon's rho_18 is the largest op of the benchmark's certify-high-n
# workload.  Its rho_33 was written by the kernel that walked the complex
# half along anti-diagonals, before the walk down columns.
PINNED_PENTAGON_18 = _pinned("rho-pentagon-18.json")
PINNED_WINDMILL_12 = (
    '{\n  "value": "0.03045599621190166941080754412659628903149316650267672568595978'
    '23906064488211935939717761176444654304237837",\n  "n": 12,\n'
    '  "precision_bits": 352,\n  "condition_estimate": 134.41698137877148,\n'
    '  "certified_digits": 105,\n'
    '  "methods": [\n    "gram-cholesky"\n  ]\n}\n')
# Grids pinned before sweeps solved each member as built rather than its
# unit-area copy: the whole equilateral family, self-crossing members
# included, and the grid of the benchmark's sweep-low-n workload.
GRID_FAMILY_ARGV = ("pentagon-grid", "--theta", "30:170", "--phi", "30:170",
                    "--steps", "8", "--n", "2")
GRID_BENCH_ARGV = ("pentagon-grid", "--theta", "96:132", "--phi", "96:132",
                   "--steps", "7", "--n", "5")
# The pentagon's imaginary parts print as 0 almost everywhere; this
# triangle's print 84 negative values, so a wrong sign in c[n][m] shows.
MOMENTS_TRIANGLE_ARGV = ("moments", "--family", "triangle-base:3,1.2", "--maxdeg", "11",
                         "--precision-bits", "300")
# The benchmark's other two sweep kinds: a fixed angle, whose cos/sin every
# member shares, and the windmill's parameter.
SWEEP_TRIANGLE_ANGLE_ARGV = ("sweep", "--family", "triangle-angle:1.2", "--param", "a",
                             "--range", "0.9:2.8", "--steps", "9", "--n", "2")
SWEEP_WINDMILL_ARGV = ("sweep", "--family", "windmill", "--param", "a", "--range", "0.75:4",
                       "--steps", "9", "--n", "2")


@pytest.mark.parametrize("argv,expected", [
    (("rho", "--family", "regular-ngon:5", "--n", "18"), PINNED_PENTAGON_18),
    (("rho", "--family", "regular-ngon:5", "--n", "33"), _pinned("rho-pentagon-33.json")),
    (("rho", "--family", "windmill:2", "--n", "12"), PINNED_WINDMILL_12),
    (("sweep", "--family", "triangle-base:3", "--param", "lambda", "--range", "0.1:3",
      "--steps", "30", "--n", "2"), _pinned("sweep-triangle-base-30.csv")),
    (("moments", "--family", "regular-ngon:5", "--maxdeg", "12"),
     _pinned("moments-pentagon-12.json")),
    (("moments", "--family", "regular-ngon:5", "--maxdeg", "12", "--format", "csv"),
     _pinned("moments-pentagon-12.csv")),
    (MOMENTS_TRIANGLE_ARGV, _pinned("moments-triangle-base-11.json")),
    (MOMENTS_TRIANGLE_ARGV + ("--format", "csv"), _pinned("moments-triangle-base-11.csv")),
    (GRID_FAMILY_ARGV, _pinned("grid-pentagon-family-8.csv")),
    (GRID_BENCH_ARGV, _pinned("grid-pentagon-96-132-7.csv")),
    (SWEEP_TRIANGLE_ANGLE_ARGV, _pinned("sweep-triangle-angle-9.csv")),
    (SWEEP_WINDMILL_ARGV, _pinned("sweep-windmill-9.csv")),
], ids=["rho-pentagon-18", "rho-pentagon-33", "rho-windmill-12", "sweep-triangle-base",
        "moments-pentagon-12-json", "moments-pentagon-12-csv",
        "moments-triangle-base-11-json", "moments-triangle-base-11-csv",
        "grid-pentagon-family", "grid-pentagon-benchmark",
        "sweep-triangle-angle", "sweep-windmill"])
def test_outputs_match_pinned_bytes(tmp_path, capsys, argv, expected):
    out = tmp_path / "out"
    assert run_cli(*argv, "--output", str(out)) == 0
    assert out.read_bytes() == expected.encode()
    capsys.readouterr()


@pytest.mark.parametrize("argv,name", [
    (GRID_FAMILY_ARGV, "grid-pentagon-family-8.csv.json"),
    (GRID_BENCH_ARGV, "grid-pentagon-96-132-7.csv.json"),
], ids=["grid-pentagon-family", "grid-pentagon-benchmark"])
def test_grid_sidecars_match_pinned_bytes(tmp_path, capsys, argv, name):
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--output", str(out)) == 0
    assert (tmp_path / "out.csv.json").read_bytes() == _pinned(name).encode()
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


@pytest.mark.parametrize("n", [4, 12])
def test_rho_builds_only_the_columns_its_gram_systems_read(kernel_work, capsys, n):
    # the degree-N solves read columns m <= N + 1 of the degree-2N table; each
    # of the pentagon's 5 edges walks each such column once, in one complex
    # pass shared by the answer's table and the check's, and no real pass runs
    assert run_cli("rho", "--family", "regular-ngon:5", "--n", str(n)) == 0
    assert kernel_work == {"columns": {m: 5 for m in range(n + 2)}, "real": 0}
    capsys.readouterr()


def test_moments_builds_every_column(tmp_path, kernel_work):
    maxdeg = 12
    assert run_cli("moments", "--family", "regular-ngon:5", "--maxdeg", str(maxdeg),
                   "--output", str(tmp_path / "m.json")) == 0
    assert kernel_work == {"columns": {m: 5 for m in range(maxdeg + 1)}, "real": 1}


def test_certified_rho_hashes_its_polygon_once(tmp_path, frame_work, capsys):
    # the answer's table, the check's table, both solves and a cache share
    # one hash, and the polygon's build its one frame
    star = tmp_path / "star.txt"
    geometry.write_polygon(geometry.random_star_polygon(7, 2), star)
    cache = str(tmp_path / "cache.json")
    for source, extra in ((("--family", "windmill:2"), ()),
                          (("--polygon", str(star)), ()),
                          (("--polygon", str(star)), ("--moment-cache", cache)),
                          (("--polygon", str(star)), ("--moment-cache", cache))):
        frame_work.update(image=0, area=0, fingerprint=0)
        assert run_cli("rho", *source, "--n", "4", *extra) == 0
        assert frame_work == {"image": 1, "area": 1, "fingerprint": 1}
    capsys.readouterr()


def test_clockwise_file_gives_the_bytes_of_its_counterclockwise_copy(tmp_path, capsys):
    ccw, cw = tmp_path / "ccw.txt", tmp_path / "cw.txt"
    geometry.write_polygon(geometry.random_star_polygon(7, 2), ccw)
    lines = ccw.read_text().splitlines(keepends=True)
    cw.write_text(lines[0] + "".join(reversed(lines[1:])))
    outputs = []
    for path in (ccw, cw):
        out = tmp_path / (path.stem + ".json")
        assert run_cli("rho", "--polygon", str(path), "--n", "6", "--output", str(out)) == 0
        outputs.append(out.read_bytes())
        poly = geometry.read_polygon(path)
        pts, low, top = geometry._int_image(poly.vertices)
        assert poly._frame == (tuple(pts), low, top, geometry._twice_signed_area(pts))
        assert poly._frame.twice_area > 0
    assert outputs[0] == outputs[1]
    assert geometry.read_polygon(cw) == geometry.read_polygon(ccw)
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
