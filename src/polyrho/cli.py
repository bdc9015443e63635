"""Command-line interface.

Exit codes: 0 success; 1 verify found failing checks; 2 invalid input
(arguments, files, family parameters); 3 numerical failure.  Output files are
deterministic for a fixed configuration: wall-clock timings go to stdout only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from mpmath import mp
from mpmath.libmp import (fone, from_man_exp, mpc_abs, mpf_abs, mpf_gt, mpf_lt, mpf_mul,
                          round_nearest, to_str)

from . import content, extremal, geometry, moments
from .errors import GeometryError, NumericalError

# rho certifies its digits against a second table and solve this many bits up
_CHECK_EXTRA_BITS = 64

# the precision at which the digits rho certifies and the zero test of the
# moments output are computed, whatever mpmath context the caller holds: the
# 53 bits of a fresh mpmath context, where the polyrho command runs
_OUTPUT_BITS = 53


def _int_at_least(low: int):
    """argparse type for an integer option with a lower bound; a value below
    it is a usage error (exit 2) like any other bad argument."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def _parse_range(text: str) -> tuple:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"range must be lo:hi, got {text!r}")
    try:
        bounds = (float(lo), float(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must be lo:hi, got {text!r}") from None
    if not all(math.isfinite(b) for b in bounds):
        raise argparse.ArgumentTypeError("range bounds must be finite")
    return bounds


def _parse_family(text: str, free_names=()) -> geometry.FamilySpec:
    """Parse 'kind:v1,v2' with values for the non-free parameters in their
    declared order; FamilySpec checks the kind and the names."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    fixed_names = [nm for nm in geometry.FAMILY_PARAMS.get(kind, ()) if nm not in free_names]
    vals = [v.strip() for v in rest.split(",") if v.strip()]
    spec = geometry.FamilySpec(kind, tuple(zip(fixed_names, map(float, vals))), tuple(free_names))
    if len(vals) != len(fixed_names):
        raise ValueError(f"family {kind!r} needs values for {fixed_names}, got {len(vals)}")
    return spec


def _load_polygon(cfg: argparse.Namespace) -> geometry.Polygon:
    if cfg.polygon_path is not None:
        return geometry.read_polygon(cfg.polygon_path)
    return _parse_family(cfg.family).build()


def _table(cfg, poly, maxdeg, prec, build):
    """The table in cfg.moment_cache if the file holds one built for poly at
    prec to at least maxdeg, else build()'s, written to cfg.moment_cache when
    one is named; ValueError if the file exists but is unreadable."""
    path = cfg.moment_cache
    if path and os.path.exists(path):
        try:
            cached = moments.load_table(path)
        except ValueError as exc:
            raise ValueError(f"unreadable moment cache {path}: {exc}") from exc
        if (cached.fingerprint == moments.table_fingerprint(poly, prec)
                and cached.maxdeg >= maxdeg
                and cached.precision_bits == prec):
            return cached
    table = build()
    if path:
        moments.save_table(table, path)
    return table


def _digits_for_bits(bits: int) -> int:
    return max(2, int(bits * 0.30103))


def _certified_digits(v1, v2, prec: int) -> int:
    cap = _digits_for_bits(prec)
    with mp.workprec(_OUTPUT_BITS):
        diff = abs(v1 - v2)
        if diff == 0:
            return cap
        rel = diff / max(abs(v1), abs(v2))
        return max(0, min(cap, int(-mp.log10(rel))))


def _write_text(path, text) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_rho(cfg: argparse.Namespace) -> int:
    # checked before the polygon is read, the cache is read and the check's
    # table at prec + 64 is built
    prec = moments._working_bits(cfg.precision_bits, cfg.n)
    poly = _load_polygon(cfg)
    t0 = time.perf_counter()
    # the check solves on a fresh kernel pass _CHECK_EXTRA_BITS finer, run on
    # its first read, after the cache's, and never cached, so error in a cached
    # table shows.  On a miss the table at prec is rounded from that pass's
    # sums, whose error, shared with the check, stays at least 96 bits below
    # that rounding (measured with the column walk, against sqrt(c[m][m] c[n][n]):
    # 152 and 192 bits on the pentagon at N = 18 and 33, 123 on windmill:2
    # at N = 12)
    _, check_table = content._resolve(poly, cfg.n, prec + _CHECK_EXTRA_BITS, None)
    table = _table(cfg, poly, check_table.maxdeg, prec,
                   lambda: moments._rounded_table(check_table, prec))
    direct = content.rho_n(poly, cfg.n, prec, table=table)
    check = content.rho_n(poly, cfg.n, prec + _CHECK_EXTRA_BITS, table=check_table)
    wall = time.perf_counter() - t0
    digits = _certified_digits(direct.value, check.value, prec)
    if not digits:
        raise NumericalError(f"rho_{cfg.n} at {prec} bits and its check at "
                             f"{prec + _CHECK_EXTRA_BITS} bits agree in no digit")
    value_str = mp.nstr(direct.value, digits)
    if cfg.output:
        if cfg.fmt == "csv":
            payload = ("value,n,precision_bits,condition_estimate,certified_digits\n"
                       f"{value_str},{cfg.n},{prec},{direct.condition_estimate!r},{digits}\n")
        else:
            payload = json.dumps({
                "value": value_str,
                "n": cfg.n,
                "precision_bits": prec,
                "condition_estimate": direct.condition_estimate,
                "certified_digits": digits,
                "methods": [direct.method],
            }, indent=2) + "\n"
        _write_text(cfg.output, payload)
    print(f"rho_{cfg.n} = {value_str}")
    print(f"precision {prec} bits, condition estimate {direct.condition_estimate:.3e}, "
          f"certified digits {digits}, wall time {wall:.3f}s")
    return 0


def cmd_moments(cfg: argparse.Namespace) -> int:
    prec = moments._working_bits(cfg.precision_bits)  # before the polygon and cache are read
    poly = _load_polygon(cfg)
    table = _table(cfg, poly, cfg.maxdeg, prec,
                   lambda: moments.moment_table(poly, cfg.maxdeg, prec))
    _write_text(cfg.output, _moments_text(table, cfg.maxdeg, cfg.fmt))
    return 0


def _moments_text(table, maxdeg: int, fmt: str) -> str:
    """The moments output of table's entries with m + n <= maxdeg, as the
    bytes json.dumps(doc, indent=2) writes or as CSV, written from the
    halves' int parts.

    A part below 2^(16 - bits) x max(largest |entry| of its total degree, 1)
    is zero up to roundoff and prints as 0, not as roundoff digits.  Each
    |entry|, |part| and threshold is rounded to nearest at _OUTPUT_BITS, as
    the mpmath view's abs() and * round them at that precision, so the bytes
    do not depend on the caller's context.  Each part of
    c[m][n], m >= n, is formatted once, as nstr formats its view; c[n][m]'s
    strings are c[m][n]'s with the imaginary sign toggled."""
    prec, dps = _OUTPUT_BITS, _digits_for_bits(table.precision_bits)
    i_keys = moments._table_keys(maxdeg, "I")  # the output's rows, in sorted order
    c_raw = {}
    for key in moments._table_keys(maxdeg, "c"):
        rm, re, im, ie = table.complex_entries._parts(key)
        c_raw[key] = (from_man_exp(rm, re), from_man_exp(im, ie))
    i_raw = {key: from_man_exp(*table.real_entries._parts(key)) for key in i_keys}
    sizes = [(key, mpc_abs(z, prec, round_nearest)) for key, z in c_raw.items()]
    sizes += [(key, mpf_abs(x, prec, round_nearest)) for key, x in i_raw.items()]
    scale = {}
    for (m, n), size in sizes:
        if mpf_gt(size, scale.get(m + n, fone)):
            scale[m + n] = size
    roundoff = from_man_exp(1, 16 - table.precision_bits)
    limit = [mpf_mul(roundoff, scale.get(d, fone), prec, round_nearest)
             for d in range(maxdeg + 1)]

    def text(x, d):
        if mpf_lt(mpf_abs(x, prec, round_nearest), limit[d]):
            return "0"
        return to_str(x, dps)

    c_text = {(m, n): (text(re, m + n), text(im, m + n)) for (m, n), (re, im) in c_raw.items()}
    rows = []
    for m, n in i_keys:
        if m >= n:
            re, im = c_text[m, n]
        else:  # c[m][n] = conj(c[n][m])
            re, im = c_text[n, m]
            if im != "0":
                im = im[1:] if im[0] == "-" else "-" + im
        rows.append((m, n, re, im, text(i_raw[m, n], m + n)))
    if fmt == "csv":
        return "m,n,c_re,c_im,I\n" + "".join(f"{m},{n},{re},{im},{i}\n"
                                              for m, n, re, im, i in rows)
    # the layout of json.dumps(doc, indent=2); the strings need no escapes
    entries = ",\n".join(
        f'    {{\n      "m": {m},\n      "n": {n},\n      "c": [\n        "{re}",\n'
        f'        "{im}"\n      ],\n      "I": "{i}"\n    }}'
        for m, n, re, im, i in rows)
    return (f'{{\n  "fingerprint": {json.dumps(table.fingerprint)},\n  "maxdeg": {maxdeg},\n'
            f'  "precision_bits": {table.precision_bits},\n  "entries": [\n{entries}\n  ]\n}}\n')


def _emit_sweep(sweep, cfg: argparse.Namespace) -> None:
    if cfg.output:
        extremal.write_sweep(sweep, cfg.output)
        print(f"wrote {cfg.output} and {cfg.output}.json")
        print(f"argmax {sweep.argmax} -> rho_{sweep.n} = {sweep.max_value!r}")
    else:
        extremal.write_sweep_csv(sweep, sys.stdout)


def cmd_sweep(cfg: argparse.Namespace) -> int:
    spec = _parse_family(cfg.family, free_names=(cfg.param,))
    sweep = extremal.sweep_family(spec, cfg.sweep_range[0], cfg.sweep_range[1],
                                  cfg.steps, cfg.n, cfg.precision_bits, cfg.parallelism)
    _emit_sweep(sweep, cfg)
    return 0


def cmd_pentagon_grid(cfg: argparse.Namespace) -> int:
    sweep = extremal.pentagon_grid(cfg.theta_range, cfg.phi_range, cfg.steps,
                                   cfg.n, cfg.precision_bits, cfg.parallelism)
    _emit_sweep(sweep, cfg)
    return 0


# ---- verify suite -----------------------------------------------------------------

def _relerr(got, want):
    denom = max(abs(want), mp.mpf(2) ** -80)
    return abs(got - want) / denom


def _check_windmill_closed():
    worst = mp.mpf(0)
    for a in (0.5, 1, 2, 5, 10):
        poly = geometry.make_windmill(a)
        _, partials = content.rho_n_partials(poly, 2)
        for order, closed in ((1, content.rho1_closed(poly)),
                              (2, content.rho2_closed(poly))):
            formula = extremal.windmill_rho_closed(a, order)
            worst = max(worst, _relerr(closed, formula), _relerr(partials[order], formula))
    return worst <= 1e-9, f"max rel err {mp.nstr(worst, 3)}"


def _check_t_star():
    t, threshold = extremal.t_star()
    resid = abs(extremal.t_star_poly(t))
    err = abs(threshold - mp.mpf("1.86637"))
    ok = err <= 5e-6 and resid <= mp.mpf("1e-30")
    return ok, f"threshold {mp.nstr(threshold, 8)}, poly residual {mp.nstr(resid, 3)}"


@functools.lru_cache(maxsize=1)
def _verify_fixtures():
    """The verify suite's polygons, built once per process: six checks read
    them, and polygons are immutable."""
    return (
        ("square", geometry.polygon_new([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])),
        ("triangle", geometry.polygon_new([(0, 0), (1, 0), (0.3, 0.8)])),
        ("windmill-1", geometry.make_windmill(1)),
        ("pentagon", geometry.make_regular_ngon(5)),
    )


def _check_cross_check():
    worst = mp.mpf(0)
    for _, poly in _verify_fixtures():
        worst = max(worst, moments.cross_check(moments.moment_table(poly, 8)))
    bound = mp.mpf(2) ** (-moments.DEFAULT_PRECISION_BITS + 20)
    return worst <= bound, f"max residual {mp.nstr(worst, 3)} (bound {mp.nstr(bound, 3)})"


def _check_hermitian():
    poly = _verify_fixtures()[1][1]
    t = moments.moment_table(poly, 6)
    with mp.workprec(t.precision_bits + 16):  # conj() rounds at context precision
        sym_ok = all(t.c(n, m) == mp.conj(t.c(m, n)) for (m, n) in t.complex_entries)
        worst = mp.mpf(0)
        for m, n in ((3, 2), (1, 4), (0, 5)):
            single = moments.complex_moment(poly, m, n)
            worst = max(worst, abs(single - t.c(m, n)))
    ok = sym_ok and worst <= mp.mpf(2) ** -200
    return ok, f"symmetry exact: {sym_ok}, single-entry recompute err {mp.nstr(worst, 3)}"


def _check_oracle_moments():
    from . import oracle  # numpy loads only when an oracle check runs

    worst = 0.0
    for _, poly in _verify_fixtures():
        mesh = oracle.triangulate(poly)
        table = moments.moment_table(poly, 6)
        for m in range(7):
            for n in range(7 - m):
                ref = complex(table.c(m, n))
                got = oracle.quad_moment(mesh, m, n)
                worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    return worst <= 1e-12, f"max rel err {worst:.2e}"


def _check_oracle_rho():
    from . import oracle

    worst = mp.mpf(0)
    for _, poly in _verify_fixtures():
        _, partials = content.rho_n_partials(poly, 5)
        for n in (1, 3, 5):
            got = oracle.oracle_rho_n(poly, n)
            worst = max(worst, _relerr(mp.mpf(got), partials[n]))
    return worst <= 1e-8, f"max rel err {mp.nstr(worst, 3)}"


def _path_gap(poly, table, result, partials):
    """(gap, bound): the largest relative difference between rho_n_partials'
    partials and telescoping's on the same table, and the bound it must stay
    within, 2^-prec times the condition estimate."""
    _, telescoped = content.rho_n_telescoping(poly, result.n, table=table)
    with mp.workprec(result.precision_bits + 32):
        bound = mp.mpf(2) ** -result.precision_bits * result.condition_estimate
        gap = max(abs(a - b) / b for a, b in zip(partials, telescoped, strict=True))
    return gap, bound


def _check_monotonicity():
    # rho_0..rho_12 off one factor per fixture; on the triangle, telescoping,
    # the independent solver, must give the same partials on the same table
    n = 12
    ok = True
    for name, poly in _verify_fixtures():
        _, table = content._resolve(poly, n, None, None)
        result, partials = content.rho_n_partials(poly, n, table=table)
        ok = ok and all(partials[k + 1] <= partials[k] for k in range(n))
        if name == "triangle":
            gap, bound = _path_gap(poly, table, result, partials)
            ok = ok and gap <= bound
    return ok, (f"partials non-increasing through N={n}, triangle path rel err "
                f"{mp.nstr(gap, 3)} (bound {mp.nstr(bound, 3)})")


def _check_invariance():
    poly = _verify_fixtures()[1][1]
    base = content.rho_n(poly, 2)
    rot = content.rho_n(geometry.rotate(poly, 0.7), 2).value
    tra = content.rho_n(geometry.translate(poly, (0.3, -0.2)), 2).value
    scl = content.rho_n(geometry.scale(poly, 1.7), 2).value
    with mp.workprec(base.precision_bits):  # at the ambient 53 bits the comparison errs by 1e-16
        worst = max(_relerr(rot, base.value), _relerr(tra, base.value),
                    _relerr(scl, base.value * mp.mpf(1.7) ** 4))
    return worst <= 1e-10, f"max rel err {mp.nstr(worst, 3)}"


def _check_random_closed_forms():
    worst = mp.mpf(0)
    for seed in range(10):
        poly = geometry.normalize(geometry.random_star_polygon(3 + seed % 6, seed=seed))
        _, partials = content.rho_n_partials(poly, 2)
        worst = max(worst, _relerr(partials[1], content.rho1_closed(poly)),
                    _relerr(partials[2], content.rho2_closed(poly)))
    return worst <= 1e-9, f"max rel err {mp.nstr(worst, 3)}"


def _check_steiner_contrast():
    details = []
    ok = True
    for a in (5, 10):
        g = geometry.make_windmill(a)
        sym = content.rho1_closed(geometry.steiner_symmetrize(g, "x"))
        raw = content.rho1_closed(g)
        ok = ok and sym < raw and sym < 1
        details.append(f"a={a}: {mp.nstr(sym, 4)} < {mp.nstr(raw, 4)}")
    return ok, "; ".join(details)


def _check_pentagon_swap():
    spec = geometry.FamilySpec("pentagon", (), ("theta_deg", "phi_deg"))
    v1 = content.rho_n(spec.build(107.7, 108.3), 6).value
    v2 = content.rho_n(spec.build(108.3, 107.7), 6).value
    err = _relerr(v1, v2)
    return err <= 1e-9, f"swap rel err {mp.nstr(err, 3)}"


def _check_pentagon_rho33():
    poly = geometry.make_regular_ngon(5)
    _, table = content._resolve(poly, 33, None, None)
    result, partials = content.rho_n_partials(poly, 33, table=table)
    gap, bound = _path_gap(poly, table, result, partials)
    ok = result.value >= mp.mpf("0.149429") and gap <= bound
    return ok, (f"rho_33 = {mp.nstr(result.value, 10)}, path rel err {mp.nstr(gap, 3)} "
                f"(bound {mp.nstr(bound, 3)})")


def verify_checks(long_checks: bool = False):
    checks = [
        ("windmill-closed-forms", _check_windmill_closed),
        ("t-star-threshold", _check_t_star),
        ("moment-cross-check", _check_cross_check),
        ("hermitian-symmetry", _check_hermitian),
        ("oracle-moments", _check_oracle_moments),
        ("oracle-rho", _check_oracle_rho),
        ("monotonicity", _check_monotonicity),
        ("invariance", _check_invariance),
        ("random-closed-forms", _check_random_closed_forms),
        ("steiner-contrast", _check_steiner_contrast),
        ("pentagon-swap", _check_pentagon_swap),
    ]
    if long_checks:
        checks.append(("pentagon-rho33", _check_pentagon_rho33))
    return checks


def cmd_verify(cfg: argparse.Namespace) -> int:
    checks = verify_checks(cfg.long_checks)
    failures = 0
    t_start = time.perf_counter()
    for name, fn in checks:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status:4s} {name:24s} {detail}  ({time.perf_counter() - t0:.2f}s)")
    total = time.perf_counter() - t_start
    print(f"{len(checks) - failures} passed, {failures} failed in {total:.1f}s")
    return 1 if failures else 0


# ---- argument parsing ---------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The polyrho parser, built once per process: it holds no parse's
    results, as parse_args returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="polyrho",
        description="Polynomial Bergman content rho_N of simple polygons")
    sub = parser.add_subparsers(dest="command", required=True)

    # option sets shared through parents=; each subcommand takes only the
    # sets its handler reads
    result = argparse.ArgumentParser(add_help=False)
    result.add_argument("--precision-bits", type=int, default=None,
                        help="working precision in bits (default: the policy, "
                             "max(256, 24N + 64) for a degree-N result, 256 for moments)")
    result.add_argument("--output", default=None, help="write results to this file")

    degree = argparse.ArgumentParser(add_help=False)
    degree.add_argument("--n", type=_int_at_least(0), default=1, help="polynomial degree N")

    one_polygon = argparse.ArgumentParser(add_help=False)
    source = one_polygon.add_mutually_exclusive_group(required=True)
    source.add_argument("--polygon", dest="polygon_path", help="polygon file (x y per line)")
    source.add_argument("--family", help="family spec, e.g. windmill:2 or triangle-base:3,1.5")
    one_polygon.add_argument("--format", dest="fmt", choices=("csv", "json"), default="json")
    one_polygon.add_argument("--moment-cache", default=None,
                             help="JSON moment-table cache file to reuse/create")

    many_polygons = argparse.ArgumentParser(add_help=False)
    many_polygons.add_argument("--parallelism", type=_int_at_least(1), default=1)

    sub.add_parser("rho", parents=[one_polygon, degree, result],
                   help="compute rho_N for one polygon")

    mom = sub.add_parser("moments", parents=[one_polygon, result], help="dump a moment table")
    mom.add_argument("--maxdeg", type=_int_at_least(2), default=4)

    swp = sub.add_parser("sweep", parents=[degree, result, many_polygons],
                         help="1-D parameter sweep of rho_N")
    swp.add_argument("--family", required=True,
                     help="family with the swept parameter omitted, e.g. triangle-base:3")
    swp.add_argument("--param", required=True, help="name of the swept parameter")
    swp.add_argument("--range", dest="sweep_range", type=_parse_range, required=True)
    swp.add_argument("--steps", type=int, required=True)

    pg = sub.add_parser("pentagon-grid", parents=[degree, result, many_polygons],
                        help="rho_N over a (theta, phi) degree grid")
    pg.add_argument("--theta", dest="theta_range", type=_parse_range, required=True)
    pg.add_argument("--phi", dest="phi_range", type=_parse_range, required=True)
    pg.add_argument("--steps", type=int, required=True, help="grid steps per axis")

    ver = sub.add_parser("verify", help="run the built-in verification suite")
    ver.add_argument("--long", dest="long_checks", action="store_true",
                     help="include the N=33 pentagon checks")
    return parser


_COMMANDS = {
    "rho": cmd_rho,
    "moments": cmd_moments,
    "sweep": cmd_sweep,
    "pentagon-grid": cmd_pentagon_grid,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    except (GeometryError, ValueError, OSError) as exc:
        print(f"invalid input ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
