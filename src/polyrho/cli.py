"""Command-line interface.

Exit codes: 0 success; 1 verify found failing checks; 2 invalid input
(arguments, files, family parameters); 3 numerical failure.  Output files are
deterministic for a fixed configuration: wall-clock timings go to stdout only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time

from mpmath import mp

from . import content, extremal, geometry, moments
from .errors import GeometryError, NumericalError

# rho certifies its digits against a second table and solve this many bits up
_CHECK_EXTRA_BITS = 64


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
    declared order."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in geometry.FAMILY_PARAMS:
        raise ValueError(
            f"unknown family {kind!r}; known: {', '.join(sorted(geometry.FAMILY_PARAMS))}")
    names = geometry.FAMILY_PARAMS[kind]
    for free in free_names:
        if free not in names:
            raise ValueError(f"family {kind!r} has no parameter {free!r} (it has {names})")
    fixed_names = [nm for nm in names if nm not in free_names]
    vals = [v.strip() for v in rest.split(",") if v.strip()] if rest else []
    if len(vals) != len(fixed_names):
        raise ValueError(
            f"family {kind!r} needs values for {fixed_names}, got {len(vals)}")
    fixed = tuple((nm, float(v)) for nm, v in zip(fixed_names, vals))
    return geometry.FamilySpec(kind, fixed, tuple(free_names))


def _load_polygon(cfg: argparse.Namespace) -> geometry.Polygon:
    if cfg.polygon_path is not None:
        return geometry.read_polygon(cfg.polygon_path)
    return _parse_family(cfg.family).build()


def _cached_table(poly, maxdeg, prec, cache_path):
    """The table in cache_path if it was built for poly at prec to at least
    maxdeg, else None; ValueError if the file exists but is unreadable."""
    if not (cache_path and os.path.exists(cache_path)):
        return None
    try:
        cached = moments.load_table(cache_path)
    except ValueError as exc:
        raise ValueError(f"unreadable moment cache {cache_path}: {exc}") from exc
    if (cached.fingerprint == moments.table_fingerprint(poly, prec)
            and cached.maxdeg >= maxdeg
            and cached.precision_bits == prec):
        return cached
    return None


def _digits_for_bits(bits: int) -> int:
    return max(2, int(bits * 0.30103))


def _certified_digits(v1, v2, prec: int) -> int:
    cap = _digits_for_bits(prec)
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
    poly = _load_polygon(cfg)
    prec = (moments.precision_for_degree(cfg.n) if cfg.precision_bits is None
            else cfg.precision_bits)
    maxdeg = content._gram_degree(cfg.n)
    t0 = time.perf_counter()
    table = _cached_table(poly, maxdeg, prec, cfg.moment_cache)
    # the check solves on a fresh kernel pass _CHECK_EXTRA_BITS finer, never
    # cached, so error in a cached table shows.  On a miss the table at prec
    # is rounded from that pass's exact sums, whose error, shared with the
    # check and so unseen by it, is 96 bits below the rounding to prec
    check_table = moments.moment_table(poly, maxdeg, prec + _CHECK_EXTRA_BITS)
    if table is None:
        table = moments._rounded_table(check_table, prec)
        if cfg.moment_cache:
            moments.save_table(table, cfg.moment_cache)
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
    if cfg.maxdeg < 2:
        raise ValueError(f"--maxdeg must be >= 2, got {cfg.maxdeg}")
    poly = _load_polygon(cfg)
    prec = (moments.DEFAULT_PRECISION_BITS if cfg.precision_bits is None
            else cfg.precision_bits)
    table = _cached_table(poly, cfg.maxdeg, prec, cfg.moment_cache)
    if table is None:
        table = moments.moment_table(poly, cfg.maxdeg, prec)
        if cfg.moment_cache:
            moments.save_table(table, cfg.moment_cache)
    dps = _digits_for_bits(prec)
    keys = sorted(k for k in table.complex_entries if k[0] + k[1] <= cfg.maxdeg)
    # a part below 2^(16 - bits) x max(largest |entry| of its total degree, 1)
    # is zero up to roundoff and prints as 0, not as roundoff digits
    scale = {}
    for m, n in keys:
        scale[m + n] = max(scale.get(m + n, 1), abs(table.c(m, n)), abs(table.real(m, n)))
    roundoff = mp.mpf(2) ** (16 - prec)

    def parts(m, n):
        c = table.c(m, n)
        return ["0" if abs(x) < roundoff * scale[m + n] else mp.nstr(x, dps)
                for x in (c.real, c.imag, table.real(m, n))]

    if cfg.fmt == "csv":
        buf = io.StringIO()
        buf.write("m,n,c_re,c_im,I\n")
        for m, n in keys:
            buf.write(",".join([str(m), str(n), *parts(m, n)]) + "\n")
        payload = buf.getvalue()
    else:
        entries = []
        for m, n in keys:
            c_re, c_im, i_part = parts(m, n)
            entries.append({"m": m, "n": n, "c": [c_re, c_im], "I": i_part})
        doc = {
            "fingerprint": table.fingerprint,
            "maxdeg": cfg.maxdeg,
            "precision_bits": table.precision_bits,
            "entries": entries,
        }
        payload = json.dumps(doc, indent=2) + "\n"
    _write_text(cfg.output, payload)
    return 0


def _emit_sweep(sweep, cfg: argparse.Namespace) -> None:
    if cfg.output:
        extremal.write_sweep(sweep, cfg.output)
        print(f"wrote {cfg.output} and {cfg.output}.json")
        print(f"argmax {sweep.argmax} -> rho_{sweep.n} = {sweep.max_value!r}")
    else:
        extremal.write_sweep_csv(sweep, sys.stdout)


def cmd_sweep(cfg: argparse.Namespace) -> int:
    if cfg.steps < 3:
        raise ValueError(f"sweep needs --steps >= 3, got {cfg.steps}")
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


def _verify_fixtures():
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


def _check_monotonicity():
    # rho_0..rho_12 off one factor per fixture; on the triangle, telescoping,
    # the independent solver, must give the same partials on the same table
    n = 12
    prec = moments.precision_for_degree(n)
    ok = True
    for name, poly in _verify_fixtures():
        table = moments.moment_table(poly, content._gram_degree(n), prec)
        result, partials = content.rho_n_partials(poly, n, table=table)
        ok = ok and all(partials[k + 1] <= partials[k] for k in range(n))
        if name == "triangle":
            _, _, telescoped = content.rho_n_telescoping(poly, n, table=table)
            with mp.workprec(prec + 32):
                tol = mp.mpf(2) ** -prec * result.condition_estimate
                ok = ok and all(abs(a - b) <= tol * b for a, b in zip(partials, telescoped))
    return ok, f"partials non-increasing through N={n}"


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
    prec = moments.precision_for_degree(33)
    table = moments.moment_table(poly, content._gram_degree(33), prec)
    direct = content.rho_n(poly, 33, prec, table=table)
    telescoped, _, _ = content.rho_n_telescoping(poly, 33, prec, table=table)
    err = _relerr(direct.value, telescoped.value)
    ok = direct.value >= mp.mpf("0.149429") and err <= 1e-9
    return ok, f"rho_33 = {mp.nstr(direct.value, 10)}, path rel err {mp.nstr(err, 3)}"


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

def _build_parser() -> argparse.ArgumentParser:
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
    mom.add_argument("--maxdeg", type=int, default=4)

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
