"""Command-line front end.

Subcommands map one-to-one onto the library: region scans, stability-
boundary curves, the critical-steplength table, the three-stage sweep,
the randomized verification suites, the optimality spot-check, trajectory
integration, and modal reduction.  Exit codes: 0 success, 1 usage error,
2 verification failure, 3 file error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from itertools import chain, islice, product

import numpy as np

from . import analysis, dynamics, svgplot
from .kernel import epsilon_polynomial, transfer_matrix
from .rng import SplitMix64
from .schemes import (
    FirstFlow,
    ShapeMismatch,
    SplittingScheme,
    UnknownScheme,
    _random_first_flow,
    catalog_names,
    catalog_scheme,
    load_scheme_json,
    random_consistent_scheme,
    random_palindromic_scheme,
)
from .stability import (
    check_consistency_expansion,
    chebyshev_semitrace,
    grid_nodes,
    polynomial_distance,
    scan_region,
    second_derivative_check,
    strang_boundaries,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_FILE = 3

#: Bad input: every library error other than UnknownScheme is a ValueError.
_SCHEME_ERRORS = (UnknownScheme, ValueError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract wants 1."""

    def error(self, message):
        raise _UsageError(message)


def _parse_range(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise _UsageError(f"range must look like start:end, got {text!r}")
    try:
        return float(lo), float(hi)
    except ValueError as exc:
        raise _UsageError(f"bad range {text!r}: {exc}") from exc


def _parse_grid(text: str) -> tuple[int, int]:
    a, sep, b = text.partition("x")
    if not sep:
        raise _UsageError(f"grid must look like NxM, got {text!r}")
    try:
        n, m = int(a), int(b)
    except ValueError as exc:
        raise _UsageError(f"bad grid {text!r}: {exc}") from exc
    if n < 1 or m < 1:
        raise _UsageError(f"grid dimensions must be positive, got {text!r}")
    return n, m


def _load_scheme(args) -> SplittingScheme:
    if args.scheme_json:
        return load_scheme_json(args.scheme_json)
    return catalog_scheme(args.scheme, args.m)


#: Values formatted by one ``%`` in _write_csv; bounds a block's text.
_CSV_BLOCK_VALUES = 1 << 16


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write rows of raw values: strings as they are, numbers as .17g.

    The kinds in the first row fix the row template; rows are then
    formatted a block at a time, with one ``%`` per block.
    """
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if first is None:
            return
        template = ",".join("%s" if isinstance(v, str) else "%.17g" for v in first) + "\n"
        per_block = max(1, _CSV_BLOCK_VALUES // len(first))
        rows = chain((first,), rows)
        while block := list(islice(rows, per_block)):
            fh.write((template * len(block)) % tuple(chain.from_iterable(block)))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_region(args) -> int:
    scheme = _load_scheme(args)
    eps_range = _parse_range(args.eps)
    h_range = _parse_range(args.h)
    grid = _parse_grid(args.grid)
    region = scan_region(scheme, eps_range, h_range, grid=grid)
    nodes = product(["%.17g" % e for e in region.eps_nodes],
                    ["%.17g" % h for h in region.h_nodes])
    rows = ((eps, h, v.semitrace, v.kind.value)
            for (eps, h), v in zip(nodes, region.verdicts))
    _write_csv(args.out, ["eps", "h", "semitrace", "class"], rows)
    if args.svg:
        _write_text(args.svg, svgplot.region_svg(region))
    print(f"region: {len(region.verdicts)} cells -> {args.out}")
    return EXIT_OK


def _cmd_boundaries(args) -> int:
    h_lo, h_hi = _parse_range(args.h)
    rows = []
    for h in grid_nodes(h_lo, h_hi, args.n):
        edges = strang_boundaries(args.m, h)
        rows.append([h, edges.lower, edges.upper, edges.witness_floor])
    _write_csv(args.out, ["h", "lower", "upper", "witness_floor"], rows)
    print(f"boundaries: m={args.m}, {len(rows)} rows -> {args.out}")
    return EXIT_OK


def _cmd_hm_table(args) -> int:
    table = analysis.critical_steplength_table(args.m_max)
    _write_csv(args.out, ["m", "h_crit"], enumerate(table, 1))
    print(f"hm-table: m=1..{args.m_max} -> {args.out}")
    return EXIT_OK


def _cmd_fig2(args) -> int:
    r_grid = analysis.default_r_grid(args.points)
    records = analysis.three_stage_sweep(args.h_star, r_grid)
    rows = [
        [rec.r, rec.k, rec.eps_star, rec.semitrace, "true" if rec.exceptional else "false"]
        for rec in records
    ]
    # the SVG is rendered first: a sweep it cannot plot fails before any
    # file is written
    svg = svgplot.sweep_svg(records) if args.svg else None
    _write_csv(args.out, ["r", "k", "eps_star", "F", "exceptional"], rows)
    if svg is not None:
        _write_text(args.svg, svg)
    n_exc = sum(rec.exceptional for rec in records)
    print(f"fig2: {len(records)} rows, {n_exc} exceptional -> {args.out}")
    return EXIT_OK


def _cmd_spotcheck(args) -> int:
    report = analysis.optimality_spotcheck(
        args.m, args.trials, args.h_samples, seed=args.seed
    )
    out = args.out or f"theorem_m{args.m}.json"
    payload = {
        "m": report.m,
        "trials": report.trials,
        "h_samples": args.h_samples,
        "seed": args.seed,
        "witnesses_found": report.witnesses_found,
        "coincidence_skips": report.coincidence_skips,
        "failures": [
            {
                "label": f.label,
                "r": list(f.rotation_coeffs),
                "k": list(f.kick_coeffs),
                "h": f.h,
            }
            for f in report.failures
        ],
    }
    _write_json(out, payload)
    print(
        f"spotcheck: m={report.m} trials={report.trials} "
        f"witnessed={report.witnesses_found} skipped={report.coincidence_skips} "
        f"failed={len(report.failures)} -> {out}"
    )
    return EXIT_OK if not report.failures else EXIT_VERIFY


# --- verify suites ---------------------------------------------------------


#: Relative tolerance of the Chebyshev identity check.
CHEBYSHEV_TOL = 1e-10

#: Absolute tolerance of the conjugacy checks (coefficients and semitraces).
CONJUGACY_TOL = 1e-12


def _random_h(rng: SplitMix64) -> float:
    """A steplength in [0.05, 3.1), clear of h = pi by more than 0.04."""
    return rng.uniform(0.05, 3.1)


def _suite_consistency(rng: SplitMix64, trials: int):
    schemes = [catalog_scheme(n) for n in ("rkr", "krk", "lt_rk", "lt_kr")]
    for _ in range(trials):
        stages = 1 + rng.randint(0, 5)
        schemes.append(random_consistent_scheme(rng, stages, first_flow=_random_first_flow(rng)))
    for scheme in schemes:
        for _ in range(5):
            rep = check_consistency_expansion(scheme, _random_h(rng))
            yield max(rep.c0_residual, rep.c1_residual), rep.passed


def _suite_second_derivative(rng: SplitMix64, trials: int):
    for _ in range(trials):
        stages = 1 + rng.randint(0, 4)
        scheme = random_palindromic_scheme(rng, stages, first_flow=_random_first_flow(rng))
        for n in (1, 2, 3):
            rep = second_derivative_check(scheme, n)
            sign = 1.0 if n % 2 else -1.0
            yield sign * rep.value - rep.bound, rep.bound_satisfied


def _suite_chebyshev(rng: SplitMix64, trials: int):
    per_m = max(1, trials // 7)
    for m in range(2, 9):
        for _ in range(per_m):
            h = rng.uniform(0.05, m * math.pi - 0.05)
            eps = rng.uniform(-1.0, 6.0)
            poly = epsilon_polynomial(catalog_scheme("krkm", m), h)
            ref = chebyshev_semitrace(m, eps, h)
            resid = abs(poly(eps) - ref) / max(1.0, abs(ref))
            yield resid, resid <= CHEBYSHEV_TOL


def _cyclic_shift(scheme: SplittingScheme) -> SplittingScheme:
    """Move the leading rotation of a rotation-first scheme to the end.

    The result is kick-first with the same transfer-matrix trace (the
    shift is a similarity transform), which is what the suite checks.
    """
    r = scheme.rotation_coeffs
    k = scheme.kick_coeffs
    return SplittingScheme(
        FirstFlow.KICK,
        tuple(r[1:-1]) + (r[-1] + r[0],),
        tuple(k) + (0.0,),
    )


def _suite_conjugacy(rng: SplitMix64, trials: int):
    for m in range(1, 7):
        for _ in range(3):
            h = _random_h(rng)
            d = polynomial_distance(
                epsilon_polynomial(catalog_scheme("rkrm", m), h).coeffs,
                epsilon_polynomial(catalog_scheme("krkm", m), h).coeffs,
            )
            yield d, d <= CONJUGACY_TOL
    for _ in range(trials):
        stages = 2 + rng.randint(0, 4)
        scheme = random_consistent_scheme(rng, stages, first_flow=FirstFlow.ROTATION)
        shifted = _cyclic_shift(scheme)
        h = _random_h(rng)
        eps = rng.uniform(-1.0, 6.0)
        d = abs(
            transfer_matrix(scheme, eps, h).semitrace()
            - transfer_matrix(shifted, eps, h).semitrace()
        )
        yield d, d <= CONJUGACY_TOL


#: Each suite yields (residual, passed) per check; _cmd_verify tallies them.
_SUITES = {
    "consistency": _suite_consistency,
    "second-derivative": _suite_second_derivative,
    "chebyshev": _suite_chebyshev,
    "conjugacy": _suite_conjugacy,
}


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise _UsageError(f"--trials must be >= 1, got {args.trials}")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    results = {}
    for name in names:
        checks = failures = 0
        worst = 0.0
        for residual, passed in _SUITES[name](SplitMix64(args.seed), args.trials):
            checks += 1
            worst = max(worst, residual)
            failures += not passed
        results[name] = {"checks": checks, "failures": failures, "worst_residual": worst}
        print(f"verify[{name}]: {checks} checks, {failures} failures, "
              f"worst residual {worst:.3e}")
    total_failures = sum(res["failures"] for res in results.values())
    payload = {
        "suite": args.suite,
        "seed": args.seed,
        "trials": args.trials,
        "results": results,
        "total_failures": total_failures,
    }
    if args.out:
        _write_json(args.out, payload)
    return EXIT_OK if total_failures == 0 else EXIT_VERIFY


# --- integration and reduction ---------------------------------------------


def _load_problem(path: str) -> dynamics.GeneralProblem:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    build = dynamics.GeneralProblem
    try:
        mass = np.asarray(raw["mass"], dtype=float)
        stiffness = np.asarray(raw["stiffness"], dtype=float)
        if "linear_b" in raw and "cubic_delta" in raw:
            raise ValueError("give at most one of linear_b and cubic_delta")
        if "linear_b" in raw:
            build = partial(build.with_linear_force, b=np.asarray(raw["linear_b"], dtype=float))
        elif "cubic_delta" in raw:
            build = partial(build.with_cubic_force, delta=float(raw["cubic_delta"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeMismatch(f"malformed problem record: {exc}") from exc
    return build(mass, stiffness)


def _cmd_integrate(args) -> int:
    scheme = _load_scheme(args)
    model_flags = [f"--{name}" for name in ("eps", "q0", "p0") if getattr(args, name) is not None]
    if args.problem and model_flags:
        raise _UsageError(f"{', '.join(model_flags)} apply to the model problem, not --problem")
    if not args.problem and args.z0 is not None:
        raise _UsageError("--z0 needs --problem")
    if args.problem:
        problem = _load_problem(args.problem)
        if args.z0 is not None:
            z0 = np.array([float(t) for t in args.z0.split(",")])
        else:
            z0 = np.zeros(2 * problem.dim)
            z0[0] = 1.0
        integrate = partial(dynamics.integrate_general, scheme, problem, args.h, args.steps, z0)
        d = problem.dim
        header = ["step"] + [f"q{i}" for i in range(d)] + [f"p{i}" for i in range(d)]
    else:
        eps = 0.0 if args.eps is None else args.eps
        q0 = 1.0 if args.q0 is None else args.q0
        p0 = 0.0 if args.p0 is None else args.p0
        integrate = partial(dynamics.integrate_model, scheme, eps, args.h, args.steps, q0, p0)
        header = ["step", "q", "p"]
    try:
        report = integrate()
    except dynamics.ExponentialBlowup as exc:
        note = "; no trajectory written" if args.out else ""
        print(f"integrate: blowup after {exc.steps_completed} steps "
              f"(norm {exc.norm:.3e}){note}")
        return EXIT_OK
    if args.out:
        states = report.states
        _write_csv(args.out, header,
                   np.column_stack((np.arange(len(states)), states)).tolist())
    print(
        f"integrate: {report.n_steps} steps, max norm {report.max_norm:.6g}, "
        f"growth/step {report.empirical_growth:.6g}"
    )
    return EXIT_OK


def _cmd_reduce(args) -> int:
    problem = _load_problem(args.problem)
    reduction = dynamics.reduce_to_model(problem)
    payload = {
        "modes": [
            {"freq_sq": mode.freq_sq, "eps": mode.eps} for mode in reduction.modes
        ],
        "time_rescaling": reduction.time_rescaling,
    }
    _write_json(args.out, payload)
    print(f"reduce: {len(reduction.modes)} modes -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def _add_scheme_flags(p, default: str | None = None) -> None:
    group = p.add_mutually_exclusive_group(required=default is None)
    group.add_argument("--scheme", default=default,
                       help=f"catalog name ({', '.join(catalog_names())})")
    group.add_argument("--scheme-json", help="path to a scheme JSON record")
    p.add_argument("--m", type=int, default=None,
                   help="substep count for rkrm/krkm catalog entries")


def _build_parser() -> _Parser:
    parser = _Parser(prog="splitstab",
                     description="splitting-scheme stability toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("region", help="scan stability classes on an (eps, h) grid")
    _add_scheme_flags(p)
    p.add_argument("--eps", required=True, help="eps range start:end")
    p.add_argument("--h", required=True, help="h range start:end")
    p.add_argument("--grid", default="200x200", help="grid size NxM (eps x h)")
    p.add_argument("-o", "--out", default="region.csv")
    p.add_argument("--svg", default=None, help="also write an SVG heat map")
    p.set_defaults(handler=_cmd_region)

    p = sub.add_parser("boundaries", help="uniform-substep stability edges vs h")
    p.add_argument("--m", type=int, required=True, help="substep count")
    p.add_argument("--h", required=True, help="h range start:end, inside (0, m*pi)")
    p.add_argument("--n", type=int, default=256, help="number of h samples")
    p.add_argument("-o", "--out", default="boundaries.csv")
    p.set_defaults(handler=_cmd_boundaries)

    p = sub.add_parser("hm-table", help="critical steplength per stage count")
    p.add_argument("--m-max", type=int, default=10)
    p.add_argument("-o", "--out", default="hm_table.csv")
    p.set_defaults(handler=_cmd_hm_table)

    p = sub.add_parser("fig2", help="three-stage family sweep over the rotation weight")
    p.add_argument("--h-star", type=float, default=3.12)
    p.add_argument("--points", type=int, default=401)
    p.add_argument("-o", "--out", default="fig2.csv")
    p.add_argument("--svg", default=None, help="also write a twin-panel SVG")
    p.set_defaults(handler=_cmd_fig2)

    p = sub.add_parser("verify", help="randomized property suites")
    p.add_argument("--suite", choices=sorted(_SUITES) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("-o", "--out", default=None, help="summary JSON path")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("spotcheck", help="randomized instability-witness search")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--h-samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-o", "--out", default=None,
                   help="report JSON path (default theorem_m{m}.json)")
    p.set_defaults(handler=_cmd_spotcheck)

    p = sub.add_parser("integrate", help="step a trajectory and report growth")
    _add_scheme_flags(p, default="rkr")
    p.add_argument("--eps", type=float, default=None,
                   help="perturbation strength (model problem, default 0)")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--q0", type=float, default=None, help="model problem, default 1")
    p.add_argument("--p0", type=float, default=None, help="model problem, default 0")
    p.add_argument("--problem", default=None,
                   help="problem JSON: mass, stiffness, at most one of linear_b, cubic_delta")
    p.add_argument("--z0", default=None,
                   help="comma-separated initial state for --problem runs")
    p.add_argument("-o", "--out", default=None, help="trajectory CSV path")
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("reduce", help="split a linear general problem into modes")
    p.add_argument("--problem", required=True, help="general problem JSON")
    p.add_argument("-o", "--out", default="modes.json")
    p.set_defaults(handler=_cmd_reduce)

    return parser


#: Flags whose values can start with "-" (ranges like -1:6, negative
#: floats, comma-separated states).  argparse would read such a value as
#: an option, so flag and value are fused into --flag=value up front.
_NEGATIVE_VALUE_FLAGS = {
    "--eps", "--h", "--h-star", "--q0", "--p0", "--z0",
}


def _fuse_negative_values(argv: list[str]) -> list[str]:
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _NEGATIVE_VALUE_FLAGS:
            val = next(it, None)
            out.append(tok if val is None else f"{tok}={val}")
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _fuse_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"splitstab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"splitstab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (json.JSONDecodeError, OSError) as exc:
        print(f"splitstab: file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except _SCHEME_ERRORS as exc:
        # NotSPD and friends are ValueError subclasses, so bad problem
        # matrices land here too: all of it is bad input, exit 1
        print(f"splitstab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())
