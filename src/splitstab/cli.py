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
import sys
import warnings
from functools import cache, partial

import numpy as np

# analysis, dynamics and svgplot are imported by the handlers that use
# them, so that no other command pays for them at start-up
# not called here: perfbench/test_perfbench.py asserts cli.transfer_matrix.__traced__
from .kernel import transfer_matrix
from .schemes import (
    ShapeMismatch,
    SplittingScheme,
    UnknownScheme,
    catalog_names,
    catalog_scheme,
    load_scheme_json,
)
from .stability import StabilityClass, grid_nodes, scan_region, strang_boundaries

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_FILE = 3

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


#: Values written per block by _write_csv; bounds the block's buffers.
_CSV_BLOCK_VALUES = 1 << 12

# --- '%.17g' in numpy blocks -------------------------------------------------
#
# A float's field is laid out in a canonical slot of _FLOAT_WIDTH bytes,
#
#     -  0.000  d0 . d1 . d2 ... . d16  e s h t o
#
# and a keep mask picks the bytes that '%.17g' writes: the sign, the
# "0.000" prefix of 1e-4 <= |x| < 1, the digits up to the last non-zero
# one (or the units digit), the point after the units digit and the
# exponent.  Which bytes those are depends only on the layout (the
# decimal exponent, fixed or exponential), the sign and the number of
# significant digits, so the mask is one row of a table.

_FLOAT_WIDTH = 44
_FLOAT_SLOT = b"-0.000" + b"0." * 16 + b"0e+000"
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's split of a double into halves
#: |x| outside [_FAST_MIN, _FAST_MAX]: 10^p and its tail stay normal
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TIE_TOL = 1e-9


@cache
def _pow10(p: int) -> tuple[float, float, float, float]:
    """10^p as hi + lo, hi correctly rounded, lo the rounded remainder;
    also the split hi = head + tail.  From exact integers."""
    num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
    hi = num / den
    a, b = hi.as_integer_ratio()
    lo = (num * b - a * den) / (den * b)
    c = _SPLIT * hi
    head = c - (c - hi)
    return hi, head, hi - head, lo


@cache
def _format_tables():
    """Per 4-digit group: its ASCII as uint32 and its trailing zeros; per
    decimal exponent e (index e + 400): its ASCII suffix (sign and 3
    digits) as uint32 and its first keep row; the keep rows."""
    i = np.arange(10000)
    groups = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=-1) + ord("0")
    zeros = np.where(i == 0, 4, (i % [[10], [100], [1000]] == 0).sum(axis=0))
    e = np.arange(-400, 400)
    exps = np.abs(e)[:, None] // [1, 100, 10, 1] % 10 + ord("0")
    exps[:, 0] = np.where(e < 0, ord("-"), ord("+"))
    as_u32 = lambda a: np.ascontiguousarray(a, dtype=np.uint8).view(np.uint32).ravel()
    # keep row (2 * layout + negative) * 18 + k for k significant digits;
    # the layout is x + 4 in fixed notation (exponent x in -4..16), 21 and
    # 22 in exponential notation with a 2- and a 3-digit exponent
    layout, neg, k = np.meshgrid(np.arange(23), [0, 1], np.arange(18), indexing="ij")
    x = layout - 4
    fixed = layout <= 20
    keep = np.zeros(layout.shape + (_FLOAT_WIDTH,), dtype=bool)
    keep[..., 0] = neg
    keep[..., 1:6] = np.arange(5) < np.where(fixed & (x < 0), 1 - x, 0)[..., None]
    shown = np.where(fixed, np.maximum(k, x + 1), k)
    keep[..., 6:39:2] = np.arange(17) < shown[..., None]
    point = np.where(fixed, np.where(x >= 0, x, -1), 0)
    keep[..., 7:39:2] = np.arange(16) == np.where(k > point + 1, point, -1)[..., None]
    keep[..., 39:44] = ~fixed[..., None]
    keep[..., 41] &= layout == 22
    first_row = 36 * np.where((e >= -4) & (e <= 16), e + 4, 21 + (np.abs(e) >= 100))
    return (as_u32(groups), zeros, as_u32(exps), first_row,
            keep.reshape(-1, _FLOAT_WIDTH))


def _text_slots(strings: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """Strings as (bytes, keep) rows of ``width`` bytes, padded with NUL."""
    rows = np.array(strings, dtype=f"S{width}").view(np.uint8).reshape(len(strings), width)
    return rows, rows != 0


def _scaled(ax: np.ndarray, pow10: np.ndarray, col: np.ndarray):
    """ax * 10^p, 10^p = pow10[:, col], as the unevaluated sum prod + rest
    of two doubles: Dekker's exact product ax * hi plus ax * lo.  prod is
    an integer wherever the sum is at least 2^53."""
    hi, head, tail, lo = (part[col] for part in pow10)
    prod = ax * hi
    c = _SPLIT * ax
    ax_head = c - (c - ax)
    ax_tail = ax - ax_head
    err = ((ax_head * head - prod) + ax_head * tail + ax_tail * head) + ax_tail * tail
    return prod, err + ax * lo


def _format_floats(x: np.ndarray, slot: np.ndarray, keep: np.ndarray) -> None:
    """Write ``'%.17g' % v`` for every value v of ``x`` into ``slot`` and
    ``keep`` (shape ``x.shape + (_FLOAT_WIDTH,)``): the slot bytes where
    keep is True are the text, byte for byte.

    Finite values with |v| in [1e-280, 1e280] and zeros are formatted
    here; the rest, and values whose 17-digit rounding is within 1e-9 of
    a tie, by Python's '%', once per call.
    """
    groups, zeros, exps, first_row, keep_rows = _format_tables()
    slot[...] = np.frombuffer(_FLOAT_SLOT, dtype=np.uint8)
    ax = np.abs(x)
    zero = ax == 0.0
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)
    ax = np.where(fast, ax, 1.0)
    # n = round(ax * 10^(16 - e)) in [10^16, 10^17): 17 digits
    e = np.floor(np.log10(ax)).astype(np.int64)
    p_lo = 15 - int(e.max())
    pow10 = np.array([_pow10(p) for p in range(p_lo, 18 - int(e.min()))]).T
    prod, rest = _scaled(ax, pow10, 16 - e - p_lo)
    off = np.where((prod > 1e17) | ((prod == 1e17) & (rest >= 0)), 1, 0)
    off[(prod < 1e16) | ((prod == 1e16) & (rest < 0))] = -1
    moved = off != 0
    if moved.any():
        e[moved] += off[moved]
        prod[moved], rest[moved] = _scaled(ax[moved], pow10, 16 - e[moved] - p_lo)
    whole = np.floor(rest)
    frac = rest - whole
    n = prod.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e += carry
    n[zero] = 0
    e[zero] = 0
    # digits d0 | 4 groups of 4, then the exponent's sign and 3 digits
    upper = n // 10 ** 8
    b = n - upper * 10 ** 8
    d0 = upper // 10 ** 8
    a = upper - d0 * 10 ** 8
    a_hi, b_hi = a // 10000, b // 10000
    quads = (b - b_hi * 10000, b_hi, a - a_hi * 10000, a_hi)  # lowest first
    text = np.stack([groups[d0], *(groups[q] for q in quads[::-1]), exps[e + 400]], axis=-1)
    text = text.view(np.uint8)
    slot[..., 6:39:2] = text[..., 3:20]
    slot[..., 40:44] = text[..., 20:24]
    # k = 17 - trailing zeros of n: 1 for n = 0, which shows as "0"
    k = 17 - zeros[quads[0]]
    deeper = quads[0] == 0
    for q in quads[1:]:
        if not deeper.any():
            break
        k[deeper] -= zeros[q[deeper]]
        deeper &= q == 0
    keep[...] = keep_rows.take(first_row[e + 400] + 18 * np.signbit(x) + k, axis=0)
    by_python = ~(fast | zero) | (fast & (np.abs(frac - 0.5) < _TIE_TOL))
    if by_python.any():
        values = x[by_python].tolist()
        strings = ("%.17g," * len(values) % tuple(values)).split(",")[:-1]
        slot[by_python], keep[by_python] = _text_slots(strings, _FLOAT_WIDTH)


def _write_csv(path: str, header: list[str], columns: list) -> None:
    """Write columns of equal length.  A column is an array of floats,
    written as ``'%.17g' % value`` (a 2-D array is that many adjacent
    columns), or a text column ``(codes, labels)``, written as
    ``labels[code]``.

    Rows are written a block at a time, a block holding _CSV_BLOCK_VALUES
    float values.  Each field fills a slot of the block's buffer with a
    mask of the bytes it keeps, and the buffer is written compacted by the
    mask.  A float slot is _FLOAT_WIDTH bytes and a text slot as wide as
    its column's longest label.  Adjacent float columns are formatted by
    one _format_floats call per block.
    """
    # (first byte in the row, float arrays (n, k) of adjacent columns) or
    # (first byte, (codes, text rows, keep rows)); a separator byte
    # follows every slot
    runs, seps, n_floats = [], [], 0
    for col in columns:
        first = seps[-1] + 1 if seps else 0
        if not isinstance(col, np.ndarray):
            codes, labels = col
            text = _text_slots(labels, max([1, *map(len, labels)]))
            runs.append((first, (np.asarray(codes), *text)))
            seps.append(first + text[0].shape[1])
            continue
        col = col[:, None] if col.ndim == 1 else col
        if runs and isinstance(runs[-1][1], list):
            runs[-1][1].append(col)
        else:
            runs.append((first, [col]))
        n_floats += col.shape[1]
        seps += range(first + _FLOAT_WIDTH, first + col.shape[1] * (_FLOAT_WIDTH + 1),
                      _FLOAT_WIDTH + 1)
    n_rows = len(runs[0][1][0])
    per_block = max(1, _CSV_BLOCK_VALUES // max(1, n_floats))
    buf = np.zeros((min(per_block, n_rows), seps[-1] + 1), dtype=np.uint8)
    keep = np.zeros(buf.shape, dtype=bool)
    buf[:, seps] = ord(",")
    buf[:, -1] = ord("\n")
    keep[:, seps] = True
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n_rows, per_block):
            n = min(per_block, n_rows - start)
            block = slice(start, start + per_block)
            for first, source in runs:
                if isinstance(source, tuple):
                    codes, text, mask = source
                    slot = np.s_[:n, first:first + text.shape[1]]
                    buf[slot] = text[codes[block]]
                    keep[slot] = mask[codes[block]]
                    continue
                values = np.concatenate([a[block] for a in source], axis=1, dtype=np.float64)
                k = values.shape[1]
                slot = np.s_[:n, first:first + k * (_FLOAT_WIDTH + 1)]
                # _format_floats writes into these views of the buffer
                fields = np.s_[..., :_FLOAT_WIDTH]
                _format_floats(values, buf[slot].reshape(n, k, -1)[fields],
                               keep[slot].reshape(n, k, -1)[fields])
            fh.write(np.compress(keep[:n].ravel(), buf[:n].ravel()))


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
    n_eps, n_h = len(region.eps_nodes), len(region.h_nodes)
    _write_csv(args.out, ["eps", "h", "semitrace", "class"], [
        (np.repeat(np.arange(n_eps), n_h), ["%.17g" % e for e in region.eps_nodes]),
        (np.tile(np.arange(n_h), n_eps), ["%.17g" % h for h in region.h_nodes]),
        region.semitraces,
        (region.codes, [kind.value for kind in StabilityClass]),
    ])
    if args.svg:
        from . import svgplot
        _write_text(args.svg, svgplot.region_svg(region))
    print(f"region: {region.codes.size} cells -> {args.out}")
    return EXIT_OK


def _cmd_boundaries(args) -> int:
    hs = np.array(grid_nodes(*_parse_range(args.h), args.n))
    edges = strang_boundaries(args.m, hs)
    _write_csv(args.out, ["h", "lower", "upper", "witness_floor"],
               [hs, edges.lower, edges.upper, edges.witness_floor])
    print(f"boundaries: m={args.m}, {len(hs)} rows -> {args.out}")
    return EXIT_OK


def _cmd_hm_table(args) -> int:
    from . import analysis
    table = analysis.critical_steplength_table(args.m_max)
    _write_csv(args.out, ["m", "h_crit"], [np.arange(1, len(table) + 1), np.array(table)])
    print(f"hm-table: m=1..{args.m_max} -> {args.out}")
    return EXIT_OK


def _cmd_fig2(args) -> int:
    from . import analysis
    r_grid = analysis.default_r_grid(args.points)
    records = analysis.three_stage_sweep(args.h_star, r_grid)
    values = np.array([(rec.r, rec.k, rec.eps_star, rec.semitrace) for rec in records])
    exceptional = np.array([rec.exceptional for rec in records], dtype=np.intp)
    columns = [values.reshape(-1, 4), (exceptional, ["false", "true"])]
    # the SVG is rendered first: a sweep it cannot plot fails before any
    # file is written
    svg = None
    if args.svg:
        from . import svgplot
        svg = svgplot.sweep_svg(records)
    _write_csv(args.out, ["r", "k", "eps_star", "F", "exceptional"], columns)
    if svg is not None:
        _write_text(args.svg, svg)
    n_exc = sum(rec.exceptional for rec in records)
    print(f"fig2: {len(records)} rows, {n_exc} exceptional -> {args.out}")
    return EXIT_OK


def _cmd_spotcheck(args) -> int:
    from . import analysis
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


def _cmd_verify(args) -> int:
    from . import analysis
    if args.trials < 1:
        raise _UsageError(f"--trials must be >= 1, got {args.trials}")
    names = list(analysis.VERIFY_SUITES) if args.suite == "all" else [args.suite]
    results = {}
    for name in names:
        checks, failures, worst = analysis.verify_suite(name, args.seed, args.trials)
        results[name] = {"checks": checks, "failures": failures, "worst_residual": worst}
        print(f"verify[{name}]: {checks} checks, {failures} failures, "
              f"worst residual {worst:.3e}")
    total_failures = sum(res["failures"] for res in results.values())
    if args.out:
        _write_json(args.out, {"suite": args.suite, "seed": args.seed, "trials": args.trials,
                               "results": results, "total_failures": total_failures})
    return EXIT_OK if total_failures == 0 else EXIT_VERIFY


# --- integration and reduction ---------------------------------------------


def _load_problem(path: str):
    from . import dynamics
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


def _print_warning(message, *_) -> None:
    print(f"splitstab: warning: {message}", file=sys.stderr)


def _cmd_integrate(args) -> int:
    from . import dynamics
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
        with warnings.catch_warnings():
            # a library warning (eps <= -1) reaches the user as one line,
            # without Python's file:line header and echoed source line
            warnings.simplefilter("always", UserWarning)
            warnings.showwarning = _print_warning
            report = integrate()
    except dynamics.ExponentialBlowup as exc:
        note = "; no trajectory written" if args.out else ""
        print(f"integrate: blowup after {exc.steps_completed} steps "
              f"(norm {exc.norm:.3e}){note}")
        return EXIT_OK
    if args.out:
        _write_csv(args.out, header, [np.arange(len(report.states)), report.states])
    print(
        f"integrate: {report.n_steps} steps, max norm {report.max_norm:.6g}, "
        f"growth/step {report.empirical_growth:.6g}"
    )
    return EXIT_OK


def _cmd_reduce(args) -> int:
    from . import dynamics
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
    p.add_argument("--suite", default="all", help="one of consistency, second-derivative, "
                   "chebyshev, conjugacy, or all")
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
        return args.handler(args)
    except (json.JSONDecodeError, OSError) as exc:
        print(f"splitstab: file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except (_UsageError, UnknownScheme, ValueError) as exc:
        # bad flags, and every library error but UnknownScheme is a
        # ValueError (NotSPD and friends included): all of it is bad
        # input, exit 1
        print(f"splitstab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())
