"""Layered benchmark of the splitstab command line.

    python3 perfbench/run.py --workload {region,windows,trajectory} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, nothing needs installing.  One client runs
the workload's CLI commands back to back, one process at a time, on one
pinned CPU with BLAS/OpenMP threads set to 1 (recorded in the run record).

``--trace 0`` runs every command as a subprocess, the way a user does,
in passes over the workload until ``--seconds`` is used up.  Each command
is timed between two runs of a fixed calibration loop (see
``calibration_loop``), and its time is divided by their mean: a "cal" is
one calibration loop, so a command that takes 3 cal takes three times as
long as the loop on the same CPU at the same moment.  The end-to-end
metrics are built from each command's median over the passes:

* ``setup_s``        fresh interpreter importing ``splitstab.cli``, the
                     start-up every command pays (median of several), in
                     seconds.
* ``wall_cal``       one full pass over the workload's commands.
* ``focus_cal``      the commands the workload exists to measure: the
                     region scans, the spotchecks, or the integrations.
* ``peak_rss_mb``    the largest resident set of any child process.

Per command family the run record has the same times in seconds and in
cal, and the work items (cells, (trial, h) witness searches, integration
steps) per second and per cal of command time after subtracting the
start-up per command: region_s and cells_per_s, spotcheck_s and
witness_searches_per_s, fig2_s, verify_s, integrate_s, and model and
general steps per second.  A throughput is not an end-to-end metric
because the start-up subtraction doubles its run-to-run spread, and
without it it is the focus time over a fixed item count.

``--trace 1`` drives ``splitstab.cli.run(argv)`` in this process instead,
alternating untraced passes with passes in which every public function of
every layer is wrapped in a span (see ``tracing.py``), and reports the
per-layer metrics plus ``trace.overhead_s`` (traced minus untraced pass,
paired within each cycle).

Every command's exit code and outputs are checked against independent
oracles (``oracles.py``); ``attempted`` counts commands run and ``failed``
those with a wrong exit code or a failed check, so their ratio is the
error rate.  Output digests, per-command and per-family timings and the
environment go to a run record under ``.perfbench_work/records/``.  The
last line of stdout is the result JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

#: Set to 1 by run.py before numpy is imported, here and in every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Every run ends within this many seconds, whatever --seconds says.
DEADLINE_S = 170.0
#: Timed interpreter start-ups per run (after one untimed warm-up).
SETUP_SAMPLES = 7


@dataclass
class CommandRun:
    name: str
    seconds: float
    code: int
    stdout: str
    stderr: str = ""
    cal_s: float = 0.0  # calibration loop time around the run (timed mode)
    digests: dict[str, str | None] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    runs: list[CommandRun]
    seconds: float
    calibrations: list[float] = field(default_factory=list)


class Checker:
    """Judges command runs, re-running an oracle only for outputs (exit
    code, stdout and file digests) it has not judged before."""

    def __init__(self):
        self._seen: dict[tuple, list[str]] = {}

    def judge(self, cmd: workloads.Command, run: CommandRun) -> None:
        run.digests = {p.name: _sha256(p) for p in cmd.outputs}
        key = (cmd.name, run.code, run.stdout, tuple(run.digests.values()))
        if key not in self._seen:
            try:
                self._seen[key] = cmd.check(cmd, run.code, run.stdout)
            except Exception as exc:  # a malformed output is a failed check
                self._seen[key] = [f"oracle could not read the output: "
                                   f"{type(exc).__name__}: {exc}"]
        run.problems = self._seen[key]


def _sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _clear_outputs(cmd: workloads.Command) -> None:
    """A stale file from an earlier pass must not pass for a new output."""
    for path in cmd.outputs:
        path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# running commands


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_subprocess(argv: list[str], env: dict, timeout: float) -> tuple[float, int, str, str]:
    t0 = perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        return perf_counter() - t0, -9, str(exc.stdout or ""), "timed out"
    return perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def calibration_loop() -> float:
    """Seconds for a fixed mix of interpreter float arithmetic, float
    formatting and small numpy products, the kinds of work the CLI does.

    On a shared 2-vCPU virtual machine the speed drifts by 20-30% over
    tens of seconds (other tenants, not this process: the children's CPU
    time drifts with their wall time).  Timing this loop right before and after every command,
    on the same pinned CPU, lets the end-to-end metrics divide the drift
    out; the raw seconds stay in the run record.
    """
    t0 = perf_counter()
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for i in range(50_000):
        co, si = math.cos(i * 1e-3), math.sin(i * 1e-3)
        a, b, c, d = co * a + si * c, co * b + si * d, co * c - si * a, co * d - si * b
    ",".join(f"{a * i:.17g}" for i in range(12_500))
    m = np.full((20, 20), 0.01)
    v = np.ones(20)
    for _ in range(5_000):
        v = m @ v + 1.0
    return perf_counter() - t0


def bracketed(run_one, deadline: float, items) -> tuple[list, list[float]]:
    """run_one(item) -> CommandRun for each item, each one timed between
    two calibration loops whose mean becomes the run's ``cal_s``."""
    runs = []
    cals = [calibration_loop()]
    for item in items:
        if perf_counter() >= deadline:
            break
        run = run_one(item)
        cals.append(calibration_loop())
        run.cal_s = 0.5 * (cals[-2] + cals[-1])
        runs.append(run)
    return runs, cals


def subprocess_pass(commands, env, deadline: float) -> Pass:
    def one(cmd):
        _clear_outputs(cmd)
        secs, code, out, err = run_subprocess(
            [sys.executable, "-m", "splitstab", *cmd.argv], env, deadline - perf_counter())
        return CommandRun(cmd.name, secs, code, out, err)

    t0 = perf_counter()
    runs, cals = bracketed(one, deadline, commands)
    return Pass(runs, perf_counter() - t0, cals)


def inprocess_pass(cli, caches, commands, deadline: float) -> Pass:
    runs = []
    t0 = perf_counter()
    for cmd in commands:
        if perf_counter() >= deadline:
            break
        _clear_outputs(cmd)
        for cache in caches:  # every pass starts as cold as a fresh process
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(list(cmd.argv))
            except Exception:  # the CLI let an exception escape: a failure
                traceback.print_exc()
                code = -1
        runs.append(CommandRun(cmd.name, perf_counter() - start, code,
                               out.getvalue(), err.getvalue()))
    return Pass(runs, perf_counter() - t0)


def tally(passes: list[Pass]) -> tuple[int, int]:
    """(commands attempted, commands failed): a wrong exit code or a
    failed output check is a failure."""
    runs = [r for p in passes for r in p.runs]
    return len(runs), sum(1 for r in runs if r.problems)


def judge_pass(checker: Checker, commands, p: Pass) -> None:
    by_name = {c.name: c for c in commands}
    for run in p.runs:
        checker.judge(by_name[run.name], run)
        if run.problems:
            print(f"perfbench: {run.name} failed: {'; '.join(run.problems)}"
                  + (f"\n{run.stderr.strip()}" if run.stderr.strip() else ""),
                  file=sys.stderr)


def measure_setup(env: dict, deadline: float) -> list[CommandRun]:
    """Start-up cost of a command: a fresh interpreter importing the CLI.

    The untimed first start checks where the package comes from and
    compiles its bytecode, which a user pays once, not per command.
    """
    probe = "import splitstab.cli, sys; print(splitstab.cli.__file__)"
    _, code, out, err = run_subprocess([sys.executable, "-c", probe], env,
                                       deadline - perf_counter())
    if code != 0 or Path(out.strip()).resolve() != SRC / "splitstab" / "cli.py":
        raise RuntimeError(f"cannot import splitstab.cli from {SRC}: {err.strip() or out}")

    def one(_):
        secs, code, out, err = run_subprocess(
            [sys.executable, "-c", "import splitstab.cli"], env, deadline - perf_counter())
        if code != 0:
            raise RuntimeError(f"importing splitstab.cli failed: {err.strip()}")
        return CommandRun("setup", secs, code, out, err)

    return bracketed(one, deadline, range(SETUP_SAMPLES))[0]


def pin_to_one_cpu() -> int | None:
    """Run this process and its children on one CPU, the CPU the
    calibration loop measures (the load model is one process at a time)."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def repeat_passes(seconds: float, started: float, deadline: float, one_cycle) -> None:
    """Call one_cycle() until another one would end more than ``seconds``
    after the run ``started`` (set-up included), or it asks to stop."""
    t0 = perf_counter()
    cycles = 0
    while True:
        stop = one_cycle()
        cycles += 1
        now = perf_counter()
        if stop or now + (now - t0) / cycles > started + seconds or now >= deadline:
            return


# ---------------------------------------------------------------------------
# metrics


def _median(values) -> float:
    return float(statistics.median(values))


def calibrated(run: CommandRun) -> float:
    """A run's time in calibration loops (see calibration_loop)."""
    return run.seconds / run.cal_s


def command_medians(passes: list[Pass], value=calibrated) -> dict[str, float]:
    """Median of ``value`` for each command over the passes.

    A burst of load from outside lands on a command or two, not on a
    whole pass; summing per-command medians discards it where a median
    of pass totals would not.
    """
    values: dict[str, list[float]] = {}
    for p in passes:
        for r in p.runs:
            values.setdefault(r.name, []).append(value(r))
    return {name: _median(v) for name, v in values.items()}


def _rate(commands, medians: dict[str, float], setup: float) -> float:
    """Work items per unit of command time, start-up excluded."""
    items = sum(c.items for c in commands)
    busy = sum(medians[c.name] for c in commands) - setup * len(commands)
    return items / busy if busy > 0 else 0.0


def end_to_end_metrics(commands, passes: list[Pass], setup: list[CommandRun],
                       peak_rss_kib: int) -> dict[str, float]:
    med = command_medians(passes)
    focus = [c for c in commands if c.focus and c.name in med]
    return {
        "setup_s": _median(r.seconds for r in setup),
        "wall_cal": sum(med.values()),
        "focus_cal": sum(med[c.name] for c in focus),
        "peak_rss_mb": peak_rss_kib / 1024.0,
    }


def family_metrics(commands, passes: list[Pass], setup: list[CommandRun]) -> dict[str, dict]:
    """Per command family, raw seconds and items per second (these are
    region_s, cells_per_s, fig2_s, ... of the run record), and the same
    in calibration loops."""
    raw = command_medians(passes, lambda r: r.seconds)
    cal = command_medians(passes)
    setup_s = _median(r.seconds for r in setup)
    setup_cal = _median(calibrated(r) for r in setup)
    out = {}
    for family in dict.fromkeys(c.family for c in commands):
        members = [c for c in commands if c.family == family and c.name in raw]
        out[family] = {
            "items": sum(c.items for c in members),
            "seconds": sum(raw[c.name] for c in members),
            "items_per_s": _rate(members, raw, setup_s),
            "cal": sum(cal[c.name] for c in members),
            "items_per_cal": _rate(members, cal, setup_cal),
        }
    return out


def layer_metrics(tracer: tracing.Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    summary = tracer.summary()

    def calls(name):
        return summary.get(name, (0, 0.0))[0]

    def self_s(name):
        return summary.get(name, (0, 0.0))[1]

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    def counted(name, index=None):
        values = [v for _, v in tracer.counts.get(name, [])]
        return sum(v if index is None else v[index] for v in values)

    m: dict[str, float] = {}
    for name in ("kernel.transfer_matrix", "kernel.epsilon_polynomial",
                 "stability.instability_witness"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.us_per_call"] = per(self_s(name), calls(name), 1e6)
    m["stability.instability_witness.found_ratio"] = per(
        counted("stability.instability_witness"), calls("stability.instability_witness"), 1.0)
    for name in ("stability.classify", "stability.chebyshev_polynomial_coeffs",
                 "stability.critical_steplength", "stability.strang_boundaries",
                 "dynamics.reduce_to_model", "schemes.random_palindromic_scheme"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["stability.scan_region.self_s"] = self_s("stability.scan_region")
    m["stability.scan_region.cells"] = counted("stability.scan_region")

    m["analysis.three_stage_sweep.self_s"] = self_s("analysis.three_stage_sweep")
    m["analysis.three_stage_sweep.rows"] = counted("analysis.three_stage_sweep", 0)
    m["analysis.three_stage_sweep.exceptional"] = counted("analysis.three_stage_sweep", 1)
    spot = "analysis.optimality_spotcheck"
    m[f"{spot}.self_s"] = self_s(spot)
    for i, key in enumerate(("trials", "coincidence_skips", "failures")):
        m[f"{spot}.{key}"] = counted(spot, i)

    model = "dynamics.integrate_model"
    m[f"{model}.steps"] = counted(model)
    m[f"{model}.self_s"] = self_s(model)
    m[f"{model}.ns_per_step"] = per(self_s(model), counted(model), 1e9)
    general = "dynamics.integrate_general"
    m[f"{general}.steps"] = counted(general, 1)
    m[f"{general}.self_s"] = self_s(general)
    own = tracer.self_times()
    for d in (2, 20, 200):
        spans = [(i, steps) for i, (dim, steps) in tracer.counts.get(general, []) if dim == d]
        m[f"{general}.us_per_step.d{d}"] = per(sum(own[i] for i, _ in spans),
                                              sum(s for _, s in spans), 1e6)
    m["schemes.catalog_scheme.calls"] = calls("schemes.catalog_scheme")

    handlers = [n for n in summary if n.startswith("cli._cmd_")]
    fmt = sum(self_s(n) for n in handlers)
    written = sum(counted(n) for n in handlers)
    m["cli.format_write_s"] = fmt
    m["cli.bytes_written"] = written
    m["cli.format_write.ns_per_byte"] = per(fmt, written, 1e9)
    m["svgplot.region_svg.self_s"] = self_s("svgplot.region_svg")
    m["svgplot.sweep_svg.self_s"] = self_s("svgplot.sweep_svg")
    return m


# ---------------------------------------------------------------------------
# run record


def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own (a source export)
    return lines[1]


def _blas() -> str:
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "load_model": "closed loop, one client, one command at a time",
    }


def command_record(commands, passes: list[Pass]) -> list[dict]:
    out = []
    for info in workloads.describe(commands):
        runs = [r for p in passes for r in p.runs if r.name == info["name"]]
        digests = [r.digests for r in runs]
        out.append({
            **info,
            "runs": len(runs),
            "median_s": _median(r.seconds for r in runs) if runs else None,
            "median_cal": _median(calibrated(r) for r in runs if r.cal_s) if any(
                r.cal_s for r in runs) else None,
            "seconds": [round(r.seconds, 6) for r in runs],
            "exit_codes": sorted({r.code for r in runs}),
            "sha256": digests[0] if digests else {},
            "bytes_identical_across_runs": all(d == digests[0] for d in digests),
            "problems": sorted({p for r in runs for p in r.problems}),
        })
    return out


# ---------------------------------------------------------------------------
# the two modes


def timed_run(commands, seconds: float, started: float,
              deadline: float) -> tuple[dict, list[Pass], dict]:
    env = child_env()
    setup = measure_setup(env, deadline)
    checker = Checker()
    passes: list[Pass] = []

    def cycle():
        p = subprocess_pass(commands, env, deadline)
        judge_pass(checker, commands, p)
        passes.append(p)
        return len(p.runs) < len(commands)

    repeat_passes(seconds, started, deadline, cycle)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = end_to_end_metrics(commands, passes, setup, peak)
    extra = {
        "setup_samples_s": [r.seconds for r in setup],
        "setup_samples_cal": [calibrated(r) for r in setup],
        "passes": len(passes),
        "pass_seconds": [p.seconds for p in passes],
        "calibration_s": [p.calibrations for p in passes],
        "families": family_metrics(commands, passes, setup),
    }
    return metrics, passes, extra


def traced_run(commands, seconds: float, started: float, deadline: float,
               spans_path: Path):
    sys.path.insert(0, str(SRC))
    import splitstab
    import splitstab.cli as cli

    if Path(cli.__file__).resolve() != SRC / "splitstab" / "cli.py":
        raise RuntimeError(f"splitstab.cli imported from {cli.__file__}, not {SRC}")
    caches = [obj for layer in tracing.LAYERS
              for obj in vars(getattr(splitstab, layer)).values()
              if callable(getattr(obj, "cache_clear", None))]
    tracer = tracing.Tracer()
    checker = Checker()
    plain: list[Pass] = []
    traced: list[Pass] = []
    rows: list[dict[str, float]] = []

    def cycle():
        p = inprocess_pass(cli, caches, commands, deadline)
        judge_pass(checker, commands, p)
        plain.append(p)
        tracer.reset()
        tracer.install(splitstab)
        try:
            t = inprocess_pass(cli, caches, commands, deadline)
        finally:
            tracer.uninstall()
        judge_pass(checker, commands, t)
        traced.append(t)
        rows.append(layer_metrics(tracer))
        return len(p.runs) < len(commands) or len(t.runs) < len(commands)

    # the first in-process pass grows the allocator's arenas and warms
    # lazy imports; it would bias the traced-minus-untraced difference
    judge_pass(checker, commands, warm := inprocess_pass(cli, caches, commands, deadline))
    repeat_passes(seconds, started, deadline, cycle)
    tracer.write_spans(spans_path)
    metrics = {name: _median(r[name] for r in rows) for name in rows[0]}
    # paired within a cycle, so that drift in machine speed cancels
    metrics["trace.overhead_s"] = _median(t.seconds - p.seconds
                                          for p, t in zip(plain, traced))
    extra = {
        "passes": len(traced),
        "untraced_pass_seconds": [p.seconds for p in plain],
        "traced_pass_seconds": [p.seconds for p in traced],
        "spans": str(spans_path.relative_to(ROOT)),
        "span_summary": {n: {"calls": c, "self_s": s}
                         for n, (c, s) in sorted(tracer.summary().items())},
    }
    return metrics, [warm] + plain + traced, extra


def declared(spec: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    deadline = started + DEADLINE_S

    if not (SRC / "splitstab" / "cli.py").is_file():
        print(f"perfbench: no splitstab sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = declared(spec, bool(args.trace))

    cpu = pin_to_one_cpu()
    work = WORK / args.workload
    commands = workloads.build(args.workload, args.seed, work)
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, passes, extra = traced_run(commands, args.seconds, started, deadline,
                                                records / f"{args.workload}-spans.csv")
        else:
            metrics, passes, extra = timed_run(commands, args.seconds, started, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} are not the ones "
              f"BENCHMARK.json declares", file=sys.stderr)
        return 4

    attempted, failed = tally(passes)
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in units},
    }
    record = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**environment(), "pinned_cpu": cpu},
        **extra,
        "commands": command_record(commands, passes),
        "result": result,
    }
    path = records / f"{stem}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"perfbench: record -> {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1

