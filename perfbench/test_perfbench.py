"""Tests of the benchmark itself.

A fast wrong answer must count as a failure: the oracles reject corrupted
outputs, a wrong exit code is a failed command, and every metric the
benchmark prints is declared in BENCHMARK.json with its unit.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if importlib.util.find_spec("splitstab") is None:
    sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from splitstab import cli  # noqa: E402


def _run(cmd, capsys):
    code = cli.run(list(cmd.argv))
    return code, capsys.readouterr().out


def _command(name, argv, outputs, check, **kw):
    return workloads.Command(name, name, tuple(argv), tuple(outputs), check, **kw)


def _rewrite_row(path, index, edit):
    lines = path.read_text().splitlines()
    fields = lines[index].split(",")
    lines[index] = ",".join(edit(fields))
    path.write_text("\n".join(lines) + "\n")


def test_region_oracle_rejects_flipped_class_and_wrong_semitrace(tmp_path, capsys):
    out = tmp_path / "region.csv"
    cmd = _command(
        "region",
        ["region", "--scheme", "krkm", "--m", "3", "--eps", "-1:6", "--h", "0:9",
         "--grid", "20x20", "-o", str(out)],
        [out],
        partial(oracles.check_region, oracle=("chebyshev", 3), eps_range=(-1.0, 6.0),
                h_range=(0.0, 9.0), grid=(20, 20), svg=None),
    )
    code, stdout = _run(cmd, capsys)
    assert cmd.check(cmd, code, stdout) == []
    text = out.read_text()
    row = next(i for i, line in enumerate(text.splitlines()) if line.endswith(",stable"))
    _rewrite_row(out, row, lambda f: f[:3] + ["exp_unstable"])
    assert any("class" in p for p in cmd.check(cmd, code, stdout))
    out.write_text(text)
    _rewrite_row(out, row, lambda f: [f[0], f[1], repr(float(f[2]) * (1 + 1e-7)), f[3]])
    assert any("closed form" in p for p in cmd.check(cmd, code, stdout))


def test_fig2_oracle_rejects_a_wrong_f(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    cmd = _command("fig2", ["fig2", "--points", "41", "-o", str(out)], [out],
                   partial(oracles.check_fig2, h_star=3.12, points=41, svg=None))
    code, stdout = _run(cmd, capsys)
    assert cmd.check(cmd, code, stdout) == []
    # still below -1, so only the recomputed semitrace can notice
    _rewrite_row(out, 2, lambda f: [f[0], f[1], f[2], repr(float(f[3]) - 1e-6), f[4]])
    assert any("F values" in p for p in cmd.check(cmd, code, stdout))


@pytest.mark.parametrize("kind", ["spotcheck", "verify", "boundaries", "hm-table"])
def test_windows_oracles_reject_corruption(tmp_path, capsys, kind):
    out = tmp_path / "out"
    if kind == "spotcheck":
        argv = ["spotcheck", "--m", "3", "--trials", "4", "--h-samples", "2", "--seed", "3"]
        check = partial(oracles.check_spotcheck, m=3, trials=4, h_samples=2, seed=3)

        def corrupt(path):
            rep = json.loads(path.read_text())
            rep["witnesses_found"] -= 1
            path.write_text(json.dumps(rep))
    elif kind == "verify":
        argv = ["verify", "--suite", "all", "--trials", "7", "--seed", "3"]
        check = partial(oracles.check_verify, suite="all", trials=7, seed=3)

        def corrupt(path):
            rep = json.loads(path.read_text())
            rep["total_failures"] = 1
            path.write_text(json.dumps(rep))
    elif kind == "boundaries":
        argv = ["boundaries", "--m", "3", "--h", "0.1:9.3", "--n", "16"]
        check = partial(oracles.check_boundaries, m=3, h_range=(0.1, 9.3), n=16)

        def corrupt(path):
            _rewrite_row(path, 5, lambda f: [f[0], repr(float(f[1]) * 1.001), f[2], f[3]])
    else:
        argv = ["hm-table", "--m-max", "6"]
        check = partial(oracles.check_hm_table, m_max=6)

        def corrupt(path):
            _rewrite_row(path, 4, lambda f: [f[0], repr(float(f[1]) + 1e-6)])
    cmd = _command(kind, [*argv, "-o", str(out)], [out], check)
    code, stdout = _run(cmd, capsys)
    assert cmd.check(cmd, code, stdout) == []
    corrupt(out)
    assert cmd.check(cmd, code, stdout)


@pytest.mark.xfail(strict=True, reason="the conjugacy suite compares semitraces with an "
                   "absolute 1e-12 tolerance and fails on rounding alone; when this passes, "
                   "put the suite back into workloads.VERIFY_SUITES")
def test_verify_conjugacy_suite_passes_at_seed_64(tmp_path, capsys):
    out = tmp_path / "verify.json"
    cmd = _command("verify", ["verify", "--suite", "conjugacy", "--trials", "200",
                              "--seed", "64", "-o", str(out)], [out],
                   partial(oracles.check_verify, suite="conjugacy", trials=200, seed=64))
    code, stdout = _run(cmd, capsys)
    assert cmd.check(cmd, code, stdout) == []


def test_trajectory_oracles_reject_a_wrong_state(tmp_path, capsys):
    problem = workloads.linear_problem(np.random.default_rng(4), 3)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem.record()))
    z0 = np.linspace(-0.5, 0.5, 6)
    traj, modes = tmp_path / "traj.csv", tmp_path / "modes.json"
    integrate = _command(
        "integrate",
        ["integrate", "--scheme", "krkm", "--m", "2", "--problem", str(path), "--h", "0.3",
         "--steps", "60", "--z0", ",".join(repr(float(x)) for x in z0), "-o", str(traj)],
        [traj],
        partial(oracles.check_linear_trajectory, problem=problem, scheme=("krk", 2),
                h=0.3, steps=60, z0=z0),
    )
    reduce = _command("reduce", ["reduce", "--problem", str(path), "-o", str(modes)],
                      [modes], partial(oracles.check_reduce, problem=problem))
    for cmd in (integrate, reduce):
        code, stdout = _run(cmd, capsys)
        assert cmd.check(cmd, code, stdout) == []
    _rewrite_row(traj, -1, lambda f: f[:-1] + [repr(float(f[-1]) + 1e-6)])
    assert integrate.check(integrate, 0, stdout="integrate: 60 steps")
    rep = json.loads(modes.read_text())
    rep["modes"][1]["eps"] += 1e-6
    modes.write_text(json.dumps(rep))
    assert reduce.check(reduce, 0, "")


class _ExitsWith:
    """Stands in for splitstab.cli: every command exits with ``code``."""

    def __init__(self, code):
        self.code = code

    def run(self, argv):
        return self.code


def test_an_unexpected_exit_code_is_a_failure(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    cmd = _command("fig2", ["fig2", "--points", "41", "-o", str(out)], [out],
                   partial(oracles.check_fig2, h_star=3.12, points=41, svg=None))
    _run(cmd, capsys)  # a correct output file is on disk ...
    deadline = perf_counter() + 60
    for code in (0, 2):
        # ... but it is removed before the command runs, so a command that
        # exits 0 without writing fails as surely as one that exits 2
        p = harness.inprocess_pass(_ExitsWith(code), [], [cmd], deadline)
        harness.judge_pass(harness.Checker(), [cmd], p)
        assert harness.tally([p]) == (1, 1)

    bad = _command("region", ["region", "--scheme", "nope", "--eps", "0:1", "--h", "0:1",
                              "-o", str(tmp_path / "r.csv")], [tmp_path / "r.csv"],
                   partial(oracles.check_region, oracle=("chebyshev", 1), eps_range=(0, 1),
                           h_range=(0, 1), grid=(200, 200), svg=None))
    p = harness.subprocess_pass([bad], harness.child_env(), deadline)
    harness.judge_pass(harness.Checker(), [bad], p)
    assert p.runs[0].code == cli.EXIT_USAGE
    assert harness.tally([p]) == (1, 1)


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_every_printed_metric_is_declared_with_its_unit():
    fake = [workloads.Command("a", "a", (), (), None, focus=True, items=10),
            workloads.Command("b", "b", (), (), None)]

    def run(name, seconds):  # the machine runs at half speed: cal_s = 0.5
        return harness.CommandRun(name, seconds, 0, "", cal_s=0.5)

    passes = [harness.Pass([run("a", 1.0 + i), run("b", 0.5)], 1.5 + i) for i in range(3)]
    setup = [run("setup", s) for s in (0.2, 0.3, 0.25)]
    e2e = harness.end_to_end_metrics(fake, passes, setup, 2048)
    assert set(e2e) == set(_declared("end_to_end"))
    assert e2e["setup_s"] == 0.25 and e2e["peak_rss_mb"] == 2.0
    assert e2e["wall_cal"] == 5.0 and e2e["focus_cal"] == 4.0
    layers = harness.layer_metrics(tracing.Tracer())
    assert set(layers) | {"trace.overhead_s"} == set(_declared("per_layer"))
    units = _declared("end_to_end") | _declared("per_layer")
    assert all(units.values())


def test_inputs_depend_only_on_the_seed(tmp_path):
    def inputs(seed, where):
        cmds = workloads.build("trajectory", seed, tmp_path / where)
        files = sorted((tmp_path / where).glob("*.json"))
        return [c.argv[:-2] for c in cmds], [f.read_bytes() for f in files]

    argv_a, files_a = inputs(5, "a")
    argv_b, files_b = inputs(5, "b")
    assert files_a == files_b
    assert [[x.replace("/b/", "/a/") for x in a] for a in argv_b] == [list(a) for a in argv_a]
    assert inputs(6, "c")[1] != files_a


def test_tracer_patches_every_binding_and_derives_self_times(tmp_path, capsys):
    import splitstab
    from splitstab import analysis, kernel, stability

    originals = (kernel.transfer_matrix, stability.transfer_matrix, cli.scan_region,
                 analysis.instability_witness)
    tracer = tracing.Tracer()
    tracer.install(splitstab)
    try:
        assert stability.transfer_matrix.__traced__ and cli.transfer_matrix.__traced__
        assert analysis.instability_witness.__traced__
        assert cli.run(["region", "--scheme", "rkr", "--eps", "0:1", "--h", "0.5:2",
                        "--grid", "4x5", "-o", str(tmp_path / "r.csv")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert (kernel.transfer_matrix, stability.transfer_matrix, cli.scan_region,
            analysis.instability_witness) == originals
    summary = tracer.summary()
    assert summary["kernel.transfer_matrix"][0] == 20
    assert summary["stability.classify"][0] == 20
    assert summary["cli._cmd_region"][0] == 1
    # self times partition the root span
    root = np.frombuffer(tracer.parent, dtype=np.int32) == -1
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    assert tracer.self_times().sum() == pytest.approx(dur[root].sum(), abs=1e-9)
    assert (tracer.self_times() >= -1e-9).all()
    metrics = harness.layer_metrics(tracer)
    assert metrics["stability.scan_region.cells"] == 20
    assert metrics["cli.bytes_written"] == (tmp_path / "r.csv").stat().st_size


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "region", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
