"""Seeded workloads: the CLI commands each workload runs, and their inputs.

A workload is a list of ``Command``s run back to back, one at a time (a
closed loop with a single client, the way a researcher scripts the
paper's figures).  Everything a command reads is generated here from the
workload seed; the program only sees the generated files and flags.

Why each workload exists:

* ``region`` -- the scalar fold (``transfer_matrix``), ``classify``,
  ``scan_region`` and the CSV writer do almost all the work.  No
  polynomial and no integrator runs.  The three scans trade cell count
  against fold depth (9 flows for rkr4, 33 for krk16) and cover the
  drift/kick branch of the fold (verlet_vel).
* ``windows`` -- the polynomial fold (``epsilon_polynomial``), the
  witness search, the three-stage sweep and the closed forms do the
  work; outputs are small.  Stage counts 2-4 vary the polynomial degree
  that a root-based window search depends on.
* ``trajectory`` -- ``dynamics`` does the work.  d runs from per-step
  interpreter overhead (d=2) to matvec-bound (d=200); the drift/cubic
  run bypasses the modal flow, and the wide trajectory CSVs use the CLI
  writer differently from the 4-column region rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import oracles


@dataclass(frozen=True)
class Command:
    """One CLI invocation and how to judge it.

    ``argv`` are the arguments after ``splitstab``.  ``family`` groups
    commands for the per-family timings in the run record; ``focus``
    marks the commands the workload exists to measure (``focus_cal`` and
    ``focus_per_cal``), and ``items`` is their unit of work: cells,
    (trial, h) witness searches or integration steps.
    """

    name: str
    family: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]
    check: Callable[["Command", int, str], list[str]] = field(repr=False)
    focus: bool = False
    items: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], list[Command]] = field(repr=False)


def _jitter(seed: int, salt: int) -> float:
    """A seeded value in [0, 0.1): region scans have no random input of
    their own, so the seed nudges their range ends."""
    return float(np.random.default_rng([seed, salt]).uniform(0.0, 0.1))


def _region(seed: int, work: Path) -> list[Command]:
    scans = [
        # name, scheme flags, oracle, eps range, h range, grid, svg
        ("region_rkr4", ["--scheme", "rkrm", "--m", "4"], ("chebyshev", 4),
         (-1.0, 6.0), (0.0, 12.6), (400, 400), True),
        ("region_verlet_vel", ["--scheme", "verlet_vel"], ("verlet_vel", 0),
         (-1.0, 6.0), (0.0, 4.0), (200, 200), False),
        ("region_krk16", ["--scheme", "krkm", "--m", "16"], ("chebyshev", 16),
         (-1.0, 6.0), (0.0, 50.0), (100, 100), False),
    ]
    commands = []
    for salt, (name, flags, oracle, eps, h, grid, svg) in enumerate(scans):
        eps = (eps[0], eps[1] + _jitter(seed, 2 * salt))
        h = (h[0], h[1] + _jitter(seed, 2 * salt + 1))
        csv_path = work / f"{name}.csv"
        svg_path = work / f"{name}.svg"
        argv = [
            "region", *flags,
            "--eps", f"{eps[0]!r}:{eps[1]!r}", "--h", f"{h[0]!r}:{h[1]!r}",
            "--grid", f"{grid[0]}x{grid[1]}", "-o", str(csv_path),
        ]
        outputs = [csv_path]
        if svg:
            argv += ["--svg", str(svg_path)]
            outputs.append(svg_path)
        commands.append(Command(
            name, "region", tuple(argv), tuple(outputs),
            partial(oracles.check_region, oracle=oracle, eps_range=eps,
                    h_range=h, grid=grid, svg=svg_path if svg else None),
            focus=True, items=grid[0] * grid[1],
        ))
    return commands


#: The ``verify`` suites the windows workload runs.  ``conjugacy`` is left
#: out: it compares semitraces of random schemes with an absolute 1e-12
#: tolerance, so rounding alone fails it on about one seed in eight (120
#: of seeds 1..1000 at --trials 200, e.g. seed 64 with a residual of
#: 3e-12), and ``verify --suite all`` then exits 2 on a true property.
#: test_perfbench.py keeps that defect visible.
VERIFY_SUITES = ("consistency", "second-derivative", "chebyshev")


def _windows(seed: int, work: Path) -> list[Command]:
    trials, h_samples = 200, 5
    commands = []
    for m in (2, 3, 4):
        out = work / f"spotcheck_m{m}.json"
        commands.append(Command(
            f"spotcheck_m{m}", "spotcheck",
            ("spotcheck", "--m", str(m), "--trials", str(trials),
             "--h-samples", str(h_samples), "--seed", str(seed), "-o", str(out)),
            (out,),
            partial(oracles.check_spotcheck, m=m, trials=trials,
                    h_samples=h_samples, seed=seed),
            focus=True, items=trials * h_samples,
        ))
    fig2_csv, fig2_svg = work / "fig2.csv", work / "fig2.svg"
    bounds_csv, hm_csv = work / "boundaries_m3.csv", work / "hm_table.csv"
    commands += [
        Command(
            "fig2", "fig2",
            ("fig2", "--points", "401", "-o", str(fig2_csv), "--svg", str(fig2_svg)),
            (fig2_csv, fig2_svg),
            partial(oracles.check_fig2, h_star=3.12, points=401, svg=fig2_svg),
            items=401,
        ),
        *(
            Command(
                f"verify_{suite}", "verify",
                ("verify", "--suite", suite, "--trials", "200", "--seed", str(seed),
                 "-o", str(work / f"verify_{suite}.json")),
                (work / f"verify_{suite}.json",),
                partial(oracles.check_verify, suite=suite, trials=200, seed=seed),
                items=200,
            )
            for suite in VERIFY_SUITES
        ),
        Command(
            "boundaries_m3", "boundaries",
            ("boundaries", "--m", "3", "--h", "0.1:9.3", "--n", "512",
             "-o", str(bounds_csv)),
            (bounds_csv,),
            partial(oracles.check_boundaries, m=3, h_range=(0.1, 9.3), n=512),
            items=512,
        ),
        Command(
            "hm_table", "hm-table",
            ("hm-table", "--m-max", "10", "-o", str(hm_csv)),
            (hm_csv,),
            partial(oracles.check_hm_table, m_max=10),
            items=10,
        ),
    ]
    return commands


# ---------------------------------------------------------------------------
# general-problem inputs


@dataclass(frozen=True)
class LinearProblem:
    """M q'' = -A q - B q built from a known modal decomposition.

    With M = L L^T, A = L Q diag(lam) Q^T L^T and B = L Q diag(lam*eps)
    Q^T L^T, mode i is the model problem with perturbation eps[i] and
    frequency sqrt(lam[i]); the oracles use these exact modes.
    """

    mass: np.ndarray
    stiffness: np.ndarray
    linear_b: np.ndarray
    chol: np.ndarray
    basis: np.ndarray
    lam: np.ndarray
    eps: np.ndarray

    def record(self) -> dict:
        return {
            "mass": self.mass.tolist(),
            "stiffness": self.stiffness.tolist(),
            "linear_b": self.linear_b.tolist(),
        }


def _spd_mass(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d))
    mass = np.eye(d) + 0.5 * (g @ g.T) / d
    return 0.5 * (mass + mass.T)


def linear_problem(rng: np.random.Generator, d: int) -> LinearProblem:
    mass = _spd_mass(rng, d)
    chol = np.linalg.cholesky(mass)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    # frequencies squared in [0.5, 4], separated by at least 1.75/d so
    # that the eigenbasis is well defined
    lam = 0.5 + 3.5 * (np.arange(d) + 0.5 * rng.uniform(0.0, 1.0, d)) / d
    lam = rng.permutation(lam)
    eps = rng.uniform(-0.3, 0.6, d)
    left = chol @ basis
    stiffness = left @ np.diag(lam) @ left.T
    linear_b = left @ np.diag(lam * eps) @ left.T
    return LinearProblem(
        mass, 0.5 * (stiffness + stiffness.T), 0.5 * (linear_b + linear_b.T),
        chol, basis, lam, eps,
    )


def cubic_problem(rng: np.random.Generator, d: int, delta: float) -> dict:
    mass = _spd_mass(rng, d)
    chol = np.linalg.cholesky(mass)
    g = rng.standard_normal((d, d))
    # M^-1 A is similar to 0.5 I + G G^T / 2d, whose spectrum (below ~3)
    # keeps h*w far inside the Verlet limit of 2 for the steplength used
    stiffness = chol @ (0.5 * np.eye(d) + (g @ g.T) / (2.0 * d)) @ chol.T
    stiffness = 0.5 * (stiffness + stiffness.T)
    return {"mass": mass.tolist(), "stiffness": stiffness.tolist(),
            "cubic_delta": delta}


def _state(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, 2 * d)


def _z0_flag(z0: np.ndarray) -> str:
    return ",".join(repr(float(x)) for x in z0)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


def _trajectory(seed: int, work: Path) -> list[Command]:
    rng = np.random.default_rng(seed)
    commands = []

    model_csv = work / "traj_model.csv"
    steps = 200_000
    commands.append(Command(
        "integrate_model_krk", "integrate_model",
        ("integrate", "--scheme", "krk", "--eps", "0.5", "--h", "0.9",
         "--steps", str(steps), "-o", str(model_csv)),
        (model_csv,),
        partial(oracles.check_model_trajectory, scheme=("krk", 1), eps=0.5,
                h=0.9, steps=steps, z0=(1.0, 0.0)),
        focus=True, items=steps,
    ))

    linear_runs = [
        # d, scheme flags, oracle scheme, h, steps
        (2, ("--scheme", "rkr"), ("rkr", 1), 0.3, 20_000),
        (20, ("--scheme", "krkm", "--m", "4"), ("krk", 4), 0.3, 5_000),
        (200, ("--scheme", "rkr"), ("rkr", 1), 0.3, 1_000),
    ]
    problems = {}
    for d, flags, scheme, h, n in linear_runs:
        problem = linear_problem(rng, d)
        problems[d] = problem
        path = work / f"linear_d{d}.json"
        _write_json(path, problem.record())
        z0 = _state(rng, d)
        out = work / f"traj_linear_d{d}.csv"
        commands.append(Command(
            f"integrate_linear_d{d}", "integrate_general",
            ("integrate", *flags, "--problem", str(path), "--h", repr(h),
             "--steps", str(n), "--z0", _z0_flag(z0), "-o", str(out)),
            (out,),
            partial(oracles.check_linear_trajectory, problem=problem,
                    scheme=scheme, h=h, steps=n, z0=z0),
            focus=True, items=n,
        ))

    d, h, n, delta = 20, 0.2, 5_000, 0.05
    cubic = cubic_problem(rng, d, delta)
    cubic_path = work / f"cubic_d{d}.json"
    _write_json(cubic_path, cubic)
    z0 = 0.5 * _state(rng, d)
    out = work / f"traj_cubic_d{d}.csv"
    commands.append(Command(
        f"integrate_cubic_d{d}", "integrate_general",
        ("integrate", "--scheme", "verlet_vel", "--problem", str(cubic_path),
         "--h", repr(h), "--steps", str(n), "--z0", _z0_flag(z0), "-o", str(out)),
        (out,),
        partial(oracles.check_cubic_trajectory, mass=np.array(cubic["mass"]),
                stiffness=np.array(cubic["stiffness"]), delta=delta, h=h,
                steps=n, z0=z0),
        focus=True, items=n,
    ))

    modes = work / "modes_d200.json"
    commands.append(Command(
        "reduce_d200", "reduce",
        ("reduce", "--problem", str(work / "linear_d200.json"), "-o", str(modes)),
        (modes,),
        partial(oracles.check_reduce, problem=problems[200]),
        items=200,
    ))
    return commands


WORKLOADS = {
    w.name: w
    for w in (
        Workload("region", "grid fold, classify and CSV writer; no polynomial, "
                 "no integrator", _region),
        Workload("windows", "polynomial fold, witness search, sweep and closed "
                 "forms; small outputs", _windows),
        Workload("trajectory", "model and general integrators from d=2 to d=200, "
                 "wide trajectory CSVs", _trajectory),
    )
}


def build(name: str, seed: int, work: Path) -> list[Command]:
    """Write the workload's inputs under ``work`` and return its commands."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name].build(seed, work)


def describe(commands: list[Command]) -> list[dict]:
    return [
        {"name": c.name, "family": c.family, "focus": c.focus, "items": c.items,
         "argv": [a if len(a) <= 120 else f"<{len(a)} chars>" for a in c.argv]}
        for c in commands
    ]

