"""Independent oracles for the outputs of every benchmarked command.

Each ``check_*`` takes the command, its exit code and its stdout, reads
the command's output files and returns a list of problems (empty when the
output is right).  All comparisons are tolerance-based.  The references
are closed forms from the paper (the Chebyshev semitrace of the uniform
composition, the Verlet semitrace, the stability edges, the critical
equation), numpy linear algebra, or a plain re-implementation of the
step-matrix product; none of them calls into ``splitstab``.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

EXIT_OK = 0

#: Relative tolerance of a semitrace against its closed form, scaled by
#: max(1, |P|).  On the seed code the fold is within 4e-14 of the closed
#: form on every region scan (the worst is krk16, where |P| reaches 7e16).
SEMITRACE_RTOL = 1e-10

# ---------------------------------------------------------------------------
# reference mathematics


def chebyshev_t(m: int, x):
    """T_m(x) in closed form: cos(m acos x) on [-1, 1], cosh outside."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) <= 1.0
    out = np.empty_like(x)
    out[inside] = np.cos(m * np.arccos(x[inside]))
    big = np.abs(x[~inside])
    sign = np.where(x[~inside] > 0, 1.0, (-1.0) ** m)
    out[~inside] = sign * np.cosh(m * np.arccosh(big))
    return out


def chebyshev_argument(m: int, eps, h):
    """x with P = T_m(x) for the m-substep Strang composition."""
    return np.cos(h / m) - (h * eps / (2.0 * m)) * np.sin(h / m)


#: One step of each catalog scheme as (flow, weight) pairs, first flow first.
FLOWS = {
    "rkr": (("R", 0.5), ("K", 1.0), ("R", 0.5)),
    "krk": (("K", 0.5), ("R", 1.0), ("K", 0.5)),
}


def fold(flows, eps, h):
    """Entries (a, b, c, d) of the step matrix: rotations by w*h and kicks
    p -= w*h*eps*q, applied in order.  Works elementwise on arrays."""
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for kind, w in flows:
        t = w * h
        if kind == "R":
            co, si = np.cos(t), np.sin(t)
            a, b, c, d = co * a + si * c, co * b + si * d, co * c - si * a, co * d - si * b
        else:
            s = -t * eps
            c, d = c + s * a, d + s * b
    return a, b, c, d


def step_matrix(scheme: tuple[str, int], eps: float, h: float) -> np.ndarray:
    """Step matrix of ``scheme`` = (base name, substeps m): the base step
    at h/m applied m times."""
    base, m = scheme
    a, b, c, d = fold(FLOWS[base], eps, h / m)
    return np.linalg.matrix_power(np.array([[a, b], [c, d]]), m)


def growth_rate(p: float) -> float:
    ap = abs(p)
    return 1.0 if ap <= 1.0 else ap + math.sqrt((ap - 1.0) * (ap + 1.0))


# ---------------------------------------------------------------------------
# readers


def _exit_problems(code: int, expected: int = EXIT_OK) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{Path(path).name} is empty")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _columns(rows: list[list[str]], width: int) -> list[tuple[str, ...]]:
    bad = sum(1 for r in rows if len(r) != width)
    if bad:
        raise ValueError(f"{bad} rows do not have {width} fields")
    return list(zip(*rows)) if rows else [()] * width


def _floats(col) -> np.ndarray:
    return np.array(col, dtype=float)


def _svg_problems(path: Path | None) -> list[str]:
    if path is None:
        return []
    root = ET.parse(path).getroot()
    if not root.tag.endswith("svg"):
        return [f"{path.name}: root element is {root.tag!r}, not svg"]
    if not any(el.tag.endswith(("rect", "polyline")) for el in root.iter()):
        return [f"{path.name}: no drawing elements"]
    return []


def _nodes(start: float, end: float, n: int) -> np.ndarray:
    step = (end - start) / n
    return np.array([start + i * step for i in range(n)])


def _close(got, want, rtol: float) -> np.ndarray:
    """|got - want| <= rtol * max(1, |want|), elementwise."""
    return np.abs(np.asarray(got) - np.asarray(want)) <= rtol * np.maximum(1.0, np.abs(want))


# ---------------------------------------------------------------------------
# region


def check_region(cmd, code, stdout, *, oracle, eps_range, h_range, grid, svg):
    problems = _exit_problems(code)
    if problems:
        return problems
    header, rows = read_csv(cmd.outputs[0])
    if header != ["eps", "h", "semitrace", "class"]:
        return [f"region header {header}"]
    n_eps, n_h = grid
    if len(rows) != n_eps * n_h:
        return [f"{len(rows)} rows, expected {n_eps * n_h}"]
    eps_col, h_col, p_col, cls = _columns(rows, 4)
    eps, h, p = _floats(eps_col), _floats(h_col), _floats(p_col)
    cls = np.array(cls)
    # eps-major: h varies fastest
    want_eps = np.repeat(_nodes(*eps_range, n_eps), n_h)
    want_h = np.tile(_nodes(*h_range, n_h), n_eps)
    if not (_close(eps, want_eps, 1e-12).all() and _close(h, want_h, 1e-12).all()):
        problems.append("eps/h columns are not the eps-major grid")

    kind, m = oracle
    if kind == "chebyshev":
        ref = chebyshev_t(m, chebyshev_argument(m, want_eps, want_h))
    else:  # velocity Verlet: P = 1 - h^2 (1 + eps) / 2
        ref = 1.0 - 0.5 * want_h**2 * (1.0 + want_eps)
    bad = ~_close(p, ref, SEMITRACE_RTOL)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        problems.append(
            f"{int(bad.sum())} semitraces off the closed form, first at row {i + 1}: "
            f"{p[i]!r} vs {ref[i]!r}"
        )

    ap = np.abs(p)
    own = np.where(ap < 1.0, "stable", np.where(ap > 1.0, "exp_unstable", ""))
    border = ap == 1.0
    wrong = (~border & (cls != own)) | (
        border & (cls != "stable") & (cls != "linear_unstable")
    )
    # where the closed form is clearly off the |P| = 1 border the class is
    # fixed by it too
    margin = np.abs(np.abs(ref) - 1.0) > SEMITRACE_RTOL * np.maximum(1.0, np.abs(ref))
    ref_cls = np.where(np.abs(ref) < 1.0, "stable", "exp_unstable")
    wrong |= margin & (cls != ref_cls)
    if wrong.any():
        i = int(np.flatnonzero(wrong)[0])
        problems.append(
            f"{int(wrong.sum())} class cells disagree with |P|, first at row {i + 1}: "
            f"{cls[i]!r} with P={p[i]!r}"
        )
    problems += _svg_problems(svg)
    if f"{n_eps * n_h} cells" not in stdout:
        problems.append(f"stdout does not report {n_eps * n_h} cells")
    return problems


# ---------------------------------------------------------------------------
# windows


def check_spotcheck(cmd, code, stdout, *, m, trials, h_samples, seed):
    problems = _exit_problems(code)
    if problems:
        return problems
    rep = json.loads(cmd.outputs[0].read_text(encoding="utf-8"))
    echo = {"m": m, "trials": trials, "h_samples": h_samples, "seed": seed}
    for key, want in echo.items():
        if rep.get(key) != want:
            problems.append(f"{key}={rep.get(key)!r}, expected {want!r}")
    if rep.get("failures") != []:
        problems.append(f"failures recorded: {rep.get('failures')!r}")
    found, skips = rep.get("witnesses_found"), rep.get("coincidence_skips")
    if not (isinstance(found, int) and isinstance(skips, int) and found + skips == trials):
        problems.append(f"witnesses {found!r} + skips {skips!r} != trials {trials}")
    return problems


#: Rotation weights where the three-stage family is a uniform composition.
EXCEPTIONAL_R = (0.25, 1.0 / 3.0, 0.5)


def _default_r_grid(n: int, lo: float = 0.2, hi: float = 0.6) -> np.ndarray:
    spacing = (hi - lo) / (n - 1)
    nodes = []
    for i in range(n):
        r = ((n - 1 - i) * lo + i * hi) / (n - 1)
        for target in EXCEPTIONAL_R:
            if abs(r - target) <= 0.5 * spacing:
                r = target
                break
        nodes.append(r)
    return np.array(nodes)


def _three_stage(r, k):
    return (("K", k), ("R", r), ("K", 0.5 - k), ("R", 1.0 - 2.0 * r),
            ("K", 0.5 - k), ("R", r), ("K", k))


def _nearest_critical_point(coeffs: np.ndarray, lo=-0.5, hi=0.5) -> float:
    """Root of P' in [lo, hi] nearest 0, P given by monomial coeffs."""
    deriv = np.arange(1, len(coeffs)) * coeffs[1:]
    roots = np.roots(deriv[::-1])
    real = roots[np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots))].real
    real = real[(real >= lo) & (real <= hi)]
    return float(real[np.argmin(np.abs(real))]) if len(real) else math.nan


def check_fig2(cmd, code, stdout, *, h_star, points, svg):
    problems = _exit_problems(code)
    if problems:
        return problems
    header, rows = read_csv(cmd.outputs[0])
    if header != ["r", "k", "eps_star", "F", "exceptional"]:
        return [f"fig2 header {header}"]
    if len(rows) != points:
        return [f"{len(rows)} rows, expected {points}"]
    r_col, k_col, e_col, f_col, x_col = _columns(rows, 5)
    r, k, eps_star, f = map(_floats, (r_col, k_col, e_col, f_col))
    exceptional = np.array(x_col) == "true"
    if not _close(r, _default_r_grid(points), 1e-12).all():
        problems.append("r column is not the snapped uniform grid on [0.2, 0.6]")
    k_ref = -np.cos(2.0 * np.pi * r) / (4.0 * np.sin(np.pi * r) ** 2)
    if not _close(k, k_ref, 1e-12).all():
        problems.append("k column differs from -cos(2 pi r) / (4 sin^2(pi r))")

    flows = _three_stage(r, k_ref)
    # the semitrace is a cubic in eps: recover it from four evaluations
    nodes = np.array([-1.0, 0.0, 1.0, 2.0])
    values = []
    for e in nodes:
        a, _, _, d = fold(flows, e, h_star)
        values.append(0.5 * (a + d))
    coeffs = np.linalg.solve(np.vander(nodes, 4, increasing=True), np.array(values))
    eps_ref = np.array([_nearest_critical_point(coeffs[:, i]) for i in range(points)])
    bad_eps = ~(np.abs(eps_star - eps_ref) <= 1e-9)
    if bad_eps.any():
        i = int(np.flatnonzero(bad_eps)[0])
        problems.append(f"{int(bad_eps.sum())} eps_star values are not the critical "
                        f"point nearest 0, first r={r[i]!r}: {eps_star[i]!r} vs {eps_ref[i]!r}")
    a, _, _, d = fold(flows, eps_star, h_star)
    bad_f = ~(np.abs(f - 0.5 * (a + d)) <= 1e-9)
    if bad_f.any():
        i = int(np.flatnonzero(bad_f)[0])
        problems.append(f"{int(bad_f.sum())} F values differ from P(eps_star), "
                        f"first r={r[i]!r}: {f[i]!r} vs {0.5 * (a[i] + d[i])!r}")

    exc_r = sorted(float(x) for x in r[exceptional])
    if len(exc_r) != 3 or not np.allclose(exc_r, EXCEPTIONAL_R, rtol=0, atol=1e-15):
        problems.append(f"exceptional rows at r={exc_r}, expected 1/4, 1/3, 1/2")
    if not (np.abs(f[exceptional] + 1.0) <= 1e-9).all():
        problems.append("an exceptional row has F != -1")
    if not (f[~exceptional] <= -1.0 + 1e-9).all():
        problems.append(f"a non-exceptional row has F > -1: max {f[~exceptional].max()!r}")
    problems += _svg_problems(svg)
    return problems


#: What ``verify --suite all`` runs.
ALL_VERIFY_SUITES = ("chebyshev", "conjugacy", "consistency", "second-derivative")


def check_verify(cmd, code, stdout, *, suite, trials, seed):
    problems = _exit_problems(code)
    if problems:
        return problems
    rep = json.loads(cmd.outputs[0].read_text(encoding="utf-8"))
    if (rep.get("suite"), rep.get("trials"), rep.get("seed")) != (suite, trials, seed):
        problems.append("suite/trials/seed not echoed")
    if rep.get("total_failures") != 0:
        problems.append(f"total_failures={rep.get('total_failures')!r}")
    suites = rep.get("results", {})
    if sorted(suites) != (list(ALL_VERIFY_SUITES) if suite == "all" else [suite]):
        problems.append(f"suites {sorted(suites)}")
    for name, res in suites.items():
        if not res.get("checks", 0) > 0 or res.get("failures") != 0:
            problems.append(f"suite {name}: {res!r}")
    return problems


def check_boundaries(cmd, code, stdout, *, m, h_range, n):
    problems = _exit_problems(code)
    if problems:
        return problems
    header, rows = read_csv(cmd.outputs[0])
    if header != ["h", "lower", "upper", "witness_floor"] or len(rows) != n:
        return [f"boundaries: header {header}, {len(rows)} rows (expected {n})"]
    h, lower, upper, floor = map(_floats, _columns(rows, 4))
    if not _close(h, _nodes(*h_range, n), 1e-12).all():
        problems.append("h column is not the uniform grid")
    # the Chebyshev argument is +1 at the lower edge, -1 at the upper one
    # and cos(pi/m) at the witness floor
    for name, eps, target in (("lower", lower, 1.0), ("upper", upper, -1.0),
                              ("witness_floor", floor, math.cos(math.pi / m))):
        x = chebyshev_argument(m, eps, h)
        scale = np.maximum(1.0, np.abs(h * eps / (2.0 * m) * np.sin(h / m)))
        if not (np.abs(x - target) <= 1e-9 * scale).all():
            problems.append(f"{name} edge: Chebyshev argument is not {target:.6g}")
    if not (lower < upper).all():
        problems.append("lower edge not below upper edge")
    return problems


def critical_equation(m: int, h):
    return (h / (2.0 * m)) * np.sin(h / m) - math.cos(math.pi / m) + np.cos(h / m)


def check_hm_table(cmd, code, stdout, *, m_max):
    problems = _exit_problems(code)
    if problems:
        return problems
    header, rows = read_csv(cmd.outputs[0])
    if header != ["m", "h_crit"] or [r[0] for r in rows] != [str(m) for m in range(1, m_max + 1)]:
        return [f"hm-table: header {header}, m column {[r[0] for r in rows]}"]
    h = _floats([r[1] for r in rows])
    if abs(h[0] - math.pi) > 1e-15:
        problems.append(f"m=1 value {h[0]!r} is not pi")
    if not (np.diff(h) > 0).all():
        problems.append("h_crit does not increase with m")
    for m, hm in zip(range(2, m_max + 1), h[1:]):
        if abs(critical_equation(m, hm)) > 1e-8:
            problems.append(f"m={m}: critical-equation residual {critical_equation(m, hm)!r}")
        # the smallest positive root: the equation stays positive below it
        if not (critical_equation(m, hm * np.arange(1, 64) / 64.0) > 0).all():
            problems.append(f"m={m}: {hm!r} is not the smallest positive root")
    return problems


# ---------------------------------------------------------------------------
# trajectory


def _trajectory_rows(path: Path, steps: int, width: int) -> tuple[list[str], np.ndarray, np.ndarray, list[str]]:
    header, rows = read_csv(path)
    if len(rows) != steps + 1:
        raise ValueError(f"{len(rows)} trajectory rows, expected {steps + 1}")
    if any(len(r) != width for r in (rows[0], rows[-1])):
        raise ValueError(f"trajectory rows do not have {width} fields")
    step_col = [r[0] for r in rows]
    return header, _floats(rows[0][1:]), _floats(rows[-1][1:]), step_col


def _stdout_steps(stdout: str, steps: int) -> list[str]:
    return [] if f"integrate: {steps} steps" in stdout else [f"stdout does not report {steps} steps"]


def check_model_trajectory(cmd, code, stdout, *, scheme, eps, h, steps, z0):
    problems = _exit_problems(code)
    if problems:
        return problems
    header, rows = read_csv(cmd.outputs[0])
    if header != ["step", "q", "p"] or len(rows) != steps + 1:
        return [f"model trajectory: header {header}, {len(rows)} rows (expected {steps + 1})"]
    if [r[0] for r in rows] != [str(i) for i in range(steps + 1)]:
        problems.append("step column is not 0..n")
    mat = step_matrix(scheme, eps, h)
    z0 = np.asarray(z0, dtype=float)
    samples = sorted({0, 1, 2, 10, steps // 3, steps // 2, steps - 1, steps}
                     | {10**j for j in range(7) if 10**j <= steps})
    for i in samples:
        want = np.linalg.matrix_power(mat, i) @ z0
        got = _floats(rows[i][1:])
        if not (np.abs(got - want) <= 1e-8 * max(1.0, float(np.abs(want).max()))).all():
            problems.append(f"row {i}: {got.tolist()} vs M^{i} z0 = {want.tolist()}")
            break
    match = re.search(r"growth/step (\S+)", stdout)
    want_growth = growth_rate(0.5 * np.trace(mat))
    if not match or abs(float(match.group(1)) - want_growth) > 1e-4 * want_growth:
        problems.append(f"growth {match and match.group(1)!r}, expected {want_growth:.6g}")
    return problems + _stdout_steps(stdout, steps)


def modal_final_state(problem, scheme, h: float, steps: int, z0: np.ndarray) -> np.ndarray:
    """Exact reduction: mode i is the model problem with eps_i stepped at
    effective steplength h*sqrt(lam_i); (u, v/sqrt(lam)) are its (q, p)."""
    d = len(problem.lam)
    left = problem.chol @ problem.basis                   # q = L^-T Q u
    u = left.T @ z0[:d]
    v = np.linalg.solve(left, z0[d:])                     # p = L Q v
    s = np.sqrt(problem.lam)
    w = v / s
    for i in range(d):
        mat = np.linalg.matrix_power(step_matrix(scheme, problem.eps[i], h * s[i]), steps)
        u[i], w[i] = mat @ np.array([u[i], w[i]])
    return np.concatenate([np.linalg.solve(left.T, u), left @ (w * s)])


def _header_for(d: int) -> list[str]:
    return ["step"] + [f"q{i}" for i in range(d)] + [f"p{i}" for i in range(d)]


def check_linear_trajectory(cmd, code, stdout, *, problem, scheme, h, steps, z0):
    problems = _exit_problems(code)
    if problems:
        return problems
    d = len(problem.lam)
    header, first, last, step_col = _trajectory_rows(cmd.outputs[0], steps, 2 * d + 1)
    if header != _header_for(d) or step_col[-1] != str(steps):
        problems.append("trajectory header or step column is wrong")
    if not _close(first, z0, 1e-15).all():
        problems.append("first row is not z0")
    want = modal_final_state(problem, scheme, h, steps, np.asarray(z0, dtype=float))
    err = float(np.abs(last - want).max()) / max(1.0, float(np.abs(want).max()))
    if not err <= 1e-8:
        problems.append(f"final state off the modal oracle by {err:.3e} (relative)")
    return problems + _stdout_steps(stdout, steps)


def verlet_final_state(mass, stiffness, delta, h, steps, z0) -> np.ndarray:
    """Velocity Verlet (half kick, drift, half kick) on M q'' = -A q - delta q^3."""
    d = len(mass)
    inv_mass = np.linalg.inv(mass)
    q, p = np.array(z0[:d], dtype=float), np.array(z0[d:], dtype=float)
    for _ in range(steps):
        p = p + 0.5 * h * (-(stiffness @ q) - delta * q**3)
        q = q + h * (inv_mass @ p)
        p = p + 0.5 * h * (-(stiffness @ q) - delta * q**3)
    return np.concatenate([q, p])


def check_cubic_trajectory(cmd, code, stdout, *, mass, stiffness, delta, h, steps, z0):
    problems = _exit_problems(code)
    if problems:
        return problems
    d = len(mass)
    header, first, last, step_col = _trajectory_rows(cmd.outputs[0], steps, 2 * d + 1)
    if header != _header_for(d) or step_col[-1] != str(steps):
        problems.append("trajectory header or step column is wrong")
    if not _close(first, z0, 1e-15).all():
        problems.append("first row is not z0")
    want = verlet_final_state(mass, stiffness, delta, h, steps, z0)
    err = float(np.abs(last - want).max()) / max(1.0, float(np.abs(want).max()))
    if not err <= 1e-8:
        problems.append(f"final state off the reference Verlet run by {err:.3e} (relative)")
    return problems + _stdout_steps(stdout, steps)


def check_reduce(cmd, code, stdout, *, problem):
    problems = _exit_problems(code)
    if problems:
        return problems
    rep = json.loads(cmd.outputs[0].read_text(encoding="utf-8"))
    modes = rep.get("modes", [])
    d = len(problem.lam)
    if len(modes) != d or "time_rescaling" not in rep:
        return [f"{len(modes)} modes (expected {d}) or no time_rescaling note"]
    freq = np.array([mode["freq_sq"] for mode in modes])
    eps = np.array([mode["eps"] for mode in modes])
    # numpy's generalized eigenvalues of (A, M) and (B, M)
    lam_ref = np.sort(np.linalg.eigvals(np.linalg.solve(problem.mass, problem.stiffness)).real)
    mu_ref = np.sort(np.linalg.eigvals(np.linalg.solve(problem.mass, problem.linear_b)).real)
    if not (np.diff(freq) > 0).all():
        problems.append("freq_sq is not increasing")
    if not _close(freq, lam_ref, 1e-9).all():
        problems.append("freq_sq differs from the generalized eigenvalues of (A, M)")
    if not (np.abs(np.sort(freq * eps) - mu_ref) <= 1e-9 * np.abs(mu_ref).max()).all():
        problems.append("freq_sq*eps differs from the generalized eigenvalues of (B, M)")
    order = np.argsort(problem.lam)
    if not (np.abs(eps - problem.eps[order]) <= 1e-8).all():
        problems.append("eps differs from the generating modes")
    return problems
