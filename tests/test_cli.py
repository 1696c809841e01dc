import csv
import dataclasses
import json
import math
import xml.etree.ElementTree as ET
from itertools import product

import numpy as np
import pytest

from splitstab import analysis, cli, dynamics, stability
from splitstab.cli import EXIT_FILE, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, run
from splitstab.kernel import EpsilonPolynomial, transfer_matrix
from splitstab.schemes import catalog_scheme, scheme_to_record
from splitstab.stability import scan_region, strang_boundaries


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_region_csv_and_svg(tmp_path):
    out = tmp_path / "region.csv"
    svg = tmp_path / "region.svg"
    code = run([
        "region", "--scheme", "rkr", "--eps=-1:6", "--h", "0.1:3",
        "--grid", "8x6", "-o", str(out), "--svg", str(svg),
    ])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["eps", "h", "semitrace", "class"]
    assert len(rows) == 48
    # eps-major ordering with half-open ranges
    assert float(rows[0][0]) == -1.0 and float(rows[0][1]) == 0.1
    assert float(rows[1][0]) == -1.0
    assert float(rows[6][0]) == pytest.approx(-1.0 + 7.0 / 8.0)
    classes = {row[3] for row in rows}
    assert classes <= {"stable", "linear_unstable", "exp_unstable"}
    assert "stable" in classes and "exp_unstable" in classes
    text = svg.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_region_negative_value_flag_separate_token(tmp_path):
    out = tmp_path / "region.csv"
    code = run([
        "region", "--scheme", "krk", "--eps", "-0.5:0.5", "--h", "0.5:1.5",
        "--grid", "3x3", "-o", str(out),
    ])
    assert code == EXIT_OK
    _, rows = read_csv(out)
    assert float(rows[0][0]) == -0.5


def test_region_identity_step_is_stable_and_has_no_tol_flag(tmp_path):
    # h = 0 makes the step exactly the identity, |P| = 1
    out = tmp_path / "r.csv"
    argv = ["region", "--scheme", "rkr", "--eps", "0:1", "--h", "0:1",
            "--grid", "2x2", "-o", str(out)]
    assert run(argv) == EXIT_OK
    _, rows = read_csv(out)
    assert rows[0] == ["0", "0", "1", "stable"]
    assert run(argv + ["--tol", "nan"]) == EXIT_USAGE


def _svg_texts(path):
    root = ET.parse(path).getroot()
    return [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]


def test_svg_text_is_escaped_and_parses(tmp_path):
    label = "a<b & c"
    record = tmp_path / "scheme.json"
    record.write_text(json.dumps({**scheme_to_record(catalog_scheme("rkr")), "label": label}))
    svg = tmp_path / "r.svg"
    assert run(["region", "--scheme-json", str(record), "--eps", "0:1", "--h", "0.5:1",
                "--grid", "3x3", "-o", str(tmp_path / "r.csv"), "--svg", str(svg)]) == EXIT_OK
    assert label in _svg_texts(svg)
    sweep = tmp_path / "f.svg"
    assert run(["fig2", "--points", "21", "-o", str(tmp_path / "f.csv"),
                "--svg", str(sweep)]) == EXIT_OK
    assert {"r", "critical eps", "semitrace at critical eps"} <= set(_svg_texts(sweep))


def test_region_rejects_bad_grid(tmp_path):
    code = run([
        "region", "--scheme", "rkr", "--eps", "0:1", "--h", "0.5:1",
        "--grid", "8y6", "-o", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_USAGE


def test_boundaries_csv(tmp_path):
    out = tmp_path / "bounds.csv"
    code = run(["boundaries", "--m", "3", "--h", "0.5:3.2", "--n", "10", "-o", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["h", "lower", "upper", "witness_floor"]
    assert len(rows) == 10
    for row in rows:
        h = float(row[0])
        edges = strang_boundaries(3, h)
        assert float(row[1]) == pytest.approx(edges.lower, abs=1e-15)
        assert float(row[2]) == pytest.approx(edges.upper, abs=1e-15)
        assert float(row[3]) == pytest.approx(edges.witness_floor, abs=1e-15)


def test_boundaries_out_of_range(tmp_path):
    code = run(["boundaries", "--m", "2", "--h", "0.5:7.0", "-o", str(tmp_path / "b.csv")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv, shown", [
    (["region", "--scheme", "rkr", "--eps", "0:inf", "--h", "0:1"], "[0.0, inf)"),
    (["region", "--scheme", "rkr", "--eps", "nan:1", "--h", "0:1"], "[nan, 1.0)"),
    (["boundaries", "--m", "2", "--h", "0:inf"], "[0.0, inf)"),
])
def test_non_finite_range_end_is_usage_error(tmp_path, capsys, argv, shown):
    out = tmp_path / "x.csv"
    assert run([*argv, "-o", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"range {shown} must have finite ends" in err
    assert not out.exists()


def test_hm_table_csv(tmp_path):
    out = tmp_path / "hm.csv"
    assert run(["hm-table", "--m-max", "6", "-o", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["m", "h_crit"]
    assert [row[0] for row in rows] == [str(m) for m in range(1, 7)]
    values = [float(row[1]) for row in rows]
    assert values[0] == math.pi
    assert values == sorted(values)


def test_hm_table_stops_at_the_stage_cap(tmp_path, capsys):
    out = tmp_path / "hm.csv"
    assert run(["hm-table", "--m-max", "1001", "-o", str(out)]) == EXIT_USAGE
    assert "1000" in capsys.readouterr().err
    assert not out.exists()


def test_fig2_csv_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    svg = tmp_path / "sweep.svg"
    code = run(["fig2", "-o", str(out1), "--svg", str(svg)])
    assert code == EXIT_OK
    assert run(["fig2", "-o", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(out1)
    assert header == ["r", "k", "eps_star", "F", "exceptional"]
    assert len(rows) == 401
    flags = [row[4] for row in rows]
    assert set(flags) <= {"true", "false"}
    assert flags.count("true") == 3
    exceptional_r = [float(row[0]) for row in rows if row[4] == "true"]
    assert exceptional_r == pytest.approx([0.25, 1 / 3, 0.5])
    assert svg.read_text().startswith("<svg")


def test_fig2_rows_without_a_critical_point_are_nan(tmp_path):
    # at h* = 0.3 the semitrace is monotone on (-0.5, 0.5) for every r
    out = tmp_path / "f.csv"
    assert run(["fig2", "--h-star", "0.3", "--points", "5", "-o", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header[2:4] == ["eps_star", "F"]
    assert len(rows) == 5
    assert all(row[2:4] == ["nan", "nan"] for row in rows)


def test_fig2_without_a_plottable_row_writes_no_file(tmp_path, capsys):
    # the same all-nan sweep with --svg has nothing to plot: exit 1 and
    # neither the CSV nor the SVG is left behind
    out, svg = tmp_path / "f.csv", tmp_path / "f.svg"
    argv = ["fig2", "--h-star", "0.3", "--points", "5", "-o", str(out)]
    assert run([*argv, "--svg", str(svg)]) == EXIT_USAGE
    assert "no usable sweep records to plot" in capsys.readouterr().err
    assert not out.exists() and not svg.exists()
    assert list(tmp_path.iterdir()) == []
    assert run(argv) == EXIT_OK
    assert all(row[2:4] == ["nan", "nan"] for row in read_csv(out)[1])
    assert not svg.exists()


def test_spotcheck_json(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run(["spotcheck", "--m", "2", "--trials", "10", "--h-samples", "2", "--seed", "3"])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "theorem_m2.json").read_text())
    assert payload["m"] == 2
    assert payload["trials"] == 10
    assert payload["h_samples"] == 2
    assert payload["seed"] == 3
    assert payload["failures"] == []
    assert payload["witnesses_found"] + payload["coincidence_skips"] == 10


def test_spotcheck_with_more_steplengths_than_the_row_budget(tmp_path):
    # each trial's 200000 steplengths span many chunks of the witness search
    out = tmp_path / "sc.json"
    code = run(["spotcheck", "--m", "4", "--trials", "3", "--h-samples", "200000", "-o", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["h_samples"] == 200000 > stability._WITNESS_BLOCK_ROWS
    assert payload["witnesses_found"] + payload["coincidence_skips"] == 3
    assert payload["failures"] == []


def test_spotcheck_failure_exit_code(tmp_path, monkeypatch):
    from splitstab.analysis import SpotcheckFailure, SpotcheckReport

    def fake(m, trials, h_samples, seed=1):
        return SpotcheckReport(
            m, trials, trials - 1, 0,
            (SpotcheckFailure("bad", (0.5, 0.5), (1.0,), 2.2),),
        )

    monkeypatch.setattr(analysis, "optimality_spotcheck", fake)
    out = tmp_path / "sc.json"
    code = run(["spotcheck", "--m", "2", "--trials", "4", "-o", str(out)])
    assert code == EXIT_VERIFY
    payload = json.loads(out.read_text())
    assert payload["failures"][0]["h"] == 2.2


def test_verify_all_suites(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = run(["verify", "--trials", "20", "-o", str(out)])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    suite_lines = [ln for ln in lines if ln.startswith("verify[")]
    assert len(suite_lines) == 4
    payload = json.loads(out.read_text())
    assert payload["total_failures"] == 0
    assert set(payload["results"]) == {
        "consistency", "second-derivative", "chebyshev", "conjugacy",
    }


def test_verify_single_suite():
    assert run(["verify", "--suite", "chebyshev", "--trials", "10"]) == EXIT_OK


def _wrong_c1(epsilon_polynomial):
    def wrapped(scheme, h):
        poly = epsilon_polynomial(scheme, h)
        return EpsilonPolynomial((poly.coeffs[0], poly.coeffs[1] + 1e-9, *poly.coeffs[2:]), h)
    return wrapped


def _wrong_curvature_bound(check):
    def wrapped(scheme, n):
        rep = check(scheme, n)
        bound = rep.bound / 4.0
        signed = (1.0 if n % 2 else -1.0) * rep.value
        return dataclasses.replace(rep, bound=bound, bound_satisfied=signed <= bound)
    return wrapped


def _off_by_1e9(semitrace):
    return lambda m, eps, h: semitrace(m, eps, h) * (1.0 + 1e-9)


def _shift_dropping_a_stage(shift):
    def wrapped(scheme):
        shifted = shift(scheme)
        return type(shifted)(shifted.first_flow, shifted.rotation_coeffs[:-1],
                             shifted.kick_coeffs[:-1])
    return wrapped


@pytest.mark.parametrize("suite, module, name, breaker", [
    ("consistency", stability, "epsilon_polynomial", _wrong_c1),
    ("second-derivative", cli, "second_derivative_check", _wrong_curvature_bound),
    ("chebyshev", cli, "chebyshev_semitrace", _off_by_1e9),
    ("conjugacy", cli, "_cyclic_shift", _shift_dropping_a_stage),
])
def test_verify_suite_fails_on_a_broken_property(tmp_path, monkeypatch, suite, module, name,
                                                 breaker):
    monkeypatch.setattr(module, name, breaker(getattr(module, name)))
    out = tmp_path / "verify.json"
    assert run(["verify", "--suite", suite, "--trials", "20", "-o", str(out)]) == EXIT_VERIFY
    payload = json.loads(out.read_text())
    assert payload["results"][suite]["failures"] > 0
    assert payload["total_failures"] == payload["results"][suite]["failures"]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_trials_below_one(tmp_path, capsys, trials):
    out = tmp_path / "verify.json"
    code = run(["verify", "--suite", "chebyshev", "--trials", trials, "-o", str(out)])
    assert code == EXIT_USAGE
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


def test_integrate_model_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run([
        "integrate", "--scheme", "krk", "--eps", "0.5", "--h", "0.9",
        "--steps", "5", "-o", str(out),
    ])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["step", "q", "p"]
    assert len(rows) == 6
    assert rows[0][:3] == ["0", "1", "0"]
    mat = transfer_matrix(catalog_scheme("krk"), 0.5, 0.9)
    q, p = 1.0, 0.0
    for i in range(1, 6):
        q, p = mat.a * q + mat.b * p, mat.c * q + mat.d * p
        assert float(rows[i][1]) == pytest.approx(q, abs=1e-15)
        assert float(rows[i][2]) == pytest.approx(p, abs=1e-15)
    assert "growth/step" in capsys.readouterr().out


def test_integrate_blowup_message(capsys):
    code = run([
        "integrate", "--scheme", "rkr", "--eps", "4", "--h", "1",
        "--steps", "10000",
    ])
    assert code == EXIT_OK
    assert "blowup after 652 steps" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    # the cubic force overflows to -inf on step 1 and the state turns NaN
    ["--scheme", "verlet_vel", "--problem", "cubic", "--h", "1", "--z0", "1e110,0"],
    # the fold overflows, so the step matrix itself is NaN
    ["--scheme", "rkrm", "--m", "4", "--eps", "1e308", "--h", "3"],
])
def test_integrate_nan_state_is_a_blowup(tmp_path, capsys, args):
    problem = tmp_path / "cubic.json"
    problem.write_text(json.dumps({"mass": [[1]], "stiffness": [[1]], "cubic_delta": 1}))
    out = tmp_path / "traj.csv"
    args = [str(problem) if a == "cubic" else a for a in args]
    assert run(["integrate", *args, "--steps", "3", "-o", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "integrate: blowup after 1 steps (norm nan); no trajectory written\n"
    assert captured.err == ""
    assert not out.exists()


def test_integrate_negative_eps_fused(capsys):
    code = run([
        "integrate", "--scheme", "rkr", "--eps", "-0.5", "--h", "0.5",
        "--steps", "10",
    ])
    assert code == EXIT_OK


@pytest.mark.parametrize("flag, value", [
    ("--h", "nan"), ("--eps", "nan"), ("--h", "inf"), ("--q0", "nan"), ("--p0", "nan"),
])
def test_integrate_rejects_non_finite_input(tmp_path, capsys, flag, value):
    out = tmp_path / "traj.csv"
    args = {"--eps": "0.5", "--h": "0.9", flag: value}
    code = run([
        "integrate", "--scheme", "krk", *(t for pair in args.items() for t in pair),
        "--steps", "5", "-o", str(out),
    ])
    assert code == EXIT_USAGE
    assert f"{flag[2:]} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_integrate_general_rejects_non_finite_h(tmp_path, capsys):
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps({"mass": [[1.0]], "stiffness": [[2.0]]}))
    code = run([
        "integrate", "--scheme", "rkr", "--problem", str(problem_path),
        "--h", "nan", "--steps", "5",
    ])
    assert code == EXIT_USAGE
    assert "h must be finite" in capsys.readouterr().err


def test_integrate_general_rejects_non_finite_z0(tmp_path, capsys):
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps({
        "mass": [[1.0, 0.0], [0.0, 1.0]], "stiffness": [[1.0, 0.0], [0.0, 2.0]],
    }))
    out = tmp_path / "traj.csv"
    code = run([
        "integrate", "--scheme", "rkr", "--problem", str(problem_path),
        "--h", "0.5", "--steps", "5", "--z0", "nan,0,0,0", "-o", str(out),
    ])
    assert code == EXIT_USAGE
    assert "z0 must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["integrate", "reduce"])
@pytest.mark.parametrize("key", ["mass", "stiffness", "linear_b", "cubic_delta"])
def test_problem_with_non_finite_entry_is_usage_error(tmp_path, capsys, key, command):
    # json accepts the NaN literal; the problem must name the bad entry,
    # ahead of the reduction's "needs a linear perturbation" check
    record = {"mass": [[1.0, 0.0], [0.0, 1.0]], "stiffness": [[1.0, 0.0], [0.0, 2.0]]}
    if key == "linear_b":
        record[key] = [[0.1, 0.0], [0.0, 0.2]]
    else:
        record["cubic_delta"] = 0.1
    if key == "cubic_delta":
        record[key] = float("nan")
    else:
        record[key][1][0] = float("nan")
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(record))
    out = tmp_path / "out"
    flags = ["--h", "0.5", "--steps", "10", "--scheme", "rkr"] if command == "integrate" else []
    code = run([command, "--problem", str(problem_path), *flags, "-o", str(out)])
    assert code == EXIT_USAGE
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["rkr", "krk"])
def test_integrate_non_symmetric_stiffness_keeps_unit_growth(tmp_path, capsys, name):
    # spectrum {1, 2}: the exact flow is bounded, and without a force both
    # schemes reproduce it
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps({
        "mass": [[1.0, 0.0], [0.0, 1.0]], "stiffness": [[1.0, 0.5], [0.0, 2.0]],
    }))
    code = run([
        "integrate", "--scheme", name, "--problem", str(problem_path),
        "--h", "0.3", "--steps", "200", "--z0", "1,0,0,0",
    ])
    assert code == EXIT_OK
    assert capsys.readouterr().out.rstrip().endswith("growth/step 1")


_UNIT_PROBLEM = {"mass": [[1.0]], "stiffness": [[1.0]]}


@pytest.mark.parametrize("flag, record", [
    ("--scheme-json", {"first": "R", "r": [0.5, 0.5], "k": [{"a": 1}]}),
    ("--scheme-json", {"first": "R", "r": 5, "k": [1.0]}),
    ("--problem", {**_UNIT_PROBLEM, "cubic_delta": [1]}),
    ("--problem", {**_UNIT_PROBLEM, "linear_b": {"a": 1}}),
])
def test_json_field_of_the_wrong_type_is_usage_error(tmp_path, capsys, flag, record):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    scheme = ["--scheme", "rkr"] if flag == "--problem" else []
    out = tmp_path / "out.csv"
    code = run(["integrate", flag, str(path), *scheme, "--h", "0.5", "--steps", "5",
                "-o", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("splitstab: error: malformed ")
    assert "Traceback" not in err
    assert not out.exists()


def test_scheme_json_with_nan_weight_is_usage_error(tmp_path, capsys):
    # json accepts the NaN literal; the consistency check must still object
    path = tmp_path / "scheme.json"
    path.write_text('{"first": "R", "r": [NaN, 0.5], "k": [1.0]}')
    code = run([
        "integrate", "--scheme-json", str(path), "--h", "0.5", "--steps", "5",
    ])
    assert code == EXIT_USAGE
    assert "rotations sum to nan" in capsys.readouterr().err


def test_integrate_general_problem(tmp_path):
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps({
        "mass": [[2.0, 0.3], [0.3, 1.5]],
        "stiffness": [[3.0, 0.4], [0.4, 2.0]],
        "linear_b": [[0.3, 0.0], [0.0, 0.2]],
    }))
    out = tmp_path / "traj.csv"
    code = run([
        "integrate", "--scheme", "krk", "--problem", str(problem_path),
        "--h", "0.2", "--steps", "8", "--z0", "1,0,0,0.5", "-o", str(out),
    ])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["step", "q0", "q1", "p0", "p1"]
    assert len(rows) == 9
    prob = dynamics.GeneralProblem.with_linear_force(
        np.array([[2.0, 0.3], [0.3, 1.5]]),
        np.array([[3.0, 0.4], [0.4, 2.0]]),
        np.array([[0.3, 0.0], [0.0, 0.2]]),
    )
    rep = dynamics.integrate_general(
        catalog_scheme("krk"), prob, 0.2, 8, [1.0, 0.0, 0.0, 0.5]
    )
    got_last = [float(x) for x in rows[-1][1:]]
    assert got_last == pytest.approx(list(rep.states[-1]), abs=1e-14)


def test_reduce_modes_json(tmp_path):
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps({
        "mass": [[1.0, 0.0], [0.0, 1.0]],
        "stiffness": [[4.0, 0.0], [0.0, 1.0]],
        "linear_b": [[0.8, 0.0], [0.0, 0.1]],
    }))
    out = tmp_path / "modes.json"
    code = run(["reduce", "--problem", str(problem_path), "-o", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    freqs = [mode["freq_sq"] for mode in payload["modes"]]
    epss = [mode["eps"] for mode in payload["modes"]]
    assert freqs == pytest.approx([1.0, 4.0])
    assert epss == pytest.approx([0.1, 0.2])
    assert "time_rescaling" in payload


def test_reduce_not_spd_is_usage_error(tmp_path):
    problem_path = tmp_path / "bad.json"
    problem_path.write_text(json.dumps({
        "mass": [[1.0, 0.0], [0.0, -1.0]],
        "stiffness": [[1.0, 0.0], [0.0, 1.0]],
        "linear_b": [[0.1, 0.0], [0.0, 0.1]],
    }))
    code = run(["reduce", "--problem", str(problem_path), "-o", "unused.json"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("name", ["rkr", "verlet_vel"])
def test_integrate_non_spd_mass_is_usage_error(tmp_path, capsys, name):
    # both families go through the Cholesky factor of M, so a drift/kick
    # run rejects a negative mass just as a rotation/kick run does
    problem_path = tmp_path / "bad.json"
    problem_path.write_text(json.dumps({"mass": [[-1.0]], "stiffness": [[1.0]]}))
    out = tmp_path / "traj.csv"
    code = run(["integrate", "--scheme", name, "--problem", str(problem_path),
                "--h", "0.3", "--steps", "5", "-o", str(out)])
    assert code == EXIT_USAGE
    assert "mass matrix is not positive definite" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(dynamics.NotSPD):
        dynamics.integrate_general(catalog_scheme(name), dynamics.GeneralProblem([[-1.0]], [[1.0]]),
                                   0.3, 5, [1.0, 0.0])


@pytest.mark.parametrize("command", ["integrate", "reduce"])
@pytest.mark.parametrize("key", ["mass", "stiffness", "linear_b"])
def test_problem_matrix_that_is_not_2d_is_usage_error(tmp_path, capsys, key, command):
    record = {"mass": [[1.0, 0.0], [0.0, 1.0]], "stiffness": [[1.0, 0.0], [0.0, 2.0]],
              "linear_b": [[0.1, 0.0], [0.0, 0.2]]}
    record[key] = [record[key]]
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(record))
    out = tmp_path / "out"
    flags = ["--h", "0.5", "--steps", "10"] if command == "integrate" else []
    code = run([command, "--problem", str(problem_path), *flags, "-o", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{key} must be a 2-D matrix, got shape (1, 2, 2)" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--eps", "--q0", "--p0"])
def test_integrate_model_flag_with_problem_is_usage_error(tmp_path, capsys, flag):
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps({"mass": [[1.0]], "stiffness": [[1.0]]}))
    out = tmp_path / "traj.csv"
    code = run(["integrate", "--problem", str(problem_path), flag, "0.5", "--h", "0.3",
                "--steps", "5", "-o", str(out)])
    assert code == EXIT_USAGE
    assert f"{flag} apply to the model problem, not --problem" in capsys.readouterr().err
    assert not out.exists()


def test_integrate_z0_without_problem_is_usage_error(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run(["integrate", "--z0", "1,0", "--h", "0.3", "--steps", "5", "-o", str(out)])
    assert code == EXIT_USAGE
    assert "--z0 needs --problem" in capsys.readouterr().err
    assert not out.exists()


def test_integrate_empty_z0_is_usage_error(tmp_path, capsys):
    # an empty --z0 is a malformed state, not the default one
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(_UNIT_PROBLEM))
    out = tmp_path / "traj.csv"
    code = run(["integrate", "--scheme", "rkr", "--problem", str(problem_path), "--z0", "",
                "--h", "0.3", "--steps", "5", "-o", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("splitstab: error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["integrate", "reduce"])
def test_problem_with_two_perturbations_is_usage_error(tmp_path, capsys, command):
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps({**_UNIT_PROBLEM, "linear_b": [[0.1]], "cubic_delta": 0.4}))
    out = tmp_path / "out"
    flags = ["--h", "0.5", "--steps", "10", "--scheme", "rkr"] if command == "integrate" else []
    code = run([command, "--problem", str(problem_path), *flags, "-o", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "at most one of linear_b and cubic_delta" in err and "Traceback" not in err
    assert not out.exists()


def test_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    assert run(["reduce", "--problem", str(missing)]) == EXIT_FILE
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")
    assert run(["reduce", "--problem", str(corrupt)]) == EXIT_FILE
    assert run([
        "integrate", "--scheme", "rkr", "--problem", str(corrupt),
        "--h", "0.5", "--steps", "3",
    ]) == EXIT_FILE


def test_usage_errors(tmp_path):
    assert run([]) == EXIT_USAGE
    assert run(["no-such-command"]) == EXIT_USAGE
    assert run(["integrate", "--scheme", "not-a-scheme", "--h", "1", "--steps", "2"]) == EXIT_USAGE
    assert run(["region", "--scheme", "rkr", "--eps", "1:2:3", "--h", "0.5:1",
                "-o", str(tmp_path / "r.csv")]) == EXIT_USAGE
    assert run(["spotcheck", "--m", "7"]) == EXIT_USAGE


def test_scheme_json_loading(tmp_path):
    record_path = tmp_path / "scheme.json"
    record_path.write_text(json.dumps(scheme_to_record(catalog_scheme("krkm", 2))))
    out = tmp_path / "traj.csv"
    code = run([
        "integrate", "--scheme-json", str(record_path), "--eps", "0.3",
        "--h", "0.7", "--steps", "4", "-o", str(out),
    ])
    assert code == EXIT_OK
    _, rows = read_csv(out)
    mat = transfer_matrix(catalog_scheme("krkm", 2), 0.3, 0.7)
    assert float(rows[1][1]) == pytest.approx(mat.a, abs=1e-15)

    bad = tmp_path / "bad_scheme.json"
    bad.write_text(json.dumps({"first_flow": "rotation", "rotation_coeffs": [0.9, 0.1]}))
    code = run([
        "integrate", "--scheme-json", str(bad), "--eps", "0.3",
        "--h", "0.7", "--steps", "4",
    ])
    assert code == EXIT_USAGE


def test_scheme_flags_mutually_exclusive(tmp_path):
    record_path = tmp_path / "scheme.json"
    record_path.write_text(json.dumps(scheme_to_record(catalog_scheme("rkr"))))
    code = run([
        "integrate", "--scheme", "krk", "--scheme-json", str(record_path),
        "--h", "0.5", "--steps", "2",
    ])
    assert code == EXIT_USAGE


# --- the CSV writer ---------------------------------------------------------


def _csv_text(header, rows):
    """The writer's rule, one value at a time: strings as they are,
    numbers as .17g."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


_EDGE_VALUES = [0, 7, -3, 2**60, -0.0, 5e-324, 1.7976931348623157e308,
                math.nan, math.inf, -math.inf, 1.0 / 3.0, -2.5e-300]


def _rows_over_blocks(width, text_column=None):
    """Rows for three full blocks of the writer and a partial fourth."""
    per_block = max(1, cli._CSV_BLOCK_VALUES // width)
    rows = []
    for i in range(3 * per_block + per_block // 2 + 1):
        row = [_EDGE_VALUES[(i * width + j) % len(_EDGE_VALUES)] for j in range(width)]
        if text_column is not None:
            row[text_column] = ("stable", "exp_unstable", "true")[i % 3]
        rows.append(row)
    return rows


@pytest.mark.parametrize("width, text_column", [(1, None), (1, 0), (4, 3), (401, 200)])
def test_write_csv_matches_the_per_value_rule(tmp_path, width, text_column):
    rows = _rows_over_blocks(width, text_column)
    header = [f"c{j}" for j in range(width)]
    out = tmp_path / "w.csv"
    cli._write_csv(str(out), header, iter(rows))
    assert out.read_bytes() == _csv_text(header, rows).encode()


def test_write_csv_without_rows_writes_the_header(tmp_path):
    out = tmp_path / "w.csv"
    cli._write_csv(str(out), ["a", "b"], [])
    assert out.read_bytes() == b"a,b\n"


def test_region_csv_over_several_blocks_matches_scan(tmp_path):
    n_eps = 150
    n_h = cli._CSV_BLOCK_VALUES // 4 // n_eps + 2
    assert n_eps * n_h > cli._CSV_BLOCK_VALUES // 4
    out = tmp_path / "r.csv"
    argv = ["region", "--scheme", "rkrm", "--m", "2", "--eps=-1:6", "--h", "0:7",
            "--grid", f"{n_eps}x{n_h}", "-o", str(out)]
    assert run(argv) == EXIT_OK
    region = scan_region(catalog_scheme("rkrm", 2), (-1.0, 6.0), (0.0, 7.0), (n_eps, n_h))
    nodes = product(region.eps_nodes, region.h_nodes)
    rows = [(e, h, v.semitrace, v.kind.value) for (e, h), v in zip(nodes, region.verdicts)]
    lines = out.read_text().splitlines()
    expected = _csv_text(["eps", "h", "semitrace", "class"], rows).splitlines()
    assert len(lines) == len(expected) == n_eps * n_h + 1
    for got, want in zip(lines, expected):
        assert got == want


def test_integrate_csv_over_several_blocks_matches_states(tmp_path):
    steps = cli._CSV_BLOCK_VALUES // 3 + 100
    out = tmp_path / "traj.csv"
    argv = ["integrate", "--scheme", "krk", "--eps", "0.5", "--h", "0.9",
            "--steps", str(steps), "-o", str(out)]
    assert run(argv) == EXIT_OK
    states = dynamics.integrate_model(catalog_scheme("krk"), 0.5, 0.9, steps).states
    rows = [(i, q, p) for i, (q, p) in enumerate(states.tolist())]
    assert len(rows) == steps + 1
    assert out.read_text() == _csv_text(["step", "q", "p"], rows)
