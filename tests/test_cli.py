import csv
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitstab
from splitstab import analysis, cli, dynamics, stability, svgplot
from splitstab.cli import EXIT_FILE, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, run
from splitstab.kernel import transfer_matrix
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


def _class_runs_per_cell(region):
    """The heat map's cells by a per-cell rule: walking each eps column
    up the h nodes, one (x, y, width, height, fill) rect per run of equal
    class, formatted as svgplot formats them."""
    n_eps, n_h = len(region.eps_nodes), len(region.h_nodes)
    width, height = svgplot.REGION_SIZE
    x0, y0 = svgplot._MARGIN, height - svgplot._MARGIN
    cell_w = (width - 12.0 - x0) / n_eps
    cell_h = (y0 - 12.0) / n_h
    fmt = svgplot._fmt
    rects = []
    for i in range(n_eps):
        kinds = [v.kind for v in region.verdicts[i * n_h:(i + 1) * n_h]]
        j = 0
        for end in range(1, n_h + 1):
            if end == n_h or kinds[end] is not kinds[j]:
                rects.append((fmt(x0 + i * cell_w), fmt(y0 - end * cell_h), fmt(cell_w),
                              fmt((end - j) * cell_h), svgplot.CLASS_COLORS[kinds[j]]))
                j = end
    return rects


@pytest.mark.parametrize("scheme, eps, h, grid, most_runs, n_classes", [
    # the Strang scheme stable up to h = 4 pi, then exponentially unstable
    (("rkrm", 4), (-1.0, 6.0), (0.0, 12.6), (40, 40), 2, 2),
    # up to 8 class runs in one eps column
    (("rkr",), (-1.0, 6.0), (0.0, 12.6), (40, 40), 8, 2),
    # every class (see test_stability.py::test_scan_region_shape_and_order)
    (("verlet_vel",), (-1.0, 6.0), (0.0, 4.0), (7, 8), 3, 3),
    (("rkr",), (0.0, 1.0), (0.5, 1.0), (1, 1), 1, 1),
    # one h node: one rect per eps column
    (("krkm", 3), (-1.0, 6.0), (4.0, 5.0), (30, 1), 1, 2),
], ids=["rkrm4", "rkr", "verlet_vel", "1x1", "one-h-node"])
def test_region_svg_has_one_rect_per_class_run(scheme, eps, h, grid, most_runs, n_classes):
    region = scan_region(catalog_scheme(*scheme), eps, h, grid)
    root = ET.fromstring(svgplot.region_svg(region))
    cells = [tuple(r.get(k) for k in ("x", "y", "width", "height", "fill"))
             for r in root.iter("{http://www.w3.org/2000/svg}rect")
             if r.get("x") is not None and r.get("fill") != "none"]
    want = _class_runs_per_cell(region)
    assert cells == want
    runs_per_column = Counter(x for x, *_ in want)
    assert len(runs_per_column) == grid[0]
    assert max(runs_per_column.values()) == most_runs
    assert len({fill for *_, fill in want}) == n_classes


def _tick_labels(svg):
    """A region SVG's tick labels: the eps axis's, then the h axis's."""
    ticks = [t for t in ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")
             if t.get("font-size") == "10"]
    return [[t.text for t in ticks if t.get("text-anchor") == anchor]
            for anchor in ("middle", "end")]


@pytest.mark.parametrize("grid", ["4x5", "1x1"])
def test_region_svg_axes_span_the_scanned_ranges(tmp_path, monkeypatch, grid):
    # the cells fill [start, end) of each range, and so do the ticks: the
    # first and last node would label 0..0.75 and 0..1.6 at 4x5, and 0
    # everywhere at 1x1
    argv = ["region", "--scheme", "rkr", "--eps", "0:1", "--h", "0:2", "--grid", grid]
    assert run([*argv, "-o", str(tmp_path / "r.csv"), "--svg", str(tmp_path / "r.svg")]) == EXIT_OK
    assert _tick_labels(tmp_path / "r.svg") == [["0", "0.25", "0.5", "0.75", "1"],
                                                 ["0", "0.5", "1", "1.5", "2"]]
    # the CSV and the SVG read the record's arrays, not its verdicts
    monkeypatch.setattr(cli, "scan_region",
                        lambda *a, **kw: replace(scan_region(*a, **kw), verdicts=()))
    assert run([*argv, "-o", str(tmp_path / "b.csv"), "--svg", str(tmp_path / "b.svg")]) == EXIT_OK
    for name in ("r.csv", "r.svg"):
        assert (tmp_path / name).read_bytes() == (tmp_path / name.replace("r.", "b.")).read_bytes()


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


@pytest.mark.parametrize("argv, shown", [
    # the Strang edges are not finite at these h: the upper edge ~ 16/h^2
    # overflows, and at 1e-300 h*sin(h/2) underflows to 0 as well
    (["boundaries", "--m", "2", "--h", "1e-160:1e-159", "--n", "2"], "h=1e-160 is too small"),
    (["boundaries", "--m", "2", "--h", "1e-300:6"], "h=1e-300 is too small"),
    # (end - start) / n overflows, so start + 0*step would be nan
    (["boundaries", "--m", "2", "--h", "-1e308:1e308"], "range [-1e+308, 1e+308) spans more"),
    (["region", "--scheme", "rkr", "--eps", "-1e308:1e308", "--h", "0.5:1"],
     "range [-1e+308, 1e+308) spans more"),
    # fig2's rows underflow below h_star of about 2.9e-77
    (["fig2", "--h-star", "1e-160"], "h=1e-160 is too small"),
    (["fig2", "--h-star", "1e-78"], "h_star: h=1e-78 is too small"),
])
def test_unrepresentable_range_is_usage_error(tmp_path, capsys, argv, shown):
    out = tmp_path / "x.csv"
    assert run([*argv, "-o", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("splitstab: error: ") and err.count("\n") == 1
    assert shown in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, shown", [
    # drift/kick: h^2 overflows in the fold at the first cell
    (["region", "--scheme", "verlet_vel", "--eps", "0:1", "--h", "1e160:1e161"],
     "at (eps, h) = (0.0, 1e+160): step matrix entry a = -inf is not finite"),
    # rotation/kick: the kick strength eps*h overflows at the last cell
    (["region", "--scheme", "rkr", "--eps", "1e308:1.7e308", "--h", "1:2"],
     "at (eps, h) = (1.35e+308, 1.5): step matrix entry a = -inf is not finite"),
    # a half-chain squared four times: the squares overflow at the third cell
    (["region", "--scheme", "krkm", "--m", "16", "--eps", "1e20:1e21", "--h", "1:2"],
     "at (eps, h) = (5.5e+20, 1.0): step matrix entry c = -inf is not finite"),
])
def test_region_overflowing_entry_names_the_cell(tmp_path, capsys, argv, shown):
    out = tmp_path / "x.csv"
    assert run([*argv, "--grid", "2x2", "-o", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("splitstab: error: ") and err.count("\n") == 1
    assert shown in err and "determinant" not in err
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


@pytest.mark.parametrize("points", ["2", "3"])
def test_fig2_svg_with_one_plottable_row(tmp_path, points):
    # at h* = 2.5 only r = 0.2 has a critical point in (-0.5, 0.5): one
    # row is drawn on an r axis widened by 1 on each side
    out, svg = tmp_path / "f.csv", tmp_path / "f.svg"
    argv = ["fig2", "--h-star", "2.5", "--points", points, "-o", str(out), "--svg", str(svg)]
    assert run(argv) == EXIT_OK
    rows = read_csv(out)[1]
    assert len(rows) == int(points) and sum(row[3] != "nan" for row in rows) == 1
    texts = _svg_texts(svg)
    assert "-0.8" in texts and "1.2" in texts
    # one marker per panel in the curve colour, since a one-point polyline
    # draws nothing
    circles = list(ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}circle"))
    assert [c.get("fill") for c in circles] == ["#2a6f97", "#2a6f97"]
    assert len({c.get("cx") for c in circles}) == 2


def test_fig2_svg_r_axis_spans_the_grid(tmp_path):
    # a range wider than 1e-12 is not widened: the r ticks run 0.2..0.6
    svg = tmp_path / "f.svg"
    assert run(["fig2", "-o", str(tmp_path / "f.csv"), "--svg", str(svg)]) == EXIT_OK
    assert {"0.2", "0.3", "0.4", "0.5", "0.6"} <= set(_svg_texts(svg))
    assert "-0.8" not in _svg_texts(svg)


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


def _wrong_c1(expansion_rows):
    def wrapped(rows, hs):
        rows = rows.copy()
        rows[..., 1] += 1e-9
        return expansion_rows(rows, hs)
    return wrapped


def _wrong_curvature_bound(curvature_rows):
    def wrapped(rows, n):
        _, _, value, bound, equality = curvature_rows(rows, n)
        signed = np.where(n % 2 == 1, 1.0, -1.0) * value
        return signed - bound / 4.0, signed <= bound / 4.0, value, bound / 4.0, equality
    return wrapped


def _off_by_1e9(semitrace):
    return lambda m, eps, h: semitrace(m, eps, h) * (1.0 + 1e-9)


def _shift_dropping_a_stage(shift):
    def wrapped(scheme):
        shifted = shift(scheme)
        return type(shifted)(shifted.first_flow, shifted.rotation_coeffs[:-1],
                             shifted.kick_coeffs[:-1])
    return wrapped


# the suites run in analysis.verify_suite: each breaker patches a binding
# that the stacked suite calls
@pytest.mark.parametrize("suite, module, name, breaker", [
    ("consistency", stability, "_expansion_rows", _wrong_c1),
    ("second-derivative", stability, "_curvature_rows", _wrong_curvature_bound),
    ("chebyshev", stability, "chebyshev_semitrace", _off_by_1e9),
    ("conjugacy", analysis, "_cyclic_shift", _shift_dropping_a_stage),
], ids=["consistency", "second-derivative", "chebyshev", "conjugacy"])
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


def test_verify_help_names_the_suites_in_order(monkeypatch, capsys):
    # written out in cli, so building the parser loads no analysis
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        run(["verify", "--help"])
    line = next(x for x in capsys.readouterr().out.splitlines() if x.lstrip().startswith("--suite"))
    assert line.split("one of ", 1)[1] == f"{', '.join(analysis.VERIFY_SUITES)}, or all"


def test_verify_unknown_suite_is_usage_error(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert run(["verify", "--suite", "nope", "-o", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("splitstab: error: unknown suite 'nope'; known: consistency, "
                            "second-derivative, chebyshev, conjugacy\n")
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


@pytest.mark.parametrize("eps", ["-1", "-1.5"])
def test_integrate_eps_at_or_below_minus_one_warns_in_one_line(tmp_path, capsys, eps):
    # the library warns (test_dynamics pins that); the CLI turns it into
    # one stderr line and writes what it writes without the warning
    out = tmp_path / "traj.csv"
    argv = ["integrate", "--scheme", "rkr", "--eps", eps, "--h", "0.3", "--steps", "5",
            "-o", str(out)]
    assert run(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == (f"splitstab: warning: eps={float(eps)!r} <= -1 leaves the "
                            "oscillatory regime; the model problem is unstable for every "
                            "scheme there\n")
    with pytest.warns(UserWarning, match="oscillatory"):
        report = dynamics.integrate_model(catalog_scheme("rkr"), float(eps), 0.3, 5)
    assert captured.out == (f"integrate: 5 steps, max norm {report.max_norm:.6g}, "
                            f"growth/step {report.empirical_growth:.6g}\n")
    rows = [(i, q, p) for i, (q, p) in enumerate(report.states.tolist())]
    assert out.read_text() == _csv_text(["step", "q", "p"], rows)
    assert run(argv[:3] + ["--eps", "-0.999"] + argv[5:]) == EXIT_OK
    assert capsys.readouterr().err == ""


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
_RKR_RECORD = {"first": "R", "r": [0.5, 0.5], "k": [1.0]}


@pytest.mark.parametrize("flag, record", [
    ("--scheme-json", {"first": "R", "r": [0.5, 0.5], "k": [{"a": 1}]}),
    ("--scheme-json", {"first": "R", "r": 5, "k": [1.0]}),
    ("--problem", {**_UNIT_PROBLEM, "cubic_delta": [1]}),
    ("--problem", {**_UNIT_PROBLEM, "linear_b": {"a": 1}}),
    # float() and numpy take "10", "0.5" and true, a record does not: "r":
    # "10" would be the rotations (1, 0)
    ("--scheme-json", {**_RKR_RECORD, "r": "10"}),
    ("--scheme-json", {**_RKR_RECORD, "k": [True]}),
    ("--scheme-json", {**_RKR_RECORD, "r": ["0.5", 0.5]}),
    ("--scheme-json", {**_RKR_RECORD, "label": 5}),
    ("--problem", {**_UNIT_PROBLEM, "mass": [["1"]]}),
    ("--problem", {**_UNIT_PROBLEM, "stiffness": [[True]]}),
    ("--problem", {**_UNIT_PROBLEM, "linear_b": [["0.1"]]}),
    ("--problem", {**_UNIT_PROBLEM, "cubic_delta": "0.5"}),
])
def test_json_field_of_the_wrong_type_is_usage_error(tmp_path, capsys, flag, record):
    # the error names the one key that differs from a valid record (as
    # JSON text: true == 1.0 in Python)
    kind, base = ("problem", _UNIT_PROBLEM) if flag == "--problem" else ("scheme", _RKR_RECORD)
    key = next(k for k in record if json.dumps(record[k]) != json.dumps(base.get(k)))
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    scheme = ["--scheme", "rkr"] if flag == "--problem" else []
    out = tmp_path / "out.csv"
    code = run(["integrate", flag, str(path), *scheme, "--h", "0.5", "--steps", "5",
                "-o", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith(f"splitstab: error: malformed {kind} record: {key} must ")
    assert "Traceback" not in err
    assert not out.exists()


def test_scheme_json_null_label_is_no_label(tmp_path):
    # null is no label: the region SVG draws its default title, not "None"
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({**_RKR_RECORD, "label": None}))
    svg = tmp_path / "region.svg"
    assert run(["region", "--scheme-json", str(path), "--eps", "0:1", "--h", "0.1:1",
                "--grid", "2x2", "-o", str(tmp_path / "region.csv"), "--svg", str(svg)]) == EXIT_OK
    title = svg.read_text()
    assert ">stability region</text>" in title and "None" not in title


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


JORDAN = [[1.0, 1.0], [0.0, 1.0]]


@pytest.mark.parametrize("argv, stiffness, code", [
    # a Jordan block has a real positive spectrum but one eigenvector: the
    # exact flow from (0, 1, 0, 0) reaches q0 = 2.72 by t = 10, a rotation
    # in two eigenvectors that are one leaves q0 at 0
    (["integrate", "--scheme", "rkr", "--z0", "0,1,0,0"], JORDAN, EXIT_USAGE),
    (["integrate", "--scheme", "krk"], [[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]],
     EXIT_USAGE),
    # drift/kick needs no eigenbasis
    (["integrate", "--scheme", "verlet_vel", "--z0", "0,1,0,0"], JORDAN, EXIT_OK),
    (["reduce"], JORDAN, EXIT_USAGE),
])
def test_defective_stiffness_is_usage_error_where_modes_are_needed(
    tmp_path, capsys, argv, stiffness, code
):
    d = len(stiffness)
    record = {"mass": np.eye(d).tolist(), "stiffness": stiffness}
    if argv[0] == "reduce":
        record["linear_b"] = (0.1 * np.eye(d)).tolist()
    else:
        argv = [*argv, "--h", "0.5", "--steps", "20"]
    problem_path = tmp_path / "defective.json"
    problem_path.write_text(json.dumps(record))
    out = tmp_path / "out"
    assert run([*argv, "--problem", str(problem_path), "-o", str(out)]) == code
    assert out.exists() == (code == EXIT_OK)
    err = capsys.readouterr().err
    assert ("transformed stiffness is not diagonalizable" in err) == (code == EXIT_USAGE)


def test_reduce_names_a_defective_perturbation(tmp_path, capsys):
    # the stiffness is I; the Jordan block is B, so the message names the
    # combination A_t + t B_t whose eigenbasis reduce reads
    problem_path = tmp_path / "defective.json"
    problem_path.write_text(json.dumps(
        {"mass": np.eye(2).tolist(), "stiffness": np.eye(2).tolist(), "linear_b": JORDAN}))
    out = tmp_path / "modes.json"
    assert run(["reduce", "--problem", str(problem_path), "-o", str(out)]) == EXIT_USAGE
    assert not out.exists()
    err = capsys.readouterr().err
    assert "A_t + t B_t is not diagonalizable" in err
    assert "transformed stiffness" not in err


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


@pytest.mark.parametrize("argv, message", [
    (["region", "--scheme", "nope", "--eps", "0:1", "--h", "0:1"],
     "unknown scheme 'nope'; known: krk, lt_kr, lt_rk, rkr, verlet_pos, verlet_vel, krkm, rkrm"),
    (["integrate", "--scheme", "rkrm", "--h", "0.1", "--steps", "3"],
     "scheme 'rkrm' needs a substep count m"),
    (["integrate", "--problem", "p.json", "--h", "0.1", "--steps", "3"],
     "transformed stiffness eigenvalue -1.0 is not positive"),
], ids=["unknown-scheme", "missing-m", "negative-stiffness"])
def test_error_lines_are_plain_text(tmp_path, monkeypatch, capsys, argv, message):
    # the message itself: no KeyError quotes, no numpy scalar repr
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_text(json.dumps({"mass": [[1, 0], [0, 1]],
                                                 "stiffness": [[-1, 0], [0, 1]]}))
    assert run([*argv, "-o", "out.csv"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"splitstab: error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def _readme_command_lines():
    """Every ``splitstab ...`` line of the README's "Command line" blocks,
    continuation lines joined, as argv lists without the program name."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```\n")[1::2]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("splitstab ")]


def test_readme_command_lines_run_as_written(tmp_path, monkeypatch, capsys):
    # problem.json is a small commuting 2-dof problem and jordan.json the
    # defective stiffness the README describes, whose run exits 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "problem.json").write_text(json.dumps({
        "mass": [[1.0, 0.0], [0.0, 1.0]], "stiffness": [[1.0, 0.0], [0.0, 2.0]],
        "linear_b": [[0.1, 0.0], [0.0, 0.2]]}))
    (tmp_path / "jordan.json").write_text(json.dumps({
        "mass": [[1.0, 0.0], [0.0, 1.0]], "stiffness": [[1.0, 1.0], [0.0, 1.0]]}))
    argvs = _readme_command_lines()
    assert len(argvs) == 10
    codes = {" ".join(argv): run(argv) for argv in argvs}
    want = {line: EXIT_USAGE if "jordan.json" in line else EXIT_OK for line in codes}
    assert codes == want, capsys.readouterr().err


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
    """Rows for three full blocks of the writer and a partial fourth.  A
    block holds _CSV_BLOCK_VALUES float values, text fields not counted,
    and at least one row; a table without floats gets as many rows."""
    n_floats = width - (text_column is not None)
    per_block = max(1, cli._CSV_BLOCK_VALUES // max(1, n_floats))
    rows = []
    for i in range(3 * per_block + per_block // 2 + 1):
        row = [_EDGE_VALUES[(i * width + j) % len(_EDGE_VALUES)] for j in range(width)]
        if text_column is not None:
            row[text_column] = ("stable", "exp_unstable", "true")[i % 3]
        rows.append(row)
    return rows


def _columns(rows, text_column=None):
    """Rows as writer columns: float arrays, and the text column as codes
    into its sorted labels."""
    columns = []
    for j, values in enumerate(zip(*rows)):
        if j == text_column:
            labels = sorted(set(values))
            columns.append((np.array([labels.index(v) for v in values]), labels))
        else:
            columns.append(np.array(values, dtype=float))
    return columns


@pytest.mark.parametrize("width, text_column", [(1, None), (1, 0), (4, 3), (4, None), (401, 200)])
def test_write_csv_matches_the_per_value_rule(tmp_path, width, text_column):
    rows = _rows_over_blocks(width, text_column)
    header = [f"c{j}" for j in range(width)]
    out = tmp_path / "w.csv"
    cli._write_csv(str(out), header, _columns(rows, text_column))
    assert out.read_bytes() == _csv_text(header, rows).encode()
    if text_column is None:
        # every edge value is exact as a float (2**60 too), so one 2-D
        # float column writes the same bytes
        cli._write_csv(str(tmp_path / "f.csv"), header, [np.array(rows, dtype=float)])
        assert (tmp_path / "f.csv").read_bytes() == out.read_bytes()


def test_write_csv_without_rows_writes_the_header(tmp_path):
    out = tmp_path / "w.csv"
    cli._write_csv(str(out), ["a", "b"], [np.empty(0), (np.empty(0, dtype=int), ["x"])])
    assert out.read_bytes() == b"a,b\n"


def _assert_floats_written_as_per_value_rule(tmp_path, values):
    values = np.asarray(values, dtype=float)
    out = tmp_path / "f.csv"
    cli._write_csv(str(out), ["x"], [values])
    want = "x\n" + "".join("%.17g\n" % v for v in values.tolist())
    got = out.read_text()
    if got != want:
        pairs = zip(got.splitlines()[1:], want.splitlines()[1:], values.tolist())
        bad = [(g, w, v.hex()) for g, w, v in pairs if g != w]
        raise AssertionError(f"{len(bad)} values differ, first {bad[:5]}")


def _powers_of_ten():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])


def _around_the_fast_range():
    ends = np.array([cli._FAST_MIN, cli._FAST_MAX])
    near = np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, np.inf),
                           ends * (1 - 2**-40), ends * (1 + 2**-40)])
    return np.concatenate([near, -near])


@pytest.mark.parametrize("values", [
    pytest.param(lambda: np.random.default_rng(29).integers(
        0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False).view(np.float64), id="random-bits"),
    pytest.param(lambda: np.ldexp(1.0, np.arange(-1074, 1024)), id="powers-of-two"),
    pytest.param(_powers_of_ten, id="powers-of-ten-and-neighbours"),
    pytest.param(lambda: np.concatenate([
        [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan],
        np.ldexp(1.0, np.arange(-1074, -1021)),
        np.nextafter(2.2250738585072014e-308, 0.0) * np.arange(1, 200),
        -np.random.default_rng(3).integers(1, 2**52, 1000).view(np.float64),
    ]), id="zero-subnormal-nonfinite"),
    pytest.param(lambda: np.concatenate([
        np.arange(0.0, 100_000.0), -np.arange(0.0, 10_000.0),
        [float(2**k + d) for k in range(50, 64) for d in (-1, 0, 1)],
        np.random.default_rng(5).integers(0, 2**63, 100_000, dtype=np.int64).astype(float),
    ]), id="integers-to-2^63"),
    pytest.param(_around_the_fast_range, id="around-the-fast-range"),
])
def test_float_column_is_written_as_the_per_value_rule(tmp_path, values):
    _assert_floats_written_as_per_value_rule(tmp_path, values())


@pytest.mark.parametrize("values", [
    pytest.param([math.nan] * 3 * cli._CSV_BLOCK_VALUES, id="all-nan"),
    pytest.param([math.inf, -math.inf] * cli._CSV_BLOCK_VALUES, id="all-inf"),
    # |x| * 10 has 18 significant digits ending in 5: an exact tie, which
    # '%' rounds half to even
    pytest.param((2.0**50 + 0.25 + 0.5 * np.arange(2 * cli._CSV_BLOCK_VALUES)), id="exact-ties"),
])
def test_blocks_of_python_formatted_values(tmp_path, values):
    _assert_floats_written_as_per_value_rule(tmp_path, values)


@given(st.lists(st.floats(), min_size=1, max_size=50))
@settings(max_examples=300, deadline=None)
def test_float_column_property(values):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_floats_written_as_per_value_rule(Path(tmp), values)


def test_all_zero_trajectory_csv(tmp_path):
    out = tmp_path / "traj.csv"
    argv = ["integrate", "--scheme", "krk", "--eps", "0.5", "--h", "0.9", "--steps", "20",
            "--q0", "0", "--p0", "0", "-o", str(out)]
    assert run(argv) == EXIT_OK
    assert out.read_text() == _csv_text(["step", "q", "p"], [(i, 0.0, 0.0) for i in range(21)])


def test_trajectory_csv_memory_is_bounded_by_blocks_not_rows(tmp_path, monkeypatch):
    # 200,001 x 3 values: a nested list of every row would hold about 40 MB
    # of Python floats and lists.  The states are built before tracing
    # starts, so the traced peak is the command's own: the step column (8
    # bytes a row) and one block of _CSV_BLOCK_VALUES floats at a time, its
    # byte buffer, keep mask and formatting temporaries.  The bound allows
    # as much as the states table plus 2 x 64 bytes a block value
    steps = 200_000
    report = dynamics.integrate_model(catalog_scheme("krk"), 0.5, 0.9, steps)
    monkeypatch.setattr(dynamics, "integrate_model", lambda *args: report)
    argv = ["integrate", "--scheme", "krk", "--eps", "0.5", "--h", "0.9",
            "--steps", str(steps), "-o", str(tmp_path / "traj.csv")]
    tracemalloc.start()
    try:
        assert run(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = (steps + 1) * 3 * 8
    assert peak < table_bytes + 2 * 64 * cli._CSV_BLOCK_VALUES


def test_region_csv_over_several_blocks_matches_scan(tmp_path, monkeypatch):
    # a region row has one float field, the semitrace, so a block is
    # _CSV_BLOCK_VALUES rows: the grid spans two full blocks and a third
    n_eps = 150
    n_h = 2 * cli._CSV_BLOCK_VALUES // n_eps + 2
    assert n_eps * n_h > 2 * cli._CSV_BLOCK_VALUES
    blocks = []
    format_floats = cli._format_floats
    monkeypatch.setattr(cli, "_format_floats", lambda x, *a: (blocks.append(len(x)),
                                                               format_floats(x, *a)))
    out = tmp_path / "r.csv"
    argv = ["region", "--scheme", "rkrm", "--m", "2", "--eps=-1:6", "--h", "0:7",
            "--grid", f"{n_eps}x{n_h}", "-o", str(out)]
    assert run(argv) == EXIT_OK
    assert len(blocks) == 3 and sum(blocks) == n_eps * n_h
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


#: Modules a command loads only if it uses them.
_OPTIONAL_MODULES = {"numpy.ma", "splitstab.analysis", "splitstab.dynamics", "splitstab.svgplot"}
_PROBE = ("import json, sys\n"
          "from splitstab import cli\n"
          "code = cli.run(sys.argv[1:])\n"
          "print(json.dumps([code, sorted(sys.modules)]))")


@pytest.mark.parametrize("argv, loads", [
    (["spotcheck", "--m", "3", "--trials", "5", "--h-samples", "2"], {"splitstab.analysis"}),
    (["verify", "--suite", "chebyshev", "--trials", "5"], {"splitstab.analysis"}),
    (["boundaries", "--m", "3", "--h", "0.1:9.3", "--n", "8"], set()),
    (["hm-table", "--m-max", "4"], {"splitstab.analysis"}),
    (["fig2", "--points", "11", "--svg", "f.svg"], {"splitstab.analysis", "splitstab.svgplot"}),
    (["integrate", "--h", "0.3", "--steps", "5"], {"splitstab.dynamics"}),
    (["reduce", "--problem", "p.json"], {"splitstab.dynamics"}),
    (["region", "--scheme", "rkr", "--eps", "0:1", "--h", "0.5:1", "--grid", "3x3"], set()),
    (["region", "--scheme", "rkr", "--eps", "0:1", "--h", "0.5:1", "--grid", "3x3",
      "--svg", "r.svg"], {"splitstab.svgplot"}),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loads):
    # a fresh interpreter, as a user's command starts; module sets, not times
    (tmp_path / "p.json").write_text(json.dumps({"mass": [[1]], "stiffness": [[2]],
                                                  "linear_b": [[0.5]]}))
    src = str(Path(splitstab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == EXIT_OK
    assert _OPTIONAL_MODULES.intersection(modules) == loads
