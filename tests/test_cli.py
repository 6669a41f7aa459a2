import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wsdlab
from wsdlab import cli, maps, metgeo, params, reduction
from wsdlab.cli import main
from wsdlab.params import LevelSetSpec, feasibility_threshold
from wsdlab.reduction import draw_directions, draw_torus, log_shape, sample_base, solve_base

from helpers import (cross_hausdorff, divisor_offsets_mp, fiber_suprema_mp, gathered_pair_bounds,
                     pi2_fiber_diameters)


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    rc = main(list(argv) + ["--out", str(out)])
    return rc, out.read_text()


def rows_of(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def test_verify_passes(tmp_path):
    rc, text = run(tmp_path, "verify", "--n", "2", "--rho2", "0.5", "--samples", "15")
    assert rc == 0
    rep = json.loads(text)
    assert rep["version"]
    assert rep["config"]["n"] == 2
    names = [c["name"] for c in rep["checks"]]
    assert names == ["wsd_axioms", "aij_consistency", "restricted_norm"]
    assert all(c["pass"] for c in rep["checks"])
    assert max(c["max_residual"] for c in rep["checks"]) < 1e-6


def test_verify_smallest_case(tmp_path):
    rc, text = run(tmp_path, "verify", "--n", "1", "--rho2", "0.8", "--samples", "8")
    assert rc == 0
    assert all(c["pass"] for c in json.loads(text)["checks"])


def test_verify_infeasible_exits_2(tmp_path, capsys):
    rc = main(["verify", "--n", "2", "--rho2", "0.2", "--samples", "5"])
    assert rc == 2
    assert "empty level set" in capsys.readouterr().err


THRESHOLD_2 = f"{feasibility_threshold(2):.6g}"


@pytest.mark.parametrize("argv,rho2,cls", [
    (["verify", "--rho2", "0.2"], "0.2", "empty"),
    (["limit-kahler", "--rho2", "0.6,0.2", "--grid", "1:10:2"], "0.2", "empty"),
    (["limit-complex", "--rho2", "0.2", "--grid", "0.1:1:2"], "0.2", "empty"),
    # side T's rho2 within the feasibility band of the threshold
    (["boundary", "--side", "T", "--grid", "1e-14:1e-13:2"], THRESHOLD_2, "degenerate"),
], ids=["verify", "limit-kahler", "limit-complex", "boundary-T"])
def test_empty_level_set_is_one_line_exit_2(argv, rho2, cls, capsys):
    # every command that needs a regular level set prints the same one line
    assert main(argv + ["--n", "2", "--samples", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"empty level set: n=2 rho2={rho2} classified '{cls}' "
                   f"(threshold {THRESHOLD_2})\n")


@pytest.mark.parametrize("rho2", ["-0.6", "0"])
@pytest.mark.parametrize("argv", [
    ["verify", "--samples", "4"],
    ["limit-kahler", "--grid", "0.1:1:2", "--samples", "12"],
    ["limit-complex", "--grid", "0.1:1:2", "--samples", "12"],
], ids=["verify", "limit-kahler", "limit-complex"])
def test_non_positive_rho2_is_one_line_exit_2(argv, rho2, capsys):
    # a profile width is positive: a negative one used to run (its solve saw
    # only rho2^2, so limit-complex printed a negative hausdorff_quotient)
    assert main(argv + ["--n", "2", f"--rho2={rho2}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "invalid configuration: rho2 must be positive\n"


@pytest.mark.parametrize("rho2", ["2.5", "4"])
@pytest.mark.parametrize("n", [2, 3])
def test_deep_rho2_limit_complex_prints_rows(n, rho2, capsys):
    # the largest shape coordinate rounds to 1 from rho2 ~2.5, so np.log gave
    # it the log-shape 0 and a vanishing pi2 modulus; from the sphere
    # constraint (reduction.log_shape) it keeps its digits.  n = 1 has no
    # degenerate limit (test_limit_complex_at_n1_exits_2_and_names_it)
    argv = ["limit-complex", "--n", str(n), "--rho2", rho2, "--grid", "0.1:1:2",
            "--samples", "16"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = rows_of(out)
    assert len(rows) == 2
    assert all(float(r["pi2_residual_max"]) < 1e-15 for r in rows)


@pytest.mark.parametrize("rho2", ["0.7", "2.5"])
def test_limit_complex_at_n1_exits_2_and_names_it(rho2, capsys):
    # the n = 1 base is two points, so the degenerate metric's level set has
    # two components and no limit torus to compare with
    argv = ["limit-complex", "--n", "1", "--rho2", rho2, "--grid", "0.1:1:2", "--samples", "16"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("numerical failure: the degenerate distance is infinite at n = 1: the base "
                   "is two points, so the level set has two components\n")


def test_vanishing_pi2_modulus_exits_2_and_names_it(capsys):
    # at n = 1, rho2 5 the small radius e^-493 squares below the doubles, so
    # even log1p(-x_lo^2) / 2 rounds to 0 and the pi2 modulus vanishes; the
    # large rho1 keeps the fiber weights 4 pi^2 r^2 normal, so this is the cause
    argv = ["limit-complex", "--n", "1", "--rho2", "5", "--grid", "1e70:1e80:2",
            "--samples", "16"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("numerical failure: the pi2 modulus vanishes: "
                   "a log-shape coordinate rounded to 0\n")


def test_verify_tight_tolerance_fails(tmp_path):
    rc, text = run(tmp_path, "verify", "--n", "2", "--rho2", "0.5",
                   "--samples", "5", "--tol", "1e-18")
    assert rc == 1
    rep = json.loads(text)
    assert not rep["checks"][0]["pass"]


def _planted(field, factor):
    """omega_d_degenerate_block with one field of its result scaled."""
    block = reduction.omega_d_degenerate_block

    def planted(r):
        blk = block(r)
        return blk._replace(**{field: getattr(blk, field) * factor})
    return planted


@pytest.mark.parametrize("n", ["2", "3"])
@pytest.mark.parametrize("name,field,argv", [
    ("wsd_axioms", None, ["--tol", "1e-18"]),
    ("aij_consistency", "a_solve", []),
    ("restricted_norm", "pairing", []),
])
def test_verify_planted_error_fails_its_own_check(monkeypatch, capsys, n, name, field, argv):
    # a relative error of 1e-6 in the solved a_ij or in the pairing is far
    # past those checks' tolerances, and only one check reads each field
    if field:
        monkeypatch.setattr(reduction, "omega_d_degenerate_block", _planted(field, 1 + 1e-6))
    assert main(["verify", "--n", n, "--rho2", "0.5", "--samples", "20", *argv]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if not c["pass"]] == [name]


def test_verify_runs_down_to_the_radius_squared_guard(capsys):
    # the smallest radius, 2.7e-155, passes the radius-squared guard, and
    # every check reads finite values; a derivative of 1/(2 pi r) there,
    # -1/(2 pi r^2), would overflow, and no check takes one
    argv = ["verify", "--n", "2", "--rho1", "1.778279e-153", "--rho2", "0.5", "--samples", "20"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_verify_deterministic(tmp_path):
    a = run(tmp_path, "verify", "--n", "2", "--rho2", "0.5", "--samples", "6")[1]
    b = run(tmp_path, "verify", "--n", "2", "--rho2", "0.5", "--samples", "6")[1]
    assert a == b


def test_limit_kahler_columns(tmp_path):
    rc, text = run(tmp_path, "limit-kahler", "--n", "2", "--rho2", "0.6",
                   "--grid", "1:1e3:4", "--samples", "24")
    assert rc == 0
    rows = rows_of(text)
    assert len(rows) == 4
    ratios = [float(r["fiber_ratio"]) for r in rows]
    assert max(ratios) <= 1 + 1e-6
    norms = [float(r["hausdorff_norm"]) for r in rows]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert all(r["version"] and r["seed"] == "0" for r in rows)


def test_limit_kahler_fiber_halving(tmp_path):
    rc, text = run(tmp_path, "limit-kahler", "--n", "2", "--rho2", "0.6",
                   "--grid", "1:2:2", "--samples", "16")
    assert rc == 0
    rows = rows_of(text)
    d1, d2 = (float(r["fiber_diam_max"]) for r in rows)
    assert abs(d1 / d2 - 2.0) < 0.05 * 2.0


def test_limit_kahler_infeasible(tmp_path, capsys):
    rc = main(["limit-kahler", "--n", "2", "--rho2", "0.1", "--grid", "1:10:2",
               "--samples", "8"])
    assert rc == 2


def test_limit_complex_columns(tmp_path):
    rc, text = run(tmp_path, "limit-complex", "--n", "2", "--rho2", "0.6",
                   "--grid", "0.01:1:3", "--samples", "20")
    assert rc == 0
    rows = rows_of(text)
    cs = [float(r["c_witness"]) for r in rows]
    assert max(cs) / min(cs) - 1 < 0.2
    assert max(float(r["pi2_residual_max"]) for r in rows) < 1e-9
    for r in rows:
        lo, hi = float(r["degenerate_ngh_lower"]), float(r["degenerate_ngh_upper"])
        assert 0 <= lo <= hi


def test_boundary_pinch_exponent(tmp_path):
    rc, text = run(tmp_path, "boundary", "--n", "2", "--side", "T",
                   "--grid", "1e-4:1e-1:6", "--samples", "24")
    assert rc == 0
    rows = rows_of(text)
    deltas = np.array([float(r["param"]) for r in rows])
    diams = np.array([float(r["base_diam"]) for r in rows])
    slope = np.polyfit(np.log(deltas), np.log(diams), 1)[0]
    assert abs(slope - 0.5) < 0.1
    tight = rows[np.argmin(deltas)]
    assert float(tight["base_diam"]) < 0.1 * float(tight["rho1"])


@pytest.mark.parametrize("rho1", ["1e-200", "1e-3", "1", "1e3", "1e200"])
def test_boundary_diameter_is_rho1_times_one_shape_diameter(tmp_path, rho1):
    # the base at rho1 is rho1 times its rho1 = 1 shape: the shape's diameter
    # is printed the same at every depth, and base_diam is rho1 times it, far
    # past where squared differences of the radii underflow or overflow
    args = ("boundary", "--side", "T", "--n", "2", "--grid", "1e-4:1e-1:4", "--samples", "16")
    rows = rows_of(run(tmp_path, *args, "--rho1", rho1)[1])
    ref = rows_of(run(tmp_path, *args)[1])
    assert [r["base_diam_over_rho1"] for r in rows] == [r["base_diam_over_rho1"] for r in ref]
    for row in rows:
        assert row["base_diam"] == cli._e(float(rho1) * float(row["base_diam_over_rho1"]))
        assert float(row["base_diam"]) > 0


@pytest.mark.parametrize("rho1,grid", [("1e-320", "1e-4:1e-1:2"), ("1.7e308", "10:100:2")])
def test_boundary_diameter_out_of_range_exits_2_with_one_line(rho1, grid, capsys):
    argv = ["boundary", "--n", "2", "--rho1", rho1, "--grid", grid, "--samples", "16"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"numerical failure: base_diam leaves the normal doubles at rho1 = {float(rho1):.6g}\n"


def test_boundary_single_sample_prints_zero_diameter_at_any_rho1(capsys):
    # one sample has diameter 0, which is 0 at every rho1, even where rho1
    # times a positive diameter would exit 2
    argv = ["boundary", "--n", "2", "--rho1", "1e-320", "--grid", "1e-4:1e-1:2", "--samples", "1"]
    assert main(argv) == 0
    rows = rows_of(capsys.readouterr().out)
    assert [(r["base_diam"], r["base_diam_over_rho1"]) for r in rows] == [(cli._e(0.0),) * 2] * 2


@pytest.mark.parametrize("rho1", ["0", "-1"])
def test_boundary_rejects_non_positive_rho1(rho1, capsys):
    assert main(["boundary", "--n", "2", f"--rho1={rho1}", "--samples", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "invalid configuration: rho1 must be positive\n"


def test_boundary_side_all_is_side_t(capsys):
    # the threshold is the one probed side; --side all names the same rows
    outputs = []
    for side in ("all", "T"):
        assert main(["boundary", "--side", side, "--n", "2", "--samples", "8"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_rows_fill_every_column(tmp_path, n):
    rc, text = run(tmp_path, "boundary", "--n", str(n), "--samples", "8")
    assert rc == 0
    rows = rows_of(text)
    assert len(rows) == 7
    assert all(row["side"] == "T" for row in rows)
    assert all(value != "" for row in rows for value in row.values())


def test_verify_has_no_format_option():
    # verify writes JSON only; the sweeps take --format csv|json
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "2", "--rho2", "0.5", "--format", "json"])
    assert exc.value.code == 2


def test_boundary_has_no_rho2_option():
    # side T takes its rho2 from the threshold excess
    with pytest.raises(SystemExit) as exc:
        main(["boundary", "--n", "2", "--rho2", "0.6"])
    assert exc.value.code == 2


def test_polytope_report(tmp_path):
    rc, text = run(tmp_path, "polytope-report", "--n", "2")
    assert rc == 0
    rep = json.loads(text)
    assert rep["composite"] == [[3, 0], [0, 3]]
    assert rep["kernel"]["dual_map"]["torsion_invariants"] == [3]
    assert rep["self_dual"]["holds"] is True
    assert all(c["pass"] for c in rep["identity_checks"])


def test_polytope_report_n5_kernel_order(tmp_path):
    rc, text = run(tmp_path, "polytope-report", "--n", "5")
    assert rc == 0
    rep = json.loads(text)
    check = {c["name"]: c for c in rep["identity_checks"]}
    assert check["composite_kernel_order"]["pass"]
    assert "7776" in check["composite_kernel_order"]["detail"]


def test_rejects_n0():
    with pytest.raises(SystemExit) as exc:
        main(["polytope-report", "--n", "0"])
    assert exc.value.code == 2


def test_bad_grid_is_config_error(capsys):
    rc = main(["limit-kahler", "--n", "2", "--rho2", "0.6", "--grid", "nope",
               "--samples", "4"])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_sweep_json_format(tmp_path):
    rc, text = run(tmp_path, "limit-kahler", "--n", "2", "--rho2", "0.6",
                   "--grid", "1:10:2", "--samples", "12", "--format", "json")
    assert rc == 0
    rep = json.loads(text)
    assert len(rep["rows"]) == 2
    assert rep["config"]["grid"] == "1:10:2"
    # every sweep takes --format, and its JSON rows are its CSV rows
    for argv in (["limit-kahler", "--rho2", "0.6", "--grid", "1:10:2", "--samples", "12"],
                 ["limit-complex", "--rho2", "0.6", "--grid", "0.1:1:2", "--samples", "16"],
                 ["boundary", "--grid", "1e-2:1e-1:2", "--samples", "4"]):
        argv = [*argv, "--n", "2"]
        rows = json.loads(run(tmp_path, *argv, "--format", "json")[1])["rows"]
        assert [{k: str(v) for k, v in row.items()} for row in rows] == \
            rows_of(run(tmp_path, *argv)[1])


@pytest.mark.parametrize("argv", [
    ["verify", "--rho2", "0.5", "--samples", "5"],
    ["limit-kahler", "--rho2", "0.6", "--grid", "1:10:2", "--samples", "4"],
    ["limit-complex", "--rho2", "0.6", "--grid", "0.1:1:2", "--samples", "16"],
    ["boundary", "--grid", "1e-2:1e-1:2", "--samples", "4"],
    ["polytope-report"],
], ids=lambda argv: argv[0])
def test_unwritable_out_is_one_line_exit_2(tmp_path, argv, capsys):
    # exit 1 would read as a failed check
    out = tmp_path / "missing" / "x.json"
    assert main([*argv, "--n", "2", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"invalid configuration: cannot write --out "
                                       f"{str(out)!r}: No such file or directory\n")
    assert not out.parent.exists()


def test_sweep_deterministic(tmp_path):
    args = ("limit-kahler", "--n", "2", "--rho2", "0.6", "--grid", "1:10:2",
            "--samples", "12")
    assert run(tmp_path, *args)[1] == run(tmp_path, *args)[1]


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "2", "--rho2", "0.5", "--samples", "0"],
    ["limit-kahler", "--n", "2", "--rho2", "0.6", "--grid", "1:10:2", "--samples", "0"],
    ["verify", "--n", "2", "--rho2", "nan", "--samples", "4"],
    ["verify", "--n", "2", "--rho2", "inf", "--samples", "4"],
    ["verify", "--n", "2", "--rho1", "nan", "--rho2", "0.5", "--samples", "4"],
    ["verify", "--n", "2", "--rho2", "0.5", "--tol", "inf", "--samples", "4"],
    ["verify", "--n", "2", "--rho2", "0.5", "--samples", "4", "--tol", "0"],
    ["verify", "--n", "2", "--rho2", "0.5", "--samples", "4", "--tol", "-1"],
    ["limit-kahler", "--n", "2", "--rho2", "0.6,nan", "--grid", "1:10:2", "--samples", "4"],
    ["limit-complex", "--n", "2", "--rho2", "0.6", "--grid", "1e-3:inf:2", "--samples", "4"],
    ["limit-kahler", "--n", "2", "--rho2", "0.6", "--grid", "1:10:2", "--samples", "1"],
    ["limit-complex", "--n", "2", "--rho2", "0.6", "--grid", "0.1:1:2", "--samples", "1"],
], ids=["verify-samples-0", "kahler-samples-0", "rho2-nan", "rho2-inf", "rho1-nan",
        "tol-inf", "tol-0", "tol-negative", "rho2-list-nan", "grid-inf", "kahler-samples-1",
        "complex-samples-1"])
def test_rejects_unusable_input_with_one_line(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid configuration: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "2", "--rho2", "0.5"],
    ["limit-kahler", "--n", "2", "--rho2", "0.6", "--grid", "1:10:2"],
], ids=["verify", "limit-kahler"])
def test_samples_beyond_the_stream_key_layout_are_rejected_before_drawing(
        monkeypatch, argv, capsys):
    # a sample's stream key holds its index in one 32-bit word: 2**32 + 1
    # samples is an invalid configuration, rejected before any row is drawn
    def no_draw(*args):
        raise AssertionError("drew rows for an invalid --samples")

    monkeypatch.setattr(reduction, "stream_rows", no_draw)
    assert main([*argv, "--samples", str((1 << 32) + 1)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("invalid configuration: --samples must be <= 2**32 = 4294967296, one "
                   "32-bit stream index per sample, got 4294967297\n")


@pytest.mark.parametrize("exc,line", [
    (MemoryError("Unable to allocate 74.5 GiB for an array"),
     "numerical failure: Unable to allocate 74.5 GiB for an array\n"),
    (MemoryError(), "numerical failure: out of memory\n"),
], ids=["numpy", "bare"])
def test_memory_error_exits_2_with_one_line(monkeypatch, exc, line, capsys):
    # an array that does not fit is a numerical failure, not a traceback and
    # exit 1, which would read as a failed check
    def exhausted(*args):
        raise exc

    monkeypatch.setattr(reduction, "sample_base", exhausted)
    assert main(["verify", "--n", "2", "--rho2", "0.5", "--samples", "4"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", line)


def test_linalg_error_is_a_numerical_failure(monkeypatch, capsys):
    # numpy's LinAlgError subclasses ValueError, yet is no configuration error
    def unsolvable(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(reduction, "sample_base", unsolvable)
    assert main(["verify", "--n", "2", "--rho2", "0.5", "--samples", "4"]) == 2
    assert capsys.readouterr() == ("", "numerical failure: SVD did not converge\n")


def test_sampler_failure_exits_2_with_one_line(capsys):
    # feasible, but the base radii underflow to 0 in double precision
    assert main(["verify", "--n", "2", "--rho2", "30", "--samples", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("rho2", ["1e154", "1e200", "1e308"])
@pytest.mark.parametrize("command", ["verify", "limit-complex"])
def test_huge_rho2_exits_2_with_the_radii_underflow_line(command, rho2, capsys):
    # far above the threshold 4 pi^2 rho2^2 leaves the doubles: the set is
    # regular (not 'degenerate') and its radii underflow, as at rho2 = 30
    assert main([command, "--n", "2", "--rho2", rho2, "--samples", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"numerical failure: base radii underflow at rho2 = {float(rho2):.6g}: "
                   "a radius rounds to 0 in double precision\n")


@pytest.mark.parametrize("rho2", ["1e154", "1e200", "1e308"])
def test_huge_rho2_limit_kahler_exits_2_with_the_fiber_bound_line(rho2, capsys):
    # limit-kahler solves no radii; its first printed value to leave the
    # doubles is the fiber bound, as from rho2 ~6 on, and it is formed before
    # base_suprema's root, which leaves the doubles from rho2 ~1e153
    assert main(["limit-kahler", "--n", "2", "--rho2", rho2, "--samples", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("numerical failure: fiber bound pi n^(-(n-1)/2) e^(2 pi^2 rho2^2) / rho1 "
                   f"overflows at rho2 = {float(rho2):.6g}, rho1 = 1\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "2", "--rho2", "5", "--samples", "3"],
], ids=["verify"])
def test_radius_squared_underflow_exits_2_with_one_line(argv, capsys):
    # the base radii exist, but 4 pi^2 r^2 of the smallest is below the normal
    # doubles: the torus metric weights name that, not a bare divide by zero.
    # A deep rho2 (verify) or a small rho1 is the cause, and the line names
    # both.  The sweeps form no radii at a grid point, so no rho1 reaches it
    # there (test_sweeps_print_where_the_radii_left_the_doubles)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: radius squared underflow at r = ")
    assert "rho1" in err and "rho2" in err and err.count("\n") == 1


@pytest.mark.parametrize("command,grid", [
    ("limit-complex", "1e-160:1e-159:2"),
    ("limit-kahler", "1e150:1e160:2"),
    ("limit-complex", "1e150:1e160:2"),
], ids=["limit-complex-tiny", "limit-kahler-huge", "limit-complex-huge"])
def test_sweeps_print_where_the_radii_left_the_doubles(command, grid, capsys):
    # rho1 times the shape squares below (1e-160) or above (1e160) the normal
    # doubles, which the per-point fiber pass refused as radius squared under-
    # or overflow; the suprema scale by rho1 alone and stay normal (for
    # limit-kahler at 1e-160, test_sweep_cells_past_the_normal_doubles_...)
    assert main([command, "--n", "2", "--rho2", "0.7", "--grid", grid]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    sup = params.base_suprema(2, 0.7)
    for row in rows_of(out):
        assert all(math.isfinite(float(cell)) for key, cell in row.items() if key != "version")
        rho1 = float(row["rho1"])
        want = sup.pi1_fiber / rho1 if command == "limit-kahler" else rho1 * sup.pi2_fiber
        assert row["fiber_diam_max"] == cli._e(want)


@pytest.mark.parametrize("command,grid,line", [
    ("limit-kahler", "1e300:1.7e308:2",
     "hausdorff_norm leaves the normal doubles at rho1 = 1.7e+308"),
    ("limit-complex", "1e300:1.7e308:2",
     "fiber_diam_max leaves the normal doubles at rho1 = 1.7e+308"),
    ("limit-kahler", "1e-160:1e-159:2",
     "hausdorff_norm leaves the normal doubles at rho1 = 1e-160"),
    ("limit-complex", "1e-300:1e-310:2",
     "fiber_diam_max leaves the normal doubles at rho1 = 1e-310"),
    ("limit-kahler", "1e-300:1e-310:2", "fiber bound pi n^(-(n-1)/2) e^(2 pi^2 rho2^2) / rho1 "
     "overflows at rho2 = 0.6, rho1 = 1e-310"),
], ids=["limit-kahler-huge", "limit-complex-huge", "limit-kahler-tiny",
        "limit-complex-subnormal", "limit-kahler-subnormal"])
def test_sweep_cells_past_the_normal_doubles_exit_2_and_name_them(command, grid, line, capsys):
    # pi rho1 (limit-kahler's diameter scale, limit-complex's odd-n fiber)
    # overflows from rho1 ~5.7e307, and so does hausdorff_norm's fiber over
    # rho1^2 from rho1 ~1e-154 at rho2 0.6; a subnormal rho1 makes the pi2
    # fiber subnormal, while limit-kahler's bound, at least 4 pi^2 times its
    # fiber, overflows first
    assert main([command, "--n", "3", "--rho2", "0.6", "--grid", grid, "--samples", "4"]) == 2
    assert capsys.readouterr() == ("", f"numerical failure: {line}\n")


def test_fiber_bound_overflow_exits_2_and_names_it(capsys):
    # e^{2 pi^2 rho2^2} leaves the doubles from rho2 ~ 6.0; the sweep names
    # the bound and the first grid point, not a bare math range error
    argv = ["limit-kahler", "--n", "6", "--rho2", "6.5", "--grid", "1:10:2", "--samples", "8"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("numerical failure: fiber bound pi n^(-(n-1)/2) e^(2 pi^2 rho2^2) / rho1 "
                   "overflows at rho2 = 6.5, rho1 = 1\n")


@pytest.mark.parametrize("n,rho2", [(2, "1.3"), (3, "1.2"), (2, "4.5"), (4, "5")])
def test_deep_rho2_kahler_sweep_matches_60_digit_closed_form(tmp_path, n, rho2):
    # regular level sets whose fiber Gram matrix is numerically singular: the
    # sweep forms no Gram matrix, so it runs and prints the closed form of
    # the supremum over the base, against a 60-digit search of its KKT points.
    # At rho2 4.5 and 5 the radii would leave the doubles, and the supremum,
    # 1.57e172 and 1.03e212 at rho1 = 1, stays below its bound
    rc, text = run(tmp_path, "limit-kahler", "--n", str(n), "--rho2", rho2,
                   "--grid", "1:10:2", "--samples", "12")
    assert rc == 0
    rows = rows_of(text)
    assert len(rows) == 2
    for row in rows:
        exact = fiber_suprema_mp(n, float(rho2), digits=60)[0] / float(row["rho1"])
        assert abs(float(row["fiber_diam_max"]) - exact) <= 1e-12 * exact
        assert float(row["fiber_ratio"]) <= 1.0


def _sweep_rows(tmp_path, command, n, rho2, grid):
    rc, text = run(tmp_path, command, "--n", str(n), "--rho2", rho2, "--grid", grid,
                   "--samples", "24")
    assert rc == 0
    return rows_of(text)


@pytest.mark.parametrize("n", [4, 5])
def test_limit_kahler_runs_past_rank_3(tmp_path, n):
    rows = _sweep_rows(tmp_path, "limit-kahler", n, "0.6,0.9", "1:1e3:4")
    assert len(rows) == 8
    assert all(float(r["fiber_ratio"]) <= 1.0 for r in rows)


@pytest.mark.parametrize("command", ["limit-kahler", "limit-complex"])
def test_sweeps_run_where_n_to_the_n_leaves_the_doubles(tmp_path, command):
    # 144^144 is above the largest double, so the suprema's n^n c is formed
    # without either factor; every cell is finite
    rc, text = run(tmp_path, command, "--n", "144", "--rho2", "4.32", "--grid", "1:10:2",
                   "--samples", "4")
    assert rc == 0
    rows = rows_of(text)
    assert len(rows) == 2
    assert all(math.isfinite(float(cell)) for row in rows for name, cell in row.items()
               if name != "version")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_limit_complex_c_witness_closed_form(tmp_path, n):
    # the closed form gives c = pi sqrt(1 - (m mod 2) / sum x_i^-2), x = r / rho1;
    # c is printed to 13 digits, so it may round up to 3.14159265359
    rows = _sweep_rows(tmp_path, "limit-complex", n, "0.6,0.9", "1e-3:1:4")
    assert len(rows) == 8
    for r in rows:
        c = float(r["c_witness"])
        assert c <= math.pi + 0.5e-12
        if (n + 1) % 2 == 0:
            assert abs(c - math.pi) <= 1e-12


def test_limit_kahler_deep_n3_full_grid(tmp_path):
    # first-projection fiber weights span up to ~1e15 here
    rc, text = run(tmp_path, "limit-kahler", "--n", "3", "--rho2", "1.0",
                   "--grid", "1:1e3:7", "--samples", "60")
    assert rc == 0
    rows = rows_of(text)
    assert len(rows) == 7
    assert all(float(r["fiber_ratio"]) <= 1.0 for r in rows)


DEEP_COMMANDS = {
    "verify": ["verify", "--samples", "3"],
    "limit-kahler": ["limit-kahler", "--grid", "1:10:2", "--samples", "6"],
    "limit-complex": ["limit-complex", "--grid", "0.1:1:2", "--samples", "16"],
}


@pytest.mark.parametrize("rho2", ["2.5", "5", "8", "30"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("command", list(DEEP_COMMANDS))
def test_deep_rho2_gives_result_or_one_line(command, n, rho2, capsys):
    # every sampled command: a result, or exit 2 with one classified line
    argv = DEEP_COMMANDS[command] + ["--n", str(n), "--rho2", rho2]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert rc in (0, 1, 2)
    assert "Warning" not in err and "Traceback" not in err
    assert err.count("\n") <= 1
    if rc == 2:
        assert out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        # a radius that rounds to 0 is the sampler's underflow, named as such
        assert "at r = 0.000e+00" not in err


# every exit-2 line a well-formed argv can give: a named cause, never numpy's
# own "encountered" text or an errno tuple
NAMED_CAUSES = [re.compile(p) for p in (
    r"empty level set: n=\d+ rho2=\S+ classified '(empty|degenerate)' \(threshold \S+\)",
    r"numerical failure: base radii underflow at rho2 = \S+: a radius rounds to 0 in double precision",
    r"numerical failure: radius squared (underflow|overflow) at r = \S+: 4 pi\^2 r\^2 is .*",
    r"numerical failure: the pi2 modulus vanishes: a log-shape coordinate rounded to 0",
    r"numerical failure: \|X1\|\^2 \|X2\|\^2 overflows at radii \S+ to \S+: .*",
    r"numerical failure: degenerate-pair construction ill conditioned: .*",
    r"numerical failure: fiber bound .* overflows at rho2 = \S+, rho1 = \S+",
    r"numerical failure: (fiber_diam_max|hausdorff_image|hausdorff_norm|base_diam) leaves the "
    r"normal doubles at rho1 = \S+",
    r"numerical failure: the degenerate distance is infinite at n = 1: the base is two "
    r"points, so the level set has two components",
)]


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# every --grid a golden digest runs: the pure-Python grid gives numpy's
# geomspace points bitwise on each
GOLDEN_GRIDS = ["1:1e3:4", "1:1e3:3", "1e-3:1:4", "1e-3:1:3", "1e-4:1e-1:7"]


@pytest.mark.parametrize("text", GOLDEN_GRIDS)
def test_grid_is_geomspace_bitwise_on_the_golden_grids(text):
    lo, hi, count = text.split(":")
    got = cli._parse_grid(text)
    assert all(type(x) is float for x in got)
    assert got == np.geomspace(float(lo), float(hi), int(count)).tolist()


def test_grid_point_off_geomspace_is_the_correctly_rounded_one():
    # on the benchmark's 1:1e3:7 the grid differs from numpy's geomspace in
    # one point, 10^2.5 (step 1/2 is exact): 0.49 ulp from the 50-digit value
    # against numpy's 0.51 ulp
    got = cli._parse_grid("1:1e3:7")
    want = np.geomspace(1.0, 1e3, 7).tolist()
    assert [i for i in range(7) if got[i] != want[i]] in ([], [5])
    with mpmath.workdps(50):
        exact = mpmath.mpf(10) ** mpmath.mpf("2.5")
        assert got[5] == float(exact)
        assert abs(got[5] - exact) <= abs(want[5] - exact)


def _grid_bound_ulps(lo: float, hi: float) -> float:
    """The stated error of a grid point in units of 2^-52 relative: the
    exponent y = log10 lo + i step carries about 7 roundings of
    M = max(1, |log10 lo|, |log10 hi|) (two logs, the difference, the step,
    its multiple, the sum), ln 10 times that in the power, plus the power's
    own ulp: 1 + 8 M.  A 3,000-grid scan over [1e-300, 1e300] read 4.3 M at
    worst."""
    return 1.0 + 8.0 * max(1.0, abs(math.log10(lo)), abs(math.log10(hi)))


@settings(max_examples=200, deadline=None)
@given(lo=_log_uniform(-300.0, 300.0), hi=_log_uniform(-300.0, 300.0),
       count=st.integers(1, 40))
@example(lo=1.0, hi=1e3, count=7)
@example(lo=1e-310, hi=1e300, count=5)
@example(lo=2.0, hi=2.0, count=3)
def test_grid_is_exact_at_the_ends_and_holds_a_50_digit_reference(lo, hi, count):
    got = cli._parse_grid(f"{lo!r}:{hi!r}:{count}")
    assert len(got) == count and all(type(x) is float for x in got)
    assert got == sorted(got)
    assert [got[0], got[-1]] == ([lo, lo] if count == 1 else sorted([lo, hi]))
    # strictly monotone where the points lie far apart against their error
    bound = _grid_bound_ulps(lo, hi)
    if count > 1 and abs(math.log10(hi) - math.log10(lo)) > (count - 1) * 1e-12 * bound:
        assert all(a < b for a, b in zip(got, got[1:]))
    with mpmath.workdps(50):
        a, b = mpmath.log10(lo), mpmath.log10(hi)
        ref = sorted(mpmath.power(10, a + i * (b - a) / max(count - 1, 1)) for i in range(count))
        assert all(abs(x - r) <= bound * 2.0**-52 * r for x, r in zip(got, ref))


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(["verify", "limit-kahler", "limit-complex", "boundary",
                                    "polytope-report"]))
    # limit-kahler samples nothing, so its n reaches past 143, where n^n
    # leaves the doubles, and past ~254, where every regular rho2 overflows
    # the fiber bound
    n = draw(st.integers(1, {"limit-complex": 12, "limit-kahler": 250}.get(command, 6)))
    if command == "polytope-report":
        return [command, "--n", str(n)]
    argv = [command, "--n", str(n), "--samples", str(draw(st.integers(2, 16))),
            "--seed", str(draw(st.integers(0, 1000)))]
    # rho2 from below every threshold (~0.19 at n = 1) to 1e300; half the draws
    # stay below 10, where the sampler still computes
    rho2 = draw(st.one_of(st.floats(0.1, 10.0), _log_uniform(-1.0, 300.0)))
    rho1 = draw(_log_uniform(-300.0, 300.0))
    grid = (f"{draw(_log_uniform(-300.0, 300.0))!r}:{draw(_log_uniform(-300.0, 300.0))!r}:"
            f"{draw(st.integers(1, 3))}")
    if command == "verify":
        return argv + ["--rho1", repr(rho1), "--rho2", repr(rho2)]
    if command == "boundary":
        return argv + ["--rho1", repr(rho1), "--grid", grid]
    return argv + ["--rho2", repr(rho2), "--grid", grid]


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


# 300 examples, ~1 s: every command runs in-process at 16 samples or fewer
@settings(max_examples=300, deadline=None)
@given(argv=cli_argvs())
@example(argv=["verify", "--n", "1", "--rho2", "8", "--samples", "3"])
@example(argv=["verify", "--n", "2", "--rho2", "1.99e153", "--samples", "11"])
@example(argv=["verify", "--n", "6", "--rho2", "6.54", "--rho1", "4.48e98", "--samples", "10"])
@example(argv=["limit-complex", "--n", "2", "--rho2", "0.553", "--samples", "3",
               "--grid", "3.5e73:1.59e153:2"])
@example(argv=["limit-kahler", "--n", "2", "--rho2", "4.5", "--samples", "2"])
@example(argv=["limit-kahler", "--n", "144", "--rho2", "4.32", "--grid", "1:10:2"])
@example(argv=["limit-kahler", "--n", "4", "--rho2", "5", "--samples", "2"])
@example(argv=["limit-kahler", "--n", "3", "--rho2", "0.7", "--samples", "2",
               "--grid", "1e300:1.7e308:3"])
@example(argv=["limit-complex", "--n", "3", "--rho2", "0.7", "--samples", "2",
               "--grid", "1e300:1.7e308:3"])
def test_every_argv_gives_a_result_or_one_named_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert [str(w.message) for w in caught] == []
    assert rc in (0, 1, 2)
    if rc == 2:
        assert out == "" and err.count("\n") == 1
        line = err.rstrip("\n")
        assert "encountered" not in line and not re.search(r"\(\d+, '", line)
        assert any(p.fullmatch(line) for p in NAMED_CAUSES), line
        return
    assert err == ""
    if argv[0] in ("verify", "polytope-report"):
        json.loads(out, parse_constant=_reject_constant)
        return
    for row in rows_of(out):
        for cell in row.values():
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), row


def test_verify_non_finite_residual_is_strict_json(monkeypatch, capsys):
    monkeypatch.setattr(reduction, "omega_d_degenerate_block", _planted("pairing", math.inf))
    assert main(["verify", "--n", "2", "--rho2", "0.5", "--samples", "2"]) == 1

    rep = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    check = {c["name"]: c for c in rep["checks"]}["restricted_norm"]
    assert check["max_residual"] is None and check["pass"] is False
    assert all(c["pass"] for c in rep["checks"] if c is not check)


@pytest.mark.parametrize("n", [7, 8])
def test_polytope_report_simplex_past_general_sd_limit(tmp_path, n):
    rc, text = run(tmp_path, "polytope-report", "--n", str(n))
    assert rc == 0
    rep = json.loads(text)
    assert all(c["pass"] for c in rep["identity_checks"])
    assert rep["self_dual"]["holds"] is True
    order = (n + 1) ** n
    assert rep["self_dual"]["diagnostic"].endswith(f"(kernel order {order})")
    check = {c["name"]: c for c in rep["identity_checks"]}
    assert check["composite_kernel_order"]["detail"] == f"kernel order {order}, expected {order}"


def test_limit_complex_runs_past_the_polytope_report_cap(tmp_path, capsys):
    # the sweeps read only the lattice maps, which hold at any n; the cap
    # n <= 8 belongs to polytope-report's exhaustive facet search
    rc, text = run(tmp_path, "limit-complex", "--n", "9", "--rho2", "3", "--samples", "30",
                   "--grid", "0.01:1:3")
    assert rc == 0
    assert [row["n"] for row in rows_of(text)] == ["9"] * 3
    assert main(["polytope-report", "--n", "9"]) == 2
    assert capsys.readouterr().err == "invalid configuration: n must be in 1..8\n"


def test_module_entry_point_runs_without_warnings():
    env = dict(os.environ, PYTHONPATH=str(Path(wsdlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "wsdlab.cli", "polytope-report", "--n", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["n"] == 1


def _fresh_process(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(wsdlab.__file__).parents[1]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=60)


def test_repeated_main_calls_build_the_parser_once(monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(tmp_path, "polytope-report", "--n", "1")[0] == 0
    first = list(built)
    assert first.count("wsdlab") == 1
    for argv in (["polytope-report", "--n", "2"], ["boundary", "--n", "2", "--samples", "4",
                                                   "--grid", "0.1:1:2"]):
        assert run(tmp_path, *argv)[0] == 0
    with pytest.raises(SystemExit):
        main(["polytope-report", "--n", "x"])
    assert built == first


IMPORT_BUILDS_SCRIPT = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import wsdlab.cli
print(len(built))
"""


def test_import_builds_no_parser():
    # the benchmark's setup_s times this import, so the parser waits for main()
    proc = _fresh_process("-W", "error", "-c", IMPORT_BUILDS_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


@pytest.mark.parametrize("argv,option,given,default", [
    (["verify", "--n", "2", "--rho2", "0.5", "--samples", "4"], "--tol", "1e-3", 1e-8),
    (["boundary", "--n", "2", "--samples", "4", "--grid", "0.1:1:2", "--format", "json"],
     "--rho1", "2", 1.0),
], ids=["verify-tol", "boundary-rho1"])
def test_an_option_given_once_does_not_stay_for_the_next_call(tmp_path, argv, option, given,
                                                              default):
    name = option.lstrip("-")
    rc, text = run(tmp_path, *argv, option, given)
    assert (rc, json.loads(text)["config"][name]) == (0, float(given))
    rc, text = run(tmp_path, *argv)
    assert (rc, json.loads(text)["config"][name]) == (0, default)


def test_a_rejected_argv_leaves_the_next_call_as_in_a_fresh_process(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps at the same width
    good = ["verify", "--n", "2", "--rho2", "0.5", "--samples", "4"]
    bad = ["verify", "--n", "0", "--rho2", "0.5"]
    fresh_good = _fresh_process("-m", "wsdlab.cli", *good)
    fresh_bad = _fresh_process("-m", "wsdlab.cli", *bad)
    assert (fresh_good.returncode, fresh_good.stderr) == (0, "")
    assert fresh_bad.returncode == 2
    assert fresh_bad.stderr.endswith("wsdlab: error: --n must be >= 1, got 0\n")

    assert main(good) == 0
    assert capsys.readouterr() == (fresh_good.stdout, "")
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", fresh_bad.stderr)
    assert main(good) == 0
    assert capsys.readouterr() == (fresh_good.stdout, "")


# run in a fresh interpreter with warnings as errors: the watched modules
# loaded after importing the exact layer, then the CLI, then after each argv
IMPORT_GRAPH_SCRIPT = """
import contextlib, io, json, sys

WATCHED = ["dataclasses", "inspect", "numpy", "scipy", "wsdlab.ambient", "wsdlab.maps",
           "wsdlab.metgeo", "wsdlab.params", "wsdlab.reduction"]

def loaded():
    return [m for m in WATCHED if m in sys.modules]

import wsdlab.polytope
report = {"after_polytope": loaded()}
import wsdlab.cli
report["after_cli"] = loaded()
report["runs"] = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = wsdlab.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    report["runs"].append({"rc": rc, "err": err.getvalue(), "loaded": loaded()})
print(json.dumps(report))
"""


def test_no_command_imports_scipy():
    # imports are most of a cold start: the exact layer, --help and a rejected
    # argv load no numpy and no numeric layer, limit-kahler, whose columns
    # are facts of the parameters, loads params alone, and no command loads
    # scipy (limit-complex's limit bracket is closed form, no graph search).
    # Every record is a named tuple, so no argv loads dataclasses; the
    # numpy-free argvs load no inspect either, and numpy loads it.  The
    # numeric layers' first import happens inside a command, within the
    # CLI's np.errstate(raise), and may neither warn nor raise there
    exact = [["polytope-report", "--n", "2"], ["--help"], ["verify", "--n", "2"],
             ["verify", "--n", "2", "--rho2", "0.5", "--samples", "0"]]
    numeric = [
        ["limit-kahler", "--n", "2", "--rho2", "0.6", "--grid", "1:10:2", "--samples", "6"],
        ["verify", "--n", "2", "--rho2", "0.5", "--samples", "4"],
        ["boundary", "--side", "all", "--n", "2", "--grid", "0.1:1:2", "--samples", "4"],
        ["limit-complex", "--n", "2", "--rho2", "0.6", "--grid", "0.1:1:2", "--samples", "12"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(wsdlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", IMPORT_GRAPH_SCRIPT, json.dumps(exact + numeric)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["after_polytope"] == report["after_cli"] == []
    runs = report["runs"]
    assert [(r["rc"], r["loaded"]) for r in runs[:len(exact)]] == [(0, []), (0, []), (2, []),
                                                                     (2, [])]
    with_numpy = ["inspect", "numpy"]
    layers = with_numpy + ["wsdlab.ambient", "wsdlab.maps", "wsdlab.metgeo", "wsdlab.params",
                           "wsdlab.reduction"]
    # a run keeps what the runs before it loaded: limit-kahler after verify
    # adds nothing, so it runs first here on its own
    assert [(r["rc"], r["err"], r["loaded"]) for r in runs[len(exact):]] == [
        (0, "", ["wsdlab.params"]),
        (0, "", with_numpy + ["wsdlab.ambient", "wsdlab.params", "wsdlab.reduction"]),
        (0, "", with_numpy + ["wsdlab.ambient", "wsdlab.metgeo", "wsdlab.params",
                              "wsdlab.reduction"]),
        (0, "", layers),
    ]


def test_package_loads_its_layers_on_first_access():
    # wsdlab binds its layers lazily: each name is the module the import
    # system loads, `import *` binds all of __all__ without a warning, and a
    # name that is no layer stays an AttributeError
    script = """
import importlib, json, sys
import wsdlab
names = {}
exec("from wsdlab import *", names)
print(json.dumps({
    "same": [getattr(wsdlab, m) is importlib.import_module("wsdlab." + m)
             for m in ("ambient", "maps", "metgeo", "params", "polytope", "reduction")],
    "unbound": [name for name in wsdlab.__all__ if name not in names],
    "cli": names["cli"] is sys.modules["wsdlab.cli"],
    "unknown": hasattr(wsdlab, "no_such_layer"),
}))
"""
    proc = _fresh_process("-W", "error", "-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"same": [True] * 6, "unbound": [], "cli": True,
                                       "unknown": False}
    with pytest.raises(AttributeError, match="no attribute 'no_such_layer'"):
        wsdlab.no_such_layer


@pytest.mark.parametrize("argv,per_sample", [
    (["verify", "--n", "3", "--rho2", "0.7"], 1),
    (["boundary", "--side", "all", "--n", "3", "--grid", "1e-4:1e-1:5"], 1),
    (["limit-complex", "--n", "2", "--rho2", "0.6", "--grid", "1e-3:1:3"], 2),
    (["limit-complex", "--n", "2", "--rho2", "0.6,0.7", "--grid", "1e-3:1:2"], 2),
    (["boundary", "--side", "all", "--n", "2"], 1),
])
def test_commands_draw_each_stream_once(monkeypatch, tmp_path, argv, per_sample):
    # a sample's random numbers depend on (seed, index) alone: a command derives
    # each stream key it needs once, whatever its grid and rho2 list, and
    # samples every level set from the same rows.  verify and boundary draw
    # the directions, limit-complex the torus rows too; limit-kahler draws
    # nothing (test_limit_kahler_draws_and_solves_nothing)
    built = []
    fresh = reduction._stream_keys

    def counted(seed, idx, *tag):
        built.extend((int(i), *tag) for i in idx)
        return fresh(seed, idx, *tag)

    monkeypatch.setattr(reduction, "_stream_keys", counted)
    # a key helper bound directly in metgeo would be counted too
    monkeypatch.setattr(metgeo, "_stream_keys", counted, raising=False)
    samples = 16
    rc, _ = run(tmp_path, *argv, "--samples", str(samples), "--seed", "4")
    assert rc == 0
    assert len(built) == len(set(built)) == per_sample * samples


@pytest.mark.parametrize("grid", ["0.1:1:2", "1e-3:1:5"])
@pytest.mark.parametrize("argv,rho2s", [
    (["limit-kahler", "--rho2", "0.6,0.7"], [0.6, 0.7]),
    (["limit-complex", "--rho2", "0.6,0.7"], [0.6, 0.7]),
], ids=["limit-kahler", "limit-complex"])
def test_sweeps_solve_each_shape_once_per_rho2(monkeypatch, tmp_path, argv, rho2s, grid):
    # the suprema and the limit bracket depend on (n, rho2) alone, and
    # limit-complex's radii at every grid point are rho1 times the one
    # rho1 = 1 shape, so each sweep takes the suprema (and limit-complex the
    # shape and the bracket) once per rho2, whatever the grid; limit-kahler
    # solves no shape
    calls = []

    def counting(name, fresh):
        def counted(*args):
            calls.append((name, args))
            return fresh(*args)
        return counted

    for module, name in ((reduction, "solve_base"), (params, "base_suprema"),
                         (metgeo, "degenerate_limit")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    rc, _ = run(tmp_path, *argv, "--n", "2", "--grid", grid, "--samples", "12")
    assert rc == 0
    complex_ = argv[0] == "limit-complex"
    assert [(args[0].rho1, args[0].rho2) for name, args in calls if name == "solve_base"] == \
        [(1.0, rho2) for rho2 in rho2s if complex_]
    assert [args for name, args in calls if name == "base_suprema"] == \
        [(2, rho2) for rho2 in rho2s]
    bracket = [args[2] for name, args in calls if name == "degenerate_limit"]
    assert bracket == (rho2s if complex_ else [])


# each CSV command's argv, run at two --samples and two --seed values;
# boundary passes --rho1, so that every echo column has an argv to repeat
KIND_ARGVS = {
    "limit-kahler": ["--n", "2", "--rho2", "0.55,0.7", "--grid", "1:1e3:3"],
    "limit-complex": ["--n", "2", "--rho2", "0.55,0.7", "--grid", "1e-3:1:3"],
    "boundary": ["--side", "all", "--n", "2", "--rho1", "2.5", "--grid", "1e-3:1e-1:3"],
}


def _echo_cells(name, argv):
    """The cells an echo column may print at `argv`: the version, or the
    repeated option, --grid for the sweeps' rho1 and boundary's param."""
    if name == "version":
        return {wsdlab.__version__}
    on_grid = name == "param" or (name == "rho1" and argv[0] != "boundary")
    option = "--grid" if on_grid else f"--{name}"
    if option not in argv:
        return set()
    text = argv[argv.index(option) + 1]
    values = cli._parse_grid(text) if option == "--grid" else text.split(",")
    return {text} | {cli._e(float(v)) for v in values}


def _kind_violations(runner, command, table):
    """Every way `command`'s CSV, run through `runner` (`run` without its
    tmp_path) at two --samples and two --seed values, contradicts the kinds
    of `table`: an echo cell that is not its argv, an exact column that
    differs between two runs, a sample column that never does, and a
    bracket pair with lower > upper."""
    runs = []
    for samples, seed in (("8", "0"), ("8", "5"), ("24", "0"), ("24", "5")):
        argv = [command, *KIND_ARGVS[command], "--samples", samples, "--seed", seed]
        rc, text = runner(*argv)
        assert rc == 0
        runs.append((argv, rows_of(text)))
    problems = []
    brackets = {name for name, kind, _ in table if kind == "bracket"}
    for name, kind, _ in table:
        cells = {tuple(row[name] for row in rows) for _, rows in runs}
        if kind == "echo" and any(row[name] not in _echo_cells(name, argv)
                                  for argv, rows in runs for row in rows):
            problems.append(f"{name}: an echo cell is not its argv")
        if kind == "exact" and len(cells) > 1:
            problems.append(f"{name}: an exact column reads the sample")
        if kind == "sample" and len(cells) == 1:
            problems.append(f"{name}: a sample column is the same in every run")
        stem = name.rpartition("_")[0]
        lower, upper = f"{stem}_lower", f"{stem}_upper"
        if kind == "bracket" and not {lower, upper} <= brackets:
            problems.append(f"{name}: a bracket column without its pair")
        elif kind == "bracket" and any(float(row[lower]) > float(row[upper])
                                       for _, rows in runs for row in rows):
            problems.append(f"{name}: lower > upper")
    return problems


@pytest.mark.parametrize("command", list(cli.COLUMNS))
def test_every_column_reads_what_its_kind_says(tmp_path, command):
    # the kinds in cli.COLUMNS are the one statement of what each printed
    # column reads; every one of them holds at two seeds and two sizes
    assert _kind_violations(functools.partial(run, tmp_path), command,
                            cli.COLUMNS[command]) == []


def _sampled_suprema(monkeypatch, tmp_path):
    """A mutant runner whose sweep takes its fiber suprema back from the
    sample its argv would draw, the largest fiber over it."""
    exact = params.base_suprema
    drawn = {}

    def sampled(n, rho2):
        shape = sample_base(LevelSetSpec(n, 1.0, rho2), *drawn["argv"])
        return exact(n, rho2)._replace(
            pi1_fiber=float(np.max(metgeo.pi1_fiber_diameters(shape))),
            pi2_fiber=float(np.max(pi2_fiber_diameters(shape))))

    def recording(*argv):
        drawn["argv"] = int(argv[argv.index("--samples") + 1]), int(argv[argv.index("--seed") + 1])
        return run(tmp_path, *argv)

    monkeypatch.setattr(params, "base_suprema", sampled)
    return recording


@pytest.mark.parametrize("command,relabel,wrong", [
    ("limit-kahler", None, "fiber_diam_max: an exact column reads the sample"),
    ("limit-complex", None, "fiber_diam_max: an exact column reads the sample"),
    ("boundary", ("base_diam", "exact"), "base_diam: an exact column reads the sample"),
    ("limit-complex", ("hausdorff_quotient", "sample"),
     "hausdorff_quotient: a sample column is the same in every run"),
    ("limit-complex", ("pi2_residual_max", "echo"),
     "pi2_residual_max: an echo cell is not its argv"),
])
def test_kind_check_fails_on_a_wrong_label(monkeypatch, tmp_path, command, relabel, wrong):
    # negative controls, a wrong label in each direction: the sweeps with
    # their fiber suprema taken back from the sample (an exact column that
    # reads it), and a table that labels a sampled column exact, an exact
    # one sample, or a sampled one echo
    table = cli.COLUMNS[command]
    if relabel:
        runner = functools.partial(run, tmp_path)
        table = tuple((n, relabel[1] if n == relabel[0] else k, d) for n, k, d in table)
    else:
        runner = _sampled_suprema(monkeypatch, tmp_path)
    assert wrong in _kind_violations(runner, command, table)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_column_lists():
    """{command: [(name, kind), ..]} from the README's "Columns of `command`:"
    tables, one `| `name` | kind | doc |` row per column."""
    lists, current = {}, None
    for line in README.read_text(encoding="utf-8").splitlines():
        head = re.fullmatch(r"Columns of `([a-z-]+)`:", line)
        row = re.match(r"\| `(\w+)` \| (\w+) \|", line)
        if head:
            current = lists.setdefault(head[1], [])
        elif row and current is not None:
            current.append((row[1], row[2]))
        elif line and not line.startswith("|"):
            current = None
    return lists


def test_readme_column_lists_match_the_tables():
    assert _readme_column_lists() == {
        command: [(name, kind) for name, kind, _ in table]
        for command, table in cli.COLUMNS.items()}


@pytest.mark.parametrize("command", list(cli.COLUMNS))
def test_every_printed_column_has_one_table_entry(tmp_path, command):
    # the fieldnames the command prints, each once in its table with a doc
    # and one of the four kinds
    assert set(cli.KINDS) == {"echo", "exact", "bracket", "sample"}
    rc, text = run(tmp_path, command, *KIND_ARGVS[command], "--samples", "8")
    assert rc == 0
    table = cli.COLUMNS[command]
    for name in rows_of(text)[0]:
        (entry,) = [(kind, doc) for n, kind, doc in table if n == name]
        assert entry[0] in cli.KINDS and entry[1].strip()
    assert len(table) == len(rows_of(text)[0])


def test_limit_kahler_draws_and_solves_nothing(monkeypatch, tmp_path):
    # its columns are suprema over the base and the closed-form bound; it
    # echoes --samples and --seed and reads neither
    def refused(*args):
        raise AssertionError("limit-kahler drew or solved a sample")

    monkeypatch.setattr(reduction, "draw_directions", refused)
    monkeypatch.setattr(reduction, "solve_base", refused)
    rc, text = run(tmp_path, "limit-kahler", "--n", "3", "--rho2", "0.55,0.7", "--grid",
                   "1:1e3:7", "--samples", "60", "--seed", "9")
    assert rc == 0
    assert {(r["samples"], r["seed"]) for r in rows_of(text)} == {("60", "9")}


@pytest.mark.parametrize("argv", [
    ["limit-kahler", "--n", "3", "--rho2", "0.55,0.7", "--grid", "1:1e3:7"],
    ["limit-complex", "--n", "2", "--rho2", "0.6", "--grid", "1e-3:1:7"],
])
def test_sweeps_compute_no_covering_radius(monkeypatch, tmp_path, argv):
    # the fiber columns are the suprema base_suprema forms in closed form: no
    # grid point builds fiber weights or takes a covering radius over a sample
    def refused(*args):
        raise AssertionError("a sweep took a per-sample covering radius")

    monkeypatch.setattr(metgeo, "root_lattice_covering_radius", refused)
    monkeypatch.setattr(metgeo, "torus_metric_weights", refused)
    rc, _ = run(tmp_path, *argv, "--samples", "24")
    assert rc == 0


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "3", "--rho2", "0.5"],
    ["limit-kahler", "--n", "3", "--rho2", "0.55,0.7", "--grid", "1:1e3:3"],
    ["limit-complex", "--n", "2", "--rho2", "0.6", "--grid", "1e-3:1:3"],
    ["boundary", "--side", "all", "--n", "3"],
])
def test_sweeps_and_probes_build_no_point_objects(monkeypatch, tmp_path, argv):
    # samples go through the checks, the projections and the metric weights
    # as arrays
    built = []
    def counted(cls, *fields, new=maps.CPnPoint.__new__):
        built.append(cls.__name__)
        return new(cls, *fields)
    monkeypatch.setattr(maps.CPnPoint, "__new__", counted)
    rc, _ = run(tmp_path, *argv, "--samples", "12")
    assert rc == 0
    assert built == []


def _limit_complex_oracle(n, rho2s, grid_text, samples, seed):
    """limit-complex's CSV with every grid point computed whole: its fiber
    column rho1 times a 50-digit search of the pi2 supremum over the base,
    the projection of the log-shape, hausdorff_quotient from a 50-digit
    mpmath root, and the normalized-GH interval from the
    limit bracket pair by pair at that rho1, without the per-sample
    eccentricities and the units of max(1, rho1^2) the command reads.  None
    where that computation fails."""
    grid = cli._parse_grid(grid_text)[::-1]
    directions = draw_directions(n, samples, seed)
    torus_t = draw_torus(n, samples, seed)[:, n:]
    rows = []
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for rho2 in rho2s:
                for rho1 in grid:
                    rows.append(_oracle_row(n, rho1, rho2, directions, torus_t, samples, seed))
    except (ArithmeticError, ValueError):
        return None
    config = {"n": n, "rho2": list(rho2s), "grid": grid_text,
              "samples": samples, "seed": seed}
    return _table_csv("limit-complex", rows, config)


def _table_csv(command, rows, config):
    """The CSV `command` prints for `rows`, dicts keyed by column name, each
    put in the order of the command's table."""
    order = [name for name, _, _ in cli.COLUMNS[command]]
    return cli._sweep_text("csv", command, [tuple(row[c] for c in order) for row in rows], config)


def _normal(value):
    """value, or ArithmeticError where it leaves the normal doubles."""
    if not sys.float_info.min <= value < math.inf:
        raise ArithmeticError(f"{value} is no normal double")
    return value


def _oracle_row(n, rho1, rho2, directions, torus_t, samples, seed):
    fiber = _normal(float(rho1 * fiber_suprema_mp(n, rho2)[1]))
    # the shape r / rho1 is that of the rho1 = 1 level set
    shape = solve_base(LevelSetSpec(n, 1.0, rho2), directions)
    w = maps.project_pi2(log_shape(shape), torus_t)
    res = float(np.max(maps.pi2_image_residual(w)))
    h_quot = rho2 * float(divisor_offsets_mp(n, rho2)[1])
    # rho1 d_g in [a_lo, a_hi] and d_F in [f_lo, f_hi] per pair; the
    # pairing's distortion is at most rho1^2 tau
    tau = metgeo.degenerate_limit(shape, torus_t, rho2).tau
    f_lo, f_hi, _ = gathered_pair_bounds(torus_t, rho2)
    chord = np.linalg.norm(shape[:, None] - shape[None], axis=-1) / rho2
    a_lo, a_hi = np.maximum(f_lo, rho1**2 * chord), f_hi + rho1**2 * tau
    upper = min(1.0, rho1**2 * tau / (np.max(a_lo) + np.max(f_lo)))
    x_lo, x_hi = np.max(a_lo, axis=1), np.max(a_hi, axis=1)
    y_lo, y_hi = np.max(f_lo, axis=1), np.max(f_hi, axis=1)
    gap = np.maximum(np.maximum(x_lo[:, None] - y_hi[None], y_lo[None] - x_hi[:, None]), 0.0)
    lower = cross_hausdorff(gap) / (np.max(a_hi) + np.max(f_hi))
    return {
        "n": n, "rho1": cli._e(rho1), "rho2": cli._e(rho2),
        "samples": samples, "seed": seed, "version": wsdlab.__version__,
        "fiber_diam_max": cli._e(fiber), "c_witness": cli._e(fiber / rho1),
        "pi2_residual_max": cli._e(res), "hausdorff_quotient": cli._e(h_quot),
        "degenerate_ngh_lower": cli._e(lower), "degenerate_ngh_upper": cli._e(upper),
    }


# the columns the command takes from per-rho2 values: the two ngh columns
# read per-sample eccentricities in units of max(1, rho1^2), which round
# otherwise than the pairwise bracket at rho1 and can move the last printed
# digit by one.  The oracle's hausdorff_quotient and fiber supremum are
# 50-digit values rounded once, the command's double-precision solves, which
# can also differ in the last digit, and c_witness with the fiber.  Every
# other column, pi2_residual_max included, matches byte for byte.
SHAPE_COLUMNS = ("degenerate_ngh_lower", "degenerate_ngh_upper", "hausdorff_quotient",
                 "fiber_diam_max", "c_witness")


def _last_digit(cell):
    """The value of one unit in the last digit of a `cli._e` cell."""
    return 10.0 ** (int(cell.split("e")[1]) - 12)


def _assert_matches_oracle(command, oracle, loose, n, rho2s, grid, samples, seed):
    """The command's stdout against its oracle's CSV: the same exit, every
    cell byte for byte but the `loose` columns, which match to one unit in
    the last printed digit."""
    argv = [command, "--n", str(n), "--rho2", ",".join(map(repr, rho2s)),
            "--grid", grid, "--samples", str(samples), "--seed", str(seed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    want = oracle(n, rho2s, grid, samples, seed)
    assert rc == (2 if want is None else 0)
    if want is None:
        return
    got, want = out.getvalue().splitlines(), want.splitlines()
    assert [ln for ln in got if ln.startswith("#")] == [ln for ln in want if ln.startswith("#")]
    got_rows, want_rows = rows_of("\n".join(got)), rows_of("\n".join(want))
    assert len(got_rows) == len(want_rows)
    for g, w in zip(got_rows, want_rows):
        assert {k: v for k, v in g.items() if k not in loose} == \
            {k: v for k, v in w.items() if k not in loose}
        for k in loose:
            assert abs(float(g[k]) - float(w[k])) <= 1.5 * _last_digit(w[k])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 4), samples=st.integers(24, 80), seed=st.integers(0, 10**6),
       excess=st.lists(st.floats(1.05, 2.2), min_size=1, max_size=2),
       grid=st.sampled_from(["1e-3:1:3", "1e-2:1e2:3", "0.3:3:2",
                             "1e-150:1e-149:2", "1e100:1e120:2", "1e-150:1e100:4"]))
def test_limit_complex_matches_per_point_oracle(n, samples, seed, excess, grid):
    # the rho1-free half and the limit bracket built once per rho2 give the
    # per-point rows: every column byte for byte but the two ngh columns and
    # the suprema, which match to one unit in the last digit
    rho2s = [feasibility_threshold(n) * x for x in excess]
    _assert_matches_oracle("limit-complex", _limit_complex_oracle, SHAPE_COLUMNS,
                           n, rho2s, grid, samples, seed)


@pytest.mark.parametrize("n,rho2,samples,seed", [
    (1, 4.3, 2, 1),
    (2, 4.289999999999998, 2, 123),
    (2, 4.299999999999998, 2, 116),
    (2, 4.309999999999998, 2, 59),
    (2, 4.299999999999998, 3, 123),
])
def test_limit_complex_deep_rho2_at_large_rho1_matches_oracle(n, rho2, samples, seed):
    # the smallest shape r_i / rho1 is near e^-360: at rho1 = 1e100..1e120
    # the command fails or prints where the per-point computation does (n = 1:
    # no limit bracket)
    _assert_matches_oracle("limit-complex", _limit_complex_oracle, SHAPE_COLUMNS,
                           n, [rho2], "1e100:1e120:2", samples, seed)


def _limit_kahler_oracle(n, rho2s, grid_text, samples, seed):
    """limit-kahler's CSV with every grid point computed at its own scale: the
    fiber column a 50-digit search of the pi1 supremum over the base, over
    rho1, and the image offset rho1 times the arcsine of a 50-digit mpmath
    root.  None where a printed value leaves the normal doubles."""
    grid = cli._parse_grid(grid_text)
    rows = []
    try:
        for rho2 in rho2s:
            for rho1 in grid:
                bound = params.pi1_fiber_bound(LevelSetSpec(n, rho1, rho2))
                fiber = _normal(float(fiber_suprema_mp(n, rho2)[0] / rho1))
                h_img = _normal(float(rho1 * divisor_offsets_mp(n, rho2)[0]))
                h_tot = h_img + fiber
                rows.append({
                    "n": n, "rho1": cli._e(rho1), "rho2": cli._e(rho2),
                    "samples": samples, "seed": seed, "version": wsdlab.__version__,
                    "fiber_diam_max": cli._e(fiber), "fiber_bound": cli._e(bound),
                    "fiber_ratio": cli._e(fiber / bound),
                    "hausdorff_image": cli._e(h_img), "hausdorff_total": cli._e(h_tot),
                    "hausdorff_norm": cli._e(_normal(h_tot / (math.pi * rho1 / 2.0))),
                })
    except ArithmeticError:
        return None
    config = {"n": n, "rho2": list(rho2s), "grid": grid_text,
              "samples": samples, "seed": seed}
    return _table_csv("limit-kahler", rows, config)


# the columns limit-kahler takes from the unit-scale suprema: the command's
# double-precision solve times rho1 (or over it) and the oracle's 50-digit
# value rounded once can differ in the last bits, which can move the last
# printed digit by one
HAUSDORFF_COLUMNS = ("hausdorff_image", "hausdorff_total", "hausdorff_norm",
                     "fiber_diam_max", "fiber_ratio")


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), samples=st.integers(2, 40), seed=st.integers(0, 10**6),
       excess=st.lists(st.floats(1.05, 2.2), min_size=1, max_size=2),
       grid=st.sampled_from(["1e-3:1:3", "0.05:3:4", "0.3:50:5", "2:7:2", "1e-2:1e2:3",
                             "1e-150:1e-149:2", "1e100:1e120:2"]))
def test_limit_kahler_matches_per_point_oracle(n, samples, seed, excess, grid):
    # the suprema taken once per rho2 at unit scale and scaled by rho1 give
    # the per-point rows: every column byte for byte but the fiber and
    # Hausdorff columns, which match to one unit in the last digit
    rho2s = [feasibility_threshold(n) * x for x in excess]
    _assert_matches_oracle("limit-kahler", _limit_kahler_oracle, HAUSDORFF_COLUMNS,
                           n, rho2s, grid, samples, seed)
