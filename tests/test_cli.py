import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wsdlab
from wsdlab.cli import main


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
    assert names == ["wsd_axioms", "aij_consistency", "restricted_norm",
                     "leaf_volume", "exterior_derivative"]
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


def test_verify_tight_tolerance_fails(tmp_path):
    rc, text = run(tmp_path, "verify", "--n", "2", "--rho2", "0.5",
                   "--samples", "5", "--tol", "1e-18")
    assert rc == 1
    rep = json.loads(text)
    assert not rep["checks"][0]["pass"]


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


def test_boundary_torus_ratio_scaling(tmp_path):
    rc, text = run(tmp_path, "boundary", "--n", "2", "--side", "B",
                   "--grid", "0.5:1:2", "--samples", "10", "--rho2", "0.6")
    assert rc == 0
    rows = rows_of(text)
    r1 = {float(r["param"]): float(r["theta_eta_ratio"]) for r in rows}
    assert r1[0.5] / r1[1.0] == pytest.approx(1.0 / 16.0, rel=1e-6)


def test_boundary_shape_invariance(tmp_path):
    rc, text = run(tmp_path, "boundary", "--n", "2", "--side", "A",
                   "--grid", "1:1e3:4", "--samples", "12", "--rho2", "0.6")
    assert rc == 0
    rows = rows_of(text)
    assert len({r["shape_sum_min"] for r in rows}) == 1
    assert len({r["shape_sum_max"] for r in rows}) == 1
    sums = float(rows[0]["shape_sum_min"])
    assert 1.0 <= sums <= math.sqrt(3.0)


def test_boundary_all_sides(tmp_path):
    rc, text = run(tmp_path, "boundary", "--n", "2", "--samples", "8")
    assert rc == 0
    assert {r["side"] for r in rows_of(text)} == {"T", "B", "A"}


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
    ["boundary", "--n", "2", "--side", "B", "--rho2=-inf", "--samples", "4"],
    ["limit-kahler", "--n", "2", "--rho2", "0.6,nan", "--grid", "1:10:2", "--samples", "4"],
    ["limit-complex", "--n", "2", "--rho2", "0.6", "--grid", "1e-3:inf:2", "--samples", "4"],
    ["limit-kahler", "--n", "2", "--rho2", "0.6", "--grid", "1:10:2", "--samples", "1"],
    ["limit-complex", "--n", "2", "--rho2", "0.6", "--grid", "0.1:1:2", "--samples", "1"],
], ids=["verify-samples-0", "kahler-samples-0", "rho2-nan", "rho2-inf", "rho1-nan",
        "tol-inf", "boundary-rho2-neg-inf", "rho2-list-nan", "grid-inf", "kahler-samples-1",
        "complex-samples-1"])
def test_rejects_unusable_input_with_one_line(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid configuration: ") and err.count("\n") == 1


def test_sampler_failure_exits_2_with_one_line(capsys):
    # feasible, but the base radii underflow to 0 in double precision
    assert main(["verify", "--n", "2", "--rho2", "30", "--samples", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("n,rho2", [(2, "1.3"), (3, "1.2")])
def test_deep_rho2_fiber_degeneracy_exits_2_with_one_line(n, rho2, capsys):
    # regular level sets whose fiber Gram matrix is numerically singular
    argv = ["limit-kahler", "--n", str(n), "--rho2", rho2, "--grid", "1:10:2",
            "--samples", "12"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


DEEP_COMMANDS = {
    "verify": ["verify", "--samples", "3"],
    "limit-kahler": ["limit-kahler", "--grid", "1:10:2", "--samples", "6"],
    "limit-complex": ["limit-complex", "--grid", "0.1:1:2", "--samples", "16"],
    "boundary": ["boundary", "--side", "all", "--grid", "0.1:1:2", "--samples", "4"],
}


@pytest.mark.parametrize("rho2", ["2.5", "5", "8", "30"])
@pytest.mark.parametrize("n", [2, 3])
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


def test_verify_non_finite_residual_is_strict_json(monkeypatch, capsys):
    monkeypatch.setattr("wsdlab.cli.exterior_derivative_residual",
                        lambda form, point: math.inf)
    assert main(["verify", "--n", "2", "--rho2", "0.5", "--samples", "2"]) == 1

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    rep = json.loads(capsys.readouterr().out, parse_constant=reject)
    check = {c["name"]: c for c in rep["checks"]}["exterior_derivative"]
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


def test_module_entry_point_runs_without_warnings():
    env = dict(os.environ, PYTHONPATH=str(Path(wsdlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "wsdlab.cli", "polytope-report", "--n", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["n"] == 1
