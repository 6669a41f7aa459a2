"""Correctness checks on `wsdlab` CLI output, from the README's acceptance gates.

`check` returns the list of broken invariants of one invocation; an empty list
means the invocation passed. Output that does not parse is a failure too.
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict

import numpy as np


def _csv_rows(text: str) -> list[dict]:
    body = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("#"))
    rows = list(csv.DictReader(io.StringIO(body)))
    if not rows:
        raise ValueError("no CSV rows")
    return rows


def _by_rho2(rows: list[dict]) -> dict[float, list[dict]]:
    groups = defaultdict(list)
    for row in rows:
        groups[float(row["rho2"])].append(row)
    return groups


def _verify(text: str) -> list[str]:
    checks = json.loads(text)["checks"]
    if not checks:
        raise ValueError("no checks reported")
    return [f"verify check {c['name']} failed" for c in checks if c["pass"] is not True]


def _limit_kahler(text: str) -> list[str]:
    problems = []
    for rho2, rows in _by_rho2(_csv_rows(text)).items():
        ratio = max(float(r["fiber_ratio"]) for r in rows)
        if not ratio <= 1.0 + 1e-6:
            problems.append(f"fiber_ratio {ratio:.6g} > 1+1e-6 at rho2={rho2}")
        norm = [float(r["hausdorff_norm"]) for r in rows]
        if not all(a > b for a, b in zip(norm, norm[1:])):
            problems.append(f"hausdorff_norm not strictly decreasing at rho2={rho2}")
    return problems


def _limit_complex(text: str) -> list[str]:
    problems = []
    for rho2, rows in _by_rho2(_csv_rows(text)).items():
        res = max(float(r["pi2_residual_max"]) for r in rows)
        if not res < 1e-9:
            problems.append(f"pi2_residual_max {res:.3g} >= 1e-9 at rho2={rho2}")
        if not all(float(r["degenerate_ngh_lower"]) <= float(r["degenerate_ngh_upper"])
                   for r in rows):
            problems.append(f"degenerate_ngh_lower > upper at rho2={rho2}")
        cw = [float(r["c_witness"]) for r in rows]
        spread = max(cw) / min(cw) - 1.0
        if not spread < 0.2:
            problems.append(f"c_witness varies by {spread:.3f} >= 0.2 at rho2={rho2}")
    return problems


def _pinch_slope(rows: list[dict]) -> float:
    """Fitted exponent of base diameter against the side-T threshold excess."""
    side_t = [r for r in rows if r["side"] == "T"]
    if len(side_t) < 2:
        raise ValueError("fewer than two side-T rows")
    return float(np.polyfit(np.log([float(r["param"]) for r in side_t]),
                            np.log([float(r["base_diam"]) for r in side_t]), 1)[0])


def _boundary(text: str) -> list[str]:
    slope = _pinch_slope(_csv_rows(text))
    return [] if abs(slope - 0.5) <= 0.1 else [f"pinch slope {slope:.3f} not 0.5 +- 0.1"]


def _polytope_report(text: str) -> list[str]:
    report = json.loads(text)
    problems = [f"identity {c['name']} failed" for c in report["identity_checks"]
                if c["pass"] is not True]
    if report["self_dual"]["holds"] is not True:
        problems.append("self_dual.holds is not true")
    return problems


CHECKS = {
    "verify": _verify,
    "limit-kahler": _limit_kahler,
    "limit-complex": _limit_complex,
    "boundary": _boundary,
    "polytope-report": _polytope_report,
}


def check(argv: list[str], rc: int, text: str) -> list[str]:
    """Broken invariants of one invocation `argv` that exited `rc` printing `text`."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        problems += CHECKS[argv[0]](text)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unparsable output: {exc!r}")
    return problems


def ngh_widths(text: str) -> list[float]:
    """`degenerate_ngh_upper - degenerate_ngh_lower` of each limit-complex row."""
    return [float(r["degenerate_ngh_upper"]) - float(r["degenerate_ngh_lower"])
            for r in _csv_rows(text)]
