"""Experiment harness: axiom verification runs, limit sweeps, boundary probes,
and exact polytope reports, emitted as deterministic CSV or JSON.

Exit codes: 0 all checks pass, 1 a check failed, 2 infeasible or invalid
configuration, or a numerical failure (a solver gave up, a float overflowed
or went nan, or the sampled radii underflowed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .ambient import (FOUR_PI2, ambient_tensors_at, exterior_derivative_residual,
                      feasibility_threshold, leaf_volume)
from .maps import alpha_deform, pi2_image_residual, project_pi1, project_pi2
from .metgeo import (FiniteMetricSample, anticanonical_sample, flat_torus_diameter,
                     fs_matrix, hausdorff_from_cross, hn_matrix, ngh_distance,
                     pi1_fiber_bound, pi1_fiber_torus, pi2_fiber_torus,
                     riemannian_knn_distances)
from .polytope import (has_property_sd, kernel_data, lattice_maps, simplex_pair,
                       verify_duality_identities)
from .reduction import (LevelSetSpec, feasibility, induced_structure_at,
                        omega_d_degenerate_block, sample_base, sample_points,
                        verify_wsd_axioms)


def _e(x) -> str:
    return f"{float(x):.12e}"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(comments: list[str], fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    w = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    w.writeheader()
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _sweep_text(fmt: str, comments: list[str], fieldnames: list[str],
                rows: list[dict], config: dict) -> str:
    if fmt == "json":
        return json.dumps({"config": config, "rows": rows,
                           "version": __version__}, indent=2) + "\n"
    return _csv_text(comments, fieldnames, rows)


def _parse_grid(text: str) -> np.ndarray:
    """lo:hi:count, logarithmically spaced."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be lo:hi:count, got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1 or not (0 < lo < math.inf and 0 < hi < math.inf):
        raise ValueError("grid endpoints must be positive and finite, and count >= 1")
    return np.geomspace(lo, hi, count)


def _parse_list(text: str) -> list[float]:
    vals = [float(tok) for tok in text.split(",") if tok]
    if not vals:
        raise ValueError("empty value list")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"values must be finite, got {text!r}")
    return vals


# a limit sweep compares sample sets by distances between their points
_MIN_SAMPLES = {"limit-kahler": 2, "limit-complex": 2}


def _check_scalars(args) -> None:
    """Reject the scalar options no command can run on."""
    least = _MIN_SAMPLES.get(args.command, 1)
    if getattr(args, "samples", least) < least:
        raise ValueError(f"--samples must be >= {least} for {args.command}, "
                         f"got {args.samples}")
    for name in ("rho1", "rho2", "tol"):
        val = getattr(args, name, None)
        if isinstance(val, float) and not math.isfinite(val):
            raise ValueError(f"--{name} must be finite, got {val}")


def _regular_or_die(spec: LevelSetSpec) -> int | None:
    cls = feasibility(spec)
    if cls != "regular":
        print(f"empty level set: n={spec.n} rho2={spec.rho2:.6g} classified "
              f"{cls!r} (threshold {feasibility_threshold(spec.n):.6g})",
              file=sys.stderr)
        return 2
    return None


# -- verify ---------------------------------------------------------------

def _check(name: str, residual: float, tol: float, ok: bool = True) -> dict:
    """One report entry; a non-finite residual is written as null and fails,
    so the report stays strict JSON."""
    finite = math.isfinite(residual)
    return {"name": name, "max_residual": float(_e(residual)) if finite else None,
            "tol": tol, "pass": bool(ok and finite and residual < tol)}


def cmd_verify(args) -> int:
    spec = LevelSetSpec.from_rho(args.n, args.rho1, args.rho2)
    rc = _regular_or_die(spec)
    if rc is not None:
        return rc
    points = sample_points(spec, args.samples, args.seed)

    ax_res, ax_ok = 0.0, True
    aij_res = norm_res = leaf_res = fd_res = 0.0
    for p in points:
        rep = verify_wsd_axioms(induced_structure_at(p, seed=args.seed), tol=args.tol)
        ax_res = max(ax_res, rep.worst[1])
        ax_ok = ax_ok and rep.passed
        blk = omega_d_degenerate_block(p)
        aij_res = max(aij_res, max(
            abs(a - b) / max(1.0, abs(b))
            for a, b in zip(blk.a_solve, blk.a_closed)))
        norm_res = max(norm_res, abs(blk.restricted_norm - blk.restricted_norm_closed)
                       / max(1.0, abs(blk.restricted_norm_closed)))
        amb = p.ambient_point()
        leaf_res = max(leaf_res, abs(leaf_volume(amb) - 1.0))
        fd_res = max(fd_res, *(exterior_derivative_residual(f, amb)
                               for f in ("omega1", "omega2", "omegaD")))

    checks = [
        _check("wsd_axioms", ax_res, args.tol, ax_ok),
        _check("aij_consistency", aij_res, 1e-10),
        _check("restricted_norm", norm_res, 1e-9),
        _check("leaf_volume", leaf_res, 1e-10),
        _check("exterior_derivative", fd_res, 1e-6),
    ]
    report = {
        "config": {"n": args.n, "rho1": args.rho1, "rho2": args.rho2,
                   "k1": spec.k1, "k2": spec.k2, "samples": args.samples,
                   "seed": args.seed, "tol": args.tol},
        "checks": checks,
        "version": __version__,
    }
    _emit(json.dumps(report, indent=2, allow_nan=False) + "\n", args.out)
    return 0 if all(c["pass"] for c in checks) else 1


# -- limit sweeps -----------------------------------------------------------

KAHLER_FIELDS = ["n", "rho1", "rho2", "samples", "seed", "version",
                 "fiber_diam_max", "fiber_bound", "fiber_ratio",
                 "hausdorff_image", "hausdorff_total", "hausdorff_norm"]

KAHLER_DOC = [
    "fiber_diam_max: max exact first-projection fiber diameter over sampled points",
    "fiber_bound: pi n^{-(n-1)/2} e^{2 pi^2 rho2^2} / rho1",
    "fiber_ratio: fiber_diam_max / fiber_bound",
    "hausdorff_image: scaled projective Hausdorff distance, projected sample vs hyperplane-union sample",
    "hausdorff_total: hausdorff_image + fiber_diam_max (total-space offset from the divisor)",
    "hausdorff_norm: hausdorff_total / (pi rho1 / 2), diameter-normalized",
]


def cmd_limit_kahler(args) -> int:
    rho2s = _parse_list(args.rho2)
    grid = np.sort(_parse_grid(args.grid))
    rows = []
    for rho2 in rho2s:
        rc = _regular_or_die(LevelSetSpec.from_rho(args.n, 1.0, rho2))
        if rc is not None:
            return rc
        for rho1 in grid:
            spec = LevelSetSpec.from_rho(args.n, float(rho1), rho2)
            pts = sample_points(spec, args.samples, args.seed)
            fiber = max(flat_torus_diameter(pi1_fiber_torus(p))
                        for p in pts)
            bound = pi1_fiber_bound(pts[0])
            z = np.array([project_pi1(p).z for p in pts])
            anti = anticanonical_sample(args.n, "cpn", spec.rho1**2,
                                        args.samples, args.seed)
            h_img = hausdorff_from_cross(fs_matrix(z, spec.rho1, anti.coords))
            h_tot = h_img + fiber
            rows.append({
                "n": args.n, "rho1": _e(rho1), "rho2": _e(rho2),
                "samples": args.samples, "seed": args.seed, "version": __version__,
                "fiber_diam_max": _e(fiber), "fiber_bound": _e(bound),
                "fiber_ratio": _e(fiber / bound),
                "hausdorff_image": _e(h_img), "hausdorff_total": _e(h_tot),
                "hausdorff_norm": _e(h_tot / (math.pi * spec.rho1 / 2.0)),
            })
    config = {"n": args.n, "rho2": rho2s, "grid": args.grid,
              "samples": args.samples, "seed": args.seed}
    _emit(_sweep_text(args.format, KAHLER_DOC, KAHLER_FIELDS, rows, config), args.out)
    return 0


COMPLEX_FIELDS = ["n", "rho1", "rho2", "samples", "seed", "version",
                  "fiber_diam_max", "c_witness", "pi2_residual_max",
                  "hausdorff_quotient", "degenerate_ngh_lower", "degenerate_ngh_upper"]

COMPLEX_DOC = [
    "fiber_diam_max: max exact second-projection fiber diameter over sampled points",
    "c_witness: fiber_diam_max / rho1 (scaling constant witness)",
    "pi2_residual_max: worst image-equation residual of the projected sample",
    "hausdorff_quotient: quotient-distance Hausdorff, projected sample vs hyperplane-union sample",
    "degenerate_ngh_*: normalized-GH interval between the sample under the degenerate",
    "  radial-angular metric (graph geodesics) and its projection with quotient distances;",
    "  the normalized comparison is the scale-free sense, so the interval stays finite",
]


def _degenerate_metric_at(n: int, rho1: float, rho2: float):
    f = np.array(lattice_maps(n).primal_t.matrix, dtype=float)

    def metric(x: np.ndarray) -> np.ndarray:
        r = x[:n + 1]
        gauss = np.exp(-FOUR_PI2 * rho2**2 * r**2)
        c_r = 16.0 * math.pi**4 * rho1**2 * rho2**2 * r**2 * gauss
        c_eta = 1.0 / (gauss * FOUR_PI2 * rho1**2 * rho2**2)
        g = np.zeros((2 * n + 1, 2 * n + 1))
        g[:n + 1, :n + 1] = np.diag(c_r)
        g[n + 1:, n + 1:] = f.T @ (c_eta[:, None] * f)
        return g

    return metric


def cmd_limit_complex(args) -> int:
    rho2s = _parse_list(args.rho2)
    grid = np.sort(_parse_grid(args.grid))[::-1]
    rows = []
    for rho2 in rho2s:
        rc = _regular_or_die(LevelSetSpec.from_rho(args.n, 1.0, rho2))
        if rc is not None:
            return rc
        anti = anticanonical_sample(args.n, "hn", rho2**2, args.samples, args.seed)
        for rho1 in grid:
            spec = LevelSetSpec.from_rho(args.n, float(rho1), rho2)
            pts = sample_points(spec, args.samples, args.seed)
            fiber = max(flat_torus_diameter(pi2_fiber_torus(p))
                        for p in pts)
            imgs = [project_pi2(p) for p in pts]
            res = max(pi2_image_residual(q) for q in imgs)
            w = np.array([q.z for q in imgs])
            h_quot = hausdorff_from_cross(hn_matrix(w, rho2, args.n, anti.coords))

            # the degenerate metric lives on the phi-domain chart, whose radial
            # variable is the Gaussian-profile preimage |z|/rho2, not base_r
            coords = np.array([np.concatenate([np.abs(q.z) / rho2, p.torus_t])
                               for p, q in zip(pts, imgs)])
            periodic = np.array([False] * (args.n + 1) + [True] * args.n)
            d_deg = riemannian_knn_distances(
                coords, _degenerate_metric_at(args.n, spec.rho1, rho2),
                k=12, periodic=periodic)
            if not np.all(np.isfinite(d_deg)):
                raise ValueError("degenerate-metric graph disconnected; raise --samples")
            a = FiniteMetricSample("degenerate_chart", coords, d_deg)
            b = FiniteMetricSample("hn_unit", w, hn_matrix(w, 1.0, args.n))
            ngh = ngh_distance(a, b)

            rows.append({
                "n": args.n, "rho1": _e(rho1), "rho2": _e(rho2),
                "samples": args.samples, "seed": args.seed, "version": __version__,
                "fiber_diam_max": _e(fiber), "c_witness": _e(fiber / spec.rho1),
                "pi2_residual_max": _e(res),
                "hausdorff_quotient": _e(h_quot),
                "degenerate_ngh_lower": _e(ngh.lower),
                "degenerate_ngh_upper": _e(ngh.upper),
            })
    config = {"n": args.n, "rho2": rho2s, "grid": args.grid,
              "samples": args.samples, "seed": args.seed}
    _emit(_sweep_text(args.format, COMPLEX_DOC, COMPLEX_FIELDS, rows, config), args.out)
    return 0


# -- boundary probes ---------------------------------------------------------

BOUNDARY_FIELDS = ["side", "n", "param", "rho1", "rho2", "samples", "seed",
                   "version", "base_diam", "base_diam_over_rho1",
                   "theta_eta_ratio", "shape_sum_min", "shape_sum_max"]

BOUNDARY_DOC = [
    "side T: param = relative excess of rho2^2 over the threshold; base sample pinches",
    "side B: param = rho1 descending; theta-block metric norms die against eta-block",
    "side A: param = deformation t; base shape distribution is t-invariant",
]

DEFAULT_GRIDS = {"T": "1e-4:1e-1:7", "B": "1e-3:1:7", "A": "1:1e3:7"}


def _base_diameter(base: np.ndarray) -> float:
    diff = base[:, None, :] - base[None, :, :]
    return float(np.max(np.sqrt(np.sum(diff * diff, axis=2))))


def cmd_boundary(args) -> int:
    sides = ["T", "B", "A"] if args.side == "all" else [args.side]
    rows = []
    for side in sides:
        grid = _parse_grid(args.grid) if args.grid else _parse_grid(DEFAULT_GRIDS[side])
        blank = {"base_diam": "", "base_diam_over_rho1": "",
                 "theta_eta_ratio": "", "shape_sum_min": "", "shape_sum_max": ""}
        if side == "T":
            thr2 = feasibility_threshold(args.n) ** 2
            for delta in np.sort(grid)[::-1]:
                rho2 = math.sqrt(thr2 * (1.0 + float(delta)))
                spec = LevelSetSpec.from_rho(args.n, args.rho1, rho2)
                base = sample_base(spec, args.samples, args.seed)
                diam = _base_diameter(base)
                row = dict(blank, side=side, n=args.n, param=_e(delta),
                           rho1=_e(args.rho1), rho2=_e(rho2),
                           samples=args.samples, seed=args.seed, version=__version__,
                           base_diam=_e(diam),
                           base_diam_over_rho1=_e(diam / args.rho1))
                rows.append(row)
        elif side == "B":
            spec0 = LevelSetSpec.from_rho(args.n, 1.0, args.rho2)
            rc = _regular_or_die(spec0)
            if rc is not None:
                return rc
            for rho1 in np.sort(grid)[::-1]:
                spec = LevelSetSpec.from_rho(args.n, float(rho1), args.rho2)
                ratio = 0.0
                for p in sample_points(spec, args.samples, args.seed):
                    g = ambient_tensors_at(p.ambient_point()).g
                    m = args.n + 1
                    theta_norm = np.linalg.norm(g[:m, :m])
                    eta_norm = np.linalg.norm(g[2 * m:, 2 * m:])
                    ratio = max(ratio, theta_norm / eta_norm)
                row = dict(blank, side=side, n=args.n, param=_e(rho1),
                           rho1=_e(rho1), rho2=_e(args.rho2),
                           samples=args.samples, seed=args.seed, version=__version__,
                           theta_eta_ratio=_e(ratio))
                rows.append(row)
        else:
            spec0 = LevelSetSpec.from_rho(args.n, args.rho1, args.rho2)
            rc = _regular_or_die(spec0)
            if rc is not None:
                return rc
            for t in np.sort(grid):
                spec = alpha_deform(spec0, float(t))
                base = sample_base(spec, args.samples, args.seed)
                sums = np.sum(base / spec.rho1, axis=1)
                row = dict(blank, side=side, n=args.n, param=_e(t),
                           rho1=_e(spec.rho1), rho2=_e(spec.rho2),
                           samples=args.samples, seed=args.seed, version=__version__,
                           shape_sum_min=_e(np.min(sums)),
                           shape_sum_max=_e(np.max(sums)))
                rows.append(row)
    config = {"n": args.n, "side": args.side, "grid": args.grid,
              "rho1": args.rho1, "rho2": args.rho2,
              "samples": args.samples, "seed": args.seed}
    _emit(_sweep_text(args.format, BOUNDARY_DOC, BOUNDARY_FIELDS, rows, config), args.out)
    return 0


# -- polytope report ----------------------------------------------------------

def _kernel_dict(m) -> dict:
    kd = kernel_data(m)
    return {"connected_rank": kd.connected_rank,
            "torsion_invariants": list(kd.torsion_invariants),
            "finite_part_order": kd.component_group_order,
            "order": kd.component_group_order if kd.is_finite else None}


def cmd_polytope_report(args) -> int:
    n = args.n
    p, d = simplex_pair(n)
    maps = lattice_maps(n)
    rep = verify_duality_identities(n)
    sd = has_property_sd(p)
    report = {
        "n": n,
        "vertices": {"primal": [list(v) for v in p.vertices],
                     "dual": [list(v) for v in d.vertices]},
        "matrices": {role: [list(r) for r in getattr(maps, role).matrix]
                     for role in ("primal", "dual", "primal_t", "dual_t")},
        "composite": [list(r) for r in rep.composite],
        "kernel": {"primal_map": _kernel_dict(maps.primal),
                   "dual_map": _kernel_dict(maps.dual)},
        "identity_checks": [{"name": name, "pass": ok, "detail": detail}
                            for name, ok, detail in rep.identities],
        "self_dual": {"holds": sd.holds, "diagnostic": sd.diagnostic},
        "version": __version__,
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if rep.passed and sd.holds else 1


# -- argument plumbing ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wsdlab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, samples=100):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--samples", type=int, default=samples)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    pv = sub.add_parser("verify", help="axiom verification run, JSON report")
    common(pv)
    pv.add_argument("--rho1", type=float, default=1.0)
    pv.add_argument("--rho2", type=float, required=True)
    pv.add_argument("--tol", type=float, default=1e-8)
    pv.set_defaults(fn=cmd_verify)

    pk = sub.add_parser("limit-kahler", help="first-projection limit sweep")
    common(pk, samples=60)
    pk.add_argument("--rho2", required=True, help="comma list of rho2 values")
    pk.add_argument("--grid", default="1:1e3:7", help="rho1 grid lo:hi:count (log)")
    pk.set_defaults(fn=cmd_limit_kahler)

    pc = sub.add_parser("limit-complex", help="second-projection limit sweep")
    common(pc, samples=60)
    pc.add_argument("--rho2", required=True, help="comma list of rho2 values")
    pc.add_argument("--grid", default="1e-3:1:7", help="rho1 grid lo:hi:count (log)")
    pc.set_defaults(fn=cmd_limit_complex)

    pb = sub.add_parser("boundary", help="deformation-square boundary probes")
    common(pb, samples=40)
    pb.add_argument("--side", choices=("T", "B", "A", "all"), default="all")
    pb.add_argument("--rho1", type=float, default=1.0)
    pb.add_argument("--rho2", type=float, default=0.6)
    pb.add_argument("--grid", default=None,
                    help="side-specific grid lo:hi:count (log); defaults per side")
    pb.set_defaults(fn=cmd_boundary)

    pp = sub.add_parser("polytope-report", help="exact lattice report, JSON")
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--out", default=None)
    pp.set_defaults(fn=cmd_polytope_report)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error(f"--n must be >= 1, got {args.n}")
    try:
        _check_scalars(args)
        # a float overflow, division by zero or nan is a numerical failure,
        # never a warning followed by a result computed from it
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.fn(args)
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
