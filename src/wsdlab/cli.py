"""Experiment harness: axiom verification runs, limit sweeps, boundary probes,
and exact polytope reports, emitted as deterministic CSV or JSON.

Exit codes: 0 all checks pass, 1 a check failed, 2 infeasible or invalid
configuration, or a numerical failure (a solver gave up, a float overflowed
or went nan, the sampled radii underflowed, or an array did not fit in memory).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

# the exact layer runs on ints; the other commands import params, and numpy
# with the numeric layers, in their own bodies, so `--help`, a rejected argv
# and polytope-report load none of them, and limit-kahler, whose columns are
# facts of the parameters, loads params alone (math and ints, no fractions)
from . import __version__
from .polytope import (has_property_sd, kernel_data, lattice_maps, simplex_pair,
                       verify_duality_identities)


def _e(x) -> str:
    return f"{float(x):.12e}"


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        # a path the command cannot write is a configuration error (exit 2),
        # not a traceback and exit 1, which would read as a failed check
        raise ValueError(f"cannot write --out {out!r}: {exc.strerror or exc}") from exc


def _sweep_text(fmt: str, command: str, rows: list[tuple], config: dict) -> str:
    """A CSV command's rows, each a tuple in the order of COLUMNS[command], as
    JSON objects or as CSV under the table's header."""
    header, names = _csv_layout(command)
    if fmt == "json":
        return json.dumps({"config": config, "rows": [dict(zip(names, row)) for row in rows],
                           "version": __version__}, indent=2) + "\n"
    buf = io.StringIO()
    buf.write(header)
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _parse_grid(text: str) -> list[float]:
    """lo:hi:count, logarithmically spaced, as a sorted list: the points
    10^(log10 lo + i step), step = (log10 hi - log10 lo) / (count - 1), with
    both endpoints exact (numpy's geomspace rounds the same sums)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be lo:hi:count, got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1 or not (0 < lo < math.inf and 0 < hi < math.inf):
        raise ValueError("grid endpoints must be positive and finite, and count >= 1")
    if count == 1:
        return [lo]
    a = math.log10(lo)
    step = (math.log10(hi) - a) / (count - 1)
    return sorted([lo, *(10.0 ** (a + i * step) for i in range(1, count - 1)), hi])


def _parse_list(text: str) -> list[float]:
    vals = [float(tok) for tok in text.split(",") if tok]
    if not vals:
        raise ValueError("empty value list")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"values must be finite, got {text!r}")
    return vals


# limit-complex compares sample sets by distances between their points;
# limit-kahler reads no sample, and keeps the same bounds on what it echoes
_MIN_SAMPLES = {"limit-kahler": 2, "limit-complex": 2}
# a sample's stream key holds its index in one 32-bit entropy word
_MAX_SAMPLES = 1 << 32


def _check_scalars(args) -> None:
    """Reject the scalar options no command can run on."""
    least = _MIN_SAMPLES.get(args.command, 1)
    samples = getattr(args, "samples", least)
    if samples < least:
        raise ValueError(f"--samples must be >= {least} for {args.command}, got {samples}")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"--samples must be <= 2**32 = {_MAX_SAMPLES}, one 32-bit "
                         f"stream index per sample, got {samples}")
    for name in ("rho1", "rho2", "tol"):
        val = getattr(args, name, None)
        if isinstance(val, float) and not math.isfinite(val):
            raise ValueError(f"--{name} must be finite, got {val}")
    # a sample passes the axiom check at residual < tol, so none can at tol <= 0
    if getattr(args, "tol", 1.0) <= 0:
        raise ValueError(f"--tol must be positive, got {args.tol}")


# -- verify ---------------------------------------------------------------

def _check(name: str, residual: float, tol: float, ok: bool = True) -> dict:
    """One report entry; a non-finite residual is written as null and fails,
    so the report stays strict JSON."""
    finite = math.isfinite(residual)
    return {"name": name, "max_residual": float(_e(residual)) if finite else None,
            "tol": tol, "pass": bool(ok and finite and residual < tol)}


def cmd_verify(args) -> int:
    import numpy as np

    from .params import LevelSetSpec
    from .reduction import (induced_structure, omega_d_degenerate_block, sample_base,
                            verify_wsd_axioms)

    spec = LevelSetSpec(args.n, args.rho1, args.rho2)
    base_r = sample_base(spec, args.samples, args.seed)

    rep = verify_wsd_axioms(induced_structure(base_r), tol=args.tol)
    blk = omega_d_degenerate_block(base_r)
    ax_res, ax_ok = float(np.max(rep.worst)), bool(np.all(rep.passed))
    aij_res, norm_res = float(np.max(blk.aij_residual)), float(np.max(blk.norm_residual))

    checks = [
        _check("wsd_axioms", ax_res, args.tol, ax_ok),
        _check("aij_consistency", aij_res, 1e-10),
        _check("restricted_norm", norm_res, 1e-9),
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


# -- CSV columns ------------------------------------------------------------
#
# Each CSV command prints the columns of its one table, COLUMNS[command], in
# the table's order: (name, kind, doc).  The `#` header, the fieldnames and
# the JSON keys are built from it, and the commands give their rows as
# tuples in its order.  tests/test_cli.py holds the README's column lists
# equal to it, and runs each command at two --seed and two --samples values
# to hold every column to its kind, so a column that turns exact changes its
# kind here and nowhere else.
KINDS = {
    "echo": "the argv, a point of its grid, or the package version",
    "exact": "a fact of the row's echo columns alone: it does not depend on --samples or --seed",
    "bracket": "one end of a certified interval, lower <= upper",
    "sample": "a statistic of the drawn sample, which --samples and --seed fix",
}

_SWEEP_ECHO = (("n", "echo", "--n"), ("rho1", "echo", "a point of --grid"),
               ("rho2", "echo", "a value of --rho2"), ("samples", "echo", "--samples"),
               ("seed", "echo", "--seed"), ("version", "echo", "the package version"))

COLUMNS = {
    "limit-kahler": _SWEEP_ECHO + (
        ("fiber_diam_max", "exact", "sup over the whole base of the pi1 fiber diameter"),
        ("fiber_bound", "exact", "pi n^{-(n-1)/2} e^{2 pi^2 rho2^2} / rho1"),
        ("fiber_ratio", "exact", "fiber_diam_max / fiber_bound"),
        ("hausdorff_image", "exact",
         "one Hausdorff side: sup over the pi1 image of the distance to the divisor"),
        ("hausdorff_total", "exact", "hausdorff_image + fiber_diam_max, total-space offset"),
        ("hausdorff_norm", "exact", "hausdorff_total / (pi rho1 / 2), diameter-normalized"),
    ),
    "limit-complex": _SWEEP_ECHO + (
        ("fiber_diam_max", "exact", "sup over the whole base of the pi2 fiber diameter"),
        ("c_witness", "exact", "fiber_diam_max / rho1, the scaling constant witness"),
        ("pi2_residual_max", "sample", "worst image-equation residual of the projected sample"),
        ("hausdorff_quotient", "exact",
         "one Hausdorff side: sup over the pi2 image of the quotient distance to the divisor"),
        ("degenerate_ngh_lower", "bracket",
         "lower end of the normalized GH distance: sample under rho1 d_g, torus rows under d_F"),
        ("degenerate_ngh_upper", "bracket",
         "upper end: distortion rho1^2 (n+2) pi / rho2 of row i <-> i / diameters, at most 1"),
    ),
    "boundary": (
        ("side", "exact", "T, the threshold side; --side T and all print the same rows"),
        ("n", "echo", "--n"),
        ("param", "echo", "a point of --grid, the relative excess of rho2^2 over the threshold"),
        ("rho1", "echo", "--rho1"),
        ("rho2", "exact", "the threshold times sqrt(1 + param)"),
        ("samples", "echo", "--samples"),
        ("seed", "echo", "--seed"),
        ("version", "echo", "the package version"),
        ("base_diam", "sample", "rho1 times base_diam_over_rho1"),
        ("base_diam_over_rho1", "sample", "largest chord of the sampled base shape"),
    ),
}


@functools.cache
def _csv_layout(command: str) -> tuple[str, tuple[str, ...]]:
    """The `#` header with the CSV header line, and the fieldnames, of
    COLUMNS[command], built once per process: a line per kind the table
    uses, then one per column with its kind."""
    names, kinds, docs = zip(*COLUMNS[command])
    lines = [f"# kind {kind}: {doc}" for kind, doc in KINDS.items() if kind in kinds]
    lines += map("# {} ({}): {}".format, names, kinds, docs)
    return "\n".join([*lines, ",".join(names), ""]), names


# -- limit sweeps -----------------------------------------------------------
#
# The exact columns are formed from fiber_bound and from suprema over the
# whole base that (n, rho2) alone fixes, the divisor offsets and the largest
# fiber diameters (params.base_suprema, once per rho2), each scaled by rho1
# or 1/rho1 at a grid point.  So limit-kahler, whose columns are all exact
# or echo, draws and solves nothing, and runs on params alone, without
# numpy: it accepts --samples and --seed, which the benchmark's fibers
# workload passes, and echoes them.  limit-complex
# draws its sample once, before its loops: a sample's random numbers depend
# on (seed, index) alone.  Its radii at a grid point are rho1 times a shape
# that rho2 alone fixes, and the pi2 modulus sqrt(-u / 2 pi^2) reads only
# the log-shape u (reduction.log_shape), so it solves the shape and builds
# the image w, its residual and the degenerate metric's limit bracket
# (metgeo.degenerate_limit) once per rho2, before its rho1 loop: rho1 d_g
# lies within rho1^2 (n + 2) pi / rho2 of the limit torus distance d_F for
# every pair, so each rho1 reads the same per-sample eccentricity bounds.
# Per rho1 remain the scaled suprema and the normalized-GH interval of
# sample i <-> its torus row i (metgeo.degenerate_ngh).  A scaled cell that
# leaves the normal doubles exits 2 with one line naming it (_scaled).


def _scaled(value: float, name: str, rho1: float) -> float:
    """A sweep cell that scales with rho1; ArithmeticError where it leaves the
    normal doubles: pi rho1 overflows from rho1 ~5.7e307, a fiber over
    rho1^2 (hausdorff_norm) from rho1 ~1e-154 at rho2 0.6 and sooner deeper,
    and rho1 times a fiber or a base diameter at a subnormal rho1 keeps few
    digits."""
    if not sys.float_info.min <= value < math.inf:
        raise ArithmeticError(f"{name} leaves the normal doubles at rho1 = {rho1:.6g}")
    return value


def cmd_limit_kahler(args) -> int:
    from .params import LevelSetSpec, base_suprema, pi1_fiber_bound

    rho2s = _parse_list(args.rho2)
    grid = _parse_grid(args.grid)
    rows = []
    for rho2 in rho2s:
        # the bounds first: each is at least 4 pi^2 times the pi1 supremum, so
        # past rho2 ~6 they overflow first, before the supremum (inf there)
        # or, past rho2 ~1e153, the root base_suprema solves
        bounds = [pi1_fiber_bound(LevelSetSpec(args.n, rho1, rho2)) for rho1 in grid]
        sup = base_suprema(args.n, rho2)
        for rho1, bound in zip(grid, bounds):
            fiber = _scaled(sup.pi1_fiber / rho1, "fiber_diam_max", rho1)
            h_img = _scaled(rho1 * sup.h1, "hausdorff_image", rho1)
            h_tot = h_img + fiber
            h_norm = _scaled(h_tot / (math.pi * rho1 / 2.0), "hausdorff_norm", rho1)
            rows.append((args.n, _e(rho1), _e(rho2), args.samples, args.seed, __version__,
                         *map(_e, (fiber, bound, fiber / bound, h_img, h_tot, h_norm))))
    config = {"n": args.n, "rho2": rho2s, "grid": args.grid,
              "samples": args.samples, "seed": args.seed}
    _emit(_sweep_text(args.format, args.command, rows, config), args.out)
    return 0


def cmd_limit_complex(args) -> int:
    import numpy as np

    from .maps import pi2_image_residual, project_pi2
    from .metgeo import degenerate_limit, degenerate_ngh
    from .params import LevelSetSpec, base_suprema
    from .reduction import draw_directions, draw_torus, log_shape, solve_base

    rho2s = _parse_list(args.rho2)
    grid = _parse_grid(args.grid)[::-1]
    directions = draw_directions(args.n, args.samples, args.seed)
    torus_t = draw_torus(args.n, args.samples, args.seed)[:, args.n:]
    rows = []
    for rho2 in rho2s:
        shape = solve_base(LevelSetSpec(args.n, 1.0, rho2), directions)
        sup = base_suprema(args.n, rho2)
        res = float(np.max(pi2_image_residual(project_pi2(log_shape(shape), torus_t))))
        limit = degenerate_limit(shape, torus_t, rho2)
        for rho1 in grid:
            fiber = _scaled(rho1 * sup.pi2_fiber, "fiber_diam_max", rho1)
            ngh = degenerate_ngh(limit, rho1)
            cells = (fiber, fiber / rho1, res, rho2 * sup.h2, ngh.lower, ngh.upper)
            rows.append((args.n, _e(rho1), _e(rho2), args.samples, args.seed, __version__,
                         *map(_e, cells)))
    config = {"n": args.n, "rho2": rho2s, "grid": args.grid,
              "samples": args.samples, "seed": args.seed}
    _emit(_sweep_text(args.format, args.command, rows, config), args.out)
    return 0


# -- boundary probes ---------------------------------------------------------
#
# The one probed side is the threshold: as rho2^2 falls to the feasibility
# threshold, the base sample pinches to a single orbit.  The base at rho1 is
# bitwise rho1 times its rho1 = 1 rows (solve_base), so the shapes of the
# whole grid come from one stacked solve (reduction.solve_shapes), taken in
# grid order, and the printed diameter is rho1 times the shape's diameter d,
# a scaled cell like the sweeps' (_scaled); a shape of diameter 0 prints 0.
# A grid point that fails exits 2 with its own line, the first in that order.

def cmd_boundary(args) -> int:
    import numpy as np

    from .metgeo import chord_eccentricities
    from .params import feasibility_threshold
    from .reduction import draw_directions, solve_shapes

    grid = _parse_grid(args.grid)[::-1]
    rho1 = args.rho1
    if not rho1 > 0:
        raise ValueError("rho1 must be positive")
    directions = draw_directions(args.n, args.samples, args.seed)
    thr2 = feasibility_threshold(args.n) ** 2
    rho2s = [math.sqrt(thr2 * (1.0 + delta)) for delta in grid]
    rows = []
    for delta, rho2, shape in zip(grid, rho2s, solve_shapes(args.n, rho2s, directions)):
        d = float(np.max(chord_eccentricities(shape)))
        diam = 0.0 if d == 0 else _scaled(rho1 * d, "base_diam", rho1)
        rows.append(("T", args.n, _e(delta), _e(rho1), _e(rho2), args.samples, args.seed,
                     __version__, _e(diam), _e(d)))
    config = {"n": args.n, "side": args.side, "grid": args.grid, "rho1": rho1,
              "samples": args.samples, "seed": args.seed}
    _emit(_sweep_text(args.format, args.command, rows, config), args.out)
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
        "matrices": {role: [list(r) for r in mat] for role, mat in maps._asdict().items()},
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

# The parser does not depend on argv and parse_args fills a fresh Namespace
# per call, so a process builds it once, on its first main() call (never at
# import), and every later call reuses it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wsdlab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, samples=100):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--samples", type=int, default=samples)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    def sweep(p, samples):
        common(p, samples)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    pv = sub.add_parser("verify", help="axiom verification run, JSON report")
    common(pv)
    pv.add_argument("--rho1", type=float, default=1.0)
    pv.add_argument("--rho2", type=float, required=True)
    pv.add_argument("--tol", type=float, default=1e-8)
    pv.set_defaults(fn=cmd_verify)

    pk = sub.add_parser("limit-kahler", help="first-projection limit sweep")
    sweep(pk, samples=60)
    pk.add_argument("--rho2", required=True, help="comma list of rho2 values")
    pk.add_argument("--grid", default="1:1e3:7", help="rho1 grid lo:hi:count (log)")
    pk.set_defaults(fn=cmd_limit_kahler)

    pc = sub.add_parser("limit-complex", help="second-projection limit sweep")
    sweep(pc, samples=60)
    pc.add_argument("--rho2", required=True, help="comma list of rho2 values")
    pc.add_argument("--grid", default="1e-3:1:7", help="rho1 grid lo:hi:count (log)")
    pc.set_defaults(fn=cmd_limit_complex)

    pb = sub.add_parser("boundary", help="threshold-side boundary probe")
    sweep(pb, samples=40)
    pb.add_argument("--side", choices=("T", "all"), default="all",
                    help="T, the threshold side, is the one side; all gives the same rows")
    pb.add_argument("--rho1", type=float, default=1.0)
    pb.add_argument("--grid", default="1e-4:1e-1:7",
                    help="grid lo:hi:count (log) of the relative excess of rho2^2 "
                         "over the threshold")
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
    # numpy's failure type, known once a numeric command has loaded numpy;
    # nothing else raises it, and () matches nothing
    linalg = ()
    try:
        _check_scalars(args)
        if args.fn is cmd_polytope_report:  # exact integers
            return args.fn(args)
        from .params import EmptyLevelSet
        try:
            # facts of the parameters: math raises OverflowError and
            # ZeroDivisionError itself, and _scaled refuses an inf
            if args.fn is cmd_limit_kahler:
                return args.fn(args)
            import numpy as np
            linalg = (np.linalg.LinAlgError,)
            # a float overflow, division by zero or nan is a numerical failure,
            # never a warning followed by a result computed from it
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return args.fn(args)
        except EmptyLevelSet as exc:
            print(f"empty level set: {exc}", file=sys.stderr)
            return 2
    except (RuntimeError, ArithmeticError, *linalg) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"numerical failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
