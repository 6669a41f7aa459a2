"""wsdlab benchmark: time the `wsdlab` CLI on fixed workloads and check its output.

    python3 perfbench/run.py --workload closedness --seed 0 --seconds 16 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
Each invocation of the workload goes through `wsdlab.cli.main(argv)` in this
process. A first pass fills lazy caches and is not timed; passes then repeat
until `--seconds` have gone by.

With `--trace 0` the metrics are the end-to-end ones: wall_ref (median pass
time in reference-kernel units, see refclock.py), setup_s (median time of
`import wsdlab.cli` in fresh interpreters, scaled to a reference host speed,
see measure_setup), peak_rss_mb and pass_ratio (checked invocations that
passed over those attempted). The raw median pass time wall_s and raw import
time setup_raw_s are printed beside them but are not metrics: on a host whose
speed drifts they spread too far from run to run to bound. With `--trace 1` plain and traced
passes alternate and the metrics are the per-layer ones of layertrace.py.
Every output is checked (check.py). The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it give provenance, output digests and a readable summary, and the
whole record is written under .perfbench-out/.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported: the program gains no knob
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from check import check, ngh_widths  # noqa: E402
from layertrace import Tracer, metric_units  # noqa: E402
from refclock import RefClock  # noqa: E402
from workloads import WORKLOADS, invocations  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 5
IMPORT_CODE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
# a fixed import that no change to wsdlab can alter, and its median time on a
# 2-core Xeon KVM guest; import times are scaled to that host speed
REFERENCE_IMPORT = ("numpy, json, decimal, fractions, email.parser, xml.dom.minidom, "
                    "argparse, csv, dataclasses, statistics, unittest")
REFERENCE_IMPORT_S = 0.12

END_TO_END_UNITS = {"wall_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_ratio": "ratio"}


def import_cli():
    """`wsdlab.cli` from this checkout's sources; exit with status 1 without them."""
    if not (SRC / "wsdlab" / "cli.py").is_file():
        sys.exit(f"perfbench: no wsdlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wsdlab.cli
    if Path(wsdlab.cli.__file__).resolve().parent != SRC / "wsdlab":
        sys.exit(f"perfbench: imported wsdlab from {wsdlab.cli.__file__}, not {SRC}")
    return wsdlab.cli


def invoke(main, argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI invocation, capturing (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed invocation, not a failed run
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


class Runner:
    """Runs passes over one workload's invocations and checks every output."""

    def __init__(self, main, argvs: list[list[str]]):
        self.main = main
        self.argvs = argvs
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.ngh_widths: list[float] = []

    def run_pass(self, main=None) -> list[tuple[int, str, str]]:
        main = main or self.main
        return [invoke(main, argv) for argv in self.argvs]

    def record(self, outputs) -> None:
        for argv, (rc, text, err) in zip(self.argvs, outputs):
            self.attempted += 1
            problems = check(argv, rc, text)
            key = " ".join(argv)
            self.digests[key] = hashlib.sha256(text.encode()).hexdigest()
            if problems:
                self.failed += 1
                print(f"FAILED {key}: {'; '.join(problems)}\n{err[-2000:]}",
                      file=sys.stderr)
            elif argv[0] == "limit-complex":
                self.ngh_widths += ngh_widths(text)


def _import_s(modules: str) -> float:
    """Wall seconds of `import <modules>` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE.format(modules)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Seconds of `import wsdlab.cli` in fresh interpreters, raw and scaled.

    Import time drifts with the host's speed even more than the passes do
    (its median rose 56% between two sets of ten runs on the tuning host),
    and the reference kernel does not track it. Each import is therefore
    timed between two runs of the fixed REFERENCE_IMPORT, and its scaled time
    is its raw time times REFERENCE_IMPORT_S over the mean of those two. A
    first import of each kind, which may compile bytecode, is not kept.
    """
    _import_s("wsdlab.cli")
    _import_s(REFERENCE_IMPORT)
    ref = [_import_s(REFERENCE_IMPORT)]
    raw = []
    for _ in range(repeats):
        raw.append(_import_s("wsdlab.cli"))
        ref.append(_import_s(REFERENCE_IMPORT))
    scaled = [t * REFERENCE_IMPORT_S / (0.5 * (a + b))
              for t, a, b in zip(raw, ref, ref[1:])]
    return raw, scaled


def run_plain(runner: Runner, seconds: float) -> dict:
    walls, refs = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        with RefClock() as clock:
            outputs = runner.run_pass()
        walls.append(clock.wall_s())
        refs.append(clock.ref_units())
        runner.record(outputs)
    setup_raw, setup = measure_setup(SETUP_REPEATS)
    metrics = {
        "wall_ref": statistics.median(refs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    samples = {"wall_s": walls, "wall_ref": refs, "setup_raw_s": setup_raw,
               "setup_s": setup}
    return {"metrics": metrics, "units": END_TO_END_UNITS, "samples": samples}


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    tracer = Tracer()

    def traced_main(argv):
        return tracer.call("cli.main", runner.main, (argv,))

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        outputs = runner.run_pass()
        plain.append(time.perf_counter() - t0)
        runner.record(outputs)
        with tracer.installed():
            outputs, traced_s = tracer.run_pass(lambda: runner.run_pass(traced_main))
        traced.append(traced_s)
        runner.record(outputs)
    tracer.write(spans_path)
    metrics = tracer.metrics(sum(plain) / len(plain), runner.ngh_widths)
    return {"metrics": metrics, "units": metric_units(),
            "samples": {"plain_pass_s": plain, "traced_pass_s": traced}}


# -- provenance -----------------------------------------------------------------

def _git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, else the pinned variable."""
    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    return int(getattr(handle, sym)())
    return os.environ["OPENBLAS_NUM_THREADS"]


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def provenance() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} median={q2:.6g} q3={q3:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    runner = Runner(cli.main, invocations(args.workload, args.seed))
    runner.record(runner.run_pass())  # fills lazy caches; not timed
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = run_traced(runner, args.seconds, OUT / f"spans-{tag}.json")
    else:
        result = run_plain(runner, args.seconds)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "invocations": runner.argvs, "provenance": provenance(),
              "digests": runner.digests, "attempted": runner.attempted,
              "failed": runner.failed, **result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({"digests": runner.digests}))
    for name, values in result["samples"].items():
        print(f"{args.workload} {name}: {_quartiles(values)}")
    print(f"{args.workload} fail_ratio: {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.6g}")
    units = result["units"]
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
