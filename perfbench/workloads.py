"""The benchmark's workloads: lists of `wsdlab` CLI invocations.

Each workload gives a different mix of layers the larger share of its time;
BENCHMARK.json says why each one exists and predictions.json which layer
metric should move which end-to-end metric on it. The program sees only the
argument lists built here; each invocation's `--seed` is drawn from the
benchmark's own seed.
"""

from __future__ import annotations

import random

WORKLOADS = {
    # pointwise differential geometry: ambient and reduction, no metgeo work
    "closedness": [
        ["verify", "--n", "2", "--rho2", "0.5", "--samples", "150"],
        ["verify", "--n", "3", "--rho2", "0.5", "--samples", "150"],
        *(["polytope-report", "--n", str(n)] for n in range(1, 7)),
    ],
    # rank-3 exact covering radius: metgeo.flat_torus_diameter, no ambient work
    "fibers": [
        ["limit-kahler", "--n", "3", "--rho2", "0.55,0.7", "--grid", "1:1e3:7",
         "--samples", "60"],
    ],
    # large-N distances, kNN and GH kernels plus the base sampler near the
    # feasibility threshold
    "dense": [
        ["limit-complex", "--n", "2", "--rho2", "0.6", "--grid", "1e-3:1:7",
         "--samples", "400"],
        ["boundary", "--side", "all", "--n", "2", "--samples", "200"],
    ],
}

SEEDLESS = {"polytope-report"}


def invocations(workload: str, seed: int, samples_scale: float = 1.0) -> list[list[str]]:
    """Argument lists of one pass of `workload`, each with its own `--seed`.

    `samples_scale` shrinks every `--samples` value; the self-tests use it to
    run a workload quickly. The benchmark itself runs at scale 1.
    """
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for argv in WORKLOADS[workload]:
        argv = list(argv)
        if "--samples" in argv:
            i = argv.index("--samples") + 1
            argv[i] = str(max(24, round(int(argv[i]) * samples_scale)))
        if argv[0] not in SEEDLESS:
            argv += ["--seed", str(rng.randrange(1 << 31))]
        out.append(argv)
    return out
