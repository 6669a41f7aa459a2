"""Golden CLI outputs: sha256 of stdout for fixed-seed runs of every command.

The digests pin the exact bytes each command prints, and each command runs
twice to show those bytes repeat, so a refactor that claims "same behaviour"
must leave every one of them unchanged.  They were recorded with Python
3.11.7 and numpy 2.4.6, and were the same with BLAS at 1 and at 2
threads.  A different numpy/BLAS build may round differently in
the last printed digit; in that case re-record them on the parent revision
before judging a change against them.
"""

import contextlib
import hashlib
import io

import pytest

from wsdlab.cli import main

GOLDEN = [
    # every verify digest was re-recorded when verify dropped its
    # leaf_volume and exterior_derivative checks, which no sample can fail
    # (gate 2 checks both): the output is the previous one with those two
    # entries removed, and the wsd_axioms, aij_consistency and
    # restricted_norm entries are byte for byte the same
    (("verify", "--n", "2", "--rho2", "0.5", "--samples", "20"),
     "fd34138fd23d349f2f2fd7f77031c71b068164721856621e0042f2d5d18b8079"),
    (("verify", "--n", "3", "--rho2", "0.5", "--samples", "10"),
     "208217cff6c35d7758e40649cc140daf900a81255e4b3324a3c32e53f919efb7"),
    # the axiom check and the degenerate block at n = 4 and 6, past the
    # golden ranks above
    (("verify", "--n", "4", "--rho2", "1.0", "--samples", "20"),
     "e0caec853b103b8c2a1b4c6f3e43e2ab3e0350e5679c618412aedc7f6fa003cf"),
    (("verify", "--n", "6", "--rho2", "1.2", "--samples", "20"),
     "619c3dfcb3f86278585697170671648579a5380f470258eb0400ae5eb5bbc3df"),
    # every limit-kahler digest was re-recorded when hausdorff_image became
    # the exact sample-free offset rho1 arcsin(sqrt(t-)): only the
    # hausdorff_image, hausdorff_total and hausdorff_norm cells and the
    # hausdorff_image comment line changed.  Every sweep digest, limit-kahler
    # and limit-complex, was re-recorded again when fiber_diam_max became the
    # exact supremum over the base (metgeo.base_suprema) in place of the
    # largest fiber over the sample: only the fiber_diam_max, fiber_ratio,
    # hausdorff_total, hausdorff_norm and c_witness cells and the
    # fiber_diam_max comment lines changed
    (("limit-kahler", "--n", "2", "--rho2", "0.55,0.7", "--grid", "1:1e3:4",
      "--samples", "24", "--seed", "3"),
     "0fb18484d5117420815c9332bf84ee341e3fa409b04a446dcf3f220419f7f48e"),
    (("limit-kahler", "--n", "3", "--rho2", "0.7", "--grid", "1:1e3:3",
      "--samples", "12"),
     "9908a7c229aaac316ad80440b8c122a55b8b4b1c9740389b8b28ee2941a092ba"),
    # every limit-complex digest was re-recorded when the pi2 image became
    # one rho1-free projection of the log-shape per rho2: only the
    # pi2_residual_max cells changed, each staying below 3e-15.  They were
    # re-recorded again when the GH upper bound became the distortion of
    # sample i <-> its pi2 image i: only the degenerate_ngh_upper cells and
    # the COMPLEX_DOC comment lines changed.  They were re-recorded once more
    # when the degenerate_ngh_lower comment line was reworded to name the
    # eccentricity bound: only that one "#" line changed.  They were
    # re-recorded again when hausdorff_quotient became the exact sample-free
    # offset and the largest log-shape coordinate came from the sphere
    # constraint: only the hausdorff_quotient and pi2_residual_max cells and
    # the hausdorff_quotient comment line changed.  They were re-recorded
    # again when the degenerate_ngh interval became the closed-form limit
    # bracket against the limit torus (no graph geodesics, no hn sample):
    # only the degenerate_ngh_lower and degenerate_ngh_upper cells and the
    # degenerate_ngh comment lines changed
    (("limit-complex", "--n", "2", "--rho2", "0.6", "--grid", "1e-3:1:4",
      "--samples", "60", "--seed", "3"),
     "1a4d698b084b91a90b92f9a4a6f180929da41cc877e4e95e715fad423480caf3"),
    (("limit-complex", "--n", "3", "--rho2", "0.7", "--grid", "1e-3:1:3",
      "--samples", "24"),
     "f6745cde09f3f571e9b1a071807d156921aa33eeec12df5330670d796f50d4f4"),
    # two rho2 values: each builds its own pi2 image and limit bracket
    (("limit-complex", "--n", "2", "--rho2", "0.6,0.9", "--grid", "1e-3:1:3",
      "--samples", "60", "--seed", "4"),
     "941b26a1224d4a7400abfcb5da715986cd8ee4c1bc1c5f38a9919b9b114adc86"),
    # rank-4 fiber tori: recorded with the closed-form covering radius (the
    # Voronoi search these sweeps used before stops at rank 3 and exits 2)
    (("limit-kahler", "--n", "4", "--rho2", "0.7", "--grid", "1:1e3:3",
      "--samples", "12"),
     "6b643b166ec12980c19e7394da48d56c8088070ec92db681f973e01afa44efaf"),
    (("limit-complex", "--n", "4", "--rho2", "0.7", "--grid", "1e-3:1:3",
      "--samples", "24"),
     "362a5e336b36292e954cbd6b582fec19d65e3621e375b256591d6ac20b20acaf"),
    # the benchmark's sample count: N = 400 limit brackets
    (("limit-complex", "--n", "2", "--rho2", "0.6", "--grid", "1e-3:1:3",
      "--samples", "400", "--seed", "5"),
     "aa95e2f4846846b89dd340d6473a836a566250ed14bdddb4ae3b656fcf618fff"),
    # n = 4 at N = 300: the limit bracket's sort network has more than one
    # compare-swap, and its row blocks split the pairs several times
    (("limit-complex", "--n", "4", "--rho2", "0.7", "--grid", "1e-3:1:3",
      "--samples", "300", "--seed", "1"),
     "f3ca608b497c5bedb98445387dbd35071ad8af52ed19bbc0e5c87e66c6542a31"),
    # re-recorded when boundary dropped sides B and A: a column diff against
    # the previous output (this config, and --samples 200 at seeds 0-9) found
    # their rows, the theta_eta_ratio/shape_sum_min/shape_sum_max columns and
    # their two doc lines gone, and every side-T cell unchanged
    (("boundary", "--side", "all", "--n", "2", "--samples", "24"),
     "6612f5d3a2cf6f57c0bdf969cb4e875eda27c2ff57953594e009d727aa0ce34c"),
    # the benchmark's sample count: 200 chords in row blocks
    (("boundary", "--side", "all", "--n", "2", "--samples", "200", "--seed", "0"),
     "d5185e2a79b6cb3cd8ab789f487caaff16b64bfdd363d99f37df1ab1ddd82004"),
    (("polytope-report", "--n", "1"),
     "426244f1bf993bec766b3fe2aa4ab2a9e479c96d002a1c7c7f66c5480658407d"),
    (("polytope-report", "--n", "2"),
     "d03c06c65843daaa5374eb6b6ba8931f10dd4ac43610aa4d7addfb1de8b5cd72"),
    (("polytope-report", "--n", "3"),
     "38a3a80cf9d0e87d5f573e529853642ee399d65f88e4ae16ed89f408d213c3e1"),
    (("polytope-report", "--n", "4"),
     "e32f2c7f4d6ddd75aacc3c78bf3e9f853ddc77b9ca28452168eec0a8fcf79730"),
    (("polytope-report", "--n", "5"),
     "41066a689e8685daba98594d3ce22255003ebe3ceb1746e8f19c05994177d2ad"),
    (("polytope-report", "--n", "6"),
     "c88ef364edd2bd366efa280ba6b609571d58c3e2617bc4eb4d5d2075a37f4c56"),
    # the rest of the documented n = 1..8 range: simplices past MAX_SD_DIM
    (("polytope-report", "--n", "7"),
     "e96b9021b32864ac2bc1ef568a607e274d07f1bfdaac048e706e8e4d7b379551"),
    (("polytope-report", "--n", "8"),
     "d4b967f33458051e4add29ef219cac25d6f74d8e1005405e7b7f0e097a1415fe"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_stdout_matches_golden_digest(argv, digest):
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(argv)) == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0].encode()).hexdigest() == digest
