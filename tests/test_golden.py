"""Golden CLI outputs: sha256 of stdout for fixed-seed runs of every command.

The digests pin the exact bytes each command prints, and each command runs
twice to show those bytes repeat, so a refactor that claims "same behaviour"
must leave every one of them unchanged.  They were recorded with Python
3.11.7, numpy 2.4.6 and scipy 1.17.1, and were the same with BLAS at 1 and
at 2 threads.  A different numpy/scipy/BLAS build may round differently in
the last printed digit; in that case re-record them on the parent revision
before judging a change against them.
"""

import contextlib
import hashlib
import io

import pytest

from wsdlab.cli import main

GOLDEN = [
    (("verify", "--n", "2", "--rho2", "0.5", "--samples", "20"),
     "c246450fb3581b973beb246edbde643d5ae346e5fb237f374447a1f733109182"),
    (("verify", "--n", "3", "--rho2", "0.5", "--samples", "10"),
     "3bb04717e58bba18a181a7e8bd015f1d58e0bc9e0b3f35566e78cf186668b42b"),
    (("limit-kahler", "--n", "2", "--rho2", "0.55,0.7", "--grid", "1:1e3:4",
      "--samples", "24", "--seed", "3"),
     "c638071f1b4eac8e79e2fe19150e285adfbe2bb58390bfccc9d0bc4158c361fb"),
    (("limit-kahler", "--n", "3", "--rho2", "0.7", "--grid", "1:1e3:3",
      "--samples", "12"),
     "f59f0dfeff34558ff96d3d5f3933ac6c35a6e1e7619cdcbda3889e2a96bceb2f"),
    (("limit-complex", "--n", "2", "--rho2", "0.6", "--grid", "1e-3:1:4",
      "--samples", "60", "--seed", "3"),
     "1afd9dbda031b7e1a4b3cf87cba75e08cb23b7e04644e43db81fe66c14e1de43"),
    (("limit-complex", "--n", "3", "--rho2", "0.7", "--grid", "1e-3:1:3",
      "--samples", "24"),
     "989162e79647d6c4e08e746f7248f567ed7bc1ca7650165fc4f55aebe55f3200"),
    (("boundary", "--side", "all", "--n", "2", "--samples", "24"),
     "ad033268337439b5e61e0c172f1f4443d473178813fc1092da1d0588343ce20e"),
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
