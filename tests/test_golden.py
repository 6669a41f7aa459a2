"""Golden CLI outputs: sha256 of stdout for fixed-seed runs of every command.

The digests pin the exact bytes each command prints, so a refactor that
claims "same behaviour" must leave every one of them unchanged.  They were
recorded with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1, and were the same
with BLAS at 1 and at 2 threads.  A different numpy/scipy/BLAS build may
round differently in the last printed digit; in that case re-record them on
the parent revision before judging a change against them.
"""

import contextlib
import hashlib
import io

import pytest

from wsdlab.cli import main

GOLDEN = [
    (("verify", "--n", "2", "--rho2", "0.5", "--samples", "20"),
     "425ae32a4fd4f218863b0acf384c9cdb0a3ba4900545a0ec0a8da35e501daf8b"),
    (("verify", "--n", "3", "--rho2", "0.5", "--samples", "10"),
     "d1d74661f4d5f9f9058620728c8edf52235f948de7cee0458ceb180864b5b338"),
    (("limit-kahler", "--n", "2", "--rho2", "0.55,0.7", "--grid", "1:1e3:4",
      "--samples", "24", "--seed", "3"),
     "d9d0b6d385c5dfb4eb82fce03d33a4ccf1d9250d6fd75d40a551bb7a760f4761"),
    (("limit-kahler", "--n", "3", "--rho2", "0.7", "--grid", "1:1e3:3",
      "--samples", "12"),
     "4f58a219ff68710d0661d975a634fb52c0b3117521528babd7b18d59393f75e8"),
    (("limit-complex", "--n", "2", "--rho2", "0.6", "--grid", "1e-3:1:4",
      "--samples", "60", "--seed", "3"),
     "1d1f0ac207f61afbc8197ea9b59e95d08e348f5c1a6575225452d28546b960d0"),
    (("boundary", "--side", "all", "--n", "2", "--samples", "24"),
     "d919a63e08d3456b6ac3fd3cf045028fd3671cb084add35504a6abb76d57233e"),
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
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    assert rc == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
