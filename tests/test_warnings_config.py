"""The suite's warning filters must not stop a run at a failing property test."""

import json

PAIR = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_failing_property_test_does_not_abort_the_run(pytester, pytestconfig):
    # the suite's own filters, in a fresh interpreter so that the report hook
    # imports its dependencies for the first time
    filters = pytestconfig.getini("filterwarnings")
    entries = "".join(f"    {json.dumps(value)},\n" for value in filters)
    pytester.makepyprojecttoml(f"[tool.pytest.ini_options]\nfilterwarnings = [\n{entries}]\n")
    pytester.makepyfile(test_pair=PAIR)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
