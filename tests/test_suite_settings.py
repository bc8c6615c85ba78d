"""The suite's warning filters let a failing property test report its
falsifying example: hypothesis imports libcst to print it, and libcst's
import of ``mypy_extensions.TypedDict`` warns with a DeprecationWarning,
which ``error::DeprecationWarning`` alone turns into an INTERNALERROR."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

pytest_plugins = ("pytester",)

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_small(x):
    assert x < 5
"""


def _suite_filters() -> list[str]:
    with open(_PYPROJECT, "rb") as f:
        return tomllib.load(f)["tool"]["pytest"]["ini_options"]["filterwarnings"]


def test_failing_property_prints_its_example_under_the_suite_filters(pytester):
    assert "error::DeprecationWarning" in _suite_filters()
    pytester.makeini("[pytest]\nfilterwarnings =\n"
                     + "".join(f"    {line}\n" for line in _suite_filters()))
    pytester.makepyfile(test_property=_FAILING_PROPERTY)
    # a fresh interpreter, so that libcst is imported (and warns) in the run
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.assert_outcomes(failed=1)
