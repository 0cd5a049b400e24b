"""The suite's own pytest settings."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_reports_its_falsifying_example(pytester):
    # the repository's settings, so its warning filters apply
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    test_file = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_below_five(x):
            assert x < 5
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", test_file)
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example: test_below_five(*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
