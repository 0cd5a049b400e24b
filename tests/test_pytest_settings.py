"""The suite's own pytest settings."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_reports_its_falsifying_example(pytester):
    # the repository's settings, so its warning filters apply
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    # the second example's repr passes hypothesis's 30 kB warning limit
    test_file = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_below_five(x):
            assert x < 5

        @given(st.just("x" * 40_000))
        def test_short_text(text):
            assert len(text) < 10, "text too long"
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", test_file)
    result.assert_outcomes(failed=2)
    result.stdout.fnmatch_lines(["*Falsifying example: test_below_five(*"])
    result.stdout.fnmatch_lines(["*AssertionError: text too long*",
                                 "*Falsifying example: test_short_text(*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
    result.stdout.no_fnmatch_line("*HypothesisWarning*")
