from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_test_leaves_the_session_running(pytester):
    # A fresh interpreter, so the inner session imports everything itself,
    # under the warnings-as-errors setting of pyproject.toml.
    pytester.makepyprojecttoml(_PYPROJECT.read_text())
    pytester.makepyfile(
        test_sample="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_after():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_sample.py")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
