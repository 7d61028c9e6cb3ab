"""The suite's pytest configuration reports a property failure as a failure.

``pytest.ini`` escalates every DeprecationWarning to an error. While
reporting a failing ``@given`` test, Hypothesis imports ``libcst``, whose
import trips a deprecated ``mypy_extensions.TypedDict``; unless that one
warning is exempted, the escalation turns the report into an
INTERNALERROR that aborts the whole session.
"""

import pathlib
import subprocess
import sys
import textwrap

PYTEST_INI = pathlib.Path(__file__).resolve().parents[1] / "pytest.ini"


def test_failing_property_reports_as_failure_not_internal_error(tmp_path):
    (tmp_path / "test_property_fails.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_never_holds(n):
                assert n != n
            """
        )
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYTEST_INI),
            "-p", "no:cacheprovider", "test_property_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed" in out, out
    assert proc.returncode == 1, out
