"""Tier-1 baseline report.

Two acceptance criteria encode sub-claims that are false as stated and
fail by design (see the tests/test_acceptance.py docstring).  After every
run one summary line names any other failed or errored test, so a
regression is not lost among the expected failures.  The exit code is
left to pytest.
"""

EXPECTED_FAILURES = (
    "test_acceptance.py::test_criterion_6_threshold_parity",
    "test_acceptance.py::test_criterion_8_counting_identities",
)


def pytest_terminal_summary(terminalreporter):
    reports = terminalreporter.stats.get("failed", []) + terminalreporter.stats.get(
        "error", []
    )
    unexpected = sorted(
        {r.nodeid for r in reports if not r.nodeid.endswith(EXPECTED_FAILURES)}
    )
    if unexpected:
        line = "unexpected failures: " + ", ".join(unexpected)
    else:
        line = "unexpected failures: none"
    terminalreporter.write_line(f"tier-1 baseline: {line}")
