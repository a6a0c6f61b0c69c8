import re

import pytest
from hypothesis import settings

from contract import pair_named

# No per-example deadline: on a loaded host one slow example is not a
# failure.  Hangs are still caught, by the tests' own time_limit guards.
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")

_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter):
    """Print one PASS/FAIL line per acceptance criterion after the run."""
    results = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            nodeid = getattr(rep, "nodeid", "")
            match = _CRITERION.search(nodeid)
            if match is None:
                continue
            outcome = getattr(rep, "outcome", None)
            if outcome == "passed" and getattr(rep, "when", None) != "call":
                continue
            if outcome in ("passed", "failed", "skipped"):
                if results.get(nodeid) != "failed":
                    results[nodeid] = outcome
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    word = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    for nodeid in sorted(results):
        match = _CRITERION.search(nodeid)
        number, label = match.group(1), match.group(2).replace("_", " ")
        terminalreporter.write_line(
            f"[criterion {number}] {word[results[nodeid]]}: {label}"
        )


@pytest.fixture(scope="session")
def s4_pair():
    return pair_named("s4")


@pytest.fixture(scope="session")
def s4_d8_pair():
    return pair_named("s4_d8")


@pytest.fixture(scope="session")
def z8_pair():
    return pair_named("z8")


@pytest.fixture(scope="session")
def model_pairs(s4_pair, s4_d8_pair, z8_pair):
    return [s4_pair, s4_d8_pair, z8_pair]
