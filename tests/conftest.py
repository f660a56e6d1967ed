"""Fixtures shared across the test modules."""

import pytest

from copwidth.report_cli.report import run_property_suites


@pytest.fixture(scope="session")
def property_suites():
    """The four seeded cross-check suites at seed 0, run once per session:
    the acceptance tests and the `copwidth suite` test read the same run."""
    return run_property_suites(seed=0)
