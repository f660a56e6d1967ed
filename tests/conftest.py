"""Fixtures shared across the test modules."""

import pytest

from copwidth.pursuit import games
from copwidth.report_cli.report import run_property_suites


@pytest.fixture(scope="session")
def property_suites():
    """The four seeded cross-check suites at seed 0, run once per session:
    the acceptance tests and the `copwidth suite` test read the same run."""
    return run_property_suites(seed=0)


@pytest.fixture
def witness_builds(monkeypatch):
    """Make building a contaminated-set search's witness, by `_strategy_of`
    (dagw) or `_sweep_of` (tw, kw, dpw), fail, for paths that must read no
    witness; the list of the builders called, which such a path leaves
    empty."""
    called = []

    def refuse(name):
        def build(*args):
            called.append(name)
            raise AssertionError(f"{name} built a witness that nothing reads")

        return build

    for name in ("_strategy_of", "_sweep_of"):
        monkeypatch.setattr(games, name, refuse(name))
    return called
