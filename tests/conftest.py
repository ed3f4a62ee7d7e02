"""Shared fixtures: the paper's worked example and common small databases.

The paper develops one example end to end (Tables 1-2, Examples 1-5);
encoding it here lets the tests pin every intermediate artifact — the
pattern set at xi_old = 3, the MCP utility ordering, the compressed
groups, the F-list of the compressed database at xi_new = 2, and the
projected-database patterns — against the numbers printed in the paper.
"""

from __future__ import annotations

import faulthandler

import pytest

from repro.data.transactions import TransactionDatabase
from repro.mining.patterns import PatternSet

try:
    import pytest_timeout
except ImportError:  # the plugin is optional; keep the ceiling anyway
    pytest_timeout = None

#: Per-test ceiling when pytest-timeout is absent: the ``timeout`` value
#: in pyproject.toml, which the plugin would otherwise enforce.
FALLBACK_TIMEOUT_SECONDS = 300.0

if pytest_timeout is None:

    def pytest_addoption(parser: pytest.Parser) -> None:
        # Claim the plugin's ini key, so its value is readable here.
        parser.addini("timeout", "per-test timeout in seconds", default=None)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(item, nextitem):
        """Dump every thread's stack and exit if one test hangs."""
        seconds = float(item.config.getini("timeout") or FALLBACK_TIMEOUT_SECONDS)
        faulthandler.dump_traceback_later(seconds, exit=True)
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()

# Item encoding for the paper's example: letters -> ints.
A, B, C, D, E, F, G, H, I = 1, 2, 3, 4, 5, 6, 7, 8, 9

#: Human-readable names, for assertion messages.
ITEM_NAMES = {A: "a", B: "b", C: "c", D: "d", E: "e", F: "f", G: "g", H: "h", I: "i"}


@pytest.fixture
def paper_db() -> TransactionDatabase:
    """Table 1: the five-tuple example database."""
    return TransactionDatabase(
        [
            [A, C, D, E, F, G],  # 100
            [B, C, D, F, G],     # 200
            [C, E, F, G],        # 300
            [A, C, E, I],        # 400
            [A, E, H],           # 500
        ],
        tids=[100, 200, 300, 400, 500],
    )


@pytest.fixture
def paper_old_patterns() -> PatternSet:
    """Example 1: the frequent patterns of Table 1 at xi_old = 3.

    The paper's printed list omits ``fc:3`` — an evident typo, since it
    lists ``fgc:3`` and every subset of a frequent pattern is frequent
    (tuples 100, 200 and 300 all contain both f and c). The complete set
    has 11 patterns.
    """
    patterns = PatternSet()
    patterns.add({F}, 3)
    patterns.add({F, G}, 3)
    patterns.add({F, C}, 3)  # missing from the paper's list; see docstring
    patterns.add({F, G, C}, 3)
    patterns.add({G}, 3)
    patterns.add({G, C}, 3)
    patterns.add({A}, 3)
    patterns.add({A, E}, 3)
    patterns.add({E}, 4)
    patterns.add({E, C}, 3)
    patterns.add({C}, 4)
    return patterns


@pytest.fixture
def tiny_db() -> TransactionDatabase:
    """A minimal database for unit tests that don't need the example."""
    return TransactionDatabase([[1, 2, 3], [1, 2], [2, 3], [3]])
