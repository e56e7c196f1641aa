"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints the one-line pass/fail summary of its criterion (visible
with pytest -s or in the CLI selftest, which runs the same functions).
"""

import pytest

from pvarpath import acceptance

# every criterion's (index, name, runtime limit in seconds), in list order:
# a criterion moved, renamed or given another limit fails here
REGISTRY = [
    (1, "exact dyadic level identity", 1.0),
    (2, "linear p-variation convergence", 10.0),
    (3, "constant oracle agreement", 30.0),
    (4, "sign-matrix bijection", 5.0),
    (5, "increment series identity", 5.0),
    (6, "prescribed-variation recipe", 20.0),
    (7, "ternary linear variation", 20.0),
    (8, "compensated-sum exactness", 10.0),
    (9, "time-change transport exactness", 5.0),
    (10, "variation stability bounds", 5.0),
    (11, "bernstein holder bound", 5.0),
    (12, "splice mechanics", 5.0),
]


def test_criteria_are_named_by_place():
    names = [criterion.__name__ for criterion in acceptance.ALL_CRITERIA]
    assert names == [f"criterion_{i + 1}" for i in range(len(REGISTRY))]


@pytest.mark.parametrize(
    "criterion",
    acceptance.ALL_CRITERIA,
    ids=[f"criterion_{i}" for i in range(1, len(acceptance.ALL_CRITERIA) + 1)],
)
def test_acceptance_criterion(criterion):
    result = criterion()
    print(result.line())
    place = acceptance.ALL_CRITERIA.index(criterion)
    assert (result.index, result.name, result.runtime_limit_s) == REGISTRY[place]
    assert result.passed, result.line()
