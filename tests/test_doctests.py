import doctest

import pytest

import ballotkit.bijections
import ballotkit.formulas
import ballotkit.patterns
import ballotkit.perms


@pytest.mark.parametrize("module", [
    ballotkit.bijections, ballotkit.formulas, ballotkit.patterns, ballotkit.perms,
], ids=lambda module: module.__name__.rpartition(".")[2])
def test_doctests(module):
    failures, tried = doctest.testmod(module)
    assert tried > 0 and failures == 0
