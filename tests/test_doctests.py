import doctest

import ballotkit.bijections
import ballotkit.patterns
import ballotkit.perms


def test_perms_doctests():
    failures, tried = doctest.testmod(ballotkit.perms)
    assert tried > 0 and failures == 0


def test_patterns_doctests():
    failures, tried = doctest.testmod(ballotkit.patterns)
    assert tried > 0 and failures == 0


def test_bijections_doctests():
    failures, tried = doctest.testmod(ballotkit.bijections)
    assert tried > 0 and failures == 0
