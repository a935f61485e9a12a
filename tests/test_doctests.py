"""The docstring examples of the polynomial layer must keep running."""

import doctest

import fcheaps.qpoly


def test_qpoly_doctests():
    result = doctest.testmod(fcheaps.qpoly)
    assert result.attempted >= 4
    assert result.failed == 0
