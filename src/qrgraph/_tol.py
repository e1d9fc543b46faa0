"""The absolute tolerance for distance comparisons, and two helpers.

Distances compare with an absolute tolerance of 1e-9; ties are broken toward
the smaller radius.  Most modules compare against ``TOL`` inline
(``d < r - TOL`` for open balls, ``d <= r + TOL`` for closed ones); ``le`` and
``ge`` spell out the non-strict comparisons.
"""
from __future__ import annotations

TOL = 1e-9


def le(a: float, b: float) -> bool:
    """a <= b, where values within TOL count as equal."""
    return a <= b + TOL


def ge(a: float, b: float) -> bool:
    """a >= b, where values within TOL count as equal."""
    return a >= b - TOL
