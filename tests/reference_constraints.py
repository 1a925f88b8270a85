"""The Fraction forms of the two exact constraint oracles, kept as test references.

``pawclock.constraints.brute_force_pairs`` and
``pawclock.pawstate.paw_constraint_residual`` test n + 1/2 = kappa_r*(m+J)
on integer numerators.  These are the rational forms they replaced: one
``Fraction`` per ladder index, one per occupied branch.  The integer forms
must return exactly what these return; see tests/test_integer_oracles.py.
"""

from __future__ import annotations

from fractions import Fraction

from pawclock.pawstate import PawState


def brute_force_pairs(kappa_r, two_j: int, n_max: int) -> list[tuple[Fraction, int]]:
    """Every (m, n) with 0 <= n <= n_max on the ladder, by a rational test per index."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    kr = Fraction(kappa_r)
    found = []
    for m_plus_j in range(two_j + 1):
        n = kr * m_plus_j - Fraction(1, 2)
        if n.denominator == 1 and 0 <= n <= n_max:
            found.append((Fraction(2 * m_plus_j - two_j, 2), int(n)))
    return found


def paw_constraint_residual(state: PawState) -> float:
    """max |kappa_r*(m+J) - (n + 1/2)| * omega over the occupied branches, in Fractions."""
    worst = Fraction(0)
    for k, n in zip(state.support, state.n_values):
        gap = abs(state.ratios.kappa_r * k - (Fraction(n) + Fraction(1, 2)))
        worst = max(worst, gap)
    return float(worst) * state.oscillator.omega
