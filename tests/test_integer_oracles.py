"""The integer constraint oracles against their Fraction forms.

``brute_force_pairs`` and ``paw_constraint_residual`` decide
n + 1/2 = kappa_r*(m+J) on integer numerators.  They must return exactly what
the rational forms in tests/reference_constraints.py return, and build no
Fraction per ladder index or per branch.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_constraints as reference
from pawclock.constraints import brute_force_pairs, enumerate_pairs, reduce_ratio
from pawclock.pawstate import (
    assemble_state,
    balanced_two_level_state,
    dense_family_state,
    large_j_pair_state,
    paw_constraint_residual,
    shift_fock_levels,
    spin3_pair_state,
)

BIG = 10**30

# Odd-over-even ratios, which have pairs at small 2J, and any ratio with
# numerator and denominator up to 10^30, including the non-positive ones.
RATIOS = st.one_of(
    st.builds(lambda i_n, i_m: Fraction(2 * i_n + 1, 2 * i_m),
              st.integers(0, BIG), st.integers(1, 150)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kappa_r=RATIOS, two_j=st.integers(1, 300),
       n_max=st.one_of(st.just(0), st.integers(0, 10 * BIG)))
def test_pair_scan_equals_fraction_scan(kappa_r, two_j, n_max):
    """Equal lists at a drawn n_max, at n_max = 0, and with n_max on and just
    below the smallest and the largest Fock level found."""
    everything = reference.brute_force_pairs(kappa_r, two_j, abs(kappa_r.numerator) * two_j)
    levels = [n for _, n in everything]
    bounds = {0, n_max}
    if levels:
        bounds |= {levels[0], levels[-1]} | {n - 1 for n in (levels[0], levels[-1]) if n}
    for bound in sorted(bounds):
        assert brute_force_pairs(kappa_r, two_j, bound) == \
            reference.brute_force_pairs(kappa_r, two_j, bound), bound


def test_pair_scan_keeps_a_level_equal_to_n_max():
    """kappa_r = 1/2 at 2J = 6 pairs m+J = 1, 3, 5 with n = 0, 1, 2."""
    pairs = [(Fraction(-2), 0), (Fraction(0), 1), (Fraction(2), 2)]
    for n_max in range(4):
        assert brute_force_pairs(Fraction(1, 2), 6, n_max) == pairs[:n_max + 1]
    with pytest.raises(ValueError):
        brute_force_pairs(Fraction(1, 2), 6, -1)


LADDER = [spin3_pair_state(), spin3_pair_state(omega=0.37),
          *(dense_family_state(m) for m in (10, 20, 40, 170)),
          *(balanced_two_level_state(m) for m in (4, 170)),
          *(large_j_pair_state(j) for j in (3, 120, 570))]


def assert_residuals_match(state):
    """Residuals equal to the bit on the state and its copies shifted by 1 and 3."""
    for delta in (0, 1, -1, 3, -3):
        try:
            copy = shift_fock_levels(state, delta)
        except ValueError:  # a Fock level would go below zero
            continue
        assert paw_constraint_residual(copy).hex() == \
            reference.paw_constraint_residual(copy).hex(), delta


@pytest.mark.parametrize("state", LADDER, ids=range(len(LADDER)))
def test_residual_equals_fraction_residual_on_the_ladder(state):
    assert_residuals_match(state)


@st.composite
def large_ratio_states(draw):
    """States of an odd/even ratio with i_n and i_m up to 10^30, on 2..6 branches."""
    i_m = draw(st.integers(1, BIG))
    i_n = draw(st.integers(0, BIG).filter(lambda i: math.gcd(2 * i + 1, 2 * i_m) == 1))
    ratio = Fraction(2 * i_n + 1, 2 * i_m)
    two_j = i_m * (2 * draw(st.integers(2, 6)) - 1) + draw(st.integers(0, 2 * i_m - 1))
    family = enumerate_pairs(reduce_ratio(ratio), two_j)
    pairs = draw(st.lists(st.sampled_from(family.pairs), min_size=2, max_size=6,
                          unique=True))
    return assemble_state(two_j=two_j, mass=draw(st.integers(1, BIG)),
                          eps_over_omega=ratio,
                          coefficients={pair.m_plus_j: 1.0 for pair in pairs},
                          omega=draw(st.sampled_from([1.0, 0.37, 2.5])))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(state=large_ratio_states())
def test_residual_equals_fraction_residual_at_large_ratios(state):
    assert_residuals_match(state)


@pytest.fixture
def fraction_count(monkeypatch):
    """The number of Fractions constructed since the fixture was set up."""
    count = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return count


@pytest.mark.parametrize("kappa_r", [Fraction(1, 2), Fraction(3, 4), "3/4"])
def test_pair_scan_makes_one_fraction_per_pair(kappa_r, fraction_count):
    """At 2J = 1140 the scan builds the m of each pair found and the ratio,
    not a Fraction per ladder index as the rational form does."""
    found = brute_force_pairs(kappa_r, 1140, 1140)
    assert found and fraction_count[0] <= len(found) + 2
    fraction_count[0] = 0
    assert reference.brute_force_pairs(kappa_r, 1140, 1140) == found
    assert fraction_count[0] > 1140


def test_residual_makes_no_fraction_per_branch(fraction_count):
    state = dense_family_state(170)
    fraction_count[0] = 0
    assert paw_constraint_residual(state) == 0.0
    assert fraction_count[0] <= 2
    assert reference.paw_constraint_residual(state) == 0.0
    assert fraction_count[0] > len(state.support)
