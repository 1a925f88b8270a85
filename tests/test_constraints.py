"""Unit tests for the exact constraint arithmetic and pair enumeration."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pawclock.constraints import (
    ClockSpec,
    CouplingRatios,
    NoOddOverEvenForm,
    OscillatorSpec,
    ReducedRatio,
    brute_force_pairs,
    enumerate_pairs,
    reduce_ratio,
)


def test_reduce_ratio_odd_over_even():
    ratio = reduce_ratio(Fraction(3, 4))
    assert ratio.i_n == 1 and ratio.i_m == 2

    ratio = reduce_ratio("1/2")
    assert ratio.i_n == 0 and ratio.i_m == 1

    # 6/8 reduces to 3/4 first
    assert reduce_ratio(Fraction(6, 8)) == reduce_ratio(Fraction(3, 4))


def test_reduce_ratio_rejects_forms_without_solutions():
    # even numerator
    with pytest.raises(NoOddOverEvenForm):
        reduce_ratio(Fraction(2, 3))
    # odd denominator
    with pytest.raises(NoOddOverEvenForm):
        reduce_ratio(Fraction(3, 5))
    # integers have odd denominator 1
    with pytest.raises(NoOddOverEvenForm):
        reduce_ratio(3)
    with pytest.raises(ValueError):
        reduce_ratio(Fraction(-3, 4))
    with pytest.raises(ValueError):
        reduce_ratio(0)


def test_reduced_ratio_requires_lowest_terms():
    # (2*4+1)/(2*3) = 9/6 is reducible; the normal form must be 3/2
    with pytest.raises(ValueError):
        ReducedRatio(i_n=4, i_m=3)


def test_golden_family_three_quarters():
    """kappa*r = 3/4 as the spin grows: the first entangled case is J = 3."""
    expected = {
        1: [],
        2: [(Fraction(1), 1)],
        3: [(Fraction(1, 2), 1)],
        4: [(Fraction(0), 1)],
        5: [(Fraction(-1, 2), 1)],
        6: [(Fraction(-1), 1), (Fraction(3), 4)],
    }
    for two_j, pairs in expected.items():
        family = enumerate_pairs(reduce_ratio(Fraction(3, 4)), two_j)
        found = [(family.m_fraction(k), n) for k, n in family.pairs]
        assert found == pairs, f"2J = {two_j}"


def _assert_enumeration_matches(kappa_r, two_j):
    n_max = math.ceil(kappa_r * two_j) + 1
    expected = brute_force_pairs(kappa_r, two_j, n_max)
    try:
        found = list(enumerate_pairs(reduce_ratio(kappa_r), two_j).pairs)
    except NoOddOverEvenForm:
        found = []
    assert found == expected, f"kappa*r = {kappa_r}, 2J = {two_j}"


# Odd-over-even ratios (2 i_n + 1)/(2 i_m), which have pairs, and any
# positive ratio, which mostly has no odd-over-even form.
RATIOS = st.one_of(
    st.builds(lambda i_n, i_m: Fraction(2 * i_n + 1, 2 * i_m),
              st.integers(0, 200), st.integers(1, 200)),
    st.builds(Fraction, st.integers(1, 60), st.integers(1, 60)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kappa_r=RATIOS, two_j=st.integers(1, 1140))
def _random_ratios_match(kappa_r, two_j):
    _assert_enumeration_matches(kappa_r, two_j)


def test_enumeration_matches_brute_force_search():
    """Closed form vs exhaustive rational search.

    Every ratio num/den <= 11/12 at every 2J <= 40, then a property over
    random ratios at 2J up to 1140.
    """
    for num in range(1, 12):
        for den in range(1, 13):
            for two_j in range(1, 41):
                _assert_enumeration_matches(Fraction(num, den), two_j)
    _random_ratios_match()


def test_admissibility_threshold():
    """Entanglement needs at least two pairs, i.e. 2J >= 3*i_m."""
    for kappa_r, i_m in ((Fraction(3, 4), 2), (Fraction(1, 2), 1), (Fraction(5, 6), 3)):
        ratio = reduce_ratio(kappa_r)
        assert ratio.i_m == i_m
        for two_j in range(1, 4 * i_m):
            assert (len(enumerate_pairs(ratio, two_j)) >= 2) == (two_j >= 3 * i_m)


def test_pair_labels_and_m_fraction():
    family = enumerate_pairs(reduce_ratio(Fraction(3, 4)), 6)
    first, second = family.pairs  # labels l = 0 and l = 1
    assert first == (2, 1)
    assert second == (6, 4)
    assert family.m_fraction(first[0]) == Fraction(-1)
    assert family.m_fraction(second[0]) == Fraction(3)


def test_every_enumerated_pair_satisfies_the_constraint():
    for kappa_r in (Fraction(3, 4), Fraction(1, 2), Fraction(5, 6), Fraction(7, 2)):
        for two_j in (3, 6, 17, 40):
            family = enumerate_pairs(reduce_ratio(kappa_r), two_j)
            for k, n in family:
                assert kappa_r * k == Fraction(2 * n + 1, 2)
                assert 0 <= k <= two_j


def test_clock_spec_levels():
    ClockSpec(two_j=6, epsilon=0.75)
    with pytest.raises(ValueError):
        ClockSpec(two_j=0, epsilon=1.0)
    with pytest.raises(ValueError):
        ClockSpec(two_j=6, epsilon=-1.0)


def test_oscillator_spec_levels():
    osc = OscillatorSpec(mass=170, omega=1.0)
    assert osc.level_energy(0) == 0.5
    assert osc.level_energy(4) == 4.5
    with pytest.raises(ValueError):
        OscillatorSpec(mass=0, omega=1.0)


def test_coupling_ratios_from_parameters():
    ratios = CouplingRatios.from_parameters(Fraction(3, 4), two_j=6, mass=1)
    assert ratios.kappa_r == Fraction(3, 4)
    assert ratios.r == Fraction(2, 6)  # 2M / 2J
    assert ratios.kappa == Fraction(9, 4)  # eps*J/(omega*M)
    assert ratios.kappa_r * Fraction(6, 2) == Fraction(9, 4)  # eps*J/omega

    ratios = CouplingRatios.from_parameters(Fraction(1, 2), two_j=510, mass=170)
    assert ratios.r == Fraction(2, 3)
    assert ratios.kappa == Fraction(3, 4)
    assert ratios.kappa_r == ratios.kappa * ratios.r
