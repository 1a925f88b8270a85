"""The Gram-product space-time marginal against the pair-by-pair reference.

``reference_space_time`` keeps the original implementation, which sums the
branch pairs one at a time.  The production kernel reorders the arithmetic,
so the two agree to rounding: grid values within 1e-12 of the grid maximum,
report fields within 1e-12 relative.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pawclock import marginals
from pawclock.coherent import ln_binomial
from pawclock.marginals import (
    GridAxis,
    _beat_pairs,
    default_time_axis,
    marginal_space_time,
)
from pawclock.pawstate import assemble_state, balanced_two_level_state, dense_family_state
from reference_space_time import marginal_space_time as reference_space_time

REPORT_FIELDS = ("clock_suppression_factor", "oscillator_suppression_factor",
                 "i1", "i2", "i_int", "ratio")
Q_AXIS = GridAxis("Q", -2.5, 2.5, 101)


def assert_matches_reference(state, q_axis, t_axis, p_order=400):
    grid, report = marginal_space_time(state, q_axis, t_axis, p_order)
    expected_grid, expected = reference_space_time(state, q_axis, t_axis, p_order)
    scale = float(np.max(np.abs(expected_grid.values)))
    assert float(np.max(np.abs(grid.values - expected_grid.values))) <= 1e-12 * scale
    for field in REPORT_FIELDS:
        assert getattr(report, field) == pytest.approx(getattr(expected, field),
                                                       rel=1e-12, abs=0.0), field


@pytest.mark.parametrize("state", [
    dense_family_state(2), dense_family_state(10), dense_family_state(20),
    balanced_two_level_state(10), balanced_two_level_state(170),
], ids=["dense-2", "dense-10", "dense-20", "balanced-10", "balanced-170"])
def test_space_time_matches_reference_on_ladder(state):
    assert_matches_reference(state, Q_AXIS, default_time_axis(state))


def test_space_time_amplitude_cut_drops_pairs_like_reference():
    """At 2J = 1100 the extreme branches k = 1, 3 and 1099 have an energy
    overlap near binom(1100, 550)^-1 ~ e^-758, below the e^-700 cut, while
    k = 1 and 3 stay coupled."""
    state = assemble_state(two_j=1100, mass=200, eps_over_omega="1/2",
                           coefficients={1: 1.0, 3: 1.0j, 1099: 0.5 - 0.5j})
    k = state.support
    moduli = np.abs(state.amplitudes)

    def log_amplitude(i, j):  # closed form of the energy overlap
        return (math.log(2.0 * moduli[i] * moduli[j])
                + 0.5 * float(ln_binomial(1100, k[i]) + ln_binomial(1100, k[j]))
                - float(ln_binomial(1100, 0.5 * (k[i] + k[j]))))

    assert log_amplitude(0, 1) > -650.0
    assert log_amplitude(0, 2) < -740.0 and log_amplitude(1, 2) < -740.0
    pairs = _beat_pairs(state)
    assert list(zip(pairs.first, pairs.second)) == [(0, 1)]
    assert_matches_reference(state, Q_AXIS, GridAxis("t", 0.0, 0.05, 5))


def _is_arithmetic(labels):
    return len(set(np.diff(labels))) == 1


@st.composite
def admissible_states(draw):
    """Random states with 3-4 branches whose ladder indices are not evenly
    spaced and whose coefficients carry arbitrary complex phases."""
    i_m = draw(st.integers(1, 3))
    i_n = draw(st.integers(0, 2).filter(lambda i: math.gcd(2 * i + 1, 2 * i_m) == 1))
    two_j = draw(st.integers(7 * i_m, 40))
    l_max = (two_j - i_m) // (2 * i_m)
    labels = sorted(draw(st.sets(st.integers(0, l_max), min_size=3, max_size=4)
                         .filter(lambda ls: not _is_arithmetic(sorted(ls)))))
    coefficient = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                     allow_infinity=False).filter(lambda c: abs(c) > 0.1)
    coefficients = {i_m * (2 * label + 1): draw(coefficient) for label in labels}
    return assemble_state(two_j=two_j, mass=draw(st.integers(1, 12)),
                          eps_over_omega=f"{2 * i_n + 1}/{2 * i_m}",
                          coefficients=coefficients)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(state=admissible_states(), q_count=st.sampled_from([9, 17, 33]),
       t_count=st.integers(2, 9), p_order=st.sampled_from([24, 25, 40]))
def test_space_time_matches_reference_on_random_states(state, q_count, t_count, p_order):
    # odd counts and odd p_order put a node at Q = P = 0, where u = 0
    q_axis = GridAxis("Q", -3.0, 3.0, q_count)
    t_axis = GridAxis("t", 0.0, 2.0 * math.pi / state.epsilon, t_count)
    assert_matches_reference(state, q_axis, t_axis, p_order)


def test_space_time_bits_do_not_depend_on_thread_count(monkeypatch):
    """Thirteen row blocks and 30 branches, so each thread count splits the
    blocks differently and the Gram products are large enough for BLAS."""
    state = dense_family_state(20)
    t_axis = GridAxis("t", 0.0, 0.3, 8)
    results = []
    for threads in (1, 7):
        monkeypatch.setattr(marginals, "_worker_count", lambda: threads)
        grid, report = marginal_space_time(state, Q_AXIS, t_axis)
        results.append((grid.values, report))
    assert np.array_equal(results[0][0], results[1][0])
    assert results[0][1] == results[1][1]
