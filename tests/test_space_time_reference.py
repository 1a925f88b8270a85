"""The space-time marginal against the pair-by-pair reference.

``reference_space_time`` keeps the original implementation, which sums the
branch pairs one at a time over 400 momentum nodes, an order at which it has
converged.  The production kernel, the closed-form beam-splitter sum, agrees
with it to rounding on every state: grid values within 1e-12 of the grid
maximum, report fields within 1e-12 relative.  Its momentum integrals are
also checked pair by pair against an ``mpmath`` quadrature, on far pairs
where |C| spans tens of decades.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pawclock.coherent import ln_binomial
from pawclock.marginals import (
    GridAxis,
    _closed_form_rows,
    default_time_axis,
    marginal_space_time,
)
from pawclock.pawstate import assemble_state, balanced_two_level_state, dense_family_state
from reference_space_time import marginal_space_time as reference_space_time

REPORT_FIELDS = ("clock_suppression_factor", "oscillator_suppression_factor",
                 "i1", "i2", "i_int", "ratio")
Q_AXIS = GridAxis("Q", -2.5, 2.5, 101)


def assert_matches_reference(state, q_axis, t_axis):
    grid, report = marginal_space_time(state, q_axis, t_axis)
    expected_grid, expected = reference_space_time(state, q_axis, t_axis, p_order=400)
    scale = float(np.max(np.abs(expected_grid.values)))
    assert float(np.max(np.abs(grid.values - expected_grid.values))) <= 1e-12 * scale
    for field in REPORT_FIELDS:
        assert getattr(report, field) == pytest.approx(getattr(expected, field),
                                                       rel=1e-12, abs=0.0), field


@pytest.mark.parametrize("state", [
    dense_family_state(2), dense_family_state(10), dense_family_state(20),
    balanced_two_level_state(10), balanced_two_level_state(170),
    balanced_two_level_state(340),
], ids=["dense-2", "dense-10", "dense-20", "balanced-10", "balanced-170", "balanced-340"])
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
    # the three gaps are 1, 548 and 549, one pair each: only the first is kept
    _, _, beats = _closed_form_rows(state, Q_AXIS.values)
    assert beats.tolist() == [k[0] - k[1]]
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
       t_count=st.integers(2, 9))
def test_space_time_matches_reference_on_random_states(state, q_count, t_count):
    # odd counts put a node at Q = 0
    q_axis = GridAxis("Q", -3.0, 3.0, q_count)
    t_axis = GridAxis("t", 0.0, 2.0 * math.pi / state.clock.epsilon, t_count)
    assert_matches_reference(state, q_axis, t_axis)


def _oracle_momentum_integral(n1, n2, mass, q):
    """C(Q) = int dP <n1|z><z|n2>, z = sqrt(M/2)(Q + iP), by mpmath quad.

    The integrand is e^{-u} u^s cos((n1 - n2) arctan2(P, Q)) over
    sqrt(n1! n2!), u = M(Q^2 + P^2)/2 and s = (n1 + n2)/2, even in P; for
    the pairs below it is below 1e-100 for |P| > 4.  The kernel's recurrence
    is not used.  quad's error is absolute, near 1e-32 of the integrand's peak
    at 30 digits, so a result that many decades below the peak is taken
    again with as many more digits: at 30 digits the (0, 59) pair at M = 40
    and Q = 2 was off by 8e-10 of C.
    """
    q = mpmath.mpf(q)
    digits = 30
    while True:
        with mpmath.workdps(digits):
            s = mpmath.mpf(n1 + n2) / 2
            log_norm = -0.5 * (mpmath.loggamma(n1 + 1) + mpmath.loggamma(n2 + 1))

            def integrand(p):
                u = mass * (q * q + p * p) / 2
                return (mpmath.exp(log_norm - u + s * mpmath.log(u))
                        * mpmath.cos((n1 - n2) * mpmath.atan2(p, q)))

            value = 2 * mpmath.quad(integrand, mpmath.linspace(0, 4, 81))
            top = max(mass * q * q / 2, s)
            cancelled = float(log_norm - top + s * mpmath.log(top) - mpmath.log(abs(value)))
        if digits >= 30 + cancelled / math.log(10.0):
            return float(value)
        digits = 30 + math.ceil(cancelled / math.log(10.0))


@pytest.mark.parametrize("state, pair, q_values", [
    (dense_family_state(170), (253, 254), [0.3, 1.2, 1.7]),
    (balanced_two_level_state(170), (0, 1), [0.3, 0.5, 1.0, 1.5, 2.0, 2.4]),
    (dense_family_state(40), (0, 59), [0.3, 0.6, 1.0, 1.5, 2.0, 2.5]),
], ids=["adjacent-253-254", "far-85-170", "dense-40-far-0-59"])
def test_kernel_momentum_integrals_match_mpmath(state, pair, q_values):
    """The kernel's C_ij(Q) for one Fock pair against the oracle: within 1e-12
    of the largest |C| and within 1e-11 of |C| itself at every Q.  It is read
    off the one beat row of the two-branch state of that pair, divided by the
    pair's coefficient 2|c_i||c_j| A_ij, taken in mpmath.  C of the far pair
    (85, 170) runs from 1e-6 down to 1e-80 (measured at most 3.9e-12
    relative, at Q = 1.0; a 400-node momentum quadrature was off by 2.0e-4 at
    Q = 1.5), and that of the pair (0, 59) of the dense M = 40 state from
    6e-11 down to 7e-38.
    """
    i, j = pair
    n1, n2 = state.n_values[i], state.n_values[j]
    k1, k2, two_j = state.support[i], state.support[j], state.two_j
    two_branch = assemble_state(two_j=two_j, mass=state.mass,
                                eps_over_omega=state.ratios.kappa_r,
                                coefficients={k1: 1.0, k2: 1.0})
    moduli = np.abs(two_branch.amplitudes)
    overlap = (mpmath.sqrt(mpmath.binomial(two_j, k1) * mpmath.binomial(two_j, k2))
               / mpmath.binomial(two_j, mpmath.mpf(k1 + k2) / 2))
    coefficient = 2.0 * moduli[0] * moduli[1] * float(overlap)
    q = np.array(q_values)
    expected = np.array([_oracle_momentum_integral(n1, n2, state.mass, x) for x in q])
    scale = float(np.max(np.abs(expected)))
    _, beat, beats = _closed_form_rows(two_branch, q)
    assert beats.tolist() == [k1 - k2]
    assert np.all(beat[1] == 0.0)
    closed = beat[0, :, 0] / coefficient
    assert np.max(np.abs(closed - expected)) <= 1e-12 * scale
    assert np.all(np.abs(closed - expected) <= 1e-11 * np.abs(expected))
