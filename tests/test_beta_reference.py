"""The |beta|^2 normalization: its exact identity against two quadratures.

``chi_squared_integral`` reports sum_m |c_m|^2, the integral of |beta|^2 by
the resolutions of identity on the sphere and the plane.  The oracles of
``reference_beta`` integrate it numerically: ``diagonal_beta_integral`` keeps
only the diagonal sum_m |c_m|^2 * S_m * R_m with a Gauss-Legendre radial
rule, and ``beta_double_integral`` folds every branch pair through the
quadratures and multiplies by the azimuthal sums of ``phase_deltas``.  Those
sums are Kronecker deltas, so the two quadratures agree to rounding, and
both agree with the identity to the sphere rule's rounding error, which
reaches 1.2e-12 at 2J = 1140.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pawclock.pawstate import (
    assemble_state,
    balanced_two_level_state,
    chi_squared_integral,
    dense_family_state,
    large_j_pair_state,
    spin3_pair_state,
)
from reference_beta import beta_double_integral as reference_beta
from reference_beta import branch_norms, diagonal_beta_integral, phase_deltas

LADDER = {
    "spin3": spin3_pair_state,
    "balanced-4": lambda: balanced_two_level_state(4),
    "balanced-170": lambda: balanced_two_level_state(170),
    "dense-2": lambda: dense_family_state(2),
    "dense-10": lambda: dense_family_state(10),
    "dense-20": lambda: dense_family_state(20),
    "dense-40": lambda: dense_family_state(40),
    "dense-170": lambda: dense_family_state(170),
    "largeJ-3": lambda: large_j_pair_state(3),
    "largeJ-120": lambda: large_j_pair_state(120),
    "largeJ-570": lambda: large_j_pair_state(570),
}


@st.composite
def admissible_states(draw):
    """Random states with 2-6 branches and arbitrary complex coefficients.

    The largest Fock level stays at or below 300, where the reference's
    Gauss-Laguerre rule (order max n + 40) still has finite weights.
    """
    i_m = draw(st.integers(1, 3))
    i_n = draw(st.integers(0, 3).filter(lambda i: math.gcd(2 * i + 1, 2 * i_m) == 1))
    kappa_r = (2 * i_n + 1) / (2 * i_m)
    two_j = draw(st.integers(3 * i_m, min(200, int(300.5 / kappa_r))))
    l_max = (two_j - i_m) // (2 * i_m)
    labels = draw(st.sets(st.integers(0, l_max), min_size=2, max_size=6))
    coefficient = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                     allow_infinity=False).filter(lambda c: abs(c) > 0.1)
    coefficients = {i_m * (2 * label + 1): draw(coefficient) for label in labels}
    return assemble_state(two_j=two_j, mass=draw(st.integers(1, 12)),
                          eps_over_omega=f"{2 * i_n + 1}/{2 * i_m}",
                          coefficients=coefficients)


def assert_phase_deltas_are_identity(state):
    k = np.array(state.support, dtype=float)
    n = np.array(state.n_values, dtype=float)
    identity = np.eye(len(k))
    assert np.max(np.abs(phase_deltas(k, state.two_j + 3) - identity)) <= 1e-13
    assert np.max(np.abs(phase_deltas(n, int(max(n)) + 3) - identity)) <= 1e-13


def assert_quadratures_match_identity(state):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = diagonal_beta_integral(state)
    assert value == pytest.approx(reference_beta(state), abs=1e-12)
    assert chi_squared_integral(state) == pytest.approx(value, abs=1e-11)


@pytest.mark.parametrize("name", list(LADDER))
def test_beta_matches_reference_on_ladder(name):
    assert_quadratures_match_identity(LADDER[name]())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(state=admissible_states())
def test_beta_matches_reference_on_random_states(state):
    assert_quadratures_match_identity(state)


@pytest.mark.parametrize("name", list(LADDER))
def test_reference_phase_deltas_are_identity_on_ladder(name):
    assert_phase_deltas_are_identity(LADDER[name]())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(state=admissible_states())
def test_reference_phase_deltas_are_identity_on_random_states(state):
    assert_phase_deltas_are_identity(state)


def test_beta_is_one_above_fock_level_400():
    """kappa*r = 7/2 at 2J = 1139 puts branches at n = 3, 353, 1998 and 3986.
    Gauss-Laguerre weights are NaN from order ~360 up, where the reference
    rule dropped every node and read 0."""
    state = assemble_state(two_j=1139, mass=3, eps_over_omega="7/2",
                           coefficients={1: 0.5, 101: 0.5j, 571: -0.5, 1139: 0.5 - 0.1j})
    assert max(state.n_values) == 3986
    assert diagonal_beta_integral(state) == pytest.approx(chi_squared_integral(state),
                                                          abs=1e-9)
    assert np.max(np.abs(branch_norms(state) - 1.0)) <= 1e-9
