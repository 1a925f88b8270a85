"""Unit tests for state assembly, chi^2, conditional dynamics, and serialization."""

import cmath
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pawclock import cli, pawstate
from pawclock.constraints import ClockSpec, OscillatorSpec, enumerate_pairs, reduce_ratio
from pawclock.pawstate import (
    DegenerateTheta,
    NotAdmissible,
    UnsupportedIndex,
    ZeroState,
    assemble_state,
    balanced_two_level_state,
    build_state,
    chi_squared,
    chi_squared_integral,
    chi_squared_terms,
    conditional_state,
    dense_family_state,
    large_j_pair_state,
    log_chi_squared,
    paw_constraint_residual,
    schrodinger_order_study,
    schrodinger_residual,
    shift_fock_levels,
    spin3_pair_state,
    state_from_dict,
    state_to_dict,
)
from reference_beta import chi_squared_quadrature


def closed_form_chi2_spin3(theta):
    """chi^2 for the equal-weight J=3 state: 7.5 c^8 s^4 + 0.5 s^12."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return 7.5 * c ** 8 * s ** 4 + 0.5 * s ** 12


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_spin3_pair_state_structure():
    state = spin3_pair_state()
    assert state.two_j == 6
    assert state.mass == 1
    assert state.ratios.kappa_r == Fraction(3, 4)
    assert state.support == (2, 6)
    assert tuple(state.n_values) == (1, 4)
    assert np.abs(state.amplitudes) == pytest.approx([1.0 / math.sqrt(2.0)] * 2)
    assert paw_constraint_residual(state) == 0.0


def test_balanced_two_level_state_structure():
    state = balanced_two_level_state(170)
    assert state.two_j == 510
    assert state.mass == 170
    assert state.ratios.kappa_r == Fraction(1, 2)
    assert state.ratios.kappa == Fraction(3, 4)
    assert state.support == (171, 341)
    assert tuple(state.n_values) == (85, 170)
    with pytest.raises(ValueError):
        balanced_two_level_state(3)  # odd mass has no half-mass Fock level


def test_large_j_pair_state_structure():
    state = large_j_pair_state(570)
    assert state.two_j == 1140
    assert state.support == (380, 1140)
    assert tuple(state.n_values) == (0, 1)
    # eps*J = 3/4 in units of omega
    assert state.clock.epsilon * state.two_j / 2 == pytest.approx(0.75)
    with pytest.raises(ValueError):
        large_j_pair_state(70)  # not a multiple of 3


def test_dense_family_state_structure():
    state = dense_family_state(170)
    assert state.two_j == 510
    assert len(state.support) == 255
    assert tuple(state.n_values) == tuple(range(255))
    weights = np.abs(state.amplitudes) ** 2
    assert np.allclose(weights, 1.0 / 255.0)


def test_build_state_normalizes_and_orders():
    state = assemble_state(6, 1, Fraction(3, 4), {6: 3.0, 2: 4.0})
    assert state.support == (2, 6)
    assert np.abs(state.amplitudes) == pytest.approx([0.8, 0.6])
    norm = sum(abs(c) ** 2 for c in state.amplitudes.tolist())
    assert norm == pytest.approx(1.0, abs=1e-15)


def _part():
    """A coefficient's real or imaginary part: 0 or |x| in [1e-20, 1e20], either sign."""
    return st.one_of(st.just(0.0), st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                                            st.sampled_from([-1.0, 1.0]),
                                            st.floats(-20.0, 20.0)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coefficients=st.dictionaries(st.sampled_from(range(1, 30, 2)),
                                    st.builds(complex, _part(), _part()).filter(bool),
                                    min_size=2, max_size=5),
       power=st.integers(-900, 900))
def test_build_state_normalization_is_scale_free(coefficients, power):
    """Scaling every coefficient by 2^power, which keeps each part normal,
    leaves the amplitudes bitwise equal, and both equal c / sqrt(sum |c|^2)."""
    def amplitudes(scale):
        scaled = {k: complex(math.ldexp(c.real, scale), math.ldexp(c.imag, scale))
                  for k, c in coefficients.items()}
        return assemble_state(30, 10, Fraction(1, 2), scaled).amplitudes

    norm = math.sqrt(sum(abs(coefficients[k]) ** 2 for k in sorted(coefficients)))
    direct = np.array([coefficients[k] / norm for k in sorted(coefficients)])
    assert amplitudes(power).tobytes() == amplitudes(0).tobytes() == direct.tobytes()


def test_build_state_rejects_mismatched_ratio():
    clock = ClockSpec(two_j=6, epsilon=0.74)  # inconsistent with kappa_r = 3/4
    oscillator = OscillatorSpec(mass=1, omega=1.0)
    with pytest.raises(ValueError):
        build_state(clock, oscillator, Fraction(3, 4), {2: 1.0, 6: 1.0})


def test_ratio_beyond_float_is_a_value_error():
    """float(kappa_r) would raise OverflowError; both constructors say why instead."""
    huge = Fraction(2 * 10**400 + 1, 2)
    with pytest.raises(ValueError, match="too large for a float"):
        assemble_state(6, 1, huge, {1: 1.0, 3: 1.0})
    with pytest.raises(ValueError, match="too large for a float"):
        build_state(ClockSpec(two_j=6, epsilon=1.0), OscillatorSpec(mass=1, omega=1.0),
                    huge, {1: 1.0, 3: 1.0})


def test_build_state_rejects_non_finite_amplitudes():
    """No route builds a NaN state: flags, dicts and JSON documents alike."""
    for bad in (math.nan, math.inf, complex(1.0, -math.inf)):
        with pytest.raises(ValueError, match="not finite"):
            assemble_state(6, 1, Fraction(3, 4), {2: bad, 6: 1.0})
    document = json.loads('{"two_J": 6, "epsilon_over_omega": [3, 4], "M": 1, '
                          '"coefficients": [{"m_plus_J": 2, "re": NaN, "im": 0.0}, '
                          '{"m_plus_J": 6, "re": 1.0, "im": 0.0}]}')
    with pytest.raises(ValueError, match="not finite"):
        state_from_dict(document)


def test_build_state_admissibility_errors():
    # single-pair spin: not entanglement admissible
    with pytest.raises(NotAdmissible):
        assemble_state(4, 1, Fraction(3, 4), {2: 1.0})
    # ratio with no odd/even form
    with pytest.raises(NotAdmissible):
        assemble_state(6, 1, Fraction(2, 3), {2: 1.0, 6: 1.0})
    # amplitude on a ladder index outside the family
    with pytest.raises(UnsupportedIndex):
        assemble_state(6, 1, Fraction(3, 4), {2: 1.0, 5: 1.0})
    # all amplitudes zero
    with pytest.raises(ZeroState):
        assemble_state(6, 1, Fraction(3, 4), {2: 0.0, 6: 0.0})
    # only one branch populated: a product state
    with pytest.raises(NotAdmissible):
        assemble_state(6, 1, Fraction(3, 4), {2: 1.0, 6: 0.0})


def test_hamiltonian_action_kernel():
    """On every allowed pair the clock and oscillator eigenvalues coincide:
    the pair basis spans the kernel of H_clock - H_osc."""
    state = spin3_pair_state()
    for k, n in state.family.pairs:
        assert state.clock.epsilon * k == state.oscillator.level_energy(n)
    assert state.clock.epsilon * 2 == state.oscillator.level_energy(1) == 1.5


# ---------------------------------------------------------------------------
# chi^2
# ---------------------------------------------------------------------------

def test_chi_squared_closed_form_spin3():
    state = spin3_pair_state()
    thetas = np.linspace(0.0, math.pi, 1000)
    assert np.max(np.abs(chi_squared(state, thetas)
                         - closed_form_chi2_spin3(thetas))) < 1e-12


def test_chi_squared_special_values():
    state = spin3_pair_state()
    assert chi_squared(state, 0.0) == 0.0
    assert chi_squared(state, math.pi) == pytest.approx(0.5, abs=1e-15)
    assert chi_squared(state, math.pi / 2.0) == pytest.approx(0.125, abs=1e-15)


def test_chi_squared_terms_sum_to_total():
    state = balanced_two_level_state(4)
    thetas = np.linspace(0.1, 3.0, 57)
    terms = chi_squared_terms(state, thetas)
    assert terms.shape == (57, 2)
    assert np.allclose(terms.sum(axis=1), chi_squared(state, thetas), rtol=1e-13)


def test_log_chi_squared_scalar_and_array():
    state = spin3_pair_state()
    scalar = log_chi_squared(state, 1.3)
    array = log_chi_squared(state, np.array([1.3, 2.1]))
    assert isinstance(scalar, float)
    assert array.shape == (2,)
    assert array[0] == pytest.approx(scalar)


def test_chi_squared_integral_is_one():
    """sum |c_m|^2 is 1 and is the sphere quadrature of chi^2."""
    for state in (spin3_pair_state(), balanced_two_level_state(4),
                  large_j_pair_state(30), dense_family_state(3)):
        assert chi_squared_integral(state) == pytest.approx(1.0, abs=1e-12)
        assert chi_squared_quadrature(state) == pytest.approx(
            chi_squared_integral(state), abs=1e-12)


# ---------------------------------------------------------------------------
# conditional states
# ---------------------------------------------------------------------------

def test_conditional_state_explicit_amplitudes():
    """At theta = pi/2 the J=3 conditional state is known in closed form."""
    state = spin3_pair_state()
    phi = 0.7
    cond = conditional_state(state, math.pi / 2.0, phi)
    assert cond.n_values == (1, 4)
    expected_1 = (math.sqrt(15.0) / 4.0) * cmath.exp(-2j * phi)
    expected_4 = 0.25 * cmath.exp(-6j * phi)
    assert cond.vector == pytest.approx([expected_1, expected_4], abs=1e-14)
    assert cond.norm() == pytest.approx(1.0, abs=1e-12)
    assert cond.norm_chi2 == pytest.approx(0.125)


def test_conditional_state_normalized_everywhere():
    state = balanced_two_level_state(170)
    for theta in (0.3, 0.7, 1.9, 2.6):
        cond = conditional_state(state, theta, 0.3)
        assert cond.norm() == pytest.approx(1.0, abs=1e-12), theta


def test_conditional_state_degenerate_at_origin():
    """chi^2 is exactly 0 only at theta = 0; where it underflows a double the
    conditional state is still normalized."""
    for state in (spin3_pair_state(), balanced_two_level_state(170)):
        with pytest.raises(DegenerateTheta):
            conditional_state(state, 0.0, 0.0)
    cond = conditional_state(balanced_two_level_state(170), 0.05, 0.0)
    assert cond.norm_chi2 == 0.0
    assert cond.norm() == pytest.approx(1.0, abs=1e-12)


def mp_conditional_moduli(state, theta: float) -> list[float]:
    """|c_m <Omega|J, m>| / chi(theta) at 50 digits, from the state's amplitudes."""
    with mpmath.workdps(50):
        half, two_j = mpmath.mpf(theta) / 2, state.two_j
        logs = [mpmath.log(abs(mpmath.mpc(c)))
                + (mpmath.loggamma(two_j + 1) - mpmath.loggamma(k + 1)
                   - mpmath.loggamma(two_j - k + 1)) / 2
                + (two_j - k) * mpmath.log(mpmath.cos(half)) + k * mpmath.log(mpmath.sin(half))
                for c, k in zip(state.amplitudes.tolist(), state.support)]
        log_chi = mpmath.log(mpmath.fsum(mpmath.exp(2 * x) for x in logs)) / 2
        return [float(mpmath.exp(x - log_chi)) for x in logs]


# Readings where chi^2 underflows a double: (state, theta, log chi^2).
FAR_READINGS = {
    "balanced-170-theta-0.05": (lambda: balanced_two_level_state(170), 0.05, -940.5),
    "balanced-170-theta-pi": (lambda: balanced_two_level_state(170), math.pi, -12298.2),
    "pole-2J-1103": (lambda: assemble_state(1103, 34, Fraction(3, 2), {3: 1.0, 1: 1e-84}),
                     math.pi / 2, -745.3),
    "pole-2J-20000": (lambda: assemble_state(20000, 34, Fraction(3, 2), {1: 2.0, 3: 1.0}),
                      math.pi / 2, -13836.6),
    "pole-2J-60000": (lambda: assemble_state(60000, 34, Fraction(3, 2), {1: 2.0, 3: 1.0}),
                      math.pi / 2, -41559.2),
}


@pytest.mark.parametrize("case", FAR_READINGS)
def test_conditional_moduli_match_mpmath_where_chi_squared_underflows(case):
    """The moduli are rounded as |log chi^2| * eps, from the log-space overlaps."""
    make, theta, log_chi2 = FAR_READINGS[case]
    state = make()
    assert log_chi_squared(state, theta) == pytest.approx(log_chi2, abs=0.05)
    cond = conditional_state(state, theta, 0.7)
    bound = 4.0 * np.finfo(float).eps * abs(log_chi2)
    assert np.abs(cond.vector) == pytest.approx(mp_conditional_moduli(state, theta),
                                                abs=bound, rel=0)


@pytest.mark.parametrize("case", FAR_READINGS)
def test_conditional_norm_is_one_to_rounding_however_small_chi_squared(case):
    """The moduli are shifted by the largest log modulus and divided by their
    own norm, so the norm is 1 within 4 eps.  log chi^2 is up to 4e4 in size
    here: moduli exp(log modulus - log chi) would miss 1 by ~|log chi^2| eps,
    1.1e-12 at 2J = 60,000."""
    make, theta, _ = FAR_READINGS[case]
    cond = conditional_state(make(), theta, 0.7)
    assert abs(cond.norm() - 1.0) <= 4.0 * np.finfo(float).eps


def test_conditional_state_at_float_pi_is_the_highest_branch():
    """The float nearest pi lies 1.2e-16 below it, where chi^2 > 0: a state with
    an empty top level conditions on its highest branch, n = 170 here."""
    cond = conditional_state(balanced_two_level_state(170), math.pi, 0.0)
    assert cond.n_values == (85, 170)
    assert abs(cond.vector[1]) == pytest.approx(1.0, abs=1e-15)
    assert abs(cond.vector[0]) < 1e-300


def test_conditional_survives_underflowing_branches():
    """At small theta the top branch underflows; the norm must still be 1."""
    state = large_j_pair_state(570)
    cond = conditional_state(state, 0.5, 0.0)
    assert cond.norm() == pytest.approx(1.0, abs=1e-12)
    # the n = 1 branch carries sin^{2280}(theta/2) ~ e^{-3185}: a true zero
    # after normalization against the (already tiny) n = 0 branch
    assert cond.n_values == (0, 1)
    assert abs(cond.vector[1]) == 0.0
    assert abs(cond.vector[0]) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# emergent Schroedinger equation
# ---------------------------------------------------------------------------

def test_schrodinger_residual_matches_analytic_error():
    """The central-difference defect is exactly eps*k*(1 - sinc(k*dphi)) per branch."""
    state = spin3_pair_state()
    dphi = 1e-4
    # theta = pi leaves only the k = 6 branch
    residual = schrodinger_residual(state, math.pi, 0.7, dphi=dphi)
    k = 6
    predicted = 0.75 * k * (1.0 - math.sin(k * dphi) / (k * dphi))
    assert residual == pytest.approx(predicted, rel=1e-4)
    # two-branch point: quadrature sum of per-branch defects
    theta = math.pi / 2.0
    w2, w6 = 15.0 / 16.0, 1.0 / 16.0
    d2 = 0.75 * 2 * (1.0 - math.sin(2 * dphi) / (2 * dphi))
    d6 = 0.75 * 6 * (1.0 - math.sin(6 * dphi) / (6 * dphi))
    predicted = math.sqrt(w2 * d2 ** 2 + w6 * d6 ** 2)
    measured = schrodinger_residual(state, theta, 0.7, dphi=dphi)
    assert measured == pytest.approx(predicted, rel=1e-4)


def test_order_study_residuals_are_single_step_residuals_bitwise():
    """Each residual of the study is schrodinger_residual at that step, bit for bit."""
    for state, theta, phi in ((spin3_pair_state(), math.pi / 2.0, 0.7),
                              (dense_family_state(40), 1.1, 3.3),
                              (large_j_pair_state(570), 2.0, 0.3)):
        study = schrodinger_order_study(state, theta, phi)
        for step, residual in zip(study.steps, study.residuals):
            single = schrodinger_residual(state, theta, phi, dphi=step)
            assert np.float64(single).tobytes() == np.float64(residual).tobytes()


def test_schrodinger_residual_rejects_non_positive_steps():
    """dphi = 0 is refused, not swapped for the default step."""
    state = spin3_pair_state()
    for dphi in (0.0, -1e-3):
        with pytest.raises(ValueError, match="dphi must be positive"):
            schrodinger_residual(state, math.pi / 2.0, 0.7, dphi=dphi)
        with pytest.raises(ValueError, match="dphi must be positive"):
            schrodinger_order_study(state, math.pi / 2.0, 0.7, steps=(1e-3, dphi))


def counting_clock_overlaps(monkeypatch):
    """Wrap pawstate's scs_log_magnitude; returns the list of scalar thetas it sees."""
    thetas = []
    original = pawstate.scs_log_magnitude

    def counted(theta, two_j, m_plus_j):
        if np.ndim(theta) == 0:
            thetas.append(float(theta))
        return original(theta, two_j, m_plus_j)

    monkeypatch.setattr(pawstate, "scs_log_magnitude", counted)
    return thetas


def test_order_study_evaluates_the_clock_overlaps_once(monkeypatch):
    """The clock part of the conditional state depends on theta alone, so the
    four-step study evaluates the overlaps at its theta once, not 12 times."""
    thetas = counting_clock_overlaps(monkeypatch)
    schrodinger_order_study(dense_family_state(10), 1.1, 0.7)
    assert thetas == [1.1]


def test_verify_evaluates_the_clock_overlaps_twice_at_its_theta(monkeypatch, capsys):
    """One verify: the conditional norm check and the order study, once each."""
    thetas = counting_clock_overlaps(monkeypatch)
    assert cli.main(["verify", "--two-j", "30", "--m", "10", "--kappa-r", "1/2",
                     "--theta", "1.3"]) == 0
    assert json.loads(capsys.readouterr().out)["all_passed"] is True
    assert 1 <= thetas.count(1.3) <= 2
    assert set(thetas) == {1.3}


def test_schrodinger_residual_second_order():
    state = spin3_pair_state()
    study = schrodinger_order_study(state, math.pi / 2.0, 0.7)
    assert study.order == pytest.approx(2.0, abs=0.01)
    assert len(study.steps) == len(study.residuals) == 4
    # each halving divides the residual by ~4
    for r0, r1 in zip(study.residuals, study.residuals[1:]):
        assert r0 / r1 == pytest.approx(4.0, rel=1e-3)


def test_default_dphi_keeps_order_two_at_every_size():
    """At the verify reading the default step fits order 2 +- 0.1 on every ladder size.

    Every dense M in 2..170 and large-J J = 30, 120, 570: a step that shrinks
    too fast with 2J reaches the regime where rounding in k*phi swamps the
    dphi^2 error, and the order collapses only at the large sizes.
    """
    states = {f"dense M={m}": dense_family_state(m) for m in range(2, 171)}
    states.update({f"large-J J={j}": large_j_pair_state(j) for j in (30, 120, 570)})
    off = {}
    for name, state in states.items():
        order = schrodinger_order_study(state, math.pi / 2.0, 0.7).order
        if abs(order - 2.0) > 0.1:
            off[name] = order
    assert not off, off


def test_schrodinger_residual_huge_spin():
    """The study must stay finite and second order at 2J = 1140."""
    state = large_j_pair_state(570)
    study = schrodinger_order_study(state, math.pi / 2.0, 0.3)
    assert study.order == pytest.approx(2.0, abs=0.05)


def test_schrodinger_residual_at_huge_fock_levels():
    """At Fock levels 1e307 and 3e307 the residual vectors hold entries near
    1e307, whose squares overflow a double; the study stays finite and second
    order."""
    state = assemble_state(6, 1, Fraction(2 * 10 ** 307 + 1, 2), {1: 1.0, 3: 1.0})
    assert state.n_values == (10 ** 307, 3 * 10 ** 307 + 1)
    with np.errstate(all="raise"):
        study = schrodinger_order_study(state, math.pi / 2.0, 0.7)
    assert all(math.isfinite(r) and r > 0 for r in study.residuals)
    assert study.order == pytest.approx(2.0, abs=0.01)


# zero, or a modulus whose square is a normal double
ENTRIES = st.one_of(st.just(0j), st.builds(cmath.rect, st.floats(1e-150, 1e150),
                                           st.floats(-math.pi, math.pi)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(ENTRIES, min_size=1, max_size=8),
       shift=st.integers(-500, 500))
def test_residual_norm_keeps_the_bits_of_numpy(values, shift):
    """Where the squares stay normal the scaled norm is numpy's, bit for bit,
    and scaling the vector by 2^shift scales the norm by exactly 2^shift."""
    vector = np.array(values, dtype=complex)
    assert pawstate._norm(vector) == float(np.linalg.norm(vector))
    shifted = np.ldexp(vector.view(np.float64), shift).view(complex)
    assert pawstate._norm(shifted) == math.ldexp(pawstate._norm(vector), shift)


# ---------------------------------------------------------------------------
# constraint diagnostics and forgery
# ---------------------------------------------------------------------------

def test_paw_constraint_residual_exact_zero_and_exact_shift():
    state = spin3_pair_state()
    assert paw_constraint_residual(state) == 0.0
    forged = shift_fock_levels(state, 1)
    # shifting every n by one moves each branch off by exactly omega
    assert paw_constraint_residual(forged) == 1.0
    assert paw_constraint_residual(shift_fock_levels(state, 0)) == 0.0
    with pytest.raises(ValueError):
        shift_fock_levels(state, -2)  # would need n = -1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_state_document_round_trip():
    state = assemble_state(6, 1, Fraction(3, 4), {2: 0.6 + 0.0j, 6: 0.0 - 0.8j})
    doc = state_to_dict(state)
    assert set(doc) == {"two_J", "epsilon_over_omega", "M", "coefficients"}
    assert doc["epsilon_over_omega"] == [3, 4]
    again = state_from_dict(json.loads(json.dumps(doc)))
    assert again.support == state.support
    assert again.amplitudes == pytest.approx(state.amplitudes)
    assert state_to_dict(again) == doc


@st.composite
def admissible_states(draw):
    """Random states on 2..8 allowed branches of a random odd/even ratio, 2J <= 1140."""
    i_m = draw(st.integers(1, 8))
    i_n = draw(st.integers(0, 8).filter(lambda i: math.gcd(2 * i + 1, 2 * i_m) == 1))
    ratio = Fraction(2 * i_n + 1, 2 * i_m)
    two_j = draw(st.integers(3 * i_m, 1140))
    family = enumerate_pairs(reduce_ratio(ratio), two_j)
    pairs = draw(st.lists(st.sampled_from(family.pairs), min_size=2, max_size=8,
                          unique=True))
    coefficient = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                     allow_infinity=False).filter(lambda c: abs(c) > 1e-3)
    coefficients = {k: draw(coefficient) for k, _ in pairs}
    return assemble_state(two_j=two_j, mass=draw(st.integers(1, 500)),
                          eps_over_omega=ratio, coefficients=coefficients)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(state=admissible_states())
def test_state_document_round_trips(state):
    """state_from_dict(state_to_dict(s)) keeps the support, the Fock levels and
    the amplitudes; rebuilding renormalizes a unit vector, so amplitudes may
    move by a few ulps."""
    again = state_from_dict(json.loads(json.dumps(state_to_dict(state))))
    assert again.support == state.support
    assert again.n_values == state.n_values
    assert (again.two_j, again.mass) == (state.two_j, state.mass)
    assert again.ratios == state.ratios
    np.testing.assert_allclose(again.amplitudes, state.amplitudes, rtol=1e-15, atol=0.0)


def test_state_document_rejects_unknown_and_missing_keys():
    doc = state_to_dict(spin3_pair_state())
    bad = dict(doc)
    bad["extra"] = 1
    with pytest.raises(ValueError):
        state_from_dict(bad)
    missing = {k: v for k, v in doc.items() if k != "M"}
    with pytest.raises(ValueError):
        state_from_dict(missing)
    bad_entry = dict(doc)
    bad_entry["coefficients"] = [{"m_plus_J": 2, "re": 1.0}]
    with pytest.raises(ValueError):
        state_from_dict(bad_entry)


SPIN3_ENTRY = {"m_plus_J": 2, "re": 0.5, "im": 0.0}
MALFORMED_DOCUMENTS = {
    "not an object": [],
    "ratio an integer": {"epsilon_over_omega": 3},
    "ratio of one entry": {"epsilon_over_omega": [3]},
    "ratio a string": {"epsilon_over_omega": "3/4"},
    "ratio not integral": {"epsilon_over_omega": ["a", 4]},
    "ratio fractional": {"epsilon_over_omega": [3.9, 4]},
    "zero denominator": {"epsilon_over_omega": [3, 0]},
    "two_J null": {"two_J": None},
    "two_J a string": {"two_J": "six"},
    "M infinite": {"M": math.inf},
    "M a list": {"M": [1]},
    "M fractional": {"M": 10.5},
    "coefficients an integer": {"coefficients": 5},
    "entry an integer": {"coefficients": [5]},
    "entry a string": {"coefficients": ["re"]},
    "entry missing im": {"coefficients": [{"m_plus_J": 2, "re": 1.0}]},
    "re a string": {"coefficients": [{**SPIN3_ENTRY, "re": "x"}]},
    "im null": {"coefficients": [{**SPIN3_ENTRY, "im": None}]},
    "index a string": {"coefficients": [{**SPIN3_ENTRY, "m_plus_J": "two"}]},
    "index null": {"coefficients": [{**SPIN3_ENTRY, "m_plus_J": None}]},
    "index fractional": {"coefficients": [{**SPIN3_ENTRY, "m_plus_J": 2.7}]},
    "re not finite": {"coefficients": [{**SPIN3_ENTRY, "re": math.nan}]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_malformed_state_documents_raise_value_error(case):
    """Every malformed mutation of a state_to_dict document raises plain ValueError."""
    change = MALFORMED_DOCUMENTS[case]
    document = ({**state_to_dict(spin3_pair_state()), **change}
                if isinstance(change, dict) else change)
    with pytest.raises(ValueError) as excinfo:
        state_from_dict(json.loads(json.dumps(document)))
    assert excinfo.type is ValueError, excinfo.value


def test_well_formed_state_that_cannot_exist_keeps_its_error():
    document = {**state_to_dict(spin3_pair_state()), "two_J": 3}
    with pytest.raises(NotAdmissible):
        state_from_dict(document)


def test_serialization_requires_unit_omega():
    state = spin3_pair_state(omega=2.0)
    with pytest.raises(ValueError):
        state_to_dict(state)
