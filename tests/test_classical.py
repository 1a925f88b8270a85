"""Unit tests for the classical energy charts, joint amplitude, and orbits."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import comb, factorial

from pawclock.classical import (
    OrbitParams,
    beta_amplitude,
    beta_double_integral,
    classical_orbit,
    energy_of_theta,
    energy_time_coordinate,
    hamilton_residual,
    orbit_table,
    stationary_residual,
    surviving_configurations,
    theta_of_energy,
    write_orbit_csv,
)
from pawclock.coherent import SphereCoordinate, hcs_log_magnitude
from pawclock.constraints import OscillatorSpec, enumerate_pairs, reduce_ratio
from pawclock.pawstate import (
    assemble_state,
    balanced_two_level_state,
    dense_family_state,
    large_j_pair_state,
    spin3_pair_state,
)


# ---------------------------------------------------------------------------
# energy charts
# ---------------------------------------------------------------------------

def test_energy_of_theta_endpoints():
    state = spin3_pair_state()
    assert energy_of_theta(state.clock, 0.0) == 0.0
    # eps*J*(1 - cos(pi)) = 2*eps*J = 2*(3/4)*3
    assert energy_of_theta(state.clock, math.pi) == pytest.approx(4.5)


def test_energy_of_theta_reference_angles():
    """With eps*J = 3omega/4: E(acos(1/3)) = omega/2 and E(pi) = 3omega/2."""
    for j in (30, 120, 570):
        clock = large_j_pair_state(j).clock
        assert abs(energy_of_theta(clock, math.acos(1.0 / 3.0)) - 0.5) < 1e-12
        assert abs(energy_of_theta(clock, math.pi) - 1.5) < 1e-12


def test_theta_of_energy_inverts_the_chart():
    state = balanced_two_level_state(170)
    clock, osc = state.clock, state.oscillator
    for theta in (0.2, 1.1, 2.5, math.pi):
        e = energy_of_theta(clock, theta) / (osc.mass * osc.omega)
        assert theta_of_energy(clock, osc, e) == pytest.approx(theta, abs=1e-12)
    with pytest.raises(ValueError):
        theta_of_energy(clock, osc, 2.0)  # beyond 2*kappa = 1.5


def test_energy_time_coordinate_chart():
    state = balanced_two_level_state(170)
    point = SphereCoordinate(1.3, 0.9)
    coord = energy_time_coordinate(state.clock, state.oscillator, point)
    expected_e = energy_of_theta(state.clock, 1.3) / 170.0
    assert coord.e == pytest.approx(expected_e)
    assert coord.t == pytest.approx(0.9 / state.clock.epsilon)


def test_oscillator_energy_expectation():
    """<alpha|H|alpha> = sum_n |<alpha|n>|^2 omega(n + 1/2) = omega(M|alpha|^2 + 1/2)."""
    for mass, alpha in ((1, 0.0j), (1, 2.0 + 0.0j), (170, cmath.rect(1.1, 0.4))):
        oscillator = OscillatorSpec(mass=mass, omega=0.7)
        levels = np.arange(600)
        expectation = np.sum(np.exp(2.0 * hcs_log_magnitude(alpha, mass, levels))
                             * oscillator.level_energy(levels))
        expected = 0.7 * (mass * abs(alpha) ** 2 + 0.5)
        assert expectation == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# joint amplitude
# ---------------------------------------------------------------------------

def as_complex(amp):
    """The complex number a LogAmplitude stands for."""
    if amp.log_magnitude == -math.inf:
        return 0j
    return cmath.rect(math.exp(amp.log_magnitude), amp.phase)


def naive_beta(state, point, alpha):
    """The terms c_m <Omega|J, m><alpha|n_m> of beta, each multiplied out in floats."""
    half = point.theta / 2.0
    conjugate = math.sqrt(state.mass) * alpha.conjugate()
    return [c * math.sqrt(comb(state.two_j, k, exact=True))
            * math.cos(half) ** (state.two_j - k) * math.sin(half) ** k
            * cmath.exp(-1j * k * point.phi)
            * math.exp(-0.5 * state.mass * abs(alpha) ** 2)
            * conjugate ** n / math.sqrt(factorial(n, exact=True))
            for k, c, n in zip(state.support, state.amplitudes.tolist(), state.n_values)]


def test_beta_amplitude_matches_naive_sum():
    """Log-space assembly agrees with the naive complex sum where floats survive."""
    state = spin3_pair_state()
    point = SphereCoordinate(1.2, 0.8)
    alpha = cmath.rect(1.1, -0.6)
    naive = sum(naive_beta(state, point, alpha))
    amp = beta_amplitude(state, point, alpha)
    assert as_complex(amp) == pytest.approx(naive, abs=1e-14)


@st.composite
def beta_readings(draw):
    """A random admissible state with 2J <= 40 and Fock levels <= 60, a clock
    reading (theta, phi) and a plane point alpha with |alpha| <= 4."""
    i_m = draw(st.integers(1, 4))
    i_n = draw(st.integers(0, 4).filter(lambda i: math.gcd(2 * i + 1, 2 * i_m) == 1))
    ratio = Fraction(2 * i_n + 1, 2 * i_m)
    two_j = draw(st.integers(3 * i_m, 40))
    pairs = [pair for pair in enumerate_pairs(reduce_ratio(ratio), two_j).pairs
             if pair.n <= 60]
    assume(len(pairs) >= 2)
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=6, unique=True))
    coefficient = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                     allow_infinity=False).filter(lambda c: abs(c) > 0.1)
    state = assemble_state(two_j=two_j, mass=draw(st.integers(1, 8)),
                           eps_over_omega=ratio,
                           coefficients={pair.m_plus_j: draw(coefficient) for pair in chosen})
    point = SphereCoordinate(draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 20.0)))
    alpha = cmath.rect(draw(st.floats(0.0, 4.0)), draw(st.floats(-math.pi, math.pi)))
    return state, point, alpha


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=beta_readings())
@example(case=(assemble_state(two_j=17, mass=1, eps_over_omega=Fraction(3, 2),
                              coefficients={1: 1.0, 3: 1j, 5: 0.5}),
               SphereCoordinate(0.28, 1.35), complex(1e-200, 0.0)))
def test_beta_amplitude_equals_naive_sum_on_random_states(case):
    """Where the naive sum does not underflow, beta_amplitude equals it to
    1e-12 of the sum of the term magnitudes (measured: 1.1e-13 at most
    over 3,000 examples).  The example has no n = 0 branch and |alpha| so
    small that M|alpha|^2 underflows to 0, while beta ~ 1e-200 does not."""
    state, point, alpha = case
    terms = naive_beta(state, point, alpha)
    scale = sum(abs(term) for term in terms)
    assume(scale > 1e-280)
    error = abs(as_complex(beta_amplitude(state, point, alpha)) - sum(terms))
    assert error <= 1e-12 * scale


def test_beta_amplitude_survives_underflow():
    """At 2J = 1140 each factor underflows; the log form keeps the value."""
    state = large_j_pair_state(570)
    amp = beta_amplitude(state, SphereCoordinate(0.04, 0.0), complex(0.05, 0.0))
    assert math.isfinite(amp.log_magnitude)
    assert amp.log_magnitude < -745.0  # below the smallest subnormal float


def test_beta_double_integral_is_one():
    for state in (spin3_pair_state(), balanced_two_level_state(4),
                  large_j_pair_state(3)):
        assert beta_double_integral(state) == pytest.approx(1.0, abs=1e-9)


def test_beta_double_integral_large_mass():
    assert beta_double_integral(balanced_two_level_state(170)) == pytest.approx(
        1.0, abs=1e-6)


def test_stationary_residual_small_at_localized_peak():
    """Where chi^2 is single-branch the conditional state is an H eigenstate."""
    state = large_j_pair_state(570)
    # theta = pi is pure k = 2J, n = 1: E(pi) = 3/2 = omega*(1 + 1/2) exactly
    assert stationary_residual(state, math.pi, 0.0) == pytest.approx(0.0, abs=1e-12)
    # between the peaks both branches contribute and the residual is O(omega)
    mixed = stationary_residual(state, 2.0, 0.0)
    assert mixed > 0.1


# ---------------------------------------------------------------------------
# surviving levels and orbits
# ---------------------------------------------------------------------------

def test_surviving_configurations_radii():
    state = dense_family_state(170)
    levels = surviving_configurations(state)
    assert [lv.n for lv in levels] == list(range(255))
    for lv in levels:
        assert lv.radius_q == math.sqrt(2.0 * lv.n / 170)
        assert lv.energy == pytest.approx(lv.n + 0.5)
        assert lv.energy_classical == pytest.approx(float(lv.n))
    assert levels[-1].radius_q < math.sqrt(3.0)


def test_classical_orbit_conserves_energy():
    params = OrbitParams(energy=37.0, eta=170.0, phi0=0.4, m_omega=170.0)
    t_grid = np.linspace(0.0, 2.0 * math.pi / 170.0, 64, endpoint=False)
    for config in classical_orbit(params, t_grid):
        energy = 0.5 * config.p ** 2 + 0.5 * (params.m_omega * config.q) ** 2
        assert energy == pytest.approx(37.0, rel=1e-12)


def test_classical_orbit_dimensionless_radius():
    """Big-Q amplitude is sqrt(2E/(M omega)): radius sqrt(2n/M) at E = omega*n."""
    m_omega = 170.0
    n = 100
    params = OrbitParams(energy=float(n), eta=m_omega, phi0=0.0, m_omega=m_omega)
    configs = classical_orbit(params, [0.0])
    assert configs[0].big_q == pytest.approx(math.sqrt(2.0 * n / 170.0), rel=1e-14)
    assert configs[0].big_p == pytest.approx(0.0, abs=1e-14)


def test_hamilton_residual_second_order():
    params = OrbitParams(energy=5.0, eta=170.0, phi0=0.1, m_omega=170.0)
    dts = [1e-4 / 2 ** i for i in range(4)]
    residuals = [max(hamilton_residual(params, 0.123, dt)) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(residuals), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)


def test_hamilton_residual_rescaled_time():
    """With eta != M*omega the orbit solves the eta-rescaled equations."""
    params = OrbitParams(energy=5.0, eta=17.0, phi0=0.1, m_omega=170.0)
    rq, rp = hamilton_residual(params, 0.2, 1e-6)
    assert rq < 1e-6 and rp < 1e-4


def test_orbit_family_covers_every_level():
    state = dense_family_state(4)
    samples = 32
    energy, _, _, _, big_q, big_p = orbit_table(state, samples=samples)
    levels = surviving_configurations(state)
    assert len(energy) == samples * len(levels)
    radii = sorted({round(r, 10) for r in np.hypot(big_q, big_p).tolist()})
    expected = sorted({round(lv.radius_q, 10) for lv in levels})
    assert radii == expected


def test_write_orbit_csv(tmp_path):
    state = dense_family_state(2)
    table = orbit_table(state, samples=8)
    path = tmp_path / "orbits.csv"
    write_orbit_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "E,t,q,p,Q,P"
    assert len(lines) == 1 + len(table[0])
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == table[0][0]
