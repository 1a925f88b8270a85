"""Unit tests for the quasi-probability marginals and interference factors."""

import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from pawclock.classical import theta_of_energy
from pawclock.marginals import (
    ConfigError,
    DistributionGrid,
    EOutOfRange,
    GridAxis,
    InterferenceReport,
    _log_clock_overlap,
    _pool_size,
    _worker_count,
    classical_limit_section,
    clock_interference_factor,
    default_energy_axis,
    default_phase_space_axes,
    default_time_axis,
    energy_time_density,
    interference_suppression,
    marginal_energy_time,
    marginal_phase_space,
    marginal_space_time,
    oscillator_interference_factor,
    space_time_diagonal,
)
from pawclock.pawstate import (
    balanced_two_level_state,
    chi_squared,
    dense_family_state,
    spin3_pair_state,
)
from reference_space_time import _pair_energy_overlap


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_axis_values_and_spacing():
    axis = GridAxis("Q", -2.5, 2.5, 801)
    assert axis.values.shape == (801,)
    assert axis.values[0] == -2.5 and axis.values[-1] == 2.5
    assert axis.spacing == pytest.approx(5.0 / 800.0)
    with pytest.raises(ValueError):
        GridAxis("Q", 0.0, 1.0, 1)


def test_distribution_grid_validation_and_mass():
    axis = GridAxis("e", 0.0, 1.0, 101)
    values = np.full(101, 2.0)
    grid = DistributionGrid(axes=(axis,), values=values, measure="de")
    assert grid.mass() == pytest.approx(2.0)
    with pytest.raises(ValueError):
        DistributionGrid(axes=(axis,), values=np.full(100, 1.0), measure="de")
    with pytest.raises(ValueError):
        DistributionGrid(axes=(axis,), values=-values, measure="de")


def test_distribution_grid_csv_round_trip(tmp_path):
    q = GridAxis("Q", 0.0, 1.0, 3)
    p = GridAxis("P", 0.0, 1.0, 2)
    values = np.arange(6.0).reshape(3, 2)
    grid = DistributionGrid(axes=(q, p), values=values, measure="dQ dP")
    path = tmp_path / "grid.csv"
    grid.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "Q,P,value"
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert table.shape == (6, 3)
    assert np.array_equal(table[:, 2].reshape(3, 2), values)
    # row order: Q varies slowest
    assert np.array_equal(table[:2, 0], [0.0, 0.0])


def test_default_axes():
    q_axis, p_axis = default_phase_space_axes()
    assert (q_axis.start, q_axis.stop, q_axis.count) == (-2.5, 2.5, 801)
    assert (p_axis.start, p_axis.stop, p_axis.count) == (-2.5, 2.5, 801)
    state = balanced_two_level_state(170)
    e_axis = default_energy_axis(state)
    assert e_axis.stop == pytest.approx(1.5)  # clipped at 2*kappa
    t_axis = default_time_axis(state)
    assert t_axis.stop == pytest.approx(2.0 * math.pi / 170.0)


# ---------------------------------------------------------------------------
# phase-space marginal (Fock ridges)
# ---------------------------------------------------------------------------

def test_marginal_phase_space_matches_poisson_mixture():
    state = balanced_two_level_state(4)
    q_axis = GridAxis("Q", -2.0, 2.0, 41)
    p_axis = GridAxis("P", -2.0, 2.0, 43)
    grid = marginal_phase_space(state, q_axis, p_axis)
    weights = np.abs(state.amplitudes) ** 2
    for iq, big_q in enumerate(q_axis.values[::7]):
        for ip, big_p in enumerate(p_axis.values[::11]):
            u = 0.5 * 4 * (big_q ** 2 + big_p ** 2)
            direct = sum(w * math.exp(-u) * u ** n / math.factorial(n)
                         for w, n in zip(weights, state.n_values))
            direct *= 4 / (2.0 * math.pi)
            assert grid.values[iq * 7, ip * 11] == pytest.approx(direct, rel=1e-12)


def test_marginal_phase_space_mass_one():
    state = balanced_two_level_state(40)
    grid = marginal_phase_space(state)
    assert grid.mass() == pytest.approx(1.0, abs=1e-8)


def test_marginal_phase_space_ridge_positions():
    state = balanced_two_level_state(170)
    grid = marginal_phase_space(state)
    q = grid.axes[0].values
    row = grid.values[:, 400]  # the P = 0 section
    peaks = [q[i] for i in range(1, len(row) - 1)
             if row[i] > row[i - 1] and row[i] >= row[i + 1] and q[i] > 0.2]
    assert len(peaks) == 2
    assert abs(peaks[0] - 1.0) <= grid.axes[0].spacing
    assert abs(peaks[1] - math.sqrt(2.0)) <= grid.axes[0].spacing


# ---------------------------------------------------------------------------
# energy-time marginal
# ---------------------------------------------------------------------------

def test_energy_time_density_matches_chi_squared_chart():
    """The energy density is chi^2 pushed through e(theta), an independent path."""
    state = balanced_two_level_state(170)
    two_kappa = 2.0 * float(state.ratios.kappa)
    prefactor = (state.two_j + 1) / two_kappa
    for e in (0.05, 0.5, 0.75, 1.0, 1.4):
        theta = theta_of_energy(state.clock, state.oscillator, e)
        expected = prefactor * chi_squared(state, theta)
        assert energy_time_density(state, e) == pytest.approx(expected, rel=1e-12)


def test_energy_time_density_rejects_out_of_range():
    state = balanced_two_level_state(170)
    with pytest.raises(EOutOfRange):
        energy_time_density(state, 1.6)
    with pytest.raises(EOutOfRange):
        energy_time_density(state, -0.1)


def test_energy_time_density_time_independent():
    state = balanced_two_level_state(170)
    e = np.linspace(0.0, 1.5, 301)
    assert np.array_equal(energy_time_density(state, e, t=0.0),
                          energy_time_density(state, e, t=0.9))


def test_marginal_energy_time_mass_and_peaks():
    state = balanced_two_level_state(170)
    grid = marginal_energy_time(state)
    assert grid.mass() == pytest.approx(1.0, abs=1e-6)
    e = grid.axes[0].values
    v = grid.values
    peaks = [e[i] for i in range(1, len(v) - 1)
             if v[i] > v[i - 1] and v[i] >= v[i + 1]]
    # peaks at (n + 1/2)/M for n = 85, 170, broadened by ~1/sqrt(M)
    assert len(peaks) == 2
    assert abs(peaks[0] - 0.5) < 2.0 / 170.0
    assert abs(peaks[1] - 1.0) < 2.0 / 170.0


# ---------------------------------------------------------------------------
# interference factors
# ---------------------------------------------------------------------------

def test_clock_interference_factor_closed_form():
    # sqrt(binom(6,2) binom(6,6)) / binom(6,4) = sqrt(15)/15
    assert clock_interference_factor(6, 2, 6) == pytest.approx(
        math.sqrt(15.0) / 15.0, rel=1e-12)
    assert clock_interference_factor(6, 2, 2) == pytest.approx(1.0)
    # symmetric in its index pair
    assert clock_interference_factor(510, 171, 341) == pytest.approx(
        clock_interference_factor(510, 341, 171))


def test_oscillator_interference_factor_closed_form():
    assert oscillator_interference_factor(1, 1) == pytest.approx(1.0)
    expected = math.gamma(3.5) / math.sqrt(math.factorial(1) * math.factorial(4))
    assert oscillator_interference_factor(1, 4) == pytest.approx(expected, rel=1e-12)
    # even sums hit plain factorials
    expected = math.factorial(3) / math.sqrt(math.factorial(2) * math.factorial(4))
    assert oscillator_interference_factor(2, 4) == pytest.approx(expected, rel=1e-12)


def test_interference_suppression_report():
    report = interference_suppression(6, 2, 6, mass=1, n1=1, n2=4)
    assert isinstance(report, InterferenceReport)
    assert report.clock_suppression_factor == pytest.approx(math.sqrt(15.0) / 15.0)
    assert report.oscillator_suppression_factor == pytest.approx(
        oscillator_interference_factor(1, 4))
    assert report.i1 is None and report.ratio is None
    with pytest.raises(ValueError):
        interference_suppression(6, 2, 7, mass=1, n1=1, n2=4)
    with pytest.raises(ValueError):
        interference_suppression(6, 2, 6, mass=0, n1=1, n2=4)


def test_pair_energy_overlap_equals_interference_factor():
    """The Gauss-Legendre quadrature of the cross-term energy integral, kept in
    the test oracle, agrees with the Beta-function closed form of
    clock_interference_factor."""
    for two_j, k1, k2 in ((6, 2, 6), (12, 5, 9), (510, 171, 341)):
        state_order = two_j // 2 + 2
        log_a = _pair_energy_overlap(balanced_like(two_j, k1, k2), k1, k2,
                                     state_order)
        assert math.exp(log_a) == pytest.approx(
            clock_interference_factor(two_j, k1, k2), rel=1e-10)


def balanced_like(two_j, k1, k2):
    """Any state object carrying the right two_j; the overlap only reads that."""
    if two_j == 6:
        return spin3_pair_state()
    if two_j == 510:
        return balanced_two_level_state(170)
    return dense_family_state(two_j // 3)


def mp_ln_binomial(n, k):
    return mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)


@st.composite
def ladder_pairs(draw):
    two_j = draw(st.integers(1, 1140))
    return two_j, draw(st.integers(0, two_j)), draw(st.integers(0, two_j))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=ladder_pairs())
@example(case=(1140, 0, 1140))  # extreme branches
@example(case=(1140, 1, 1139))  # below the e^-700 amplitude cut
@example(case=(1140, 570, 571))  # half-integer midpoint at the centre
@example(case=(1139, 0, 1138))  # half-integer J
def test_clock_overlap_matches_mpmath(case):
    """log A = ln binom(2J,k1)/2 + ln binom(2J,k2)/2 - ln binom(2J,(k1+k2)/2)
    against a 50-digit oracle, within 4 ulps of ln (2J+1)!, the largest
    log-Gamma the closed form subtracts."""
    two_j, k1, k2 = case
    with mpmath.workdps(50):
        exact = (mp_ln_binomial(two_j, k1) / 2 + mp_ln_binomial(two_j, k2) / 2
                 - mp_ln_binomial(two_j, mpmath.mpf(k1 + k2) / 2))
        bound = 4.0 * np.finfo(float).eps * float(mpmath.loggamma(two_j + 2))
    assert abs(float(_log_clock_overlap(two_j, k1, k2)) - float(exact)) <= bound


# ---------------------------------------------------------------------------
# space-time marginal
# ---------------------------------------------------------------------------

def test_space_time_diagonal_matches_phase_space_projection():
    """Integrating the phase-space marginal over P must reproduce the static
    part of the space-time one (up to the energy prefactor eps/2pi)."""
    state = balanced_two_level_state(10)
    q_values = np.linspace(-2.0, 2.0, 21)
    diag = space_time_diagonal(state, q_values)
    # direct: eps/(2pi) * sum_m |c_m|^2 (M/2pi) int dP pois(n_m, U)
    p = np.linspace(-6.0, 6.0, 4001)
    direct = np.empty_like(q_values)
    for i, big_q in enumerate(q_values):
        u = 0.5 * 10 * (big_q ** 2 + p ** 2)
        total = np.zeros_like(p)
        for w, n in zip(np.abs(state.amplitudes) ** 2, state.n_values):
            total += w * np.exp(-u) * u ** n / math.factorial(n)
        direct[i] = simpson(total, x=p) * 10 / (2.0 * math.pi)
    direct *= state.clock.epsilon / (2.0 * math.pi)
    assert np.allclose(diag, direct, rtol=1e-9)


def test_marginal_space_time_report_and_positivity():
    state = balanced_two_level_state(10)
    q_axis = GridAxis("Q", -2.5, 2.5, 201)
    t_axis = GridAxis("t", 0.0, 2.0 * math.pi / 10.0, 32)
    grid, report = marginal_space_time(state, q_axis, t_axis)
    assert grid.values.shape == (201, 32)
    assert np.all(grid.values >= 0.0)
    assert report.i1 >= report.i2 > 0.0
    assert report.i_int > 0.0
    assert report.ratio == pytest.approx(report.i_int / (report.i1 + report.i2))
    assert report.clock_suppression_factor == pytest.approx(
        clock_interference_factor(30, 11, 21), rel=1e-12)


def test_marginal_space_time_interference_oscillates_in_time():
    """The cross term beats at frequency |k1-k2|*eps = M*omega/2 for the
    balanced states, so its period is two oscillator periods."""
    state = balanced_two_level_state(10)
    q_axis = GridAxis("Q", 0.0, 0.5, 2)  # inner region where branches overlap
    t_axis = GridAxis("t", 0.0, 4.0 * math.pi / 10.0, 65)
    grid, _ = marginal_space_time(state, q_axis, t_axis)
    # at Q = 0 the odd-parity Fock pair cancels; probe the Q = 0.5 section
    section = grid.values[1]
    wobble = section - section.mean()
    # the beat completes exactly one cycle: the end point returns to the start
    assert section[0] == pytest.approx(section[-1], rel=1e-9)
    assert wobble.max() > 0.0 and wobble.min() < 0.0
    # and half a period in, the cross term has the opposite sign
    assert (section[0] - section.mean()) * (section[32] - section.mean()) < 0.0


def test_marginal_space_time_thread_count_invariance():
    state = balanced_two_level_state(10)
    q_axis = GridAxis("Q", -2.0, 2.0, 101)
    t_axis = GridAxis("t", 0.0, 0.3, 8)
    saved = os.environ.get("PAW_THREADS")
    try:
        os.environ["PAW_THREADS"] = "1"
        serial, _ = marginal_space_time(state, q_axis, t_axis)
        os.environ["PAW_THREADS"] = "5"
        threaded, _ = marginal_space_time(state, q_axis, t_axis)
    finally:
        if saved is None:
            os.environ.pop("PAW_THREADS", None)
        else:
            os.environ["PAW_THREADS"] = saved
    assert np.array_equal(serial.values, threaded.values)


def test_worker_count_reads_paw_threads(monkeypatch):
    monkeypatch.delenv("PAW_THREADS", raising=False)
    assert _worker_count() == min(4, os.cpu_count() or 1)
    monkeypatch.setenv("PAW_THREADS", "3")
    assert _worker_count() == 3
    for value in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("PAW_THREADS", value)
        with pytest.raises(ConfigError, match="PAW_THREADS"):
            _worker_count()


def test_pool_size_never_exceeds_chunks():
    assert _pool_size(1_000_000, 3) == 3
    assert _pool_size(2, 101) == 2
    assert _pool_size(4, 0) == 1


def test_marginal_space_time_suppression_at_large_mass():
    """At M = 170 the clock factor alone is ~1e-13: interference must all but
    vanish while the report still carries the finite analytic factors."""
    state = balanced_two_level_state(170)
    q_axis = GridAxis("Q", -2.5, 2.5, 101)
    t_axis = GridAxis("t", 0.0, 2.0 * math.pi / 170.0, 8)
    _, report = marginal_space_time(state, q_axis, t_axis)
    assert report.ratio < 1e-12


# ---------------------------------------------------------------------------
# classical limit reference
# ---------------------------------------------------------------------------

def test_classical_limit_section_arcsine_laws():
    state = balanced_two_level_state(170)
    q = np.array([0.0, 0.5, 1.2, 2.0])
    section = classical_limit_section(state, q)
    # inside both rings: both arcsine densities, weights 1/2 each
    expected0 = 0.5 / (math.pi * math.sqrt(1.0 - 0.0)) + 0.5 / (
        math.pi * math.sqrt(2.0 - 0.0))
    assert section[0] == pytest.approx(expected0, rel=1e-12)
    # between the rings: only the outer orbit contributes
    expected2 = 0.5 / (math.pi * math.sqrt(2.0 - 1.2 ** 2))
    assert section[2] == pytest.approx(expected2, rel=1e-12)
    # beyond both rings: no classical orbit reaches
    assert section[3] == 0.0


def test_classical_limit_section_diverges_on_the_ring():
    state = balanced_two_level_state(170)
    section = classical_limit_section(state, np.array([1.0]))
    assert math.isinf(section[0])
