"""Unit tests for the quasi-probability marginals and interference factors."""

import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.special import betainc, gammainc, gammaincc, gammaln

from pawclock import marginals
from pawclock.classical import theta_of_energy
from pawclock.marginals import (
    _BLAS_BOUND,
    DistributionGrid,
    EOutOfRange,
    GridAxis,
    InterferenceReport,
    _log_clock_overlap,
    _product,
    _trapezoid,
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
    assemble_state,
    balanced_two_level_state,
    chi_squared,
    dense_family_state,
    spin3_pair_state,
)
from reference_phase_space import marginal_phase_space as reference_phase_space
from reference_space_time import _pair_energy_overlap
from test_beta_reference import admissible_states


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_distribution_grid_rejects_non_finite_values(bad):
    """NaN compares false with 0, so the sign check alone let it through."""
    axis = GridAxis("e", 0.0, 1.0, 3)
    with pytest.raises(ValueError, match="finite"):
        DistributionGrid(axes=(axis,), values=np.array([bad, 1.0, 1.0]), measure="x")
    with pytest.raises(ValueError, match="finite"):
        DistributionGrid(axes=(axis,), values=np.array([math.nan, 1.0, math.inf]),
                         measure="x")


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


@st.composite
def grid_axes(draw, name):
    """An axis of 2-300 samples that holds 0 exactly or starts and stops anywhere.

    A dyadic spacing h makes every sample i*h - below*h exact, so sample
    ``below`` is 0.0 exactly; otherwise start and stop are arbitrary.
    """
    count = draw(st.integers(2, 300))
    if draw(st.booleans()):
        spacing = draw(st.integers(1, 40)) / 1024.0
        below = draw(st.integers(0, count - 1))
        return GridAxis(name, -below * spacing, (count - 1 - below) * spacing, count)
    start = draw(st.floats(-3.0, 2.9))
    return GridAxis(name, start, start + draw(st.floats(0.01, 3.0)), count)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(state=admissible_states() | st.integers(1, 60).map(dense_family_state),
       q_axis=grid_axes("Q"), p_axis=grid_axes("P"))
@example(state=dense_family_state(10), q_axis=default_phase_space_axes()[0],
         p_axis=default_phase_space_axes()[1])
@example(state=dense_family_state(8), q_axis=GridAxis("Q", -2.5, 2.5, 333),
         p_axis=GridAxis("P", -1.3, 2.5, 801))
def test_phase_space_matches_per_cell_sweep_bitwise(state, q_axis, p_axis):
    """Evaluating each branch once per distinct U gives the per-cell bits."""
    grid = marginal_phase_space(state, q_axis, p_axis)
    expected = reference_phase_space(state, q_axis, p_axis)
    assert grid.values.shape == expected.values.shape
    assert grid.values.tobytes() == expected.values.tobytes()


def test_phase_space_evaluates_each_branch_once_per_distinct_radius(monkeypatch):
    """Dense M = 10 on the default axes: 15 kernel calls of 146,417 radii each,
    not of the 641,601 cells, all reading one libm log of those radii."""
    state = dense_family_state(10)
    kernel, libm_log = marginals._log_fock_density, marginals._libm_log
    sizes, logs = [], []

    def counting_kernel(u, log_u, n):
        sizes.append(np.size(u))
        assert log_u is logs[-1]
        return kernel(u, log_u, n)

    def counting_log(y):
        logs.append(libm_log(y))
        return logs[-1]

    monkeypatch.setattr(marginals, "_log_fock_density", counting_kernel)
    monkeypatch.setattr(marginals, "_libm_log", counting_log)
    marginal_phase_space(state)
    q_axis, p_axis = default_phase_space_axes()
    u = 0.5 * state.mass * (q_axis.values[:, None] ** 2 + p_axis.values[None, :] ** 2)
    assert np.unique(u).size == 146_417
    assert sizes == [146_417] * len(state.n_values)
    assert [log_u.size for log_u in logs] == [146_417]


def test_phase_space_peak_memory_stays_below_four_grids():
    """Traced peak of one call on dense M = 40 at most 4x the output grid.

    The per-cell sweep peaks just above 4x (4.003x), and
    np.unique(u, return_inverse=True) over the full grid at 6.35x.  A small
    call first builds the state's cached arrays, so they are not counted.
    """
    state = dense_family_state(40)
    marginal_phase_space(state, GridAxis("Q", -1.0, 1.0, 5), GridAxis("P", -1.0, 1.0, 5))
    tracemalloc.start()
    try:
        grid = marginal_phase_space(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * grid.values.nbytes


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


def test_marginals_take_no_log_of_an_underflowed_weight():
    """|c|^2 of 1e-170 and the pair products of 1e-200 underflow to 0.

    The energy-time density takes 2 log|c| for such a weight, and the
    space-time pair cut drops such a pair, without a divide-by-zero warning.
    """
    state = assemble_state(30, 10, (1, 2), {1: 1.0, 5: 1e-170, 9: 1e-200})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        marginal_energy_time(state)
        space_time, _ = marginal_space_time(state)
    assert np.all(np.isfinite(space_time.values))
    prefactor = (state.two_j + 1) / (2.0 * float(state.ratios.kappa))
    for e in (0.05, 0.5, 1.0, 1.4):
        theta = theta_of_energy(state.clock, state.oscillator, e)
        assert energy_time_density(state, e) == pytest.approx(
            prefactor * chi_squared(state, theta), rel=1e-12)


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


@st.composite
def ridge_states(draw):
    """States with 2-6 branches whose outermost ridge sqrt(2 n_max / M) lies
    inside the default +-2.5 phase-space window.

    Label l sits at m+J = i_m (2l + 1) and Fock level n = i_n (2l + 1) + l.
    """
    i_m = draw(st.integers(1, 3))
    i_n = draw(st.integers(0, 3).filter(lambda i: math.gcd(2 * i + 1, 2 * i_m) == 1))
    mass = draw(st.integers(2 * i_n + 1, 60))
    labels = [label for label in range(400) if i_n * (2 * label + 1) + label < 3.125 * mass]
    chosen = draw(st.sets(st.sampled_from(labels), min_size=2, max_size=6))
    top = i_m * (2 * max(chosen) + 1)
    coefficient = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                     allow_infinity=False).filter(lambda c: abs(c) > 0.1)
    return assemble_state(two_j=draw(st.integers(max(top, 3 * i_m), top + 60)), mass=mass,
                          eps_over_omega=f"{2 * i_n + 1}/{2 * i_m}",
                          coefficients={i_m * (2 * label + 1): draw(coefficient)
                                        for label in chosen})


@settings(max_examples=40, deadline=None, derandomize=True)
@given(state=ridge_states())
@example(state=dense_family_state(10))
@example(state=dense_family_state(40))
def test_marginals_are_non_negative_with_unit_mass(state):
    """The trapezoid mass of each marginal is 1 less what lies outside its window.

    Phase space: the mass outside the default square lies between the Gamma
    tails Q(n+1, M R^2/2) beyond the inscribed (R = 2.5) and the circumscribed
    (R = 2.5 sqrt 2) circles.  Energy: the mass inside [0, e_stop] is the
    incomplete Beta I_x(k+1, 2J-k+1) at x = e_stop/(2 kappa).  Both are 1 for
    a state the window holds, such as dense M = 40.  Measured over these 42
    examples: the phase-space mass leaves its bounds by at most 1.8e-15, and
    the energy mass misses its closed form by at most 1.0e-5 (dense M = 40),
    the trapezoid error of a density with a steep slope at e = 0.
    """
    weights = np.abs(state.amplitudes) ** 2
    n = np.array(state.n_values, dtype=float)
    k = np.array(state.support, dtype=float)

    plane = marginal_phase_space(state)
    assert plane.values.min() >= 0.0
    low = 1.0 - np.sum(weights * gammaincc(n + 1.0, state.mass * 2.5 ** 2 / 2.0))
    high = 1.0 - np.sum(weights * gammaincc(n + 1.0, state.mass * 2.5 ** 2))
    assert low - 1e-13 <= plane.mass() <= high + 1e-13

    energy = marginal_energy_time(state)
    assert energy.values.min() >= 0.0
    x_stop = min(energy.axes[0].stop / (2.0 * float(state.ratios.kappa)), 1.0)
    inside = np.sum(weights * betainc(k + 1.0, state.two_j - k + 1.0, x_stop))
    assert energy.mass() == pytest.approx(inside, abs=3e-5)


def _strip_mass(n: int, x_stop: float) -> float:
    """Mass of Fock level n's phase-space density (M/2pi) e^-u u^n/n! on |x| <= x_stop.

    With x = sqrt(M/2) Q and y = sqrt(M/2) P, u = x^2 + y^2; expanding
    (x^2 + y^2)^n binomially leaves one Gamma integral in y and an incomplete
    Gamma P(k + 1/2, x_stop^2) in x for each k.
    """
    k = np.arange(n + 1.0)
    log_weight = (gammaln(k + 0.5) + gammaln(n - k + 0.5) - gammaln(k + 1.0)
                  - gammaln(n - k + 1.0) - math.log(math.pi))
    return min(1.0, float(np.sum(np.exp(log_weight) * gammainc(k + 0.5, x_stop ** 2))))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(state=ridge_states())
@example(state=dense_family_state(10))
@example(state=dense_family_state(40))
def test_space_time_columns_have_unit_mass_less_the_window_tail(state):
    """Each t-column of D(Q, t) integrates over Q to eps/(2 pi) times the mass
    S = sum_m |c_m|^2 S_m of the branches on the window |Q| <= 2.5, and so do
    i1 + i2.  The cross term integrates to 0 over the plane, since Fock levels
    are orthogonal, so on the window it is bounded by what lies outside it:
    |sum over pairs| <= (sum_m |c_m| sqrt(1 - S_m))^2.

    The trapezoid in Q adds about h^2/12 |f'| at each end of the window,
    estimated from the diagonal profile f; the tolerance is twice that plus
    1e-13.  Measured over these 32 examples: i1 + i2 miss S by at most 1.01
    times the end term where it exceeds 1e-13, else by at most 2.6e-14; the
    columns exceed cross bound plus twice the end term by at most 2.8e-14,
    and the cross term its bound by at most 6.6e-17.
    """
    t_axis = GridAxis("t", 0.0, default_time_axis(state).stop, 9)
    grid, report = marginal_space_time(state, t_axis=t_axis)
    q = grid.axes[0].values
    scale = state.clock.epsilon / (2.0 * math.pi)
    moduli = np.abs(state.amplitudes)
    inside = np.array([_strip_mass(n, math.sqrt(state.mass / 2.0) * q[-1])
                       for n in state.n_values])
    mass = float(np.sum(moduli ** 2 * inside))
    cross_bound = float(np.sum(moduli * np.sqrt(1.0 - inside)) ** 2)
    diagonal = space_time_diagonal(state, q) / scale
    h = q[1] - q[0]
    tol = 1e-13 + 2.0 * h / 12.0 * (abs(diagonal[1] - diagonal[0])
                                     + abs(diagonal[-1] - diagonal[-2]))

    assert abs((report.i1 + report.i2) / scale - mass) <= tol
    columns = _trapezoid(grid.values, q, axis=0) / scale
    assert np.all(np.abs(columns - mass) <= cross_bound + tol)
    cross = _trapezoid(grid.values / scale - diagonal[:, None], q, axis=0)
    assert np.all(np.abs(cross) <= cross_bound + 1e-13)


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
    report = interference_suppression(6, 2, 6, n1=1, n2=4)
    assert isinstance(report, InterferenceReport)
    assert report.clock_suppression_factor == pytest.approx(math.sqrt(15.0) / 15.0)
    assert report.oscillator_suppression_factor == pytest.approx(
        oscillator_interference_factor(1, 4))
    assert report.i1 is None and report.ratio is None
    with pytest.raises(ValueError):
        interference_suppression(6, 2, 7, n1=1, n2=4)
    with pytest.raises(ValueError):
        interference_suppression(6, 2, 6, n1=-1, n2=4)


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


# Run in a child interpreter: the sha256 of each space-time output, as one
# JSON line.
THREAD_PROBE = """
import hashlib, json, pathlib, tempfile
from fractions import Fraction
import numpy as np
from pawclock import cli, marginals
from pawclock.constraints import enumerate_pairs, reduce_ratio
from pawclock.pawstate import assemble_state, dense_family_state

def digest(*arrays):
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()

fields = ("clock_suppression_factor", "oscillator_suppression_factor",
          "i1", "i2", "i_int", "ratio")
states = {f"dense-{m}": dense_family_state(m) for m in (10, 40, 170)}
family = enumerate_pairs(reduce_ratio(Fraction(1, 2)), 510).pairs
states["sparse-26"] = assemble_state(
    two_j=510, mass=170, eps_over_omega=Fraction(1, 2),
    coefficients={k: 1.0 for k, _ in family[::10]})
out = {}
for name, state in states.items():
    grid, report = marginals.marginal_space_time(state)
    out[name] = digest(grid.values, np.array([getattr(report, f) for f in fields]))
out["diagonal-170"] = digest(marginals.space_time_diagonal(
    states["dense-170"], np.linspace(-2.5, 2.5, 801)))
with tempfile.TemporaryDirectory() as tmp:
    assert cli.main(["figure", "marg-qt", "--out", tmp]) == 0
    for path in sorted(pathlib.Path(tmp).iterdir()):
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
print(json.dumps(out))
"""


def test_space_time_bits_do_not_depend_on_blas_threads():
    """Every space-time output has the same sha256 with one OpenBLAS thread
    and with two: dense M = 10, 40 and 170, the N = 26 state holding every
    10th branch of 2J = 510, the diagonal on dense M = 170 and the marg-qt
    files.  The variable is set for two child interpreters only."""
    src = str(Path(marginals.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", THREAD_PROBE], capture_output=True,
                                text=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        digests.append(json.loads(result.stdout.splitlines()[-1]))
    assert len(digests[0]) == 7  # five space-time digests, the CSV and its sidecar
    assert digests[0] == digests[1]


@pytest.mark.parametrize("rows, inner, cols, zero_rows", [
    (801, 40, 8, False),       # within the bound: one call
    (801, 239, 43, False),     # chunked inner axis, one column block
    (801, 851, 300, True),     # column blocks, zero row blocks skipped
    (801, 14, 256, False),     # one inner chunk
    (801, 100, 300, False),    # one inner chunk, two column blocks
    (4, 64, 1341, False),      # few rows, wide b
    (801, 510, None, False),   # vector b, taller than a block
    (37, 700, None, True),     # vector b, zero rows
])
def test_product_matches_matmul(rows, inner, cols, zero_rows):
    """_product equals a @ b within 16 eps of |a| @ |b| per entry, at shapes
    below and above _BLAS_BOUND, with 1-D and 2-D b, b transposed, and rows
    of a zero over whole chunks; within the bound it is a @ b bitwise.  Two
    BLAS routines differ by as much: numpy's syrk and gemm results for the
    sums of 800 squares below differ by up to 11 eps."""
    rng = np.random.default_rng(rows * inner)
    a = rng.standard_normal((rows, inner))
    if zero_rows:  # a band: each row nonzero over a third of the inner axis
        centre = np.linspace(0, inner, rows)[:, None]
        a[np.abs(np.arange(inner) - centre) > inner / 6] = 0.0
    b = rng.standard_normal(inner if cols is None else (cols, inner))
    b = b if cols is None else b.T
    expected = a @ b
    got = _product(a, b)
    assert got.shape == expected.shape
    bound = 16 * np.finfo(float).eps * (np.abs(a) @ np.abs(b))
    assert np.all(np.abs(got - expected) <= bound)
    if rows * inner * (cols or 1) <= _BLAS_BOUND:
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("levels", [2, 30])
def test_product_of_stacks_matches_matmul(levels):
    """A stack of Gram products, as ``_gram_rows`` forms them: with 2 levels
    each slice is within _BLAS_BOUND and the result is a @ b bitwise; with
    30 each slice is cut like a 2-D product."""
    parts = np.random.default_rng(levels).standard_normal((3, levels, 800))
    expected = parts @ parts.swapaxes(1, 2)
    got = _product(parts, parts.swapaxes(1, 2))
    bound = 16 * np.finfo(float).eps * (np.abs(parts) @ np.abs(parts).swapaxes(1, 2))
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= bound)
    if levels * 800 * levels <= _BLAS_BOUND:
        assert np.array_equal(got, expected)


MATRIX_PRODUCTS = {"dot", "matmul", "einsum", "tensordot", "inner"}


def test_marginals_multiply_matrices_only_in_product():
    """No ``@``, np.dot, np.matmul, np.einsum, np.tensordot or np.inner in
    marginals.py outside _product, so every BLAS call of the module goes
    through its bound."""
    tree = ast.parse(Path(marginals.__file__).read_text(encoding="utf-8"))
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == "_product":
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Attribute) and node.attr in MATRIX_PRODUCTS:
            found.append(ast.unparse(node))
        stack.extend(ast.iter_child_nodes(node))
    assert found == []


def test_worker_count_follows_cpu_affinity(monkeypatch):
    """min(4, the CPUs the process may run on), so a cpuset or taskset lowers it."""
    for cpus, expected in ((range(1), 1), (range(3), 3), (range(64), 4)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
        assert _worker_count() == expected
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _worker_count() == 2


def test_space_time_peak_memory_on_dense_170():
    """Traced peak of one default-axes call on dense M = 170 (N = 255, 32,385
    kept pairs) at most 32 MiB.  The Gram kernel with a thread pool peaked at
    62.9 MiB; the Husimi kernel holds the Hermite table, the (Q x x) Gaussian
    kernel, the beat sums and one 64-pair chunk.  A small call first builds
    the state's cached arrays, so they are not counted.
    """
    state = dense_family_state(170)
    marginal_space_time(state, GridAxis("Q", -1.0, 1.0, 3), GridAxis("t", 0.0, 1.0, 2))
    tracemalloc.start()
    try:
        marginal_space_time(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2 ** 20


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
