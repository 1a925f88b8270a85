"""Unit tests for the quasi-probability marginals and interference factors."""

import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.special import betainc, gammainc, gammaincc, gammaln
from scipy.stats import binom

from pawclock import marginals
from pawclock.classical import theta_of_energy
from pawclock.constraints import enumerate_pairs, reduce_ratio
from pawclock.marginals import (
    _BLAS_BOUND,
    ConfigError,
    DistributionGrid,
    EOutOfRange,
    GridAxis,
    InterferenceReport,
    _binomial_weights,
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
    assert np.diff(axis.values) == pytest.approx(np.full(800, 5.0 / 800.0))
    with pytest.raises(ValueError):
        GridAxis("Q", 0.0, 1.0, 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stop=st.floats(1e-300, sys.float_info.max / 2), count=st.integers(2, 3000))
@example(stop=2.5, count=801)  # the default phase-space axes
@example(stop=sys.float_info.max / 2, count=801)  # the widest axis a float holds
def test_symmetric_axis_mirrors_bit_for_bit(stop, count):
    """An axis from -s to s equals its negated reverse (== takes the centre,
    +0.0, as equal to -0.0), ends at -s and s exactly and stays within
    2 ulp(s) of np.linspace.  The draws keep the step 2s/(count - 1) a
    normal float: with a subnormal step linspace itself misses the exact
    nodes (by 1,361 ulp(s) at s = 7.5e-309 and 2,835 samples, the axis by
    681), and the two differ by more than 2 ulp(s)."""
    values = GridAxis("Q", -stop, stop, count).values
    assert np.all(values == -values[::-1])
    assert values[0] == -stop and values[-1] == stop
    assert np.all(np.abs(values - np.linspace(-stop, stop, count)) <= 2 * np.spacing(stop))


@pytest.mark.parametrize("start, stop, count", [
    (-1e-320, 1e-320, 3),
    (-7.485e-309, 7.485e-309, 2835),  # linspace 1,361 ulp(s) off the exact nodes
    (0.0, 2.0 * sys.float_info.min, 4),
])
def test_axis_with_a_subnormal_step_is_refused(start, stop, count):
    """A step (stop - start)/(count - 1) below the smallest normal float is refused."""
    with pytest.raises(ConfigError, match="smallest normal float"):
        GridAxis("Q", start, stop, count)


def test_axis_with_the_smallest_normal_step_is_kept():
    step = sys.float_info.min
    values = GridAxis("Q", -step, step, 3).values
    assert values.tolist() == [-step, 0.0, step]


@pytest.mark.parametrize("start, stop, count", [
    (0.0, 1.6, 2001),  # the default energy axis of a clock with 2 kappa >= 1.6
    (0.0, 2.0 * math.pi / 170, 256),  # the default time axis at M omega = 170
    (-2.5, 2.4, 801),
    (-1.3, 2.5, 333),
])
def test_asymmetric_axis_keeps_the_linspace_bits(start, stop, count):
    assert (GridAxis("x", start, stop, count).values.tobytes()
            == np.linspace(start, stop, count).tobytes())


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
    assert abs(peaks[0] - 1.0) <= q[1] - q[0]
    assert abs(peaks[1] - math.sqrt(2.0)) <= q[1] - q[0]


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


def phase_space_by(route, state, q_axis, p_axis):
    """``marginal_phase_space`` forced onto one route, "loop" or "convolution"."""
    with mock.patch.object(marginals, "_takes_convolution",
                           lambda *_: route == "convolution"):
        return marginal_phase_space(state, q_axis, p_axis)


class Routed(Exception):
    """Raised in place of the first step of a route, named in its argument."""


def route_of(state, q_axis=None, p_axis=None) -> str:
    """The route ``marginal_phase_space`` takes, found without taking it."""
    def stop(route):
        def first_step(*_):
            raise Routed(route)
        return first_step

    with (mock.patch.object(marginals, "_poisson_convolution", stop("convolution")),
          mock.patch.object(marginals, "_distinct", stop("loop"))):
        with pytest.raises(Routed) as routed:
            marginal_phase_space(state, q_axis, p_axis)
    return routed.value.args[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(state=admissible_states() | st.integers(1, 60).map(dense_family_state),
       q_axis=grid_axes("Q"), p_axis=grid_axes("P"))
@example(state=balanced_two_level_state(170), q_axis=default_phase_space_axes()[0],
         p_axis=default_phase_space_axes()[1])  # the marg-pq default
@example(state=dense_family_state(10), q_axis=default_phase_space_axes()[0],
         p_axis=default_phase_space_axes()[1])
@example(state=dense_family_state(8), q_axis=GridAxis("Q", -2.5, 2.5, 333),
         p_axis=GridAxis("P", -1.3, 2.5, 801))
def test_phase_space_matches_per_cell_sweep_bitwise(state, q_axis, p_axis):
    """On the loop route, evaluating each branch once per distinct U gives the
    per-cell bits, for every state (the route is forced here)."""
    grid = phase_space_by("loop", state, q_axis, p_axis)
    expected = reference_phase_space(state, q_axis, p_axis)
    assert grid.values.shape == expected.values.shape
    assert grid.values.tobytes() == expected.values.tobytes()


@pytest.mark.parametrize("route", ["loop", "convolution"])
def test_phase_space_is_zero_where_u_overflows(route):
    """Where U = M(Q^2 + P^2)/2 overflows a float, both routes give density 0,
    with no numpy warning, and keep the other cells finite."""
    axis = GridAxis("Q", -1e200, 1e200, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = phase_space_by(route, dense_family_state(10), axis,
                              GridAxis("P", -2.5, 2.5, 5))
    assert np.isfinite(grid.values).all()
    assert (grid.values[[0, 1, 3, 4]] == 0.0).all()
    assert grid.values[2, 2] > 0.0


# The states for which CONVOLUTION_REL is derived, n_max <= 89: dense M <= 60,
# balanced M <= 88, and random states of 2-6 branches with gapped levels,
# unequal complex weights and mass 1-12.
convolution_states = (st.integers(1, 60).map(dense_family_state)
                      | st.integers(1, 44).map(lambda half: balanced_two_level_state(2 * half))
                      | admissible_states().filter(lambda state: max(state.n_values) <= 89))
EPS = np.finfo(float).eps
# Largest exponent size S = |k log u| + u + ln k! of a Poisson term at
# k <= 89 that is at least sqrt(tiny) = e^-354.2: where log u < 0,
# S = -log term <= 354.2; else S <= 2u + 2 ln k!, and
# k log u - u - ln k! >= -354.2 holds up to u = 611.6 at k = 89, so S <= 1851.
TERM_SIZE = 1851.0
# Each exponent k log u - u - ln k! is formed from a log within an ulp, u and
# ln k! within a few, in three roundings: within eps (2.5 S + 1.5 k).  A
# convolution term holds two table entries and the per-cell sweep one, and the
# sums of positive terms add at most eps per term (K <= 90 twice, and the
# scalings), so the two routes' cells agree within this, relative.
CONVOLUTION_REL = (3 * (2.5 * TERM_SIZE + 1.5 * 89) + 2 * 90 + 10) * EPS
# A flushed table entry drops at most sqrt(tiny) per level k, three times.
CONVOLUTION_FLOOR = 1e-130


@settings(max_examples=40, deadline=None, derandomize=True)
@given(state=convolution_states, q_axis=grid_axes("Q"), p_axis=grid_axes("P"))
@example(state=dense_family_state(10), q_axis=default_phase_space_axes()[0],
         p_axis=default_phase_space_axes()[1])
@example(state=dense_family_state(8), q_axis=GridAxis("Q", -2.5, 2.5, 333),
         p_axis=GridAxis("P", -1.3, 2.5, 801))
def test_phase_space_convolution_matches_per_cell_sweep(state, q_axis, p_axis):
    """On the convolution route (forced here) each cell is within
    CONVOLUTION_REL of the per-cell sweep, relative, wherever the sweep
    exceeds CONVOLUTION_FLOOR, and within CONVOLUTION_REL of the grid maximum
    everywhere, plus the flushed entries: at most 3 (n_max + 1) sqrt(tiny)
    M/(2 pi), which is below eps * CONVOLUTION_FLOOR.  Derived for every
    state of the strategy (n_max <= 89), not measured on this draw;
    measured, the largest relative difference on dense M = 10-60 is ~1e-13."""
    grid = phase_space_by("convolution", state, q_axis, p_axis).values
    expected = reference_phase_space(state, q_axis, p_axis).values
    difference = np.abs(grid - expected)
    flushed = 3 * (max(state.n_values) + 1) * marginals._FLUSH * state.mass / (2 * math.pi)
    above = expected > CONVOLUTION_FLOOR
    assert np.all(difference[above] <= CONVOLUTION_REL * expected[above])
    assert np.all(difference <= CONVOLUTION_REL * expected.max() + flushed)


@pytest.mark.parametrize("mass", [10, 20, 40, 170])
def test_phase_space_convolution_on_the_default_axes(mass):
    """Dense M = 10, 20, 40 and 170 take the convolution and agree with the
    per-cell sweep to 1e-12 of the grid maximum, and to 1e-12 relative on
    every cell above 1e-140 (measured: 1.5e-14, 4.7e-14, 9.3e-14 and 4.7e-13
    relative)."""
    state = dense_family_state(mass)
    assert route_of(state) == "convolution"
    grid = marginal_phase_space(state).values
    expected = reference_phase_space(state).values
    difference = np.abs(grid - expected)
    above = expected > 1e-140
    assert np.all(difference <= 1e-12 * expected.max())
    assert np.all(difference[above] <= 1e-12 * expected[above])


def equal_weight_state(two_j, kappa_r):
    """Equal weight on every allowed pair at M = 1, the CLI's default state."""
    family = enumerate_pairs(reduce_ratio(Fraction(kappa_r)), two_j)
    amp = 1.0 / math.sqrt(len(family.pairs))
    return assemble_state(two_j, 1, kappa_r, {k: amp for k, _ in family.pairs})


@pytest.mark.parametrize("state, axes, route", [
    (dense_family_state(2), None, "convolution"),  # K = N = 3
    (dense_family_state(10), None, "convolution"),  # K = N = 15
    (dense_family_state(170), None, "convolution"),  # K = N = 255
    # P = 401 distinct squares: K (K + P) = 2,856 and 3,690 <= 16 N P = 12,832
    (balanced_two_level_state(6), None, "convolution"),
    (balanced_two_level_state(8), None, "convolution"),
    # the marg-pq default: K (K + P) = 97,812 > 12,832
    (balanced_two_level_state(170), None, "loop"),
    # N = 30, K = 148: K (K + P) = 81,252 <= 192,480
    (equal_weight_state(60, "5/2"), None, "convolution"),
    # K = 13,499, N = 4,500: its fold costs K (K + P) = 1.9e8 multiply-adds
    # per Q against 16 N P = 2.9e7
    (equal_weight_state(9000, "3/2"), None, "loop"),
    # one distinct P^2: K (K + 1) = 240 <= 16 N = 240 at dense M = 10,
    # 930 > 480 at dense M = 20
    (dense_family_state(10), GridAxis("P", -1.0, 1.0, 2), "convolution"),
    (dense_family_state(20), GridAxis("P", -1.0, 1.0, 2), "loop"),
], ids=["dense2", "dense10", "dense170", "balanced6", "balanced8", "marg-pq",
        "two-j-60-five-halves", "two-j-9000", "dense10-one-square", "dense20-one-square"])
def test_phase_space_routes_by_cost_and_ladder_density(state, axes, route):
    """The convolution takes a ladder of K = n_max + 1 levels and N branches
    on a grid of Q x P distinct squares when its multiply-adds,
    Q K (K + P), are at most 16 N Q P; every other state takes the loop."""
    q_axis = default_phase_space_axes()[0]
    assert route_of(state, q_axis, axes or default_phase_space_axes()[1]) == route


# (state, Q index, P index) on the default axes: the grid maximum, a ridge
# crest of the P = 0 section, Q = 2 on that section beyond the outermost
# ridge, and a tail cell near 1e-49.
ORACLE_CELLS = [
    (40, 266, 443), (40, 550, 400), (40, 720, 400), (40, 0, 0),
    (170, 297, 583), (170, 612, 400), (170, 720, 400), (170, 691, 691),
]


@pytest.mark.parametrize("mass, iq, ip", ORACLE_CELLS)
def test_phase_space_convolution_matches_mpmath(mass, iq, ip):
    """Dense M = 40 and 170 on the convolution route against the Poisson
    mixture at 40 digits, at the float grid's own (Q, P): within 1e-12
    relative, in the crest, on the P = 0 section and in the tail."""
    state = dense_family_state(mass)
    assert route_of(state) == "convolution"
    grid = marginal_phase_space(state)
    q, p = (mpmath.mpf(float(axis.values[i])) for axis, i in zip(grid.axes, (iq, ip)))
    with mpmath.workdps(40):
        u = mpmath.mpf(mass) / 2 * (q ** 2 + p ** 2)
        exact = mass / (2 * mpmath.pi) * mpmath.fsum(
            mpmath.mpf(float(abs(c))) ** 2 * mpmath.exp(-u) * u ** n / mpmath.factorial(n)
            for c, n in zip(state.amplitudes, state.n_values))
        assert abs(grid.values[iq, ip] - exact) <= 1e-12 * exact
    if (iq, ip) == (0, 0) or iq == ip == 691:
        assert 1e-50 < exact < 1e-48


@settings(max_examples=40, deadline=None, derandomize=True)
@given(state=admissible_states() | convolution_states,
       route=st.sampled_from(["loop", "convolution"]), axis=grid_axes("Q"))
@example(state=dense_family_state(10), route="convolution",
         axis=default_phase_space_axes()[0])
@example(state=balanced_two_level_state(170), route="loop",
         axis=default_phase_space_axes()[0])
def test_phase_space_is_symmetric_on_equal_axes(state, route, axis):
    """On equal Q and P axes the grid equals its transpose bit for bit, on
    both routes: U is a sum of the two squares, and the convolution's grid
    is (V + V^T)/2."""
    grid = phase_space_by(route, state, axis,
                          GridAxis("P", axis.start, axis.stop, axis.count))
    assert grid.values.tobytes() == grid.values.T.tobytes()


def test_phase_space_evaluates_each_branch_once_per_distinct_radius(monkeypatch):
    """The marg-pq default (balanced M = 170) on the default axes: 2 kernel
    calls of 68,341 radii each, not of the 641,601 cells, all reading one
    libm log of those radii."""
    state = balanced_two_level_state(170)
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
    assert np.unique(u).size == 68_341
    assert sizes == [68_341] * len(state.n_values)
    assert [log_u.size for log_u in logs] == [68_341]


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
    a state the window holds, such as dense M = 40.  The energy trapezoid
    misses that mass by its Euler-Maclaurin term h^2/12 (f'(e_stop) - f'(0)),
    up to 1.4e-3 where the density is steep at e = 0, so the closed form is
    compared with that term added.  Measured: the phase-space mass leaves its
    bounds by at most 1.8e-15 over these 42 examples, and over two runs of
    1500 ``ridge_states`` each the energy mass misses the corrected closed
    form by at most 3.3e-6 (2J = 626, k = 2), against 1.4e-3 uncorrected.
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
    axis = energy.axes[0]
    trapezoid_error = ((axis.stop - axis.start) / (axis.count - 1)) ** 2 / 12.0 * (
        _energy_density_slope(state, axis.stop) - _energy_density_slope(state, 0.0))
    assert energy.mass() == pytest.approx(inside + trapezoid_error, abs=1e-5)


def _energy_density_slope(state, e: float) -> float:
    """d/de of ((2J+1)/(2 kappa)) sum_k |c_k|^2 b(k; 2J, x) at x = e/(2 kappa),
    b the binomial pmf, whose x-derivative is 2J (b(k-1; 2J-1, x) - b(k; 2J-1, x))."""
    two_j, two_kappa = state.two_j, 2.0 * float(state.ratios.kappa)
    k = np.array(state.support)
    x = e / two_kappa
    slopes = binom.pmf(k - 1, two_j - 1, x) - binom.pmf(k, two_j - 1, x)
    return float(np.sum(np.abs(state.amplitudes) ** 2 * slopes)) * two_j * (two_j + 1) / two_kappa ** 2


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


def test_space_time_diagonal_builds_no_beats(monkeypatch):
    """space_time_diagonal takes two products, the branch rows and their
    weighting, and none of the two per Fock gap of the beats (dense M = 40
    has 59 gaps), bit for bit the diagonal of the full kernel."""
    state = dense_family_state(40)
    q_values = np.linspace(-2.5, 2.5, 801)
    branch, _, _ = marginals._closed_form_rows(state, q_values)
    calls = []

    def counting_product(a, b):
        calls.append((a.shape, b.shape))
        return _product(a, b)

    monkeypatch.setattr(marginals, "_product", counting_product)
    diagonal = space_time_diagonal(state, q_values)
    assert len(calls) == 2
    prefactor, plane_norm = state.clock.epsilon / (2.0 * math.pi), state.mass / (2.0 * math.pi)
    expected = prefactor * plane_norm * _product(branch, np.abs(state.amplitudes) ** 2)
    assert diagonal.tobytes() == expected.tobytes()


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


def report_pair_factors(state, i, j):
    return interference_suppression(state.two_j, state.support[i], state.support[j],
                                    state.n_values[i], state.n_values[j])


def test_space_time_report_pair_of_equal_weights_is_the_first_two():
    """With every |c| equal the heaviest pair is a tie, won by the lowest
    indices: the factors are those of branches 0 and 1."""
    state = dense_family_state(10)
    _, report = marginal_space_time(state, GridAxis("Q", -1.0, 1.0, 3),
                                    GridAxis("t", 0.0, 1.0, 2))
    expected = report_pair_factors(state, 0, 1)
    assert report.clock_suppression_factor == expected.clock_suppression_factor
    assert report.oscillator_suppression_factor == expected.oscillator_suppression_factor


@settings(max_examples=30, deadline=None, derandomize=True)
@given(moduli=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=9, unique=True),
       phases=st.lists(st.floats(-math.pi, math.pi), min_size=9, max_size=9))
def test_space_time_report_pair_is_the_two_largest_moduli(moduli, phases):
    """For distinct |c| the report's factors are those of the two branches of
    largest |c|, in branch order, on the 9-branch ladder of 2J = 18."""
    support = [2 * label + 1 for label in range(len(moduli))]
    state = assemble_state(two_j=18, mass=6, eps_over_omega="1/2", coefficients={
        k: r * complex(math.cos(a), math.sin(a)) for k, r, a in zip(support, moduli, phases)})
    normalized = np.abs(state.amplitudes).tolist()
    assume(len(set(normalized)) == len(normalized))
    i, j = sorted(sorted(range(len(normalized)), key=normalized.__getitem__)[-2:])
    _, report = marginal_space_time(state, GridAxis("Q", -1.0, 1.0, 3),
                                    GridAxis("t", 0.0, 1.0, 2))
    expected = report_pair_factors(state, i, j)
    assert report.clock_suppression_factor == expected.clock_suppression_factor
    assert report.oscillator_suppression_factor == expected.oscillator_suppression_factor


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
    (801, 851, 300, True),     # column blocks, banded a
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


def test_marginals_import_no_lapack():
    """marginals.py imports or reads nothing from numpy.linalg or
    numpy.polynomial, so no LAPACK call can wake OpenBLAS's thread pool to
    spin after it."""
    names = []
    for node in ast.walk(ast.parse(Path(marginals.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names.append(ast.unparse(node))
    assert [name for name in names if "linalg" in name or "polynomial" in name] == []


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


def traced_space_time_peak(state):
    """Traced peak of one default-axes space-time call.  A small call first
    builds the state's cached arrays, so they are not counted."""
    marginal_space_time(state, GridAxis("Q", -1.0, 1.0, 3), GridAxis("t", 0.0, 1.0, 2))
    tracemalloc.start()
    try:
        marginal_space_time(state)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_space_time_peak_memory_on_dense_170():
    """Dense M = 170 (N = 255, 254 Fock gaps) peaks at most 14 MiB; measured
    12.0 MiB, against 16.9 MiB when every branch pair was listed before the
    gaps were scanned.  The kernel holds the (n_max + 1) x Q table of psi_n,
    the per-branch weight table, the rows, and one gap's products and weights
    at a time.
    """
    assert traced_space_time_peak(dense_family_state(170)) <= 14 * 2 ** 20


def test_space_time_peak_memory_on_dense_340():
    """Dense M = 340 (N = 510, 129,795 branch pairs) peaks at most 26 MiB;
    measured 21.0 MiB.  Listing every pair before scanning the gaps peaked at
    43.0 MiB: no array of N(N - 1)/2 entries is held.
    """
    assert traced_space_time_peak(dense_family_state(340)) <= 26 * 2 ** 20


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 40, 59, 85, 170, 236, 254, 340, 1000, 2000, 4000])
def test_binomial_weights_match_exact_binomials(n):
    """g[i, a]^2 = C(n, a) / 2^n against the exact integer ratio, which
    Python's int / int rounds correctly, wherever that ratio is a normal
    float; g[i, a] = 0 for a > n.  The log-space weights round as about
    eps (ln n! + n ln 2): measured at most 2.22 times that over n = 2..399
    and n = 1000..4000 (1.1e-11 at n = 4000, 2.6e-13 at n = 170); the bound
    is 4 times it.
    """
    levels = [0, n, 5]
    g = _binomial_weights(levels)
    assert g.shape == (3, max(levels) + 1)
    exact = np.array([math.comb(n, a) / 2 ** n for a in range(n + 1)])
    normal = exact >= sys.float_info.min
    error = np.abs(g[1, :n + 1] ** 2 - exact)[normal] / exact[normal]
    assert np.all(error <= 4.0 * np.finfo(float).eps * (math.lgamma(n + 1) + n * math.log(2.0)))
    assert np.all(g[1, n + 1:] == 0.0) and np.all(g[2, 6:] == 0.0)
    assert g[0, 0] == 1.0


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
