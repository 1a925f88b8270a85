"""Quantum-to-classical crossover diagnostics and the emergent classical picture.

The clock sphere carries the energy-time chart E = J*eps*(1 - cos theta),
t = phi/eps; the oscillator plane carries the Darboux chart (q, p).  The
joint amplitude beta(Omega, alpha) weights classical configurations, and in
the large-(J, M) regime only harmonic orbits at the allowed energies survive.
This module evaluates beta stably, checks the stationary equation at density
peaks, lists the surviving energy levels with their phase-space radii, and
generates the classical orbits together with Hamilton-equation residuals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coherent import LogAmplitude, SphereCoordinate, hcs_log_magnitude, scs_log_magnitude
from .constraints import ClockSpec, OscillatorSpec
from .pawstate import PawState, conditional_state
from .table import write_table


# ---------------------------------------------------------------------------
# energy-time chart on the clock sphere
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyTimeCoordinate:
    """Clock reading in the conjugate chart: e = E/(M*omega), t = phi/eps."""

    e: float
    t: float


def energy_of_theta(clock: ClockSpec, theta) -> float:
    """Clock energy at polar angle theta: J*eps*(1 - cos theta)."""
    return clock.epsilon * (clock.two_j / 2.0) * (1.0 - np.cos(theta))


def energy_time_coordinate(clock: ClockSpec, oscillator: OscillatorSpec,
                           point: SphereCoordinate) -> EnergyTimeCoordinate:
    """Map a sphere point to the dimensionless energy-time chart."""
    e = energy_of_theta(clock, point.theta) / (oscillator.mass * oscillator.omega)
    return EnergyTimeCoordinate(e=float(e), t=point.phi / clock.epsilon)


def theta_of_energy(clock: ClockSpec, oscillator: OscillatorSpec, e: float) -> float:
    """Inverse chart: the polar angle whose clock energy is e*M*omega.

    e must lie in [0, 2*kappa] with kappa = eps*J/(omega*M).
    """
    kappa = clock.epsilon * (clock.two_j / 2.0) / (oscillator.omega * oscillator.mass)
    x = e / kappa
    if not 0.0 <= x <= 2.0:
        raise ValueError(f"e = {e!r} outside the clock energy range [0, {2 * kappa!r}]")
    return math.acos(1.0 - x)


# ---------------------------------------------------------------------------
# joint amplitude
# ---------------------------------------------------------------------------

def beta_amplitude(state: PawState, point: SphereCoordinate,
                   alpha: complex) -> LogAmplitude:
    """Joint coherent-state amplitude sum_m c_m <Omega|J, m><alpha|n_m>.

    Branch m has log magnitude log|c_m| + log|<Omega|J, m>| + log|<alpha|n_m>|
    and phase arg(c_m) - phi*k_m - n_m*arg(alpha), k_m = m+J.  Branches are
    combined by a max-shifted complex sum, so the result is faithful even
    when every branch underflows a float.
    """
    amplitudes = state.amplitudes.tolist()
    arg_alpha = cmath.phase(alpha)
    logs = (np.array([math.log(abs(c)) for c in amplitudes])
            + scs_log_magnitude(point.theta, state.two_j, state.support)
            + hcs_log_magnitude(alpha, state.mass, state.n_values))
    phases = np.array([cmath.phase(c) - point.phi * k - n * arg_alpha
                       for c, k, n in zip(amplitudes, state.support, state.n_values)])
    peak = float(np.max(logs))
    if peak == -math.inf:
        return LogAmplitude(-math.inf, 0.0)
    total = complex(np.sum(np.exp(logs - peak + 1j * phases)))
    if total == 0:
        return LogAmplitude(-math.inf, 0.0)
    return LogAmplitude(peak + math.log(abs(total)), cmath.phase(total))


def stationary_residual(state: PawState, theta_peak: float, phi: float) -> float:
    """|| (H - E(theta_peak)) |phi_theta(phi)> ||_2 at a density peak.

    Small only where chi^2 is sharply localized around a single branch; for a
    reading between two peaks the residual stays of order of the level gap,
    which makes it a localization diagnostic rather than an identity.
    """
    conditional = conditional_state(state, theta_peak, phi)
    energy = energy_of_theta(state.clock, theta_peak)
    gaps = np.array([state.oscillator.level_energy(n) - energy
                     for n in conditional.n_values])
    return float(np.linalg.norm(gaps * conditional.vector))


# ---------------------------------------------------------------------------
# surviving configurations and classical orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurvivingLevel:
    """One occupied branch viewed classically.

    ``energy`` is the exact level omega*(n+1/2); ``energy_classical`` is the
    large-M asymptote omega*n under which the phase-space radius in the
    dimensionless chart is exactly sqrt(2n/M).
    """

    n: int
    energy: float
    energy_classical: float
    radius_q: float


def surviving_configurations(state: PawState) -> list[SurvivingLevel]:
    """The classical orbits that survive conditioning: one per occupied branch."""
    levels = []
    for n in sorted(state.n_values):
        levels.append(SurvivingLevel(
            n=n,
            energy=state.oscillator.level_energy(n),
            energy_classical=state.oscillator.omega * n,
            radius_q=math.sqrt(2.0 * n / state.mass),
        ))
    return levels


@dataclass(frozen=True)
class OrbitParams:
    """Harmonic orbit at fixed energy: q = sqrt(2E)/(M*omega) cos(eta t + phi0).

    eta is a free time-scale constant; eta = M*omega makes the orbit solve the
    Hamilton equations of H = p^2/2 + (M*omega)^2 q^2 / 2 in physical time.
    """

    energy: float
    eta: float
    phi0: float
    m_omega: float

    def __post_init__(self) -> None:
        if self.energy < 0:
            raise ValueError("energy must be non-negative")
        if self.m_omega <= 0:
            raise ValueError("m_omega must be positive")


@dataclass(frozen=True)
class ClassicalConfig:
    """A sampled point of a classical orbit, in both oscillator charts."""

    energy: float
    t: float
    q: float
    p: float
    big_q: float
    big_p: float


def classical_orbit(params: OrbitParams, t_grid) -> list[ClassicalConfig]:
    """Sample the orbit on t_grid; every point conserves H = energy exactly."""
    amplitude = math.sqrt(2.0 * params.energy)
    root = math.sqrt(params.m_omega)
    configs = []
    for t in np.asarray(t_grid, dtype=float):
        phase = params.eta * t + params.phi0
        q = amplitude / params.m_omega * math.cos(phase)
        p = -amplitude * math.sin(phase)
        configs.append(ClassicalConfig(energy=params.energy, t=float(t), q=q, p=p,
                                       big_q=q * root, big_p=p / root))
    return configs


ORBIT_COLUMNS = ("E", "t", "q", "p", "Q", "P")


def orbit_table(state: PawState, samples: int = 256) -> tuple[np.ndarray, ...]:
    """Orbits of every surviving level over one oscillator period, as columns.

    Returns the six columns E, t, q, p, Q, P (see ORBIT_COLUMNS), one row per
    sample, level after level in the order of ``surviving_configurations``.
    Energies use the large-M asymptote omega*n, so the dimensionless radii
    are exactly sqrt(2n/M) as in the dense-orbit picture.  All levels share
    the phase grid M*omega*t (eta = M*omega, phi0 = 0), so cos and sin are
    taken once per sample, with ``math`` as in ``classical_orbit``; each
    level is that grid scaled by its amplitude, and every entry equals the
    one ``classical_orbit`` gives.
    """
    m_omega = state.mass * state.oscillator.omega
    t_grid = np.linspace(0.0, 2.0 * math.pi / m_omega, samples, endpoint=False)
    phase = (m_omega * t_grid).tolist()
    cos = np.array([math.cos(x) for x in phase])
    sin = np.array([math.sin(x) for x in phase])
    energies = np.array([level.energy_classical
                         for level in surviving_configurations(state)])
    amplitude = np.sqrt(2.0 * energies)[:, None]
    q = amplitude / m_omega * cos
    p = -amplitude * sin
    root = math.sqrt(m_omega)
    levels = len(energies)
    return (np.repeat(energies, samples), np.tile(t_grid, levels),
            q.ravel(), p.ravel(), (q * root).ravel(), (p / root).ravel())


def hamilton_residual(params: OrbitParams, t: float, dt: float) -> tuple[float, float]:
    """Central-difference defects of the two Hamilton equations at time t.

    Returns (|dq/dt - (eta/M*omega) dH/dp|, |dp/dt + (eta/M*omega) dH/dq|);
    both shrink as dt^2 since the orbit solves the rescaled equations exactly.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    before, center, after = classical_orbit(params, [t - dt, t, t + dt])
    factor = params.eta / params.m_omega
    dq_dt = (after.q - before.q) / (2.0 * dt)
    dp_dt = (after.p - before.p) / (2.0 * dt)
    residual_q = abs(dq_dt - factor * center.p)
    residual_p = abs(dp_dt + factor * params.m_omega ** 2 * center.q)
    return residual_q, residual_p


def write_orbit_csv(columns, path) -> None:
    """Write the columns of ``orbit_table`` as CSV rows E,t,q,p,Q,P."""
    write_table(path, ORBIT_COLUMNS, columns)

