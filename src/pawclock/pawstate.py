"""Global entangled states of the magnetic clock and the oscillator.

The Page-Wootters construction pairs each admissible clock level |J, m> with
the oscillator level n_m = kappa*r*(m+J) - 1/2 fixed by the stationarity
constraint and superposes the pairs, |Psi>> = sum_m c_m |J, m>|n_m>.
Conditioning on a clock coherent-state reading (theta, phi) yields a
normalized oscillator state whose amplitudes have fixed moduli and phases
that advance linearly in phi, so the conditional state obeys the oscillator
Schroedinger equation in the rescaled time t = phi/epsilon.

This module builds such states, evaluates the clock-sphere density
chi^2(theta), extracts conditional states, and provides the exact-rational
and finite-difference diagnostics that certify both the constraint and the
emergent equation of motion.  All branch magnitudes are handled in log space
so states remain usable up to 2J above one thousand.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .coherent import logsumexp, scs_log_magnitude
from .constraints import (
    ClockSpec,
    CouplingRatios,
    NoOddOverEvenForm,
    OscillatorSpec,
    PairFamily,
    enumerate_pairs,
    reduce_ratio,
)

_SERIAL_KEYS = {"two_J", "epsilon_over_omega", "M", "coefficients"}
_COEFF_KEYS = {"m_plus_J", "re", "im"}


class NotAdmissible(ValueError):
    """The requested parameters admit fewer than two occupied level pairs."""


class UnsupportedIndex(KeyError):
    """A coefficient was supplied for a clock level outside the allowed family."""


class ZeroState(ValueError):
    """Every supplied coefficient is zero."""


class DegenerateTheta(ValueError):
    """chi^2(theta) vanishes here, so no conditional state exists."""


@dataclass(frozen=True, eq=False)
class PawState:
    """Normalized entangled clock-oscillator state over an allowed-pair family.

    A state is its branch arrays, one entry per occupied (nonzero) branch in
    ascending m+J: ``support`` holds the clock ladder indices m+J,
    ``n_values`` their Fock levels and ``amplitudes`` the normalized
    coefficients.  Use build_state/assemble_state rather than the raw
    constructor: they enforce admissibility and normalization.
    """

    clock: ClockSpec
    oscillator: OscillatorSpec
    ratios: CouplingRatios
    family: PairFamily
    support: tuple[int, ...]
    n_values: tuple[int, ...]
    amplitudes: np.ndarray

    # -- convenience views -------------------------------------------------

    @property
    def two_j(self) -> int:
        return self.clock.two_j

    @property
    def mass(self) -> int:
        return self.oscillator.mass

    @cached_property
    def _log_weights(self) -> np.ndarray:
        """log |c_m|^2 per occupied branch."""
        return 2.0 * np.log(np.abs(self.amplitudes))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_state(clock: ClockSpec, oscillator: OscillatorSpec,
                kappa_r, coefficients) -> PawState:
    """Validate, normalize and freeze an entangled clock-oscillator state.

    ``kappa_r`` is the exact rational eps/omega (anything Fraction accepts,
    or a (numerator, denominator) tuple); ``coefficients`` maps the ladder
    index m+J to a complex amplitude.  The float pair (epsilon, omega) must
    agree with kappa_r to relative 1e-9.

    Raises NotAdmissible if the family has fewer than two pairs or fewer than
    two branches are occupied, UnsupportedIndex for a coefficient outside the
    family, ZeroState when every coefficient vanishes, and ValueError for a
    coefficient or a ratio that is not finite as a float.
    """
    kr = Fraction(*kappa_r) if isinstance(kappa_r, tuple) else Fraction(kappa_r)
    ratio_float, kr_float = clock.epsilon / oscillator.omega, ratio_to_float(kr)
    if abs(ratio_float - kr_float) > 1e-9 * kr_float:
        raise ValueError(
            f"epsilon/omega = {ratio_float!r} does not match the exact ratio {kr}")
    try:
        family = enumerate_pairs(reduce_ratio(kr), clock.two_j)
    except NoOddOverEvenForm as exc:
        raise NotAdmissible(str(exc)) from exc
    if len(family.pairs) < 2:
        raise NotAdmissible(
            f"kappa*r = {kr} admits {len(family.pairs)} pair(s) at 2J = "
            f"{clock.two_j}; an entangled state needs at least two")

    levels = dict(family.pairs)
    occupied: list[tuple[int, complex]] = []
    for key in sorted(coefficients):
        if key not in levels:
            raise UnsupportedIndex(key)
        value = complex(coefficients[key])
        if not cmath.isfinite(value):
            raise ValueError(f"coefficient of m+J = {key} is not finite: {value}")
        if value != 0:
            occupied.append((int(key), value))
    if not occupied:
        raise ZeroState("all coefficients are zero")
    if len(occupied) < 2:
        raise NotAdmissible("an entangled state needs at least two occupied branches")

    # Scaled by the power of two of the largest part, which is exact, the
    # squares can neither underflow nor overflow; a state whose squares stay
    # normal keeps the bits of c / sqrt(sum |c|^2).
    _, exponent = math.frexp(max(max(abs(c.real), abs(c.imag)) for _, c in occupied))
    scaled = [complex(math.ldexp(c.real, -exponent), math.ldexp(c.imag, -exponent))
              for _, c in occupied]
    root = math.sqrt(sum(abs(c) ** 2 for c in scaled))
    support = tuple(k for k, _ in occupied)
    ratios = CouplingRatios.from_parameters(kr, clock.two_j, oscillator.mass)
    return PawState(clock=clock, oscillator=oscillator, ratios=ratios, family=family,
                    support=support, n_values=tuple(levels[k] for k in support),
                    amplitudes=np.array([c / root for c in scaled]))


def ratio_to_float(kr: Fraction) -> float:
    """The exact ratio eps/omega as a float, or ValueError when it is too large for one."""
    try:
        return float(kr)
    except OverflowError as exc:
        raise ValueError("eps/omega is too large for a float (over 1.8e308)") from exc


def assemble_state(two_j: int, mass: int, eps_over_omega, coefficients,
                   omega: float = 1.0) -> PawState:
    """Shorthand constructor taking sizes and the exact ratio eps/omega."""
    kr = (Fraction(*eps_over_omega) if isinstance(eps_over_omega, tuple)
          else Fraction(eps_over_omega))
    clock = ClockSpec(two_j=two_j, epsilon=ratio_to_float(kr) * omega)
    oscillator = OscillatorSpec(mass=mass, omega=omega)
    return build_state(clock, oscillator, kr, coefficients)


# ---------------------------------------------------------------------------
# example states
# ---------------------------------------------------------------------------

def spin3_pair_state(omega: float = 1.0) -> PawState:
    """The two-branch J=3 reference state: kappa*r = 3/4, levels (m+J, n) = (2, 1), (6, 4)."""
    amp = 1.0 / math.sqrt(2.0)
    return assemble_state(two_j=6, mass=1, eps_over_omega=Fraction(3, 4),
                          coefficients={2: amp, 6: amp}, omega=omega)


def balanced_two_level_state(mass: int, omega: float = 1.0) -> PawState:
    """Equal superposition of the oscillator levels n = M and n = M/2.

    Uses kappa*r = 1/2 with 2J = 3M, so kappa = 3/4 and the two occupied
    energies are M*omega and M*omega/2.  M must be even so that both Fock
    levels are integers.
    """
    if mass < 2 or mass % 2:
        raise ValueError("mass must be an even integer >= 2")
    amp = 1.0 / math.sqrt(2.0)
    return assemble_state(two_j=3 * mass, mass=mass, eps_over_omega=Fraction(1, 2),
                          coefficients={mass + 1: amp, 2 * mass + 1: amp},
                          omega=omega)


def dense_family_state(mass: int, omega: float = 1.0) -> PawState:
    """Equal-weight superposition of every allowed pair for kappa*r = 1/2, 2J = 3M.

    With kappa = 3/4 and r = 2/3 the occupied Fock ladder runs n = 0, 1, ...,
    floor((3M-1)/2), so the classical radii sqrt(2n/M) densely fill (0, sqrt(3)).
    """
    if mass < 1:
        raise ValueError("mass must be a positive integer")
    family = enumerate_pairs(reduce_ratio(Fraction(1, 2)), 3 * mass)
    amp = 1.0 / math.sqrt(len(family.pairs))
    coefficients = {k: amp for k, _ in family.pairs}
    return assemble_state(two_j=3 * mass, mass=mass, eps_over_omega=Fraction(1, 2),
                          coefficients=coefficients, omega=omega)


def large_j_pair_state(j_value: int, omega: float = 1.0) -> PawState:
    """Two-branch state with eps*J = 3*omega/4 at any spin J divisible by 3.

    The occupied pairs are (m+J, n) = (2J/3, 0) and (2J, 1) for every such J,
    so the family is directly comparable across sizes: the clock-sphere
    density keeps its peaks near arccos(1/3) and pi while they sharpen.
    """
    if j_value < 3 or j_value % 3:
        raise ValueError("j_value must be a positive multiple of 3")
    amp = 1.0 / math.sqrt(2.0)
    return assemble_state(two_j=2 * j_value, mass=1,
                          eps_over_omega=Fraction(3, 4 * j_value),
                          coefficients={2 * j_value // 3: amp, 2 * j_value: amp},
                          omega=omega)


# ---------------------------------------------------------------------------
# chi^2: the clock-sphere probability density
# ---------------------------------------------------------------------------

def log_chi_squared(state: PawState, theta):
    """log chi^2(theta) for scalar or array theta.

    chi^2(theta) = sum_m |c_m|^2 |<Omega|J, m>|^2 is independent of phi; the
    sum is accumulated with log-sum-exp so branches may underflow separately
    without losing the total.
    """
    theta_arr = np.asarray(theta, dtype=float)
    lm = scs_log_magnitude(theta_arr[..., None], state.two_j, state.support)
    out = logsumexp(2.0 * lm + state._log_weights, axis=-1)
    return float(out) if np.isscalar(theta) or theta_arr.ndim == 0 else out


def chi_squared(state: PawState, theta):
    """chi^2(theta) for scalar or array theta."""
    return np.exp(log_chi_squared(state, theta))


def chi_squared_terms(state: PawState, theta):
    """Per-branch contributions |c_m|^2 |<Omega|J, m>|^2, last axis = branch."""
    theta_arr = np.asarray(theta, dtype=float)
    lm = scs_log_magnitude(theta_arr[..., None], state.two_j, state.support)
    return np.exp(2.0 * lm + state._log_weights)


def chi_squared_integral(state: PawState) -> float:
    """Integral of chi^2 over the clock sphere measure: exactly sum_m |c_m|^2.

    With x = sin^2(theta/2) the measure (2J+1)/(4 pi) sin(theta) d(theta) d(phi)
    becomes (2J+1) dx after the phi integral, and branch m contributes
    |c_m|^2 binom(2J, k) x^k (1-x)^{2J-k}, k = m+J.  Its integral is the Beta
    function (2J+1) binom(2J, k) B(k+1, 2J-k+1) = 1, the diagonal of the
    resolution of identity on the sphere, so no quadrature is needed.  The
    same sum is the plane-and-sphere integral of |beta|^2.
    """
    return math.fsum(abs(c) ** 2 for c in state.amplitudes.tolist())


# ---------------------------------------------------------------------------
# conditional dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConditionalState:
    """Normalized oscillator state conditioned on the clock reading (theta, phi).

    ``vector`` holds the amplitude of each branch, on the Fock levels
    ``n_values``; ``norm_chi2`` is the chi^2(theta) that normalized them,
    0.0 where it underflows a double (the vector is normalized in log space).
    """

    theta: float
    phi: float
    n_values: tuple[int, ...]
    vector: np.ndarray
    norm_chi2: float

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


def _clock_moduli(state: PawState, theta: float) -> tuple[list[float], float]:
    """The conditional branch moduli |c_m <Omega|J, m>| / chi(theta), and log chi^2.

    Both depend on theta alone; phi only turns the phases (``_phased``).  Each
    log modulus log|c| + log<Omega|J,m> is shifted by the largest before it is
    exponentiated, and the shifted moduli are divided by their own norm, so
    they are normalized to rounding however far chi^2 or single overlaps
    underflow a double; log chi^2, up to ~0.7*2J in size, never enters them.
    Raises DegenerateTheta only where chi^2 is exactly 0: at theta = 0, since
    every occupied level has m+J >= 1.  The float nearest pi lies 1.2e-16
    below it, where chi^2 > 0, so a state with an empty top level there
    conditions on its highest branch.
    """
    lm = scs_log_magnitude(theta, state.two_j, state.support)
    log_chi2 = float(logsumexp(state._log_weights + 2.0 * lm))
    if log_chi2 == -math.inf:
        raise DegenerateTheta(f"chi^2 = 0 at theta = {theta!r}")
    logs = [math.log(abs(c)) + log_overlap
            for c, log_overlap in zip(state.amplitudes.tolist(), lm.tolist())]
    peak = max(logs)
    shifted = [math.exp(log - peak) for log in logs]
    norm = math.sqrt(math.fsum(modulus * modulus for modulus in shifted))
    return [modulus / norm for modulus in shifted], log_chi2


def _phased(state: PawState, moduli: list[float], phi: float) -> np.ndarray:
    """The conditional branch amplitudes at clock phase phi: each modulus
    times e^{i(arg c_m - k_m*phi)}, with k_m = m+J."""
    return np.array([modulus * cmath.exp(1j * (cmath.phase(c) - k * phi))
                     for modulus, c, k in zip(moduli, state.amplitudes.tolist(),
                                              state.support)])


def conditional_state(state: PawState, theta: float, phi: float) -> ConditionalState:
    """Project the global state on the clock coherent state at (theta, phi).

    The branch amplitudes are c_m <Omega|J, m> / chi(theta): the moduli of
    ``_clock_moduli``, phased at phi.
    """
    moduli, log_chi2 = _clock_moduli(state, theta)
    return ConditionalState(theta=theta, phi=phi, n_values=state.n_values,
                            vector=_phased(state, moduli, phi),
                            norm_chi2=math.exp(log_chi2))


def default_dphi(state: PawState) -> float:
    """Finite-difference step 1e-2/k_max, k_max*phi the fastest branch phase.

    Tied to 1/k_max alone, the step keeps the (k*dphi)^2 truncation error far
    above the rounding in k*phi, which grows as 1/dphi, at every 2J.
    """
    return 1e-2 / max(state.support)


def _residuals(state: PawState, theta: float, phi: float,
               steps: tuple[float, ...]) -> tuple[float, ...]:
    """The defect of ``schrodinger_residual`` at each step: the moduli of the
    conditional state are taken once, and each step re-phases them."""
    if any(dphi <= 0 for dphi in steps):
        raise ValueError("dphi must be positive")
    moduli, _ = _clock_moduli(state, theta)
    center = _phased(state, moduli, phi)
    h_diag = np.array([state.oscillator.level_energy(n) for n in state.n_values])
    residuals = []
    for dphi in steps:
        derivative = (_phased(state, moduli, phi + dphi)
                      - _phased(state, moduli, phi - dphi)) / (2.0 * dphi)
        residual = 1j * state.clock.epsilon * derivative - h_diag * center
        residuals.append(_norm(residual))
    return tuple(residuals)


def _norm(vector: np.ndarray) -> float:
    """The 2-norm of a vector, taken on a copy scaled by the power of two of its
    largest |entry|: exact, so a norm whose squares stay normal keeps its bits,
    and entries near 1e308, as at such Fock levels, do not overflow squared."""
    _, exponent = math.frexp(float(np.max(np.abs(vector))))
    scaled = np.ldexp(vector.view(np.float64), -exponent).view(vector.dtype)
    return float(np.ldexp(np.linalg.norm(scaled), exponent))


def schrodinger_residual(state: PawState, theta: float, phi: float,
                         dphi: float | None = None) -> float:
    """Defect of the emergent Schroedinger equation at one clock reading.

    Returns || i*eps * d/dphi |phi_theta(phi)> - H |phi_theta(phi)> ||_2 with
    the derivative taken by a central difference of step dphi and H acting
    diagonally as omega*(n+1/2).  The analytic defect is zero; the returned
    value is the finite-difference error, which shrinks as dphi^2.

    That error is known exactly: a branch psi_k ~ exp(-i*k*phi) of clock level
    k = m+J gives i*eps*D_h psi_k = eps*k*sinc(k*dphi)*psi_k, so the residual
    vector is eps*k*(sinc(k*dphi) - 1)*psi_k branch by branch, and its norm is
    eps*sqrt(sum_k |psi_k|^2 * (k*(1 - sinc(k*dphi)))^2), up to rounding.
    """
    return _residuals(state, theta, phi,
                      (default_dphi(state) if dphi is None else dphi,))[0]


@dataclass(frozen=True)
class OrderStudy:
    """Residuals of the emergent equation under step halving, with fitted order."""

    steps: tuple[float, ...]
    residuals: tuple[float, ...]
    order: float


def schrodinger_order_study(state: PawState, theta: float, phi: float,
                            steps=None) -> OrderStudy:
    """Halve dphi repeatedly and fit the convergence order of the residual.

    A correct central-difference implementation gives order 2: each halving
    divides the residual by 4.  Every step shares one evaluation of the
    clock overlaps at theta.
    """
    if steps is None:
        base = default_dphi(state)
        steps = tuple(base / 2 ** i for i in range(4))
    steps = tuple(float(s) for s in steps)
    residuals = _residuals(state, theta, phi, steps)
    slope = np.polyfit(np.log(steps), np.log(residuals), 1)[0]
    return OrderStudy(steps=steps, residuals=residuals, order=float(slope))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def paw_constraint_residual(state: PawState) -> float:
    """Worst violation of eps*(m+J) = omega*(n+1/2) over the occupied branches.

    With kappa*r = p/q the gap is |2pk - q(2n+1)| / (2q).  The numerators are
    compared as exact integers and only the worst is divided, correctly
    rounded, at the end, so any state produced by build_state returns exactly
    0.0 and a state whose Fock levels were shifted by one returns exactly
    omega.
    """
    p, q = state.ratios.kappa_r.numerator, state.ratios.kappa_r.denominator
    worst = max((abs(2 * p * k - q * (2 * n + 1))
                 for k, n in zip(state.support, state.n_values)), default=0)
    return worst / (2 * q) * state.oscillator.omega


def shift_fock_levels(state: PawState, delta: int) -> PawState:
    """Forge a copy with every Fock level shifted by ``delta`` levels.

    The result deliberately violates the stationarity constraint (unless
    delta = 0); it exists so integrity checks have a guaranteed-bad input.
    """
    pairs = tuple((k, n + delta) for k, n in state.family.pairs)
    if any(n < 0 for _, n in pairs):
        raise ValueError("shift would produce a negative Fock level")
    return replace(state, family=replace(state.family, pairs=pairs),
                   n_values=tuple(n + delta for n in state.n_values))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def state_to_dict(state: PawState) -> dict:
    """JSON-ready document with the exact ratio kept as [numerator, denominator].

    Only omega = 1 states serialize: the document stores eps/omega but not the
    absolute frequency, so any other omega could not round-trip faithfully.
    """
    if state.oscillator.omega != 1.0:
        raise ValueError("only omega = 1.0 states have a faithful document form")
    kr = state.ratios.kappa_r
    return {
        "two_J": state.two_j,
        "epsilon_over_omega": [kr.numerator, kr.denominator],
        "M": state.mass,
        "coefficients": [
            {"m_plus_J": k, "re": c.real, "im": c.imag}
            for k, c in zip(state.support, state.amplitudes.tolist())
        ],
    }


def _integer(value) -> int:
    """An integer field of a state document; int() alone would truncate 10.5 to 10."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"bad state document: {value!r} is not an integer")
    return int(value)


def state_from_dict(document: dict) -> PawState:
    """Rebuild a state from its document form, rejecting unknown keys.

    A malformed document (a missing or unknown key, a value of the wrong type,
    a count or ratio entry that is not an integer, a zero denominator) raises
    ValueError.  A well-formed document of a state that cannot exist raises
    what build_state raises for it.
    """
    if not isinstance(document, dict):
        raise ValueError(f"bad state document: not an object: {document!r}")
    keys = set(document)
    if keys != _SERIAL_KEYS:
        unexpected = sorted(keys - _SERIAL_KEYS)
        missing = sorted(_SERIAL_KEYS - keys)
        raise ValueError(f"bad state document: unexpected keys {unexpected}, "
                         f"missing keys {missing}")
    try:
        num, den = document["epsilon_over_omega"]
        ratio = Fraction(_integer(num), _integer(den))
        coefficients = {}
        for entry in document["coefficients"]:
            if not isinstance(entry, dict) or set(entry) != _COEFF_KEYS:
                raise ValueError(f"bad coefficient entry: {entry!r}")
            coefficients[_integer(entry["m_plus_J"])] = complex(entry["re"], entry["im"])
        two_j, mass = _integer(document["two_J"]), _integer(document["M"])
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"bad state document: {exc}") from exc
    return assemble_state(two_j=two_j, mass=mass, eps_over_omega=ratio,
                          coefficients=coefficients)
