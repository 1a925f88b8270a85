"""Numerically stable coherent-state overlaps and the invariant measures.

Spin coherent states on the sphere and Glauber coherent states on the plane
both involve binomials and factorials far beyond float range (2J runs above
1100 here), so amplitudes are carried as (natural-log magnitude, phase) and
assembled with max-shifted exponential sums.  Pole values use the convention
0 * log(0) = 0 so that extremal levels stay finite at theta = 0, pi.  The
log Fock density log(e^{-u} u^n / n!), log n! and the log-sum-exp are computed
here only, and every other module takes them from this one.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln, xlogy


# ---------------------------------------------------------------------------
# value containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogAmplitude:
    """A complex amplitude stored as log|amplitude| (may be -inf) plus phase."""

    log_magnitude: float
    phase: float

    @property
    def magnitude(self) -> float:
        return math.exp(self.log_magnitude)

    @property
    def magnitude_squared(self) -> float:
        return math.exp(2.0 * self.log_magnitude)

    def to_complex(self) -> complex:
        if self.log_magnitude == -math.inf:
            return 0j
        return cmath.rect(math.exp(self.log_magnitude), self.phase)

    @classmethod
    def from_complex(cls, z: complex) -> "LogAmplitude":
        if z == 0:
            return cls(-math.inf, 0.0)
        return cls(math.log(abs(z)), cmath.phase(z))


@dataclass(frozen=True)
class SphereCoordinate:
    """Point (theta, phi) labelling a spin coherent state.

    phi is non-negative and unbounded: it doubles as the clock's time
    coordinate and winds monotonically instead of wrapping.
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if self.phi < 0.0:
            raise ValueError("phi must be non-negative")


@dataclass(frozen=True)
class PlaneCoordinate:
    """Point alpha on the oscillator plane, with its two canonical charts.

    The physical chart is (q, p) with alpha = sqrt(M*omega/2)*(q + i*p/(M*omega));
    the dimensionless chart is (Q, P) = (q*sqrt(M*omega), p/sqrt(M*omega)), i.e.
    alpha = (Q + iP)/sqrt(2).  ``m_omega`` stores the product M*omega.
    """

    alpha: complex
    m_omega: float

    def __post_init__(self) -> None:
        if not self.m_omega > 0:
            raise ValueError("m_omega must be positive")

    @classmethod
    def from_position_momentum(cls, q: float, p: float, m_omega: float) -> "PlaneCoordinate":
        return cls(alpha=math.sqrt(m_omega / 2.0) * (q + 1j * p / m_omega),
                   m_omega=m_omega)

    @classmethod
    def from_dimensionless(cls, big_q: float, big_p: float, m_omega: float) -> "PlaneCoordinate":
        return cls(alpha=(big_q + 1j * big_p) / math.sqrt(2.0), m_omega=m_omega)

    @property
    def q(self) -> float:
        return math.sqrt(2.0 / self.m_omega) * self.alpha.real

    @property
    def p(self) -> float:
        return math.sqrt(2.0 * self.m_omega) * self.alpha.imag

    @property
    def big_q(self) -> float:
        return math.sqrt(2.0) * self.alpha.real

    @property
    def big_p(self) -> float:
        return math.sqrt(2.0) * self.alpha.imag


# ---------------------------------------------------------------------------
# log-space combinatorics
# ---------------------------------------------------------------------------

def ln_factorial(n):
    """log(n!) for scalar or array n, via log-Gamma (so real n is allowed)."""
    return gammaln(np.asarray(n, dtype=float) + 1.0)


def ln_binomial(n, k):
    """log(binomial(n, k)) for scalar or array arguments, via log-Gamma.

    Accepts real k (used by interference factors at half-integer midpoints).
    """
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` (all axes if None) for real float64 input.

    Bit for bit scipy.special.logsumexp (1.17) on real input: the terms equal
    to the maximum are set apart, giving log1p(rest / count) + log(count) + max,
    and where that is not finite the direct log(sum(exp(a))) is returned.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        peak = np.max(a, axis=axis, keepdims=True)
        at_peak = a == peak
        count = np.sum(at_peak, axis=axis, keepdims=True, dtype=float)
        rest = np.sum(np.exp(np.where(at_peak, -np.inf, a) - peak),
                      axis=axis, keepdims=True)
        out = np.log1p(rest / count) + np.log(count) + peak
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out,
                           np.log(np.sum(np.exp(a), axis=axis, keepdims=True)))
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------

def scs_log_magnitude(theta, two_j: int, m_plus_j):
    """log |<Omega|J, m>| for theta (scalar or array) and ladder index m+J.

    Equals 0.5*ln binom(2J, m+J) + (J-m)*ln cos(theta/2) + (J+m)*ln sin(theta/2),
    with xlogy supplying the 0*log(0) = 0 pole convention.
    """
    k = np.asarray(m_plus_j, dtype=float)
    half = np.asarray(theta, dtype=float) / 2.0
    return (0.5 * ln_binomial(two_j, k)
            + xlogy(two_j - k, np.cos(half))
            + xlogy(k, np.sin(half)))


def scs_overlap(omega: SphereCoordinate, two_j: int, m_plus_j: int) -> LogAmplitude:
    """Spin-coherent-state overlap <Omega|J, m> as a LogAmplitude.

    The phase is -phi*(J+m); the magnitude is the binomially weighted
    cos/sin product, evaluated in log space so it survives 2J ~ 1100.
    """
    if not 0 <= m_plus_j <= two_j:
        raise ValueError("m_plus_j must lie in 0..two_j")
    lm = float(scs_log_magnitude(omega.theta, two_j, m_plus_j))
    return LogAmplitude(log_magnitude=lm, phase=-omega.phi * m_plus_j)


def _log_fock_density(u, n):
    """log |<alpha|n>|^2 = log(e^{-u} u^n / n!) with u = M*|alpha|^2.

    The Poisson law of Fock level n at mean u, shared by every module that
    needs it; xlogy supplies the 0*log(0) = 0 convention at u = 0.
    """
    return xlogy(n, u) - u - ln_factorial(n)


def hcs_overlap(alpha: complex, mass: int, n: int) -> LogAmplitude:
    """Glauber-coherent-state overlap <alpha|n> as a LogAmplitude.

    Magnitude exp(-M|alpha|^2/2) * (sqrt(M)|alpha|)^n / sqrt(n!); the phase
    convention is -n*arg(alpha).  The log is taken of sqrt(M)|alpha|, which
    stays a normal float where u = M|alpha|^2 underflows (|alpha| < 1e-154).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if mass < 1:
        raise ValueError("mass must be a positive integer")
    root = math.sqrt(mass) * abs(alpha)
    lm = float(xlogy(n, root) - 0.5 * root ** 2 - 0.5 * ln_factorial(n))
    return LogAmplitude(log_magnitude=lm, phase=-n * cmath.phase(alpha))


# ---------------------------------------------------------------------------
# invariant measures and quadrature
# ---------------------------------------------------------------------------

def sphere_measure_weight(theta: float, two_j: int) -> float:
    """Density (2J+1)/(4*pi) * sin(theta) of the sphere measure."""
    return (two_j + 1) / (4.0 * math.pi) * math.sin(theta)


def plane_measure_weight(mass: int) -> float:
    """Constant density M/(2*pi) of the plane measure d(mu) = (M/2pi) d(alpha) d(alpha*).

    With d(alpha) d(alpha*) = 2 dRe(alpha) dIm(alpha) this makes
    integral d(mu)(alpha) |<alpha|n>|^2 = 1 for every Fock level.
    """
    return mass / (2.0 * math.pi)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached per order.

    The arrays are shared by every caller and therefore read-only.
    """
    return _read_only(*leggauss(order))


def sphere_quadrature(two_j: int):
    """Nodes and weights integrating azimuth-independent f over the sphere measure.

    Gauss-Legendre in cos(theta) with order = max(256, 2J // 2 + 2) nodes;
    sum(w_i * f(theta_i)) equals integral d(mu)(Omega) f(theta) exactly for f
    polynomial in cos(theta) up to degree 2*order - 1 > 2J, which covers every
    overlap-squared at spin J.

    Returns (theta_nodes, weights).
    """
    x, w = gauss_legendre(max(256, two_j // 2 + 2))
    return np.arccos(x), (two_j + 1) / 2.0 * w


def fock_cutoff(u: float) -> int:
    """Truncation level beyond which the Poisson weights of <alpha|n> are negligible."""
    return int(u + 12.0 * math.sqrt(u) + 30.0) + 1
