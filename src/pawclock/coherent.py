"""Numerically stable spin and Glauber coherent-state overlaps.

Spin coherent states on the sphere and Glauber coherent states on the plane
both involve binomials and factorials far beyond float range (2J runs above
1100 here), so amplitudes are carried as (natural-log magnitude, phase) and
assembled with max-shifted exponential sums.  Pole values use the convention
0 * log(0) = 0 so that extremal levels stay finite at theta = 0, pi.  The
log Fock density log(e^{-u} u^n / n!), log-Gamma, n * log(y) and the
log-sum-exp are computed here only, and every other module takes them from
this one.

log-Gamma is a port of the Cephes ``lgam`` (S. L. Moshier, *Methods and
Programs for Mathematical Functions*, 1989), the algorithm behind
scipy.special.gammaln, and n * log(y) multiplies by the C library's log as
scipy.special.xlogy does; both equal scipy's values bit for bit, so outputs
depend on the C library's ``log`` and not on which scipy is installed.
log Gamma(h/2 + 1) is tabulated once per integer h, and n * log(y) takes one
log per element of y, shared by every n it is broadcast against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# value containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogAmplitude:
    """A complex amplitude stored as log|amplitude| (may be -inf) plus phase."""

    log_magnitude: float
    phase: float

    @property
    def magnitude_squared(self) -> float:
        return math.exp(2.0 * self.log_magnitude)


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


# ---------------------------------------------------------------------------
# log-space combinatorics
# ---------------------------------------------------------------------------

# Cephes lgam coefficients: the Stirling tail (_LGAM_A) and the rational
# approximation on [2, 3) (_LGAM_B over the monic _LGAM_C).
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
           -3.31612992738871184744e5, -1.16237097492762307383e6,
           -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4,
           -2.20528590553854454839e5, -1.13933444367982507207e6,
           -2.53252307177582951285e6, -2.01889141433532773231e6)
_LOG_SQRT_2PI = 0.91893853320467274178
_LOG_PI = 1.14472988584940017414


def _horner(x: float, coefficients) -> float:
    total = coefficients[0]
    for c in coefficients[1:]:
        total = total * x + c
    return total


def _lgam(x: float) -> float:
    """log|Gamma(x)| of a float: Cephes lgam, so scipy.special.gammaln bit for bit.

    +inf at the poles 0, -1, -2, ...; NaN and +-inf are returned unchanged.
    """
    if not math.isfinite(x):
        return x
    if x < -34.0:
        # reflection: Gamma(x) Gamma(1 - x) = pi / sin(pi x)
        q = -x
        w = _lgam(q)
        p = math.floor(q)
        if p == q:
            return math.inf
        z = q - p
        if z > 0.5:
            p += 1.0
            z = p - q
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return math.inf
        return _LOG_PI - math.log(z) - w
    if x < 13.0:
        # recur into [2, 3), then the rational approximation there
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        z = abs(z)
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _horner(x, _LGAM_B) / _horner(x, _LGAM_C)
    if x > 2.556348e305:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _horner(p, _LGAM_A) / x


# log Gamma(h/2 + 1) at index h = 0, 1, ..., grown on demand up to _TABLE_LIMIT
# entries: every factorial and binomial argument here is an integer or a
# half-integer (2J <= 1140, Fock levels up to a few thousand).
_TABLE_LIMIT = 1 << 16
_ln_gamma_halves = np.zeros(0)


def _ln_gamma_one(v: float) -> float:
    """log Gamma(v + 1) of one float, from the table (grown to hold v) or _lgam."""
    global _ln_gamma_halves
    h = 2.0 * v
    if not (0.0 <= h < _TABLE_LIMIT and h == int(h)):
        return _lgam(v + 1.0)
    table = _ln_gamma_halves
    if h >= table.size:
        # a grown copy replaces the table whole, so a reader in another thread
        # sees the old table or the new one, and a lost race costs only time
        table = np.concatenate([table, [
            _lgam(i / 2.0 + 1.0)
            for i in range(table.size, min(max(int(h) + 1, 2 * table.size, 256), _TABLE_LIMIT))]])
        _ln_gamma_halves = table
    return float(table[int(h)])


def _ln_gamma_successor(x):
    """log Gamma(x + 1) for scalar or array x; equals scipy gammaln(x + 1.0).

    Integers and half-integers the table holds are read from it in one
    gather; any other x goes through _ln_gamma_one element by element.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return np.float64(_ln_gamma_one(float(x)))
    table = _ln_gamma_halves
    index = _half_steps(x, table.size - 1.0)
    if index is not None:
        return table[index]
    return np.reshape([_ln_gamma_one(v) for v in x.ravel().tolist()], x.shape)


def _half_steps(x: np.ndarray, top: float):
    """The integer array 2x if every element of 2x is an integer in [0, top], else None."""
    if x.size and not (x.min() >= 0.0 and x.max() <= 0.5 * top):  # NaN fails both
        return None
    halves = x * 2.0
    index = halves.astype(np.intp)
    return index if (index == halves).all() else None


def ln_factorial(n):
    """log(n!) for scalar or array n, via log-Gamma (so real n is allowed)."""
    return _ln_gamma_successor(n)


def ln_binomial(n, k):
    """log(binomial(n, k)) for scalar or array arguments, via log-Gamma.

    Accepts real k (used by interference factors at half-integer midpoints).
    """
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    return _ln_gamma_successor(n) - _ln_gamma_successor(k) - _ln_gamma_successor(n - k)


def _libm_log(y):
    """log of each element of y by the C library (math.log), the log scipy's xlogy takes.

    numpy's own log differs from it in the last bit on some inputs.  Gives
    -inf at 0 and NaN at NaN or below 0, where math.log would raise.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 0:
        v = float(y)
        return np.float64(math.log(v) if v > 0.0 else (-math.inf if v == 0.0 else math.nan))
    positive = y > 0.0
    logs = np.where(y == 0.0, -math.inf, math.nan)
    kept = y[positive]
    logs[positive] = np.fromiter(map(math.log, kept.tolist()), float, kept.size)
    return logs


def xlogy(n, y, log_y=None):
    """n * log(y), 0 where n == 0 and y is not NaN: scipy.special.xlogy bit for bit.

    ``log_y`` is ``_libm_log(y)`` when the caller already has it.  The log is
    taken once per element of y before broadcasting, so a y of shape (T, 1)
    against an n of shape (N,) costs T logs.
    """
    y = np.asarray(y, dtype=float)
    if log_y is None:
        log_y = _libm_log(y)
    n = np.asarray(n, dtype=float)
    zero = n == 0.0
    with np.errstate(invalid="ignore", over="ignore"):  # silent, as scipy's ufunc
        out = n * log_y
    if not zero.any():
        return out
    out = np.where(zero & ~np.isnan(y), 0.0, out)
    return out[()] if out.ndim == 0 else out


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


def _log_fock_density(u, log_u, n):
    """log |<alpha|n>|^2 = log(e^{-u} u^n / n!) with u = M*|alpha|^2.

    The Poisson law of Fock level n at mean u, shared by every module that
    needs it; ``log_u`` is ``_libm_log(u)``, so branches at the same u share
    one log, and xlogy supplies the 0*log(0) = 0 convention at u = 0.
    """
    out = xlogy(n, u, log_u)  # a new array, of the shape of the result
    out -= u
    out -= ln_factorial(n)
    return out


def hcs_log_magnitude(alpha: complex, mass: int, n):
    """log |<alpha|n>| for Fock level n (scalar or array) at the plane point alpha.

    Equals n*ln(sqrt(M)|alpha|) - M|alpha|^2/2 - ln(n!)/2; the phase of
    <alpha|n> is -n*arg(alpha).  The log is taken of sqrt(M)|alpha|, which
    stays a normal float where u = M|alpha|^2 underflows (|alpha| < 1e-154).
    """
    root = math.sqrt(mass) * abs(alpha)
    return xlogy(n, root) - 0.5 * root ** 2 - 0.5 * ln_factorial(n)
