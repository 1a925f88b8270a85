"""Numerically stable spin and Glauber coherent-state overlaps.

Spin coherent states on the sphere and Glauber coherent states on the plane
both involve binomials and factorials far beyond float range (2J runs above
1100 here), so amplitudes are carried as (natural-log magnitude, phase) and
assembled with max-shifted exponential sums.  Pole values use the convention
0 * log(0) = 0 so that extremal levels stay finite at theta = 0, pi.  The
log Fock density log(e^{-u} u^n / n!), log-Gamma, n * log(y) and the
log-sum-exp are computed here only, and every other module takes them from
this one.

log-Gamma is CPython's ``math.lgamma`` (a Lanczos sum on the C library's
``log``), and log Gamma(h/2 + 1) for h <= 11 are correctly rounded literals.
n * log(y) multiplies by the C library's log as scipy.special.xlogy does, and
logsumexp follows scipy's algorithm; both equal scipy's values bit for bit,
so outputs depend on CPython and the C library's ``log``, not on scipy.
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

def _lgam(x: float) -> float:
    """log|Gamma(x)| of a float by math.lgamma; +inf at the poles 0, -1, -2, ...
    and above 2.56e305, where math.lgamma raises."""
    try:
        return math.lgamma(x)
    except (ValueError, OverflowError):
        return math.inf


# log Gamma(h/2 + 1) at index h = 0, 1, ..., grown on demand up to _TABLE_LIMIT
# entries: every factorial and binomial argument here is an integer or a
# half-integer (2J <= 1140, Fock levels up to a few thousand).  The table
# starts with h = 0..11 correctly rounded: near its zeros at 1 and 2,
# math.lgamma is up to 15 ulp off, and from h = 12 on it is within 2 ulp.
_LN_GAMMA_SMALL = (0.0, -0.12078223763524522, 0.0, 0.2846828704729192, 0.6931471805599453,
                   1.2009736023470743, 1.791759469228055, 2.4537365708424423,
                   3.1780538303479458, 3.9578139676187165, 4.787491742782046, 5.662562059857142)
_TABLE_LIMIT = 1 << 16
_ln_gamma_halves = np.array(_LN_GAMMA_SMALL)


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
    """log Gamma(x + 1) for scalar or array x.

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
    with np.errstate(invalid="ignore"):  # inf - inf where u is inf
        out -= u
    out -= ln_factorial(n)
    if np.any(u == math.inf):  # e^{-u} underflows every u^n there
        out = np.where(u == math.inf, -math.inf, out)[()]
    return out


def hcs_log_magnitude(alpha: complex, mass: int, n):
    """log |<alpha|n>| for Fock level n (scalar or array) at the plane point alpha.

    Equals n*ln(sqrt(M)|alpha|) - M|alpha|^2/2 - ln(n!)/2; the phase of
    <alpha|n> is -n*arg(alpha).  The log is taken of sqrt(M)|alpha|, which
    stays a normal float where u = M|alpha|^2 underflows (|alpha| < 1e-154).
    Where u overflows a float, e^{-u/2} underflows every power of |alpha| and
    each log magnitude is -inf, as at a clock pole.  Where ln(n!) overflows
    (n > 2.5e305) it is Stirling's n ln n - n, taken with n ln(sqrt(M)|alpha|)
    as n (ln(sqrt(M)|alpha|) + 1/2 - ln(n)/2): the terms dropped are below
    the rounding of that product.
    """
    root = math.sqrt(mass) * abs(alpha)
    try:
        half_u = 0.5 * root ** 2
    except OverflowError:
        half_u = math.inf
    if half_u == math.inf:
        return np.full(np.shape(n), -math.inf)[()]
    n = np.asarray(n, dtype=float)
    ln_fact = ln_factorial(n)
    huge = ln_fact == math.inf
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf where huge
        out = xlogy(n, root) - half_u - 0.5 * ln_fact
        if huge.any():
            stirling = n * (_libm_log(root) + 0.5 - 0.5 * _libm_log(n)) - half_u
            out = np.where(huge, stirling, out)[()]
    return out
