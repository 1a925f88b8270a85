"""Marginal probability distributions of the joint amplitude |beta|^2.

Three marginals of the joint clock-oscillator density are supported:

* phase space (Q, P) — integrate over the clock sphere; each occupied Fock
  level leaves a Poisson ridge at radius sqrt(2n/M);
* energy-time (e, t) — integrate over the oscillator plane; the result is the
  clock-sphere density chi^2 rewritten in e = E/(M*omega), independent of t;
* space-time (Q, t) — integrate over energy and momentum; the diagonal part
  is static while branch pairs contribute an oscillating interference term
  whose amplitude dies with both the clock and oscillator sizes.

Everything is evaluated at finite (J, M) in log space.  The energy integral
of a branch pair is a Beta function, so its overlap is the closed form
sqrt(binom(2J, k_i) binom(2J, k_j)) / binom(2J, (k_i + k_j)/2); momentum
integrals use Gauss-Legendre nodes.

The phase-space density depends on (Q, P) only through u = M(Q^2 + P^2)/2,
so each branch is evaluated once per distinct u and gathered back to the grid.
The distinct u come from two small sorts, of the squares of each axis and then
of u on the grid of distinct squares, never from a sort of the full grid; the
result has the bits of a per-cell sweep.

The space-time marginal needs, per Q, every momentum integral
C_ij(Q) = int dP <n_i|z><z|n_j> with z = sqrt(M/2)(Q + iP).  The Husimi
function is the Wigner function smoothed by the vacuum, so C_ij is a Gaussian
smoothing of Hermite-function products:
C_ij(Q) = 2 sqrt(pi/M) int dx psi_{n_i}(x) psi_{n_j}(x) e^{-(sqrt(M) Q - x)^2}.
One table of psi_n on a uniform x grid, the kept pairs summed per beat
d = k_i - k_j into B_d(x), and one Gaussian kernel K(Q, x) give the branch
and beat rows as two matrix products; the (Q, t) grid is then one product of
a (Q x beats) and a (beats x t) matrix.  For Fock pairs far apart the
smoothing cancels: its relative error grows with the condition number kappa
of ``_interference_condition``, and states above ``_KAPPA_MAX`` keep the
momentum quadrature, one Gram product per block of Q rows.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .coherent import (_libm_log, _log_fock_density, ln_binomial, ln_factorial,
                       logsumexp, xlogy)
from .pawstate import PawState
from .table import _distinct, write_table

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class EOutOfRange(ValueError):
    """An energy sample lies outside the clock range [0, 2*kappa]."""


class ConfigError(ValueError):
    """A run setting (scenario config or flag) is malformed."""


# Q rows per block of the Gram kernel; blocks start at multiples of it.
_ROW_BLOCK = 8
# Gauss-Legendre momentum nodes of the Gram kernel.
_P_ORDER = 400
# Branch pairs per step of the Husimi kernel's beat sums.
_PAIR_CHUNK = 64
# Largest interference condition number the Husimi kernel is trusted with.
_KAPPA_MAX = 10.0
# sqrt of the smallest normal double: products of larger numbers stay normal.
_FLUSH = math.sqrt(sys.float_info.min)


def _worker_count() -> int:
    """min(4, the CPUs this process may run on); the benchmark records it."""
    sched_getaffinity = getattr(os, "sched_getaffinity", None)
    cpus = len(sched_getaffinity(0)) if sched_getaffinity else os.cpu_count()
    return min(4, cpus or 1)


# ---------------------------------------------------------------------------
# grid containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridAxis:
    """Uniform closed-interval sampling of one coordinate."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ConfigError(f"axis {self.name} needs at least two samples, "
                              f"got {self.count}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)
                and self.stop > self.start):
            raise ConfigError(f"axis {self.name} needs finite start < stop, got "
                              f"{self.start} and {self.stop}")

    @cached_property
    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    @property
    def spacing(self) -> float:
        return (self.stop - self.start) / (self.count - 1)


@dataclass(frozen=True, eq=False)
class DistributionGrid:
    """Non-negative density sampled over one or two axes.

    ``measure`` records the weight convention folded into the values, so a
    plain trapezoid sum over the axes estimates the distribution's mass.
    """

    axes: tuple[GridAxis, ...]
    values: np.ndarray
    measure: str

    def __post_init__(self) -> None:
        expected = tuple(axis.count for axis in self.axes)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} does not match "
                             f"axes {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("densities must be finite")
        if float(self.values.min()) < 0.0:
            raise ValueError("densities must be non-negative")

    def mass(self) -> float:
        """Trapezoid estimate of the total mass on the sampled window."""
        total = self.values
        for axis in reversed(self.axes):
            total = _trapezoid(total, axis.values, axis=-1)
        return float(total)

    def metadata(self) -> dict:
        return {
            "axes": [{"name": a.name, "start": a.start, "stop": a.stop,
                      "count": a.count} for a in self.axes],
            "measure": self.measure,
        }

    def write_csv(self, path) -> None:
        """One row per cell: coordinates then value, 17 significant digits."""
        names = [*(axis.name for axis in self.axes), "value"]
        if len(self.axes) == 1:
            coordinates = [self.axes[0].values]
        else:
            first, second = self.axes
            coordinates = [np.repeat(first.values, second.count),
                           np.tile(second.values, first.count)]
        write_table(path, names, [*coordinates, self.values.ravel()])


@dataclass(frozen=True)
class InterferenceReport:
    """Size of the interference term relative to the static background.

    The suppression factors are the analytic decay bounds of the cross term:
    the clock one from the binomial mismatch of the two branches, the
    oscillator one from the factorial mismatch of the two Fock levels.  The
    aggregates i1 >= i2 (integrated diagonal contributions) and i_int
    (integrated cross magnitude) are filled in by marginal_space_time.
    """

    clock_suppression_factor: float
    oscillator_suppression_factor: float
    i1: float | None = None
    i2: float | None = None
    i_int: float | None = None
    ratio: float | None = None


# ---------------------------------------------------------------------------
# default grids
# ---------------------------------------------------------------------------

def default_phase_space_axes() -> tuple[GridAxis, GridAxis]:
    return (GridAxis("Q", -2.5, 2.5, 801), GridAxis("P", -2.5, 2.5, 801))


def default_energy_axis(state: PawState) -> GridAxis:
    """e in [0, min(2*kappa, 3/2) + 0.1] clipped to the physical range."""
    two_kappa = 2.0 * float(state.ratios.kappa)
    stop = min(min(two_kappa, 1.5) + 0.1, two_kappa)
    return GridAxis("e", 0.0, stop, 2001)


def default_time_axis(state: PawState) -> GridAxis:
    """One oscillator period."""
    period = 2.0 * math.pi / (state.mass * state.oscillator.omega)
    return GridAxis("t", 0.0, period, 256)


# ---------------------------------------------------------------------------
# phase-space marginal
# ---------------------------------------------------------------------------

def marginal_phase_space(state: PawState, q_axis: GridAxis | None = None,
                         p_axis: GridAxis | None = None) -> DistributionGrid:
    """Density (M/2pi) sum_m |c_m|^2 e^{-U} U^{n_m}/n_m!, U = M(Q^2+P^2)/2.

    Integrating the clock sphere away leaves an exact finite-M mixture of
    Poisson ridges, one per occupied branch, peaking at radius sqrt(2n/M).

    The density depends on (Q, P) only through U, so each branch is evaluated
    once per distinct U and the sums are gathered back to the grid.  The
    distinct U are found in two stages that never sort the full grid: the
    distinct squares of each axis first (801 points give 668 on the default
    axes), then the distinct U of that reduced grid (146,417 of the 641,601
    cells).  U is formed in the same operations as on the full grid, so every
    cell holds the bits of a per-cell sweep.
    """
    if q_axis is None or p_axis is None:
        default_q, default_p = default_phase_space_axes()
        q_axis = q_axis or default_q
        p_axis = p_axis or default_p
    q2, iq = np.unique(q_axis.values ** 2, return_inverse=True)
    p2, ip = np.unique(p_axis.values ** 2, return_inverse=True)
    u = 0.5 * state.mass * (q2[:, None] + p2[None, :])
    # u >= 0 holds no -0.0, so its distinct bit patterns are its distinct values
    distinct, cell = _distinct(u)
    del u
    log_distinct = _libm_log(distinct)
    values = np.zeros_like(distinct)
    for weight, n in zip(np.abs(state.amplitudes) ** 2, state.n_values):
        # in place: a new temporary per step costs more than the arithmetic
        term = _log_fock_density(distinct, log_distinct, n)
        np.exp(term, out=term)
        term *= weight
        values += term
    values *= state.mass / (2.0 * math.pi)
    values = values[cell].reshape(q2.size, p2.size)[np.ix_(iq, ip)]
    return DistributionGrid(axes=(q_axis, p_axis), values=values,
                            measure="M/(2*pi) dQ dP")


# ---------------------------------------------------------------------------
# energy-time marginal
# ---------------------------------------------------------------------------

def energy_time_density(state: PawState, e):
    """Joint density over (e, t), the same at every t; scalar or array e.

    Equals ((2J+1)/(2*kappa)) sum_m |c_m|^2 binom(2J, k) (1-x)^{2J-k} x^k with
    x = e/(2*kappa) and k = m+J: the clock-sphere density chi^2 rewritten in
    the energy chart.
    """
    two_kappa = 2.0 * float(state.ratios.kappa)
    e_arr = np.asarray(e, dtype=float)
    if np.any(e_arr < 0.0) or np.any(e_arr > two_kappa * (1.0 + 1e-12)):
        raise EOutOfRange(f"e must lie in [0, {two_kappa}]")
    x = np.clip(e_arr / two_kappa, 0.0, 1.0)
    k = np.array(state.support, dtype=float)
    moduli = np.abs(state.amplitudes)
    weights = moduli ** 2
    # |c|^2 underflows to 0 below |c| ~ 1e-162, where its log is 2 log|c|
    log_terms = (np.log(weights, out=2.0 * np.log(moduli), where=weights > 0.0)
                 + ln_binomial(state.two_j, k)
                 + xlogy(state.two_j - k, 1.0 - x[..., None])
                 + xlogy(k, x[..., None]))
    density = np.exp(logsumexp(log_terms, axis=-1)) * (state.two_j + 1) / two_kappa
    return float(density) if e_arr.ndim == 0 else density


def marginal_energy_time(state: PawState,
                         e_axis: GridAxis | None = None) -> DistributionGrid:
    """The energy-time marginal sampled over e (any t section is identical)."""
    if e_axis is None:
        e_axis = default_energy_axis(state)
    values = energy_time_density(state, e_axis.values)
    return DistributionGrid(axes=(e_axis,), values=values,
                            measure="(2J+1)/(2*kappa) de, azimuth integrated")


# ---------------------------------------------------------------------------
# space-time marginal and interference
# ---------------------------------------------------------------------------

def _log_clock_overlap(two_j: int, k1, k2):
    """log of sqrt(binom(2J,k1) binom(2J,k2)) / binom(2J,(k1+k2)/2); scalar or array.

    The cross-term energy integral (2J+1) int_0^1 x^h (1-x)^{2J-h} dx at the
    midpoint h = (k1+k2)/2 is the Beta function 1/binom(2J, h), so this is
    exactly the energy overlap of the pair relative to the diagonal terms.
    """
    return (0.5 * ln_binomial(two_j, k1) + 0.5 * ln_binomial(two_j, k2)
            - ln_binomial(two_j, 0.5 * (k1 + k2)))


def clock_interference_factor(two_j: int, k1: int, k2: int) -> float:
    """sqrt(binom(2J,k1) binom(2J,k2)) / binom(2J,(k1+k2)/2); 1 on the diagonal.

    This is exactly the energy integral of the cross term relative to the
    diagonal one, and it vanishes rapidly as the branches separate or J grows.
    """
    return float(np.exp(_log_clock_overlap(two_j, k1, k2)))


def oscillator_interference_factor(n1: int, n2: int) -> float:
    """Gamma((n1+n2)/2 + 1) / sqrt(n1! n2!); 1 on the diagonal.

    The Gamma function extends the midpoint factorial when n1+n2 is odd.
    """
    half = 0.5 * (n1 + n2)
    return float(np.exp(ln_factorial(half)
                        - 0.5 * (ln_factorial(n1) + ln_factorial(n2))))


def interference_suppression(two_j: int, m1_plus_j: int, m2_plus_j: int,
                             n1: int, n2: int) -> InterferenceReport:
    """Analytic decay factors of the (m1,n1)x(m2,n2) interference term.

    Both factors depend only on the level indices, not on the mass.
    """
    for k in (m1_plus_j, m2_plus_j):
        if not 0 <= k <= two_j:
            raise ValueError(f"ladder index {k} outside 0..{two_j}")
    if min(n1, n2) < 0:
        raise ValueError("Fock levels must be non-negative")
    return InterferenceReport(
        clock_suppression_factor=clock_interference_factor(two_j, m1_plus_j, m2_plus_j),
        oscillator_suppression_factor=oscillator_interference_factor(n1, n2),
    )


@cache
def _p_rule() -> tuple[np.ndarray, np.ndarray]:
    """The ``_P_ORDER`` Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return leggauss(_P_ORDER)


def _momentum_quadrature(state: PawState) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights covering the occupied momentum support."""
    n_max = max(state.n_values)
    reach = (math.sqrt(2.0 * n_max / state.mass)
             * (1.0 + math.sqrt(40.0 / max(n_max, 1)))
             + math.sqrt(80.0 / state.mass))
    nodes, weights = _p_rule()
    return reach * nodes, reach * weights


@dataclass(frozen=True)
class _BeatPairs:
    """Branch pairs i < j whose interference survives the amplitude cut.

    Sorted by beat d = k_i - k_j; pairs sharing ``beats[b]`` start at
    ``starts[b]``.  ``coefficient`` is 2|c_i||c_j| A_ij e^{-i(gamma_i - gamma_j)},
    A_ij the energy overlap ``_log_clock_overlap`` of the pair.
    """

    first: np.ndarray
    second: np.ndarray
    coefficient: np.ndarray
    starts: np.ndarray
    beats: np.ndarray


def _beat_pairs(state: PawState) -> _BeatPairs:
    """Pairs whose amplitude 2|c_i||c_j| A_ij can reach 1e-300 (log > -700)."""
    k = np.array(state.support)
    first, second = np.triu_indices(k.size, 1)
    moduli = np.abs(state.amplitudes)
    gammas = np.angle(state.amplitudes)
    product = 2.0 * moduli[first] * moduli[second]
    # A product that underflowed to 0 has log < -744 and A_ij <= 1, so the
    # pair falls below the cut whatever its log is taken to be.
    log_amp = (np.log(product, out=np.full(product.shape, -np.inf), where=product > 0.0)
               + _log_clock_overlap(state.two_j, k[first], k[second]))
    keep = log_amp > -700.0
    beat = k[first[keep]] - k[second[keep]]
    order = np.argsort(beat, kind="stable")
    first, second = first[keep][order], second[keep][order]
    beats, starts = np.unique(beat[order], return_index=True)
    coefficient = np.exp(log_amp[keep][order] - 1j * (gammas[first] - gammas[second]))
    return _BeatPairs(first, second, coefficient, starts, beats)


def _interference_condition(state: PawState, pairs: _BeatPairs) -> float:
    """kappa = sum |a_ij| / sum |a_ij| O_ij over the kept pairs; 1 with none.

    a_ij is the pair's ``coefficient`` and O_ij its oscillator factor
    (``oscillator_interference_factor``), which is exactly the plane L1 norm
    of |<z|n_i><n_j|z>|.  So kappa is how far the beat integrands cancel; for
    two branches it is 1/O.  The Husimi kernel's relative error in the
    integrated cross term is about c eps kappa with c between 7 and 150.
    """
    if pairs.first.size == 0:
        return 1.0
    n = np.array(state.n_values, dtype=float)
    first, second = n[pairs.first], n[pairs.second]
    log_overlap = (ln_factorial(0.5 * (first + second))
                   - 0.5 * (ln_factorial(first) + ln_factorial(second)))
    weight = np.abs(pairs.coefficient)
    damped = float(np.sum(weight * np.exp(log_overlap)))
    return float(np.sum(weight)) / damped if damped > 0.0 else math.inf


def _row_kernel(state: PawState, pairs: _BeatPairs):
    """The Husimi kernel for states with kappa <= _KAPPA_MAX, else the Gram one."""
    if _interference_condition(state, pairs) <= _KAPPA_MAX:
        return _husimi_rows
    return _gram_rows


def _hermite_table(n_values, x: np.ndarray) -> np.ndarray:
    """psi_n(x) for each n of ``n_values`` (one row each), by the recurrence
    psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1}.

    The recurrence runs on psi_n e^{-s(x)}, started at 1 with
    s = -x^2/2 - log(pi)/4, and moves any value above 1e150 into s, so
    neither the Gaussian nor the polynomial under- or overflows.  Entries
    below sqrt(tiny) are flushed to 0, which keeps the products out of
    subnormal arithmetic.
    """
    levels = np.asarray(n_values)
    table = np.empty((levels.size, x.size))
    log_scale = -0.5 * x * x - 0.25 * math.log(math.pi)
    previous, current = np.zeros_like(x), np.ones_like(x)
    for n in range(int(levels.max()) + 1):
        for row in np.flatnonzero(levels == n):
            table[row] = current * np.exp(log_scale)
        previous, current = current, (math.sqrt(2.0 / (n + 1)) * x * current
                                      - math.sqrt(n / (n + 1)) * previous)
        large = np.abs(current) > 1e150
        if large.any():
            size = np.abs(current[large])
            previous[large] /= size
            current[large] /= size
            log_scale[large] += np.log(size)
    table[np.abs(table) < _FLUSH] = 0.0
    return table


def _husimi_rows(state: PawState, q_values: np.ndarray,
                 pairs: _BeatPairs | None = None):
    """Momentum-integrated branch products per Q row by Gaussian smoothing.

    C_ij(Q) = 2 sqrt(pi/M) int dx psi_{n_i} psi_{n_j} e^{-(sqrt(M) Q - x)^2}
    by the trapezoid rule with step h = 2 pi / (2 sqrt(2 n_max + 1) + 32) on
    |x| <= sqrt(2 n_max + 1) + 12: the step resolves the products' highest
    frequency 2 sqrt(2 n_max + 1) with 32 to spare, where the Gaussian's
    spectrum is e^{-256}.  Returns ``branch`` (rows x N), the C_ii, and
    ``beat`` (rows x beats), each beat's sum of coefficient * C_ij over
    ``pairs``, as two products with one kernel matrix K(Q, x).
    """
    width = math.sqrt(2.0 * max(state.n_values) + 1.0)
    step = 2.0 * math.pi / (2.0 * width + 32.0)
    half = math.ceil((width + 12.0) / step)
    x = step * np.arange(-half, half + 1.0)
    psi = _hermite_table(state.n_values, x)
    kernel = np.subtract.outer(math.sqrt(state.mass) * q_values, x)
    np.square(kernel, out=kernel)
    np.negative(kernel, out=kernel)
    np.exp(kernel, out=kernel)
    kernel[kernel < _FLUSH] = 0.0
    kernel *= 2.0 * math.sqrt(math.pi / state.mass) * step
    branch = kernel @ np.square(psi).T
    if pairs is None or pairs.beats.size == 0:
        return branch, np.zeros((q_values.size, 0), dtype=complex)
    # B_d(x) = sum of coefficient * psi_i psi_j over the pairs of beat d, as
    # real and imaginary parts.  The pairs are sorted by beat, so a chunk's
    # beats are one run of rows and its weighted sum is one small product.
    parts = np.stack([pairs.coefficient.real, pairs.coefficient.imag])
    beat_of = np.repeat(np.arange(pairs.beats.size),
                        np.diff(pairs.starts, append=pairs.first.size))
    sums = np.zeros((2, pairs.beats.size, x.size))
    for start in range(0, pairs.first.size, _PAIR_CHUNK):
        chunk = slice(start, start + _PAIR_CHUNK)
        products = psi[pairs.first[chunk]]
        products *= psi[pairs.second[chunk]]
        local = beat_of[chunk] - beat_of[start]
        weights = np.zeros((2, local[-1] + 1, local.size))
        weights[:, local, np.arange(local.size)] = parts[:, chunk]
        sums[:, beat_of[start]:beat_of[start] + local[-1] + 1] += weights @ products
    rows = kernel @ sums.reshape(-1, x.size).T
    return branch, rows[:, :pairs.beats.size] + 1j * rows[:, pairs.beats.size:]


def _gram_rows(state: PawState, q_values: np.ndarray, pairs: _BeatPairs):
    """Momentum-integrated branch products per Q row, in fixed blocks of rows.

    With g_n(P) = sqrt(f_n(u)) e^{-i n arctan2(P, Q)}, the weighted Gram matrix
    C = (conj(g) w) @ g^T of a row holds every branch product integrated over
    P by ``_P_ORDER`` Gauss-Legendre nodes.  The momentum nodes are symmetric
    and g_n(-P) = conj(g_n(P)), so C is real: the Gram matrix of the real and
    imaginary parts of g sqrt(w).  Returns ``branch`` and ``beat`` as
    ``_husimi_rows`` does.  The integrand |<z|n_i><n_j|z>| has plane L1 norm
    O_ij, not of order 1 as psi_i psi_j has, so far Fock pairs cancel no
    large terms; the cost is O(Q N^2 P).
    """
    p_nodes, p_weights = _momentum_quadrature(state)
    n = np.array(state.n_values, dtype=float)
    half_log_norm = -0.5 * ln_factorial(n)
    ground = n == 0.0
    half_log_w = 0.5 * np.log(p_weights)
    steps, step_of = np.unique(np.diff(n), return_inverse=True)
    kept = pairs.first * n.size + pairs.second
    branches, beats = [], []
    for start in range(0, q_values.size, _ROW_BLOCK):
        q = q_values[start:start + _ROW_BLOCK, None]
        u = 0.5 * state.mass * (q ** 2 + p_nodes ** 2)
        # |g_n| sqrt(w), assembled in log space where u^n and n! cannot overflow
        with np.errstate(divide="ignore", invalid="ignore"):
            magnitude = n[:, None] * (0.5 * np.log(u))[:, None, :]
        magnitude[:, ground] = 0.0  # 0 * log(0) = 0 where u = 0
        magnitude += half_log_w - 0.5 * u[:, None, :]
        magnitude += half_log_norm[:, None]
        np.exp(magnitude, out=magnitude)
        # Flushing terms below sqrt(tiny) keeps the Gram products out of
        # slow subnormal arithmetic; each changes an entry of C by < 1e-153.
        magnitude[magnitude < _FLUSH] = 0.0
        # e^{-i n theta} by a recurrence along the branches: one complex
        # exponential per distinct level step instead of one per level
        theta = np.arctan2(p_nodes, q)
        factors = np.exp(-1j * steps[:, None, None] * theta)
        g = np.empty(magnitude.shape, dtype=complex)
        g[:, 0] = np.exp(-1j * n[0] * theta)
        for level in range(1, n.size):
            np.multiply(g[:, level - 1], factors[step_of[level - 1]], out=g[:, level])
        g *= magnitude
        parts = g.view(np.float64)  # (Re, Im) pairs along P
        gram = parts @ parts.swapaxes(1, 2)
        # a copy, not a view that would keep gram alive
        branches.append(np.diagonal(gram, axis1=1, axis2=2).copy())
        products = np.take(gram.reshape(q.shape[0], -1), kept, axis=1) * pairs.coefficient
        beats.append(np.add.reduceat(products, pairs.starts, axis=1))
    return np.concatenate(branches), np.concatenate(beats)


def space_time_diagonal(state: PawState, q_values) -> np.ndarray:
    """Static part of the space-time marginal along Q (cross terms excluded).

    It has no cross terms to cancel, so the Husimi kernel serves every state.
    """
    q_values = np.asarray(q_values, dtype=float)
    branch, _ = _husimi_rows(state, q_values)
    prefactor = state.clock.epsilon / (2.0 * math.pi)
    plane_norm = state.mass / (2.0 * math.pi)
    return prefactor * plane_norm * (branch @ np.abs(state.amplitudes) ** 2)


def marginal_space_time(state: PawState, q_axis: GridAxis | None = None,
                        t_axis: GridAxis | None = None,
                        ) -> tuple[DistributionGrid, InterferenceReport]:
    """Space-time marginal D(Q, t) with its diagonal/interference split.

    At each (Q, t) the joint density is integrated over the energy range
    [0, 2*kappa] and over all momenta.  The energy integral of each branch
    pair is a Beta function, taken in closed form (``_log_clock_overlap``).
    The momentum integral is the Husimi smoothing of Hermite functions
    (``_husimi_rows``) for states whose interference condition number is at
    most ``_KAPPA_MAX``, else ``_P_ORDER`` Gauss-Legendre nodes over the
    occupied support (``_gram_rows``).  Branch pairs whose interference
    amplitude cannot reach 1e-300 are skipped.  Kept pairs are summed per
    beat frequency before the time axis is applied.

    Returns the sampled grid plus an InterferenceReport whose aggregates are
    trapezoid Q-integrals (the cross term's absolute value, averaged over t).
    """
    if q_axis is None:
        q_axis = default_phase_space_axes()[0]
    if t_axis is None:
        t_axis = default_time_axis(state)

    q_values = q_axis.values
    epsilon = state.clock.epsilon
    prefactor = epsilon / (2.0 * math.pi)
    plane_norm = state.mass / (2.0 * math.pi)
    moduli = np.abs(state.amplitudes)

    pairs = _beat_pairs(state)
    branch, beat = _row_kernel(state, pairs)(state, q_values, pairs)
    diagonal = plane_norm * (branch @ moduli ** 2)
    phases = np.exp(1j * np.outer(pairs.beats * epsilon, t_axis.values))
    cross = plane_norm * (beat @ phases).real

    values = prefactor * (diagonal[:, None] + cross)
    floor = float(values.min())
    if floor < 0.0:
        if floor < -1e-9 * float(values.max()):
            raise RuntimeError(f"space-time marginal went negative ({floor})")
        values = np.maximum(values, 0.0)
    grid = DistributionGrid(
        axes=(q_axis, t_axis), values=values,
        measure="eps/(2*pi), energy and momentum integrated out")

    diag_integrals = sorted(
        prefactor * moduli ** 2 * plane_norm * _trapezoid(branch, q_values, axis=0),
        reverse=True)
    i1 = float(diag_integrals[0])
    i2 = float(sum(diag_integrals[1:]))
    i_int = prefactor * float(np.mean(_trapezoid(np.abs(cross), q_values, axis=0)))

    first, second = np.triu_indices(moduli.size, 1)
    best = int(np.argmax(moduli[first] * moduli[second]))
    i, j = int(first[best]), int(second[best])
    report = InterferenceReport(
        clock_suppression_factor=clock_interference_factor(
            state.two_j, state.support[i], state.support[j]),
        oscillator_suppression_factor=oscillator_interference_factor(
            state.n_values[i], state.n_values[j]),
        i1=i1, i2=i2, i_int=i_int,
        ratio=i_int / (i1 + i2),
    )
    return grid, report


def classical_limit_section(state: PawState, q_values) -> np.ndarray:
    """Large-size reference for a fixed-t section: a mixture of arcsine laws.

    Each occupied branch contributes |c|^2 (1/pi) / sqrt(r^2 - Q^2) inside its
    orbit radius r = sqrt(2n/M) and nothing outside; the values diverge at
    |Q| = r, so comparisons must exclude a band around each radius.
    """
    q_values = np.asarray(q_values, dtype=float)
    out = np.zeros_like(q_values)
    with np.errstate(divide="ignore"):
        for weight, n in zip(np.abs(state.amplitudes) ** 2, state.n_values):
            r_squared = 2.0 * n / state.mass
            gap = r_squared - q_values ** 2
            inside = gap > 0.0
            out[inside] += weight / (math.pi * np.sqrt(gap[inside]))
            out[gap == 0.0] = np.inf
    return out
