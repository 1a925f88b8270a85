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
sqrt(binom(2J, k_i) binom(2J, k_j)) / binom(2J, (k_i + k_j)/2); the momentum
integrals are taken as below.

The phase-space density depends on (Q, P) only through u = M(Q^2 + P^2)/2
and is computed on the grid of distinct squares of each axis, then gathered
back; an axis from -s to s mirrors bit for bit, so Q and -Q share one square.
A dense Fock ladder takes the Poisson convolution
pmf(n; u_Q + u_P) = sum_k pmf(n - k; u_Q) pmf(k; u_P): two Poisson tables and
two matrix products, with the last bits of a per-cell sweep moved.  It is
taken when its multiply-adds cost less than the per-u loop.  Every other state
evaluates each branch once per distinct u, found by a sort of the grid of
squares, never of the full grid; that result has the bits of a per-cell sweep.

The space-time marginal needs, per Q, every momentum integral
C_ij(Q) = int dP <n_i|z><z|n_j> with z = sqrt(M/2)(Q + iP).  The Husimi
function is the position density of the state after a 50:50 beam splitter
with the vacuum, so C_ij is a finite sum of Hermite functions at the one point
y = sqrt(M/2) Q with binomial weights, exact for every pair and with no
quadrature.  The weights factor into one table per branch, the kept pairs of
one Fock gap share one table of products, and the (Q, t) grid is the real
part of a (Q x beats) by (beats x t) product.  One beat is one Fock gap: the
constraint eps(m + J) = omega(n + 1/2) gives n = kappa_r k - 1/2, so the gap
d = kappa_r |k_i - k_j| fixes the beat.  The pairs are found gap by gap from
a map of the occupied ladder, and no list of all branch pairs is formed.

Every matrix product here goes through ``_product``, whose BLAS calls are
small enough that OpenBLAS runs each on the calling thread: the bits of the
space-time marginal do not depend on the BLAS thread count, and no BLAS
worker is woken to spin idle after a call.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coherent import (_libm_log, _log_fock_density, ln_binomial, ln_factorial,
                       logsumexp, xlogy)
from .pawstate import PawState
from .table import _distinct, write_table

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class EOutOfRange(ValueError):
    """An energy sample lies outside the clock range [0, 2*kappa]."""


class ConfigError(ValueError):
    """A run setting (scenario config or flag) is malformed."""


# sqrt of the smallest normal double: products of larger numbers stay normal.
_FLUSH = math.sqrt(sys.float_info.min)
# Multiply-adds per BLAS call of ``_product``.  OpenBLAS 0.3.31 kept real
# products of up to 7.9e5 on the calling thread at two threads, 1.0e6 not.
_BLAS_BOUND = 2 ** 18
# Inner-axis chunk of a ``_product`` above the bound.
_INNER = 128
# ``marginal_phase_space`` takes the Poisson convolution of a ladder of
# K = n_max + 1 levels and N branches on a Q x P grid of distinct squares when
# its Q K (K + P) multiply-adds cost less than the loop's N Q P Poisson terms,
# a term costing this many multiply-adds.  Measured at one BLAS thread on the
# default axes, dense M = 170 and 340 with every 1st to 32nd level kept: a
# multiply-add took 0.14-0.17 ns, a loop term 2.3-4.3 ns at N >= 128.  The
# loop's fixed cost (the sort, the logs and the gather, about 70 ms) is left
# out, so the rule errs toward the loop.
_TERM_MACS = 16


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
        # a finite width needs finite ends, and keeps x - x[::-1] of values finite;
        # with a subnormal step linspace misses the exact nodes by up to ~1e3 ulp
        if not (math.isfinite(float(self.stop) - float(self.start)) and self.stop > self.start):
            raise ConfigError(f"axis {self.name} needs start < stop a finite width apart, "
                              f"got {self.start} and {self.stop}")
        if (float(self.stop) - float(self.start)) / (self.count - 1) < sys.float_info.min:
            raise ConfigError(f"axis {self.name} needs a step of at least the smallest "
                              f"normal float, {sys.float_info.min!r}, got {self.start} to "
                              f"{self.stop} in {self.count} samples")

    @cached_property
    def values(self) -> np.ndarray:
        """The linspace x, or its part (x - x[::-1])/2 when start = -stop: the same
        ends, within 2 ulp of stop, and Q and -Q sampled bit for bit alike."""
        x = np.linspace(self.start, self.stop, self.count)
        if self.start == -self.stop:
            x = 0.5 * (x - x[::-1])
        return x


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

    marginal_space_time takes the factors of the heaviest pair: the two
    branches of largest |c|, the lower index winning a tie.  For N > 2 they
    describe only that pair, while the aggregates cover every branch and
    every kept pair.
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

@np.errstate(over="ignore")  # a U beyond a float is inf, and its density 0
def marginal_phase_space(state: PawState, q_axis: GridAxis | None = None,
                         p_axis: GridAxis | None = None) -> DistributionGrid:
    """Density (M/2pi) sum_m |c_m|^2 e^{-U} U^{n_m}/n_m!, U = M(Q^2+P^2)/2.

    Integrating the clock sphere away leaves an exact finite-M mixture of
    Poisson ridges, one per occupied branch, peaking at radius sqrt(2n/M).

    The density is computed on the grid of the distinct squares of each axis
    (801 points give 401 on the default axes) and gathered back.  A dense
    Fock ladder takes the Poisson convolution of ``_poisson_convolution``,
    whose last bits differ from a per-cell sweep, when ``_takes_convolution``
    finds it cheaper.  Every other state evaluates each branch once per
    distinct U of that grid (68,341 of the 641,601 cells on the default
    axes), formed in the same operations as on the full grid, so every cell
    holds the bits of a per-cell sweep.
    """
    if q_axis is None or p_axis is None:
        default_q, default_p = default_phase_space_axes()
        q_axis = q_axis or default_q
        p_axis = p_axis or default_p
    q2, iq = np.unique(q_axis.values ** 2, return_inverse=True)
    p2, ip = np.unique(p_axis.values ** 2, return_inverse=True)
    if _takes_convolution(state, p2.size):
        values = _poisson_convolution(state, q2, p2)
    else:
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
        values = values[cell].reshape(q2.size, p2.size)
    values *= state.mass / (2.0 * math.pi)
    return DistributionGrid(axes=(q_axis, p_axis), values=values[np.ix_(iq, ip)],
                            measure="M/(2*pi) dQ dP")


def _takes_convolution(state: PawState, p_squares: int) -> bool:
    """Whether ``marginal_phase_space`` takes the Poisson convolution on a grid
    of ``p_squares`` distinct P^2: when it costs fewer multiply-adds than the
    loop, see ``_TERM_MACS``."""
    levels, branches = max(state.n_values) + 1, len(state.n_values)
    return levels * (levels + p_squares) <= _TERM_MACS * branches * p_squares


def _poisson_convolution(state: PawState, q2: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """sum_m |c_m|^2 pmf(n_m; u_Q + u_P) over q2 x p2, u = M x/2, by the
    Poisson convolution pmf(n; u_Q + u_P) = sum_k pmf(n - k; u_Q) pmf(k; u_P).

    With A[k, Q] = pmf(k; u_Q) and B[k, P] = pmf(k; u_P) for the K levels
    k = 0..n_max it is sum_k A'[k, Q] B[k, P], where
    A'[k] = sum_m |c_m|^2 A[n_m - k] is the Hankel matrix
    W[k, j] = |c|^2 of level k + j, a view of the weights by level, times A.
    ``_product`` takes the view as its left operand and never copies it
    whole, so the call holds K x (Q + P) table entries and no K x K matrix.
    Every term is positive.  Entries below sqrt(tiny) are flushed to 0, as in
    ``_hermite_table``, so no product is subnormal.  On equal squares the
    result is (V + V^T)/2, bitwise symmetric under Q <-> P.
    """
    levels = np.arange(max(state.n_values) + 1)
    level_weights = np.zeros(2 * levels.size - 1)
    level_weights[np.array(state.n_values)] = np.abs(state.amplitudes) ** 2

    def poisson_table(squares):
        u = 0.5 * state.mass * squares
        table = _log_fock_density(u, _libm_log(u), levels[:, None])
        np.exp(table, out=table)
        table[table < _FLUSH] = 0.0
        return table

    a = poisson_table(q2)
    same = np.array_equal(q2, p2)
    folded = _product(sliding_window_view(level_weights, levels.size), a)
    folded[folded < _FLUSH] = 0.0
    values = _product(folded.T, a if same else poisson_table(p2))
    if same:
        values += values.T
        values *= 0.5
    return values


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


def _log_oscillator_overlap(n1, n2):
    """log of Gamma((n1+n2)/2 + 1) / sqrt(n1! n2!); scalar or array.

    This is the plane L1 norm of |<z|n1><n2|z>| relative to the diagonal
    terms.  The Gamma function extends the midpoint factorial when n1+n2 is
    odd.
    """
    return ln_factorial(0.5 * (n1 + n2)) - 0.5 * (ln_factorial(n1) + ln_factorial(n2))


def oscillator_interference_factor(n1: int, n2: int) -> float:
    """Gamma((n1+n2)/2 + 1) / sqrt(n1! n2!); 1 on the diagonal."""
    return float(np.exp(_log_oscillator_overlap(n1, n2)))


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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for real 2-D a and real 1-D or 2-D b, in BLAS calls of at most
    ``_BLAS_BOUND`` multiply-adds.

    OpenBLAS runs a call that small on the calling thread at every thread
    count, so the bits do not depend on that count and no worker wakes to
    spin after the call.  A product within the bound is ``a @ b``.  A larger
    one cuts the inner axis into ``_INNER`` chunks, summed in order, and each
    chunk into tiles of rows and columns fixed by the shapes, one stacked
    matmul per chunk and column block.
    """
    rows, inner = a.shape
    cols = 1 if b.ndim == 1 else b.shape[1]
    if rows * inner * cols <= _BLAS_BOUND:
        return a @ b
    columns = np.ascontiguousarray(b.reshape(inner, cols))  # tiles of b.T run at half speed
    depth = min(inner, _INNER)
    width = min(cols, _BLAS_BOUND // (16 * depth))  # tiles at least 16 rows tall
    tall = _BLAS_BOUND // (depth * width)
    whole = rows // tall * tall  # whole blocks, then one short block
    out = np.zeros((rows, cols))
    tiles = np.empty(whole * width)
    for start in range(0, inner, depth):
        left = a[:, start:start + depth]
        blocks = left[:whole].reshape(-1, tall, left.shape[1])
        for col in range(0, cols, width):
            right = columns[start:start + depth, col:col + width]
            target = out[:, col:col + width]
            result = tiles[:whole * right.shape[1]].reshape(-1, right.shape[1])
            np.matmul(blocks, right, out=result.reshape(-1, tall, right.shape[1]))
            target[:whole] += result
            target[whole:] += left[whole:] @ right
    return out.reshape((rows,) + b.shape[1:])


def _hermite_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """psi_n(x) for n = 0..n_max (one row each), by the recurrence
    psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1}.

    The recurrence runs on psi_n e^{-s(x)}, started at 1 with
    s = -x^2/2 - log(pi)/4, and moves any value above 1e150 into s, so
    neither the Gaussian nor the polynomial under- or overflows.  Entries
    below sqrt(tiny) are flushed to 0, which keeps the products out of
    subnormal arithmetic.
    """
    table = np.empty((n_max + 1, x.size))
    with np.errstate(over="ignore"):  # x*x beyond a float: -inf, so psi_n = 0
        log_scale = -0.5 * x * x - 0.25 * math.log(math.pi)
    previous, current = np.zeros_like(x), np.ones_like(x)
    for n in range(n_max + 1):
        table[n] = current * np.exp(log_scale)
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


def _binomial_weights(n_values) -> np.ndarray:
    """g[i, a] = sqrt(C(n_i, a) / 2^{n_i}) for a = 0..max(n), 0 for a > n_i.

    One row per branch, from one ``ln_factorial`` table of 0..max(n).
    """
    n = np.asarray(n_values)[:, None]
    a = np.arange(n.max() + 1)
    inside = a <= n
    ln_fact = ln_factorial(a)
    log_g = 0.5 * (ln_fact[n] - ln_fact[a] - ln_fact[np.where(inside, n - a, 0)]
                   - n * math.log(2.0))
    return np.where(inside, np.exp(log_g), 0.0)


def _branch_rows(state: PawState, q_values: np.ndarray):
    """psi_a(y) for a = 0..n_max at y = sqrt(M/2) Q, the weights g of
    ``_binomial_weights`` and the branch rows C_ii (rows x N) of ``_closed_form_rows``."""
    n = np.array(state.n_values)
    g = _binomial_weights(n)
    psi = _hermite_table(int(n[-1]), math.sqrt(0.5 * state.mass) * q_values)
    branch = _product((psi * psi).T, (g * g).T)
    branch *= math.pi * math.sqrt(2.0 / state.mass)
    return psi, g, branch


def _closed_form_rows(state: PawState, q_values: np.ndarray):
    """Momentum-integrated branch products per Q row by a finite sum.

    A 50:50 beam splitter with the vacuum sends |n> to
    sum_l 2^{-n/2} sqrt(C(n, l)) |n-l>|l>, and the Husimi function is the
    position density of its first port (Husimi 1940), so with
    y = sqrt(M/2) Q and g(n, l) = sqrt(C(n, l) / 2^n)
    C_ij(Q) = pi sqrt(2/M) sum_{l=0}^{min(n_i, n_j)} g(n_i, l) g(n_j, l) psi_{n_i-l}(y) psi_{n_j-l}(y).
    For n_i <= n_j, d = n_j - n_i and a = n_i - l, C(n_i, l) = C(n_i, a) and
    C(n_j, l) = C(n_j, a + d), so each term is g[i, a] g[j, a + d] psi_a psi_{a+d}
    with g the per-branch table of ``_binomial_weights``.  Every weight is
    positive, so no term cancels a larger one on the diagonal, and far pairs
    are accurate relative to C_ij itself.

    One beat is one Fock gap.  Branch k holds n = kappa_r k - 1/2 (the
    constraint eps(m + J) = omega(n + 1/2) of Page and Wootters), so n rises
    with k and a beat k_i - k_j has the one gap d = kappa_r (k_j - k_i).
    Branch i sits on rung r_i = (k_i - k_0)/k_step of the ladder of occupied
    k, k_step = gcd(k_i - k_0): the pairs of a beat s rungs wide are the
    branches i with rung r_i + s occupied, read from one map of rungs to
    branches.  A pair is kept when its amplitude 2|c_i||c_j| A_ij, A_ij the
    energy overlap of ``_log_clock_overlap``, can reach 1e-300 (log > -700).
    A_ij comes from a per-branch table of (1/2) ln C(2J, k) and a table of
    ln C(2J, (k_i + k_j)/2) over the rung sums r_i + r_j, 2 r_max + 1 entries
    rather than 2J + 1.  The kept pairs of a gap share one table of products
    psi_a psi_{a+d}, and their rows are one product of that table with their
    weights summed per real and imaginary part of the coefficient; the
    branches (d = 0) share psi_a^2.
    Returns ``branch`` (rows x N), the C_ii; ``beat`` (2 x rows x beats),
    the real and imaginary part of each beat's sum of
    2|c_i||c_j| A_ij e^{-i(gamma_i - gamma_j)} C_ij over its kept pairs; and
    the beats k_i - k_j, largest gap first.
    """
    psi, g, branch = _branch_rows(state, q_values)
    n, k = np.array(state.n_values), np.array(state.support)
    moduli, gammas = np.abs(state.amplitudes), np.angle(state.amplitudes)
    k_step = int(np.gcd.reduce(k - k[0]))
    rung = (k - k[0]) // k_step
    half_ln = 0.5 * ln_binomial(state.two_j, k)
    # the midpoint (k_i + k_j)/2 is k_0 + k_step (r_i + r_j)/2
    ln_mid = ln_binomial(state.two_j, k[0] + 0.5 * k_step * np.arange(2 * rung[-1] + 1))
    branch_of = np.full(2 * rung[-1] + 1, -1)  # rungs above the top hold no branch
    branch_of[rung] = np.arange(n.size)
    parts, beats = [], []
    for apart in range(rung[-1], 0, -1):  # pairs this many rungs apart, largest gap first
        partner = branch_of[rung + apart]
        low = (partner >= 0).nonzero()[0]
        if not low.size:
            continue
        high = partner[low]
        product = 2.0 * moduli[low] * moduli[high]
        # A product that underflowed to 0 has log < -744 and A_ij <= 1, so the
        # pair falls below the cut whatever its log is taken to be.
        log_amp = (np.log(product, out=np.full(product.shape, -np.inf), where=product > 0.0)
                   + (half_ln[low] + half_ln[high] - ln_mid[rung[low] + rung[high]]))
        keep = log_amp > -700.0
        if not keep.any():
            continue
        low, high = low[keep], high[keep]
        coefficient = np.exp(log_amp[keep] - 1j * (gammas[low] - gammas[high]))
        d, size = n[high[0]] - n[low[0]], n[low[-1]] + 1
        summed = _product(np.array([coefficient.real, coefficient.imag]),
                          g[low, :size] * g[high, d:d + size])
        parts.append(_product((psi[:size] * psi[d:d + size]).T, summed.T))
        beats.append(k[low[0]] - k[high[0]])
    beat = (np.stack([part.T for part in parts], axis=-1) if parts
            else np.zeros((2, q_values.size, 0)))
    beat *= math.pi * math.sqrt(2.0 / state.mass)
    return branch, beat, np.array(beats, dtype=int)


def space_time_diagonal(state: PawState, q_values) -> np.ndarray:
    """Static part of the space-time marginal along Q (cross terms excluded):
    the branch rows of ``_branch_rows`` weighted by |c_m|^2."""
    q_values = np.asarray(q_values, dtype=float)
    _, _, branch = _branch_rows(state, q_values)
    prefactor = state.clock.epsilon / (2.0 * math.pi)
    plane_norm = state.mass / (2.0 * math.pi)
    return prefactor * plane_norm * _product(branch, np.abs(state.amplitudes) ** 2)


def marginal_space_time(state: PawState, q_axis: GridAxis | None = None,
                        t_axis: GridAxis | None = None,
                        ) -> tuple[DistributionGrid, InterferenceReport]:
    """Space-time marginal D(Q, t) with its diagonal/interference split.

    At each (Q, t) the joint density is integrated over the energy range
    [0, 2*kappa] and over all momenta.  The energy integral of each branch
    pair is a Beta function, taken in closed form (``_log_clock_overlap``).
    The momentum integral is the finite beam-splitter sum of
    ``_closed_form_rows``.  Branch pairs whose interference amplitude cannot
    reach 1e-300 are skipped.  Kept pairs are summed per beat frequency
    before the time axis is applied.

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

    branch, beat, beats = _closed_form_rows(state, q_values)
    diagonal = plane_norm * _product(branch, moduli ** 2)
    # Re(beat @ phases) from two real products, half the flops of a complex one
    phases = np.exp(1j * np.outer(beats * epsilon, t_axis.values))
    cross = _product(beat[0], np.ascontiguousarray(phases.real))
    sine = _product(beat[1], np.ascontiguousarray(phases.imag))
    cross -= sine
    cross *= plane_norm
    # |cross| into the sine part and the grid into cross: each fresh grid-sized
    # array costs a page fault per 4 KiB
    i_int = prefactor * float(np.mean(_trapezoid(np.abs(cross, out=sine), q_values, axis=0)))
    diag_integrals = sorted(
        prefactor * moduli ** 2 * plane_norm * _trapezoid(branch, q_values, axis=0),
        reverse=True)
    i1 = float(diag_integrals[0])
    i2 = float(sum(diag_integrals[1:]))

    values = cross
    values += diagonal[:, None]
    values *= prefactor
    floor = float(values.min())
    if floor < 0.0:
        if floor < -1e-9 * float(values.max()):
            raise RuntimeError(f"space-time marginal went negative ({floor})")
        values = np.maximum(values, 0.0)
    grid = DistributionGrid(
        axes=(q_axis, t_axis), values=values,
        measure="eps/(2*pi), energy and momentum integrated out")

    i, j = sorted(np.argsort(-moduli, kind="stable")[:2].tolist())
    report = interference_suppression(state.two_j, state.support[i], state.support[j],
                                      state.n_values[i], state.n_values[j])
    return grid, replace(report, i1=i1, i2=i2, i_int=i_int, ratio=i_int / (i1 + i2))


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
