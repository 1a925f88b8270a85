"""Pair-by-pair space-time marginal kept as a test oracle.

This is the original O(N^2) implementation of
``pawclock.marginals.marginal_space_time``: every kept branch pair
recomputes its Fock densities over the whole Q x P grid and its energy
overlap with its own Gauss-Legendre rule.  The production kernel must agree
with it to rounding; see tests/test_space_time_reference.py.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln, logsumexp, xlogy

from pawclock.coherent import ln_binomial
from pawclock.marginals import (
    DistributionGrid,
    GridAxis,
    InterferenceReport,
    clock_interference_factor,
    default_phase_space_axes,
    default_time_axis,
    oscillator_interference_factor,
)
from pawclock.pawstate import PawState

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _log_fock_density(u: np.ndarray, n: float) -> np.ndarray:
    """log of e^{-u} u^n / n! with the 0*log(0) pole convention."""
    return xlogy(n, u) - u - gammaln(n + 1.0)


def _momentum_quadrature(state: PawState, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights covering the occupied momentum support."""
    n_max = max(state.n_values)
    reach = (math.sqrt(2.0 * n_max / state.mass)
             * (1.0 + math.sqrt(40.0 / max(n_max, 1)))
             + math.sqrt(80.0 / state.mass))
    nodes, weights = leggauss(order)
    return reach * nodes, reach * weights


def _pair_energy_overlap(state: PawState, k1: int, k2: int, order: int) -> float:
    """log of the cross-term energy integral (2J+1) int_0^1 dx of the half-sum binomial."""
    two_j = state.two_j
    half = 0.5 * (k1 + k2)
    nodes, weights = leggauss(order)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    log_terms = (0.5 * (ln_binomial(two_j, k1) + ln_binomial(two_j, k2))
                 + xlogy(two_j - half, 1.0 - x) + xlogy(half, x) + np.log(w))
    return float(logsumexp(log_terms) + math.log(two_j + 1))


def marginal_space_time(state: PawState, q_axis: GridAxis | None = None,
                        t_axis: GridAxis | None = None, p_order: int = 400,
                        e_order: int | None = None,
                        ) -> tuple[DistributionGrid, InterferenceReport]:
    """Space-time marginal D(Q, t) with its diagonal/interference split.

    At each (Q, t) the joint density is integrated over the energy range
    [0, 2*kappa] and over all momenta.  The energy integral of each branch
    pair is a degree-2J polynomial, integrated exactly by Gauss-Legendre;
    the momentum integral uses ``p_order`` nodes over the occupied support.
    Branch pairs whose interference amplitude cannot reach 1e-300 are skipped.

    Returns the sampled grid plus an InterferenceReport whose aggregates are
    trapezoid Q-integrals (the cross term's absolute value, averaged over t).
    """
    if q_axis is None:
        q_axis = default_phase_space_axes()[0]
    if t_axis is None:
        t_axis = default_time_axis(state)
    if e_order is None:
        e_order = state.two_j // 2 + 2

    q_values = q_axis.values
    t_values = t_axis.values
    p_nodes, p_weights = _momentum_quadrature(state, p_order)
    epsilon = state.clock.epsilon
    prefactor = epsilon / (2.0 * math.pi)
    moduli = np.abs(state.amplitudes)
    gammas = np.angle(state.amplitudes)

    # Interference pairs that can matter, with their energy overlap A.
    branches = range(len(state.support))
    kept: list[tuple[int, int, float]] = []  # (i, j, amplitude 2|ci||cj|A)
    for i in branches:
        for j in branches:
            if i >= j:
                continue
            log_a = _pair_energy_overlap(state, state.support[i],
                                         state.support[j], e_order)
            log_amp = math.log(2.0 * moduli[i] * moduli[j]) + log_a
            if log_amp > -700.0:
                kept.append((i, j, math.exp(log_amp)))

    workers = min(4, os.cpu_count() or 1)
    chunk_count = min(max(1, workers * 2), q_values.size) if workers > 1 else 1
    chunks = np.array_split(np.arange(q_values.size), chunk_count)

    def profile(index: np.ndarray):
        q_chunk = q_values[index]
        u = 0.5 * state.mass * (q_chunk[:, None] ** 2 + p_nodes[None, :] ** 2)
        diag = np.zeros(q_chunk.size)
        for weight, n in zip(moduli ** 2, state.n_values):
            diag += weight * (np.exp(_log_fock_density(u, n)) * p_weights).sum(axis=1)
        angles = np.arctan2(p_nodes[None, :], q_chunk[:, None])
        cos_parts, sin_parts = [], []
        for i, j, _ in kept:
            n1, n2 = state.n_values[i], state.n_values[j]
            base = np.exp(0.5 * (_log_fock_density(u, n1) + _log_fock_density(u, n2)))
            # The part odd in P integrates to 0, so the pair phase rotates the
            # even part exactly; rounding cos((n1-n2) theta - phase) at each
            # node instead leaves ~1e-17 of the pair in a cross term that the
            # phases may cancel to 1e-8 of it.
            even = (base * np.cos((n1 - n2) * angles) * p_weights).sum(axis=1)
            shift = gammas[i] - gammas[j]
            cos_parts.append(math.cos(shift) * even)
            sin_parts.append(-math.sin(shift) * even)
        return diag, cos_parts, sin_parts

    if chunk_count == 1:
        results = [profile(chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(profile, chunks))

    plane_norm = state.mass / (2.0 * math.pi)
    diagonal = plane_norm * np.concatenate([r[0] for r in results])
    g_cos = [plane_norm * np.concatenate([r[1][p] for r in results])
             for p in range(len(kept))]
    g_sin = [plane_norm * np.concatenate([r[2][p] for r in results])
             for p in range(len(kept))]

    cross = np.zeros((q_values.size, t_values.size))
    for p, (i, j, amplitude) in enumerate(kept):
        beat = (state.support[i] - state.support[j]) * epsilon * t_values
        cross += amplitude * (np.outer(g_cos[p], np.cos(beat))
                              - np.outer(g_sin[p], np.sin(beat)))

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
        (prefactor * w * float(_trapezoid(
            plane_norm * np.exp(_log_fock_density(
                0.5 * state.mass * (q_values[:, None] ** 2 + p_nodes[None, :] ** 2),
                n)) @ p_weights, q_values))
         for w, n in zip(moduli ** 2, state.n_values)),
        reverse=True)
    i1 = diag_integrals[0]
    i2 = float(sum(diag_integrals[1:]))
    i_int = prefactor * float(np.mean(_trapezoid(np.abs(cross), q_values, axis=0)))

    best = max(((i, j) for i in branches for j in branches if i < j),
               key=lambda pair: moduli[pair[0]] * moduli[pair[1]])
    report = InterferenceReport(
        clock_suppression_factor=clock_interference_factor(
            state.two_j, state.support[best[0]], state.support[best[1]]),
        oscillator_suppression_factor=oscillator_interference_factor(
            state.n_values[best[0]], state.n_values[best[1]]),
        i1=i1, i2=i2, i_int=i_int,
        ratio=i_int / (i1 + i2),
    )
    return grid, report
