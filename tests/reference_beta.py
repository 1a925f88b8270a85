"""Quadratures of the chi^2 and |beta|^2 normalizations, kept as test oracles.

The library reports both integrals as sum_m |c_m|^2, which the resolutions
of identity on the clock sphere and the oscillator plane make exact
(``pawclock.pawstate.chi_squared_integral``).  This module integrates them
numerically instead, so tests can hold the identity against quadratures:

* ``sphere_quadrature`` is Gauss-Legendre in cos(theta) on the sphere measure;
  ``chi_squared_quadrature`` integrates chi^2 with it.
* ``branch_norms`` and ``diagonal_beta_integral`` integrate |beta|^2 one
  branch at a time: sphere quadrature times a Gauss-Legendre radial rule.
* ``beta_double_integral`` folds every branch pair (m, m') through the sphere
  and radial quadratures (Gauss-Laguerre in u = M|alpha|^2) and multiplies by
  uniform azimuthal sums that evaluate the phase integrals.  ``phase_deltas``
  is lifted out of it so that tests can check it against the identity.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln, logsumexp, roots_laguerre, xlogy

from pawclock import coherent
from pawclock.coherent import scs_log_magnitude
from pawclock.pawstate import PawState, chi_squared


def sphere_quadrature(two_j: int):
    """Nodes and weights integrating azimuth-independent f over the sphere measure.

    Gauss-Legendre in cos(theta) with order = max(256, 2J // 2 + 2) nodes;
    sum(w_i * f(theta_i)) equals integral d(mu)(Omega) f(theta) exactly for f
    polynomial in cos(theta) up to degree 2*order - 1 > 2J, which covers every
    overlap-squared at spin J.

    Returns (theta_nodes, weights).
    """
    x, w = leggauss(max(256, two_j // 2 + 2))
    return np.arccos(x), (two_j + 1) / 2.0 * w


def chi_squared_quadrature(state: PawState) -> float:
    """Integral of chi^2 over the clock sphere measure by ``sphere_quadrature``."""
    thetas, weights = sphere_quadrature(state.two_j)
    return float(np.sum(weights * chi_squared(state, thetas)))


def branch_norms(state: PawState) -> np.ndarray:
    """Per-branch S_m * R_m, each factor 1 by a resolution of identity.

    S_m is the Gauss-Legendre sphere quadrature of |<Omega|J, k_m>|^2 and R_m
    the radial integral of |<alpha|n_m>|^2 over u = M|alpha|^2, which is the
    Gamma(n + 1) density u^n e^-u / n!. R_m uses 256 Gauss-Legendre nodes on
    n +- (12*sqrt(n) + 30), clipped at u = 0. Both are folded in log space, so
    neither factor overflows at 2J ~ 1100 or n ~ 4000; the deviation of
    S_m * R_m from 1 is the quadrature error of branch m.
    """
    n = np.array(state.n_values, dtype=float)

    thetas, w_sphere = sphere_quadrature(state.two_j)
    log_s = coherent.logsumexp(
        2.0 * scs_log_magnitude(thetas[:, None], state.two_j, state.support)
        + np.log(w_sphere)[:, None], axis=0)

    x, w = leggauss(256)
    reach = 12.0 * np.sqrt(n) + 30.0
    low = np.maximum(0.0, n - reach)
    half_width = 0.5 * (n + reach - low)
    u = low + half_width * (1.0 + x[:, None])
    log_r = coherent.logsumexp(coherent._log_fock_density(u, coherent._libm_log(u), n)
                               + np.log(w)[:, None] + np.log(half_width), axis=0)
    return np.exp(log_s + log_r)


def diagonal_beta_integral(state: PawState) -> float:
    """Quadrature of |beta|^2 over both coherent-state measures, branch by branch.

    The azimuthal integrals over phi and arg(alpha) of the cross term between
    branches m and m' give Kronecker deltas in k and in n, so only the
    diagonal survives: the integral is sum_m |c_m|^2 * S_m * R_m, with the
    per-branch sphere and radial factors of ``branch_norms``.
    """
    c = state.amplitudes
    return float(np.sum((c.conj() * c).real * branch_norms(state)))


def phase_deltas(indices: np.ndarray, count: int) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(count) / count
    spacing = indices[:, None] - indices[None, :]
    return np.mean(np.exp(-1j * spacing[:, :, None] * angles), axis=-1)


def beta_double_integral(state: PawState) -> float:
    """Quadrature of |beta|^2 over both coherent-state measures; 1 for any state.

    The 4D integral factorizes over the quadrature grid: Gauss-Legendre in
    cos(theta) and Gauss-Laguerre in u = M|alpha|^2 handle the magnitudes
    (folded into the summands in log space), while uniform azimuthal sums of
    K > max spacing points evaluate the phase integrals exactly.
    """
    k = np.array(state.support, dtype=float)
    n = np.array(state.n_values, dtype=float)
    c = state.amplitudes

    thetas, w_sphere = sphere_quadrature(state.two_j)
    log_c_fold = (scs_log_magnitude(thetas[:, None], state.two_j, k[None, :])
                  + 0.5 * np.log(w_sphere)[:, None])
    log_sc = logsumexp(log_c_fold[:, :, None] + log_c_fold[:, None, :], axis=0)

    u_nodes, u_weights = roots_laguerre(int(max(n)) + 40)
    keep = u_weights > 0.0
    u_nodes, u_weights = u_nodes[keep], u_weights[keep]
    log_r_fold = (0.5 * xlogy(n[None, :], u_nodes[:, None])
                  - 0.5 * gammaln(n[None, :] + 1.0)
                  + 0.5 * np.log(u_weights)[:, None])
    log_sr = logsumexp(log_r_fold[:, :, None] + log_r_fold[:, None, :], axis=0)

    d_clock = phase_deltas(k, state.two_j + 3)
    d_plane = phase_deltas(n, int(max(n)) + 3)

    cross = np.outer(c, np.conj(c)) * np.exp(log_sc + log_sr) * d_clock * d_plane
    return float(np.sum(cross).real)
