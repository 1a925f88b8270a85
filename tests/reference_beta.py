"""Full-tensor beta double integral kept as a test oracle.

This is the original implementation of
``pawclock.classical.beta_double_integral``: it folds every branch pair
(m, m') through the sphere and radial quadratures (Gauss-Laguerre in
u = M|alpha|^2) and multiplies by uniform azimuthal sums that evaluate the
phase integrals.  ``phase_deltas`` is lifted out of the function body, where
it was a nested helper, so that tests can check it against the identity.
The production code keeps only the diagonal; see tests/test_beta_reference.py.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, logsumexp, roots_laguerre, xlogy

from pawclock.coherent import scs_log_magnitude, sphere_quadrature
from pawclock.pawstate import PawState


def phase_deltas(indices: np.ndarray, count: int) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(count) / count
    spacing = indices[:, None] - indices[None, :]
    return np.mean(np.exp(-1j * spacing[:, :, None] * angles), axis=-1)


def beta_double_integral(state: PawState, theta_order: int | None = None,
                         radial_order: int | None = None) -> float:
    """Quadrature of |beta|^2 over both coherent-state measures; 1 for any state.

    The 4D integral factorizes over the quadrature grid: Gauss-Legendre in
    cos(theta) and Gauss-Laguerre in u = M|alpha|^2 handle the magnitudes
    (folded into the summands in log space), while uniform azimuthal sums of
    K > max spacing points evaluate the phase integrals exactly.
    """
    k = np.array(state.support, dtype=float)
    n = np.array(state.n_values, dtype=float)
    c = state.amplitudes

    thetas, w_sphere = sphere_quadrature(state.two_j, theta_order)
    log_c_fold = (scs_log_magnitude(thetas[:, None], state.two_j, k[None, :])
                  + 0.5 * np.log(w_sphere)[:, None])
    log_sc = logsumexp(log_c_fold[:, :, None] + log_c_fold[:, None, :], axis=0)

    if radial_order is None:
        radial_order = int(max(n)) + 40
    u_nodes, u_weights = roots_laguerre(radial_order)
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
