"""Per-cell phase-space marginal kept as a test oracle.

This is the original implementation of
``pawclock.marginals.marginal_phase_space``: every occupied branch evaluates
the Fock density on every cell of the Q x P grid, with scipy's xlogy and the
package's log n! (``coherent.ln_factorial``).  The production code has two
routes.  Off a dense Fock ladder it evaluates each branch once per distinct
U = M(Q^2 + P^2)/2 in the same operation order, with the same log n! and the
bitwise xlogy replica in ``pawclock.coherent``, so the two agree bit for bit.  On a dense ladder, where it costs less, it takes a
Poisson convolution, which agrees with this sweep to a derived relative
bound; see tests/test_marginals.py.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import xlogy

from pawclock.coherent import ln_factorial
from pawclock.marginals import DistributionGrid, GridAxis, default_phase_space_axes
from pawclock.pawstate import PawState


def marginal_phase_space(state: PawState, q_axis: GridAxis | None = None,
                         p_axis: GridAxis | None = None) -> DistributionGrid:
    """Density (M/2pi) sum_m |c_m|^2 e^{-U} U^{n_m}/n_m!, U = M(Q^2+P^2)/2."""
    if q_axis is None or p_axis is None:
        default_q, default_p = default_phase_space_axes()
        q_axis = q_axis or default_q
        p_axis = p_axis or default_p
    big_q = q_axis.values[:, None]
    big_p = p_axis.values[None, :]
    u = 0.5 * state.mass * (big_q ** 2 + big_p ** 2)
    values = np.zeros_like(u)
    for weight, n in zip(np.abs(state.amplitudes) ** 2, state.n_values):
        values += weight * np.exp(xlogy(n, u) - u - ln_factorial(n))
    values *= state.mass / (2.0 * math.pi)
    return DistributionGrid(axes=(q_axis, p_axis), values=values,
                            measure="M/(2*pi) dQ dP")
