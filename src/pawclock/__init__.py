"""Page-Wootters magnetic-clock / harmonic-oscillator simulations.

A small toolkit for a finite-spin clock coupled to a harmonic oscillator
under an energy constraint: exact enumeration of the allowed level pairs,
coherent-state overlaps in log space, conditional (relational) states and
their emergent Schroedinger evolution, the classical limit of the clock and
oscillator, and the quasi-probability marginals that exhibit the two-ridge
interference pattern.

The names of ``_EXPORTS`` are the public API, each named once.  Each is
imported from its module on first use, so ``import pawclock`` loads no numpy
and ``python -m pawclock`` can set up the BLAS before numpy starts.
"""

import importlib

__version__ = "0.1.0"

# Module -> the public names it exports.
_EXPORTS = {
    "classical": (
        "EnergyTimeCoordinate", "SurvivingLevel", "beta_amplitude", "energy_of_theta",
        "energy_time_coordinate", "orbit_table", "stationary_residual",
        "surviving_configurations", "theta_of_energy", "write_orbit_csv",
    ),
    "coherent": (
        "LogAmplitude", "SphereCoordinate", "hcs_log_magnitude", "ln_binomial",
        "ln_factorial", "scs_log_magnitude",
    ),
    "constraints": (
        "ClockSpec", "CouplingRatios", "NoOddOverEvenForm", "OscillatorSpec",
        "PairFamily", "ReducedRatio", "brute_force_pairs", "enumerate_pairs",
        "reduce_ratio",
    ),
    "marginals": (
        "DistributionGrid", "EOutOfRange", "GridAxis", "InterferenceReport",
        "classical_limit_section", "clock_interference_factor", "default_energy_axis",
        "default_phase_space_axes", "default_time_axis", "energy_time_density",
        "interference_suppression", "marginal_energy_time", "marginal_phase_space",
        "marginal_space_time", "oscillator_interference_factor", "space_time_diagonal",
    ),
    "pawstate": (
        "ConditionalState", "DegenerateTheta", "NotAdmissible", "OrderStudy",
        "PawState", "UnsupportedIndex", "ZeroState", "assemble_state",
        "balanced_two_level_state", "build_state", "chi_squared",
        "chi_squared_integral", "chi_squared_terms", "conditional_state",
        "default_dphi", "dense_family_state", "large_j_pair_state", "log_chi_squared",
        "paw_constraint_residual", "schrodinger_order_study", "schrodinger_residual",
        "shift_fock_levels", "spin3_pair_state", "state_from_dict", "state_to_dict",
    ),
    "table": ("write_table",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """The exported ``name``, read from its module, which is imported on first use."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
