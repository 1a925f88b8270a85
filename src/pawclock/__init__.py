"""Page-Wootters magnetic-clock / harmonic-oscillator simulations.

A small toolkit for a finite-spin clock coupled to a harmonic oscillator
under an energy constraint: exact enumeration of the allowed level pairs,
coherent-state overlaps in log space, conditional (relational) states and
their emergent Schroedinger evolution, the classical limit of the clock and
oscillator, and the quasi-probability marginals that exhibit the two-ridge
interference pattern.

The names imported below are the public API, each named once.
"""

from .classical import (
    ClassicalConfig,
    EnergyTimeCoordinate,
    OrbitParams,
    SurvivingLevel,
    beta_amplitude,
    classical_orbit,
    energy_of_theta,
    energy_time_coordinate,
    hamilton_residual,
    orbit_table,
    stationary_residual,
    surviving_configurations,
    theta_of_energy,
    write_orbit_csv,
)
from .coherent import (
    LogAmplitude,
    SphereCoordinate,
    hcs_log_magnitude,
    ln_binomial,
    ln_factorial,
    scs_log_magnitude,
)
from .constraints import (
    ClockSpec,
    CouplingRatios,
    NoOddOverEvenForm,
    OscillatorSpec,
    PairFamily,
    ReducedRatio,
    brute_force_pairs,
    enumerate_pairs,
    reduce_ratio,
)
from .marginals import (
    DistributionGrid,
    EOutOfRange,
    GridAxis,
    InterferenceReport,
    classical_limit_section,
    clock_interference_factor,
    default_energy_axis,
    default_phase_space_axes,
    default_time_axis,
    energy_time_density,
    interference_suppression,
    marginal_energy_time,
    marginal_phase_space,
    marginal_space_time,
    oscillator_interference_factor,
    space_time_diagonal,
)
from .pawstate import (
    ConditionalState,
    DegenerateTheta,
    NotAdmissible,
    OrderStudy,
    PawState,
    UnsupportedIndex,
    ZeroState,
    assemble_state,
    balanced_two_level_state,
    build_state,
    chi_squared,
    chi_squared_integral,
    chi_squared_terms,
    conditional_state,
    default_dphi,
    dense_family_state,
    large_j_pair_state,
    log_chi_squared,
    paw_constraint_residual,
    schrodinger_order_study,
    schrodinger_residual,
    shift_fock_levels,
    spin3_pair_state,
    state_from_dict,
    state_to_dict,
)
from .table import write_table

__version__ = "0.1.0"
