"""Late-stage Ostwald ripening: return radii, scaled size distributions and
recrystallized volume fractions for diffusion- and attachment-limited
coarsening, plus an N-particle mean-field simulator that cross-checks the
closed-form results."""

__version__ = "0.1.0"

from .errors import (
    BracketError,
    ConvergenceError,
    DataError,
    DomainError,
    IntegrationError,
    RipeningError,
    StateError,
)
from .numerics import Tolerance, find_root, integrate, solve_ode
from .regime import (
    ATTACHMENT_LIMITED,
    DIFFUSION_LIMITED,
    REGIMES,
    Regime,
    coarsening_slope,
    critical_radius,
    evolve_scaled,
    flow_time,
    get_regime,
    growth_rate_physical,
    growth_rate_scaled,
    return_invariant,
)
from .return_map import (
    ReturnPoint,
    initial_size_for_ratio,
    return_point_for_ratio,
    return_radius,
    return_radius_rate,
    return_size,
    return_time_ratio,
    solve_return_point,
)
from .distribution import SizeDistribution, density, size_distribution
from .recrystallization import (
    fraction_from_start_size,
    initial_growth_rate,
    new_volume_fraction,
)
from .ensemble import (
    Ensemble,
    LateStageComparison,
    LateStageResult,
    NewVolume,
    Snapshot,
    TimeSeries,
    empirical_return_radius,
    init_ensemble,
    measure_new_volume,
    simulate_late_stage,
    write_series_csv,
    write_snapshot_csv,
)

__all__ = [
    "__version__",
    # errors
    "RipeningError", "DomainError", "BracketError", "ConvergenceError",
    "IntegrationError", "StateError", "DataError",
    # numerics
    "Tolerance", "find_root", "integrate", "solve_ode",
    # regimes and growth laws
    "Regime", "DIFFUSION_LIMITED", "ATTACHMENT_LIMITED", "REGIMES",
    "get_regime", "growth_rate_scaled", "growth_rate_physical",
    "critical_radius", "coarsening_slope", "flow_time", "return_invariant",
    "evolve_scaled",
    # return map
    "ReturnPoint", "return_size", "return_time_ratio",
    "initial_size_for_ratio", "solve_return_point", "return_point_for_ratio",
    "return_radius", "return_radius_rate",
    # distribution
    "density", "SizeDistribution", "size_distribution",
    # recrystallization
    "new_volume_fraction", "fraction_from_start_size", "initial_growth_rate",
    # ensemble
    "Ensemble", "Snapshot", "TimeSeries", "NewVolume", "init_ensemble",
    "measure_new_volume", "empirical_return_radius", "LateStageComparison",
    "LateStageResult", "simulate_late_stage", "write_snapshot_csv",
    "write_series_csv",
]
