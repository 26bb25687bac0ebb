"""THz coverage planning with edge offloading.

Plans per-user job-offloading shares and carrier frequencies so that the
total distance over which terahertz links can still deliver their URLLC
targets is maximized, and validates its own closed forms against independent
oracles and Monte-Carlo simulation.
"""

from .channel import (
    DEFAULT_ATTENUATION_FIT,
    FREQ_MAX_GHZ,
    FREQ_MIN_GHZ,
    SPEED_OF_LIGHT,
    FrequencyGrid,
    GaussianFit,
    RadioParams,
    achievable_distance,
    attenuation_crossover,
    attenuation_derivative,
    data_rate,
    gaseous_attenuation,
    link_budget_db,
    path_loss,
    supermodularity_gap,
)
from .numerics import find_root, lambert_w, minimize_scalar
from .optimizer import (
    FEASIBLE,
    INFEASIBLE,
    UNCONSTRAINED,
    BruteForceResult,
    Plan,
    Scenario,
    UserPlan,
    apply_axis,
    assign_frequencies,
    brute_force_assignment,
    minimize_rate_threshold,
    plan,
)
from .presets import (
    reference_radio,
    reference_scenario,
    reference_task,
    single_user_scenario,
    strict_scenario,
)
from .reliability import (
    EdgeProfile,
    InfeasibleError,
    QosTarget,
    QueueRates,
    StabilityError,
    TaskProfile,
    UserProfile,
    edge_reliability,
    local_reliability,
    queue_rates,
    rate_threshold,
    rate_threshold_oracle,
    system_reliability,
)
from .scenario_io import ScenarioFormatError, load_scenario, scenario_from_dict
from .simulator import (
    ISOLATED,
    SHARED_EDGE,
    SimConfig,
    SimReport,
    SimUserReport,
    simulate_system,
    simulate_user,
)

__version__ = "0.1.0"
