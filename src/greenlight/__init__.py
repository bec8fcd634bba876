"""Point-queue traffic-signal simulation and learning-based control.

A 1 s discrete-time intersection world where exact waiting-time accounting
holds by construction, plus classic signal timing baselines, a
phase-selector deep Q-learning agent, demand generators, metrics with an
exact travel-time/queue identity, and a reproducible experiment harness.
"""

from .core import (
    Approach,
    ConfigError,
    IntersectionConfig,
    LaneId,
    Movement,
    NetworkConfig,
    PhaseDefinition,
    Vehicle,
    build_grid_network,
    build_standard_intersection,
    single_intersection_network,
)
from .sim import (
    CHANGE,
    KEEP,
    BaseController,
    ControlContext,
    EpisodeResult,
    IntersectionSim,
    LaneMeasures,
    Observation,
    SimulationError,
    StepOutcome,
    TravelLog,
    run_episode,
    write_trace_csv,
)
from .classic import (
    FixedTimeController,
    FlowEstimate,
    OversaturatedError,
    SotlController,
    WebsterController,
    WebsterParams,
    estimate_flows,
    fixed_time_decide,
    sotl_decide,
    webster_cycle_length,
    webster_phase_splits,
)
from .neural import (
    AdamState,
    DenseNet,
    GradCheckResult,
    Layer,
    ShapeError,
    TrainingError,
    adam_step,
    gradient_check,
    load_checkpoint,
    save_checkpoint,
)
from .agent import (
    AgentConfig,
    DQNAgent,
    QNetwork,
    ReplayMemory,
    RewardMode,
    StateMode,
    bellman_targets,
    compute_reward,
    encode_state,
    greedy_controller,
    select_action,
    train,
    training_controller,
)
from .demand import (
    ArrivalProcess,
    DemandSpec,
    RateWindow,
    generate_peaked,
    generate_uniform,
    load_demand_csv,
    save_demand_csv,
    straight_route,
)
from .metrics import (
    ConvergenceReport,
    EpisodeMetrics,
    censored_avg_travel_time,
    check_identity,
    compute_metrics,
    detect_convergence,
)
from .config import ExperimentConfig, load_config, parse_config
from .harness import run_experiment, run_sweep

__version__ = "0.1.0"
