"""Constrained particle swarm optimization engine and benchmark harness."""

from .benchmarks import (
    SuiteEntry,
    all_entries,
    estimate_feasibility_ratio,
    get_entry,
    get_problem,
    registry_names,
)
from .handlers import KINDS, ChtConfig
from .harness import (
    ExperimentConfig,
    RunResult,
    SummaryRow,
    run_experiment,
    sweep,
)
from .problem import (
    BatchEval,
    EvaluationFault,
    Problem,
    RecSchedule,
    Tolerances,
    evaluate_batch,
)
from .swarm import (
    COEFFICIENT_PRESETS,
    InitializationFailure,
    Swarm,
    SwarmConfig,
    Topology,
)

__version__ = "0.1.0"
