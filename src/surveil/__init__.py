"""Surveillance strategy synthesis on grid worlds.

Given a grid map, movement and vision rules, and a specification built
from always/infinitely-often surveillance and task predicates, either
synthesize a finite-memory agent controller by counterexample-guided
belief abstraction refinement, or report unrealizability with a concrete
counterexample.
"""

from .abstraction import (
    Partition,
    PartitionError,
    abstract_successors,
    build_abstract_game,
    build_belief_game,
    initial_partition,
    singletons,
)
from .belief import (
    BudgetExceeded,
    PredicateDef,
    PredicateError,
    belief_successors,
    check_observable,
    invisible_count,
    predicates_from_grid,
)
from .cegar import (
    CONCRETIZABLE,
    CegarOutcome,
    IterationBudgetExceeded,
    RefinementError,
    analyze_general,
    annotate_tree,
    build_analysis_graph,
    cegar_loop,
    find_good_lasso,
    refine_liveness,
    refine_safety,
    split_along,
)
from .grid import (
    GridWorld,
    MapError,
    MotionConfig,
    VisionConfig,
    build_game_structure,
    parse_config,
    parse_grid,
    reachable_moves,
)
from .objective import Objective, SpecError, SurvAtom, TaskAtom, parse_spec
from .simulate import (
    EvasivePolicy,
    GoalSeekingPolicy,
    RandomPolicy,
    SimulationError,
    StrategyRunner,
    export_strategy,
    load_runner,
    render_trace,
    simulate,
    trace_jsonl,
)
from .solver import (
    Arena,
    SolverError,
    SolveResult,
    StrategyData,
    extract_cex_graph,
    make_arena,
    solve,
)
from .structure import (
    SurveillanceGameStructure,
    reachable_states,
    validate_assumptions,
)

__version__ = "0.1.0"
