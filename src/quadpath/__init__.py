"""Predictive path-following control for a quadrotor, desk-scale simulation."""

from .controller import ControlDiagnostics, PathController
from .dynamics import (
    ModelParams,
    body_angular_velocity,
    dynamics,
    output_map,
    rk4_step,
    rotation_jacobian,
    rotation_matrix,
)
from .paths import (
    CorridorPath,
    Path,
    eval_lemniscate,
    eval_sinusoid,
    eval_spiral,
    make_path,
    path_error,
    wrap_angle,
)
from .simulate import (
    RunMetrics,
    ScenarioConfig,
    SimLog,
    compare_corridor,
    export_csv,
    load_config,
    run_scenario,
    scenario_config,
    sense,
    summarize_json,
)
from .solver import (
    DenseNlp,
    SolveResult,
    SolverSettings,
    solve,
    warm_start_shift,
)
from .transcription import (
    OcpConfig,
    OcpProblem,
    build_ocp,
)

__version__ = "0.1.0"
