"""Wave-front tracking for a two-phase (free/congested) traffic model."""

__version__ = "0.1.0"

from .model import (LinearFreeSpeed, ModelLaws, Phase, PowerPressure,
                    TrafficState, laws_from_config, validate_laws)
from .riemann import WaveKind, sigma
from .grid import GridMesh, solve_approx
from .engine import (FrontDiagram, FrontRecord, FunctionalLog,
                     PiecewiseConstantDatum, RunResult, approximate_datum,
                     random_mesh_datum, run)
from .analysis import (BumpTestFunction, EntropyReport, entropy_k_grid,
                       entropy_report, lwr_entropy_pair, rh_residual,
                       weak_residual)
from .scenario import (ExactEventTable, ExactSolution, TrafficLightConfig,
                       build_scenario, closed_form_table, last_passage_time)

__all__ = [
    "BumpTestFunction", "EntropyReport", "ExactEventTable", "ExactSolution",
    "FrontDiagram", "FrontRecord", "FunctionalLog", "GridMesh",
    "LinearFreeSpeed", "ModelLaws", "Phase", "PiecewiseConstantDatum",
    "PowerPressure", "RunResult", "TrafficLightConfig",
    "TrafficState", "WaveKind", "approximate_datum", "build_scenario",
    "closed_form_table", "entropy_k_grid", "entropy_report",
    "last_passage_time", "laws_from_config", "lwr_entropy_pair",
    "random_mesh_datum", "rh_residual", "run", "sigma", "solve_approx",
    "validate_laws", "weak_residual",
]
