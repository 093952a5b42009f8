"""Numerical toolkit for predictor feedback under uncertain input delay.

The package represents the delayed input as a transport field on [0, 1],
marches the distributed state predictor through it, applies the
transformation w = uhat - kappa(phat) with its source kernels, and
certifies the resulting transport systems by finite-difference residual
convergence on closed-loop simulations.
"""

from .backstepping import forward_transform, inverse_transform
from .config import (apply_override, config_to_dict, load_config,
                     parse_config_text)
from .errors import (BlowUpError, ConfigError, DelaycompError,
                     FutureQueryError, GridMismatchError,
                     IllConditionedTransitionError, UsageError)
from .grid import GridProfile, HalfGridProfile, fd_x_wide, grid_nodes
from .history import ControlHistory, distributed_true_input
from .kernels import KernelSet, eval_all
from .plants import (Controller, DelayBounds, LyapunovCertificate,
                     PlantBundle, PlantModel, check_derivative_consistency,
                     check_lyapunov, make_cubic, make_double_integrator,
                     make_linear, make_plant)
from .predictor import (TransitionField, compute_predictor,
                        compute_transition_field, forcing_integral,
                        predictor_spatial_derivative)
from .residuals import (ResidualReport, convergence_study,
                        evaluate_snapshot_residuals)
from .schedules import DelaySchedule, make_schedule, relative_mismatch
from .simulate import (ScenarioConfig, SimulationResult, SystemSnapshot,
                       materialize_slice, run_ensemble, run_scenario,
                       snapshot_field, snapshot_kernels)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError", "ConfigError", "ControlHistory", "Controller",
    "DelayBounds", "DelaySchedule", "DelaycompError", "FutureQueryError",
    "GridMismatchError", "GridProfile", "HalfGridProfile",
    "IllConditionedTransitionError", "KernelSet", "LyapunovCertificate",
    "PlantBundle", "PlantModel", "ResidualReport", "ScenarioConfig",
    "SimulationResult", "SystemSnapshot", "TransitionField", "UsageError",
    "apply_override", "check_derivative_consistency", "check_lyapunov",
    "compute_predictor", "compute_transition_field", "config_to_dict",
    "convergence_study", "distributed_true_input", "eval_all", "evaluate_snapshot_residuals",
    "fd_x_wide", "forcing_integral", "forward_transform", "grid_nodes",
    "inverse_transform", "load_config", "make_cubic",
    "make_double_integrator", "make_linear",
    "make_plant", "make_schedule", "materialize_slice", "parse_config_text",
    "predictor_spatial_derivative", "relative_mismatch", "run_ensemble",
    "run_scenario",
    "snapshot_field", "snapshot_kernels",
]
