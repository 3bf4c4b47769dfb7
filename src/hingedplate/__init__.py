"""Obstacle problems and worst-case optimization for partially hinged plates."""

from .params import MaterialParams
from .series import (ObstacleSpec, ScanWindow, SeriesState,
                     analytic_bound_C, antisym_solution, aux_pair, envelope_g,
                     gap_threshold_M, green_value, phi_m, tail_estimate,
                     uniform_load_profile)
from .fem import (DofField, LoadSpec, Mesh, ReinforcementMask,
                  assemble_bilinear, assemble_load, energy, point_eval,
                  symmetry_decompose)
from .solver import (BoxConstraints, PlateOperator, VISolution, kkt_report,
                     solve_linear, solve_obstacle)
from .optimize import (ForceClass, GapProfile, ReinforcementFamily,
                       best_obstacle, best_reinforcement, classify_regime,
                       edge_gap_series_scan, gap_profile,
                       placement_bound_report, worst_force_amplitude,
                       worst_gap_force)

__version__ = "0.1.0"
