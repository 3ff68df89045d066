"""Lower bounds on centered maximal-operator L^p constants for radial measures.

The library evaluates, entirely in log space, the measure geometry of
off-center balls against radially decreasing densities, builds the
certified lower-bound constructions for the operator constant, reproduces
the four critical exponents by 1-D supremum search, and cross-checks
everything against a brute-force oracle at low dimension.

All public functions are pure; results are deterministic for a fixed
configuration (and seed, where sampling is involved).
"""

from .bounds import (BoundReport, gaussian_ball_sandwich, gaussian_construction,
                     gaussian_mass_concentration, gaussian_mode_radius,
                     gaussian_upper_bound, general_construction, log_t_exact,
                     radius_growth_report, solve_radius_equation,
                     unitball_case_analysis, unitball_construction)
from .densities import (Gaussian, RadialDensity, TabulatedDecreasing, UnitBallIndicator,
                        density_from_name)
from .errors import BracketError, NoBalancedRadiusError
from .geometry import intersect_with_centered_ball, off_center_ball_measure
from .logspace import LOG_ZERO
from .measures import log_ball_measure, log_mass, log_sphere_area, sphere_ratio_bounds
from .optimize import (SupremumResult, find_root, growth_base_log,
                       max_growth_base_log, maximize_scalar, p0_gaussian,
                       p0_general, p0_unitball, p1_gaussian)
from .oracle import (RadialProfile, log_constant_estimate, log_maximal_function_at,
                     maximal_profile, monte_carlo_ball_measure, verify_level_set_inclusion)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BracketError",
    "Gaussian",
    "LOG_ZERO",
    "NoBalancedRadiusError",
    "RadialDensity",
    "RadialProfile",
    "SupremumResult",
    "TabulatedDecreasing",
    "UnitBallIndicator",
    "density_from_name",
    "find_root",
    "gaussian_ball_sandwich",
    "gaussian_construction",
    "gaussian_mass_concentration",
    "gaussian_mode_radius",
    "gaussian_upper_bound",
    "general_construction",
    "growth_base_log",
    "intersect_with_centered_ball",
    "log_ball_measure",
    "log_constant_estimate",
    "log_mass",
    "log_maximal_function_at",
    "log_sphere_area",
    "log_t_exact",
    "max_growth_base_log",
    "maximal_profile",
    "maximize_scalar",
    "monte_carlo_ball_measure",
    "off_center_ball_measure",
    "p0_gaussian",
    "p0_general",
    "p0_unitball",
    "p1_gaussian",
    "radius_growth_report",
    "solve_radius_equation",
    "sphere_ratio_bounds",
    "unitball_case_analysis",
    "unitball_construction",
    "verify_level_set_inclusion",
]
