"""Blended Bernstein-type operator families on the interval, the unit
hypercube and the standard simplex: construction, evaluation, moment
identities, error-bound checks and shape-preservation experiments."""

__version__ = "0.1.0"

from .errors import ConfigError, KantorovError, NumericError
from .geometry import Domain, contains, quadrature_rule, uniform_grid
from .measures import (
    DiscreteMeasure,
    MeasureSeqSpec,
    MeasureSpec,
    constant_lebesgue,
    dirac,
    dirac_shift,
    discrete_measure,
    discrete_spec,
    explicit_list,
    lebesgue_measure,
    power_measure,
    power_of_base,
)
from .markov import markov_values, selection
from .bernstein import basis, basis_weights, eval_Bn, lattice_points
from .kantorovich import (
    AffineForm,
    OperatorConfig,
    cn_affine_moment,
    cn_bilinear_moment,
    cn_quadratic_moment,
    coordinate_form,
    eval_Cn,
    eval_Cn_cells,
    eval_In,
    measure_moments,
)
from .catalog import CatalogFunction, FunctionMeta, catalog_names, lookup
from .moduli import lipschitz_estimate, omega1, omega2, omega_kp, tau_p
from .analysis import (
    BOUND_IDS,
    BoundReport,
    ConvexityReport,
    ErrorRow,
    LipschitzReport,
    SandwichReport,
    check_bound,
    convergence_table,
    convexity_preservation,
    convexity_report,
    equibounded_constant,
    lambda_n,
    lambda_p_bound_value,
    lipschitz_preservation,
    loglog_slope,
    lp_error,
    lp_norm,
    sandwich_check,
    sup_error,
)

__all__ = [
    "__version__",
    "KantorovError", "ConfigError", "NumericError",
    "Domain", "contains", "quadrature_rule", "uniform_grid",
    "DiscreteMeasure", "MeasureSpec", "MeasureSeqSpec",
    "lebesgue_measure", "discrete_measure", "discrete_spec", "dirac", "power_measure",
    "constant_lebesgue", "dirac_shift", "power_of_base", "explicit_list",
    "markov_values", "selection",
    "basis", "basis_weights", "lattice_points", "eval_Bn",
    "AffineForm", "OperatorConfig", "coordinate_form",
    "eval_In", "eval_Cn", "eval_Cn_cells", "measure_moments",
    "cn_affine_moment", "cn_quadratic_moment", "cn_bilinear_moment",
    "CatalogFunction", "FunctionMeta", "catalog_names", "lookup",
    "omega1", "omega2", "tau_p", "omega_kp", "lipschitz_estimate",
    "BOUND_IDS", "BoundReport", "ErrorRow", "ConvexityReport", "SandwichReport",
    "LipschitzReport", "check_bound", "convergence_table", "convexity_preservation",
    "convexity_report", "equibounded_constant", "lambda_n", "lambda_p_bound_value",
    "lipschitz_preservation", "loglog_slope", "lp_error", "lp_norm",
    "sandwich_check", "sup_error",
]
