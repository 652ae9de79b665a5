"""Exact Hopf-algebraic renormalization of rough-volatility symbols plus a
numerical harness for the corrected Wong-Zakai approximation."""

__version__ = "0.1.0"

from .errors import ConfigError, DomainError, ParseError
from .trees import (
    EMPTY_FOREST,
    EdgeType,
    FormalSum,
    Forest,
    INTEGRATION,
    LEAF,
    Tree,
    branch,
    forest_of,
    forest_product,
    format_forest,
    format_symbol,
    format_tree,
    noise,
    parse_symbol,
    subforest_extractions,
    tree_product,
)
from .structure import (
    StructureSpec,
    enumerate_basis,
    generic_spec,
    positive_basis,
    project_minus,
    project_plus,
    required_power,
    rough_vol_spec,
)
from .coalgebra import delta_minus, delta_minus_ex, delta_plus_ex, twisted_antipode
from .gaussian import (
    CovarianceSpec,
    SymbolicCovariance,
    g_antipode,
    g_minus,
    isserlis_moment,
    mc_moment_oracle,
)
from .model import (
    SamplePath,
    bphz_expansion,
    check_bphz_plain,
    check_gamma_bphz,
    check_model_axioms,
    eval_pi,
    eval_pi_bphz,
    gamma_direct,
    gamma_via_coproduct,
)
from .roughsim import (
    KernelSpec,
    MollifierSpec,
    SimConfig,
    TestFunction,
    brownian_increments,
    c_eps,
    c_eps_timedep,
    fbm_rl,
    model_bound_probe,
    mollify,
    stationary_hat_process,
    wz_experiment,
)
