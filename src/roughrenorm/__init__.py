"""Exact Hopf-algebraic renormalization of rough-volatility symbols plus a
numerical harness for the corrected Wong-Zakai approximation."""

__version__ = "0.1.0"

# argparse, the command line's parser, loads with the package, so that a
# command's timed run does not pay for its import (about 2 ms, with gettext)
import argparse  # noqa: F401

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
    tree_product,
)
from .structure import (
    StructureSpec,
    enumerate_basis,
    generic_spec,
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

from . import coalgebra as _coalgebra, gaussian as _gaussian
from . import structure as _structure, trees as _trees


def _memo_tables():
    return {
        "coalgebra._EXTRACT_CACHE": _coalgebra._EXTRACT_CACHE,
        "coalgebra._REPAIRED_CACHE": _coalgebra._REPAIRED_CACHE,
        "coalgebra._ANTIPODE_CACHE": _coalgebra._ANTIPODE_CACHE,
        "gaussian._G_ANTIPODE_CACHE": _gaussian._G_ANTIPODE_CACHE,
        "gaussian._MOMENTS": _gaussian._MOMENTS,
        "structure._DEGREE_CACHE": _structure._DEGREE_CACHE,
        "trees._BRANCH_KEYS": _trees._BRANCH_KEYS,
    }


def cache_info():
    """Entry count of each of the package's process-wide memo tables.

    The seven tables hold the plain extraction tables (of every subtree,
    and of ``delta_minus(repair=False)``), the repaired ones (g∘A and the
    transport fill neither: they read the closed-form
    ``coalgebra.delta_minus_ex_even``), the sort keys of the trees'
    branches (one per distinct branch), the twisted antipodes and the
    renormalised expansions that g∘A and ``model.bphz_expansion`` read
    (``gaussian._G_ANTIPODE_CACHE``; both per tree and spec), the Gaussian
    moments as polynomials in the covariance entries (``gaussian._MOMENTS``,
    per monomial, read at every covariance) and the degrees (per spec and
    tree).  None is bounded: each grows with the distinct trees a process
    sees.  Tree and entry keys hold ``trees._BRANCH_KEYS`` entries;
    clearing it only makes later keys equal.

    The intern tables of ``EdgeType``, ``Tree`` and ``Forest`` (class
    attributes, one instance per distinct symbol built) are not memo
    tables and are not counted here.  Equal symbols are one object only
    because they are kept, so :func:`clear_caches` leaves them alone, and
    a symbol built before it is the same object as one built after it.
    They only grow, by one entry per distinct tree or forest a process
    builds.

    The tables are plain dicts with no lock.  Every entry is a pure
    function of its key, so threads sharing them under CPython get the
    same results: a race at worst computes an entry twice, and
    :func:`clear_caches` during a computation only makes later calls
    compute again.  The intern tables are filled with
    ``dict.setdefault``, so threads that build one symbol at once get one
    object.
    """
    return {name: len(table) for name, table in _memo_tables().items()}


def clear_caches():
    """Empty every table that :func:`cache_info` counts; symbols stay
    interned."""
    for table in _memo_tables().values():
        table.clear()
