"""Exact combinatorial quasismoothness checker for monomial linear systems
on projective toric varieties, with weighted-projective, Delsarte and
polytope-duality specializations."""

from .delsarte import (
    AtomicType,
    AtomKind,
    DelsarteDecomposition,
    TransposeDual,
    classify_atomic,
    format_decomposition,
    quasismooth_transpose_invariance,
    transpose_dual,
    wps_check,
)
from .duality import (
    GoodPair,
    InducedSystem,
    dual_pair,
    duality_qs_report,
    good_pair_check,
    induced_system,
    quasismooth_implies_good,
)
from .linalg import (
    IntMatrix,
    SNFResult,
    affine_span_dim,
    rank_rational,
    smith_normal_form,
)
from .linsys import (
    BaseStratum,
    MonomialSystem,
    base_locus_strata,
    base_stratum,
    load_system,
    monomial_system,
    parse_monomials_text,
)
from .polytope import (
    LatticePolytope,
    RationalPolytope,
    hull,
    is_canonical,
    lattice_points,
    load_polytope,
    normal_fan,
    parse_polytope_text,
    polar_dual,
    rational_hull,
)
from .qscheck import (
    FailureReason,
    Method,
    QSVerdict,
    StratumFailure,
    StratumWitness,
    check_curve_on_surface,
    check_stratum_polytope,
    check_stratum_rank,
    check_surface_on_threefold,
    is_quasismooth,
    sufficient_screen,
)
from .toric import (
    Fan,
    Grading,
    ToricAmbient,
    class_group,
    irrelevant_components,
    is_complete,
    is_fake_wps,
    load_ambient,
    make_wps,
    parse_ambient_text,
    relevant_subsets,
    stratum_image_dim,
)

__version__ = "0.1.0"
