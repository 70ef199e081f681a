"""Elliptic classes of labelled link patterns.

A computation and verification engine built from three layers: numerical
theta/delta evaluation in additive coordinates (``theta``), an exact
rational calculus of bundle types (``typecalc``), and typed expression
trees carrying the parameterised Demazure operators (``efun``).  On top
sit the link-pattern combinatorics (``linkpattern``), the identity
verification suites (``identities``), the flag-variety normalisations
(``schubert``), and a JSON-emitting command line (``cli``).
"""

from .theta import ModularParams, PoleProximity, delta, theta, theta_normalized
from .typecalc import (
    CrossTerm,
    LinearForm,
    NotACharacter,
    QForm,
    TrivialCharacter,
    VarSpace,
    admissible_mu,
    decompose_type,
    divided_difference,
    qf_of_delta,
    qf_of_theta,
)
from .linkpattern import (
    BadCharacterShape,
    BadRank,
    DistinctnessError,
    LinkPattern,
    PatternError,
    Presentation,
    act_nodes,
    minimal_pattern,
    minimal_presentation,
    multiplicities,
    nu_list,
    parse_pattern,
)
from .efun import (
    EFun,
    PointAssignment,
    delta_leaf,
    demazure,
    ell_class,
    ell_min,
    evaluate,
    inv_theta_leaf,
    theta_leaf,
)
from .identities import IdentityReport, check_flip, check_fourterm, check_monstrous
from .schubert import (
    NotPermutationPattern,
    NotWeightPattern,
    b_class,
    eu_ell_Fl,
    eu_ell_M,
    reduced_class,
    restrict_fixed_point,
    weight_function,
)

__version__ = "0.1.0"
