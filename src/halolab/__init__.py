"""halolab: exact computation with halo products (lamplighter-like groups).

Element arithmetic, Cayley-ball enumeration, l^p isoperimetric profiles,
Folner functions, generator decompositions, lamplighter subgraphs, and
subgroup embeddings, for six families of halo products over finitely
generated bases.
"""

__version__ = "0.1.0"

from .errors import (
    HalolabError,
    ContractViolation,
    BudgetError,
    ParseError,
    UnsupportedFamilyError,
    UndecomposableError,
    NotInDomainError,
)
from .groups import (
    GroupHandle,
    ZdGroup,
    CyclicGroup,
    HeisenbergGroup,
    SymmetricGroup,
    ProductGroup,
    Ball,
    ball,
    word_length,
    make_group,
)
from .halo import (
    HaloGroup,
    make_halo,
    lamp_growth,
    enumerate_block,
    commutativity_constant,
)
from .decompose import (
    decompose_gluing,
    decompose_upcloner,
    certify_commutator_form,
    evaluate_word,
)
from .descriptor import parse_descriptor
from .bounds import (
    BoundExpr,
    bound_report,
    identity_bound,
    iterated_log,
    log_over_loglog,
    phi,
    phi_inverse,
    power,
)
from .lampgraph import (
    FiniteGraph,
    LamplighterGraph,
    SeparatedNet,
    YStarGraph,
    build_Ystar,
    check_iso_to_lamplighter,
    graph_isomorphism,
    greedy_net,
    lamplighter_graph,
)
from .embeddings import (
    CosetSystem,
    GroupMorphism,
    coset_system_mZ,
    lamplighter_in_halo,
    shuffler_endomorphism,
    wreath_in_shuffler,
)
from .isoperimetry import (
    FiniteFunction,
    SubsetWitness,
    ProfilePoint,
    boundary,
    gradient_ratio,
    profile_exact,
    profile_heuristic,
    folner_function,
    almost_invariant_lift,
    power_transform,
    product_boundary,
)
from .experiment import load_config, run_experiment
