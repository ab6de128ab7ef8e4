"""Idempotent weak 2-cocycles on finite groups: the radical filtration of
their crossed product algebras, generator words, chain and quotient
cocycles, annihilator-class and maximal-word decompositions, subadditive
realizations, and a brute-force census oracle."""

from .algebra import (
    AlgebraContext,
    DescendingChain,
    MonomialIdeal,
    chain_levels,
    classify_annihilators,
    ideal_closure,
    ideal_lattice_op,
    nk_partition,
    principal_ideal,
    radical_powers,
)
from .census import (
    CensusConfig,
    CensusRecord,
    CensusStream,
    census_records,
    descending_multichains,
    enumerate_cocycles,
    enumerate_ideals,
)
from .cocycles import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    BinaryTable,
    Cocycle,
    CocycleViolation,
    as_cocycle,
    compare,
    inertial_group,
    pointwise_product,
    validate_cocycle,
    vee,
    waterhouse,
)
from .decomposition import (
    DecompositionPart,
    DecompositionReport,
    IDENTITY_NAMES,
    IdentityCheck,
    MorphismReport,
    UniqueClassVerdict,
    check_identity,
    cocycle_from_chain,
    cocycle_mod_ideal,
    decompose_by_bstar,
    decompose_by_classes,
    morphism_check,
    unique_class_ideal,
)
from .errors import (
    ForgeError,
    InternalInvariantError,
    ParseError,
    PreconditionError,
    ValidationError,
)
from .files import (
    emit_census,
    emit_chain,
    emit_cocycle,
    emit_decomposition,
    emit_group,
    emit_rmap,
    parse_artifacts,
    parse_chain,
    parse_cocycle,
    parse_group,
    parse_rmap,
    resolve_group,
)
from .generators import (
    GeneratorSet,
    Word,
    all_generators,
    bstar,
    element_graph_edges,
    generator_cover_edges,
    graphs_dot,
    ideal_of_word,
    is_ordered_part,
    n1_set,
    principal_via_generators,
    word_label,
)
from .groups import (
    Group,
    Subgroup,
    double_cosets,
    group_from_table,
    make_cyclic,
    make_dihedral,
    subgroup,
)
from .semilinear import (
    AdditiveNaturals,
    ExhaustionCertificate,
    LexProduct,
    OrderedMonoid,
    PaddedLift,
    RViolation,
    SemilinearMap,
    as_semilinear,
    chain_lift,
    cocycle_from_r,
    padded_lift,
    random_semilinear,
    search_realization,
    validate_r,
)
from .sweep import (
    CensusReport,
    CocycleCheckResult,
    MutationOutcome,
    PropertyFailure,
    check_cocycle_properties,
    mutation_report,
    property_suite,
)

__version__ = "0.1.0"
