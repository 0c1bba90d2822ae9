"""Local state classifiers for finite presheaf topoi, normalization
operators, internal filters with their hyperconnected-quotient comonads, and
the instantiation over free monoids as a regular-language workbench.
"""

from .errors import (
    AlphabetMismatch,
    AssociativityViolation,
    BudgetExceeded,
    ElementNotInCarrier,
    FilterViolation,
    IdentityViolation,
    IllTypedComposite,
    InputFormatError,
    MissingTop,
    NotACongruenceOfSubgroupForm,
    NotASubgroup,
    NotMeetClosed,
    NotParallel,
    NotSubpresheaf,
    NotUpwardClosed,
    ObjectMismatch,
    RegexSyntaxError,
    SiteMismatch,
    SymbolOutsideAlphabet,
    ToposError,
    UnknownObject,
    UnknownState,
)
from .certificates import Certificate, CheckResult
from .fincat import (
    DEFAULT_BUDGET,
    FiniteCategory,
    Presheaf,
    PresheafMorphism,
    RepCongruence,
    coproduct,
    enumerate_morphisms,
    enumerate_quotient_objects,
    equalizer,
    image_quotient,
    product,
    quotient_of_representable,
    representable,
    terminal,
    yoneda_morphism,
)
from .lsc import LocalStateClassifier, build_lsc, verify_meet_compatibility, xi_component
from .normalize import (
    FiniteGroup,
    Subgroup,
    check_normalization_inflationary,
    congruence_to_subgroup,
    generated_subgroup,
    is_dedekind,
    monoid_site,
    normalization_is_top,
    normalization_operator,
    normalization_table,
    normalizer_direct,
    subgroup_to_congruence,
    subgroups,
)
from .filters import (
    InternalFilter,
    certify_quotient_classifier,
    comonad_apply,
    filter_generated_by,
    full_filter,
    top_filter,
    validate_filter,
)
from .words import (
    Dfa,
    RightCongruence,
    TransitionMonoid,
    congruence_action,
    congruence_leq,
    congruence_meet,
    find_pointed_isomorphism,
    minimize,
    nerode_congruence,
    orbit_meet_check,
    parse_regex,
    random_min_dfa,
    regex_member,
    regex_to_min_dfa,
    residual_count_by_words,
    residual_count_dfa,
    state_classes,
    state_congruence,
    syntactically_equivalent_bruteforce,
    top_congruence,
    transition_monoid,
    words_normalization_operator,
    words_upto,
)
from . import fixtures

__version__ = "0.1.0"
