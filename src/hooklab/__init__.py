"""Exact verification of hook-length tree identities, plus the random
growth process whose step probabilities realize them."""

from types import ModuleType as _ModuleType

from .exact import PoleError, RationalFunction, binomial_poly
from .families import (
    BinaryFamily,
    BranchingOracle,
    ConstantBranching,
    DepthBranching,
    Family,
    FamilyConfigError,
    OracleSyntaxError,
    OrderedFamily,
    ProbabilityRangeError,
    TableBranching,
    TbarFamily,
    enum_binary,
    enum_ordered,
    enum_tbar,
    parse_oracle,
)
from .identities import (
    ConsistencyError,
    IdentityReport,
    SizeLimitError,
    brute_force_labelings,
    completion_census,
    completion_count,
    han2_lhs,
    han_lhs,
    hook_count,
    tbar_lhs,
    verify_han,
    verify_han2,
    verify_tbar,
    verify_yang,
    yang_lhs,
    yang_sum_at,
    yang_term,
)
from .sampler import (
    AddableSite,
    GrowthState,
    addable_sites,
    attach,
    enumerate_labelings,
    grow,
    lemma_check,
    shape_probability,
    start,
)
from .stats import (
    Census,
    CensusEntry,
    GofReport,
    category_masses,
    chi2_sf,
    chi_squared_gof,
    min_samples,
    regularized_gamma_q,
    run_census,
)
from .trees import (
    BinaryTree,
    LabeledTree,
    LabelingError,
    OrderedTree,
    SlottedTree,
    TreeParseError,
    addresses,
    check_labeling,
    completion,
    decode,
    hook_lengths,
)

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
