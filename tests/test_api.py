import hooklab


def test_public_names():
    # Adding or deleting a public name is an API change: edit this list with it.
    assert sorted(hooklab.__all__) == [
        "AddableSite", "BinaryFamily", "BinaryTree", "BranchingOracle", "Census",
        "CensusEntry", "ConsistencyError", "ConstantBranching", "DepthBranching",
        "Family", "FamilyConfigError", "GofReport", "GrowthState", "IdentityReport",
        "LabeledTree", "LabelingError", "OracleSyntaxError", "OrderedFamily",
        "OrderedTree", "PoleError", "ProbabilityRangeError", "RationalFunction",
        "SizeLimitError", "SlottedTree", "TableBranching", "TbarFamily",
        "TreeParseError", "addable_sites", "addresses", "attach", "binomial_poly",
        "brute_force_labelings", "category_masses", "check_labeling", "chi2_sf",
        "chi_squared_gof", "completion", "completion_census", "completion_count",
        "decode", "enum_binary", "enum_ordered", "enum_tbar", "enumerate_labelings",
        "grow", "han2_lhs", "han_lhs", "hook_count", "hook_lengths", "lemma_check",
        "min_samples", "parse_oracle", "regularized_gamma_q", "run_census",
        "shape_probability", "start", "tbar_lhs",
        "verify_han", "verify_han2", "verify_tbar", "verify_yang", "yang_lhs", "yang_sum_at",
        "yang_term",
    ]
