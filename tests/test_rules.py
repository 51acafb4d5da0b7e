import pytest
from hypothesis import given
from hypothesis import strategies as st

from udparse.decoder import decode_corpus
from udparse.rules import (DEFAULT_POLICY, DEFAULT_RULESET, FREE_POLICY,
                           NAIVE_RULESET, TAG_IDS, UPOS_TAGS,
                           Direction, DirectionPolicy, RuleSet, is_content,
                           is_nominal, parse_rules)

from helpers import make_sentence
from test_decoder import rule_sets


def side(policy, tag):
    return policy.sides[TAG_IDS[tag]]


def multiplicity(rules, head, dep):
    return rules.matrix[TAG_IDS[head], TAG_IDS[dep]]


def allowed_side(head, dependent, tag, policy):
    """The decoder's direction test: side times head-minus-dependent offset."""
    return side(policy, tag) * (head - dependent) >= 0

EXPECTED_DEFAULT_PAIRS = {
    ("ADJ", "ADV"),
    ("NOUN", "ADJ"), ("NOUN", "NOUN"), ("NOUN", "PROPN"),
    ("NOUN", "ADP"), ("NOUN", "DET"), ("NOUN", "NUM"),
    ("PROPN", "ADJ"), ("PROPN", "NOUN"), ("PROPN", "PROPN"),
    ("PROPN", "ADP"), ("PROPN", "DET"), ("PROPN", "NUM"),
    ("VERB", "ADV"), ("VERB", "AUX"), ("VERB", "NOUN"),
    ("VERB", "PROPN"), ("VERB", "PRON"), ("VERB", "SCONJ"),
}


class TestDelta:
    def test_verb_heads_noun(self):
        assert DEFAULT_RULESET.licenses("VERB", "NOUN")

    def test_noun_never_heads_verb(self):
        assert not DEFAULT_RULESET.licenses("NOUN", "VERB")

    def test_adj_never_heads_adj(self):
        assert not DEFAULT_RULESET.licenses("ADJ", "ADJ")

    def test_unknown_tag_is_never_licensed(self):
        assert not DEFAULT_RULESET.licenses("VERB", "BOGUS")
        assert not DEFAULT_RULESET.licenses("BOGUS", "NOUN")

    def test_default_table_is_exactly_the_documented_pairs(self):
        assert set(DEFAULT_RULESET.pairs) == EXPECTED_DEFAULT_PAIRS
        assert len(DEFAULT_RULESET.pairs) == len(EXPECTED_DEFAULT_PAIRS)

    def test_every_head_is_a_content_tag(self):
        assert all(is_content(head) for head, _ in DEFAULT_RULESET.pairs)

    def test_function_head_rejected(self):
        with pytest.raises(ValueError):
            RuleSet((("DET", "NOUN"),))

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            RuleSet((("VERB", "NOPE"),))

    def test_multiplicity_counts_repeats(self):
        rules = RuleSet((("VERB", "NOUN"), ("VERB", "NOUN")))
        assert multiplicity(rules, "VERB", "NOUN") == 2
        assert multiplicity(rules, "VERB", "ADJ") == 0
        assert rules.matrix.sum() == 2
        assert not rules.matrix.flags.writeable


class TestKappa:
    """The direction constraint (kappa), held per tag in DirectionPolicy.sides."""

    def test_det_requires_head_on_right(self):
        assert allowed_side(6, 4, "DET", DEFAULT_POLICY)
        assert not allowed_side(3, 4, "DET", DEFAULT_POLICY)

    def test_punct_requires_head_on_left(self):
        assert not allowed_side(7, 5, "PUNCT", DEFAULT_POLICY)
        assert allowed_side(2, 5, "PUNCT", DEFAULT_POLICY)

    def test_free_tag_accepts_both_sides(self):
        assert allowed_side(3, 9, "NOUN", DEFAULT_POLICY)
        assert allowed_side(12, 9, "NOUN", DEFAULT_POLICY)

    def test_virtual_root_always_valid(self):
        # The root is not subject to sides: whatever its tag, a one-word
        # sentence attaches to it.
        for tag in ("DET", "PUNCT", "NOUN", "SCONJ"):
            heads = decode_corpus([make_sentence([tag])], DEFAULT_RULESET, DEFAULT_POLICY)
            assert heads == [[0]]

    @given(head=st.integers(1, 40), dep=st.integers(1, 40),
           tag=st.sampled_from(sorted(UPOS_TAGS)))
    def test_left_and_right_never_both_accept(self, head, dep, tag):
        if head == dep:
            return
        right = DirectionPolicy({tag: Direction.RIGHT})
        left = DirectionPolicy({tag: Direction.LEFT})
        assert allowed_side(head, dep, tag, right) != allowed_side(head, dep, tag, left)

    def test_default_policy_directions(self):
        for tag in ("AUX", "DET", "SCONJ"):
            assert side(DEFAULT_POLICY, tag) == 1
        for tag in ("CONJ", "PUNCT"):
            assert side(DEFAULT_POLICY, tag) == -1
        for tag in ("NOUN", "VERB", "ADP", "PRON", "X"):
            assert side(DEFAULT_POLICY, tag) == 0

    def test_with_direction_does_not_mutate(self):
        updated = DEFAULT_POLICY.with_direction("ADP", Direction.LEFT)
        assert side(updated, "ADP") == -1
        assert side(DEFAULT_POLICY, "ADP") == 0
        assert DEFAULT_POLICY.directions.get("ADP") is None


class TestTagClasses:
    def test_content_tags(self):
        assert is_content("VERB")
        assert is_content("CONTENT")
        assert not is_content("PRON")
        assert not is_content("FUNCTION")

    def test_nominal_tags(self):
        assert is_nominal("PRON")
        assert is_nominal("PROPN")
        assert not is_nominal("ADJ")


class TestNaiveTables:
    def test_naive_ruleset_pairs(self):
        assert set(NAIVE_RULESET.pairs) == {("CONTENT", "CONTENT"),
                                            ("CONTENT", "FUNCTION")}

    def test_naive_policy_is_all_free(self):
        assert not FREE_POLICY.sides.any()


class TestRuleFile:
    def test_pairs_directions_and_comments(self):
        text = """\
# custom tables
VERB NOUN
NOUN DET   # trailing comment
DIR DET RIGHT
DIR PUNCT left

VERB NOUN
"""
        rules, policy = parse_rules(text)
        assert multiplicity(rules, "VERB", "NOUN") == 2
        assert rules.licenses("NOUN", "DET")
        assert (side(policy, "DET"), side(policy, "PUNCT"), side(policy, "SCONJ")) == (1, -1, 0)

    def test_unknown_tag_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_rules("VERB NOUN\nVERB BOGUS\n")

    def test_malformed_direction_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_rules("DIR DET SIDEWAYS\n")

    def test_malformed_pair_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_rules("VERB NOUN ADJ\n")

    def test_function_head_names_line(self):
        with pytest.raises(ValueError, match="line 2.*content"):
            parse_rules("VERB NOUN\nDET NOUN\n")


# Every refusal of a rule file: its line, and the reason that ``RuleSet`` or
# ``DirectionPolicy`` gives for the same entry when built directly.
@pytest.mark.parametrize("text, line, reason, build", [
    ("VERB NOUN\nVERB BOGUS\n", 2, "unknown tag in rule pair (VERB, BOGUS)",
     lambda: RuleSet((("VERB", "BOGUS"),))),
    ("VERB NOUN\nDET NOUN\n", 2, "rule head must be a content tag, got DET",
     lambda: RuleSet((("DET", "NOUN"),))),
    ("# tables\n\nDIR BOGUS LEFT\n", 3, "unknown tag in direction policy: BOGUS",
     lambda: DirectionPolicy({"BOGUS": Direction.LEFT})),
    ("DIR DET SIDEWAYS\n", 1, "expected 'DIR TAG LEFT|RIGHT|FREE'", None),
    ("DIR DET\n", 1, "expected 'DIR TAG LEFT|RIGHT|FREE'", None),
    ("DIR DET LEFT RIGHT\n", 1, "expected 'DIR TAG LEFT|RIGHT|FREE'", None),
    ("VERB NOUN\nVERB\n", 2, "expected 'HEAD DEP' or 'DIR TAG DIRECTION'", None),
    ("VERB NOUN ADJ\n", 1, "expected 'HEAD DEP' or 'DIR TAG DIRECTION'", None),
], ids=["unknown-pair-tag", "function-head", "unknown-dir-tag", "bad-side", "dir-two-fields",
        "dir-four-fields", "one-field", "three-fields"])
def test_rule_file_refusals_name_the_line_and_the_reason(text, line, reason, build):
    with pytest.raises(ValueError) as refused:
        parse_rules(text)
    assert str(refused.value) == f"rule file line {line}: {reason}"
    if build is not None:
        with pytest.raises(ValueError) as built:
            build()
        assert str(built.value) == reason


@given(rule_sets)
def test_derived_tables_are_the_matrix_read_once(ruleset):
    rows, masks = ruleset.licensing
    licensed = ruleset.matrix > 0
    # A dependent tag's licensing row holds the head tags that license it,
    # and one that no rule licenses has none; equal columns share a row.
    for dep, column in enumerate(licensed.T):
        assert (masks[rows[dep]] == column).all() if rows[dep] >= 0 else not column.any()
    assert len(masks) == len({column.tobytes() for column in licensed.T if column.any()})
    floats = ruleset.float_transpose
    assert floats.dtype == float and (floats == ruleset.matrix.T).all()
    for table in (rows, masks, floats):
        assert not table.flags.writeable
    assert ruleset.licensing is ruleset.licensing
    assert ruleset.float_transpose is floats


@pytest.mark.parametrize("separator", ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"])
def test_rule_file_lines_end_at_line_feeds_only(separator):
    # As in a CoNLL-U file: ``str.splitlines`` would also break at these.
    with pytest.raises(ValueError) as refused:
        parse_rules(f"NOUN NOUN{separator}# page\nDET BOGUS\n")
    assert str(refused.value) == "rule file line 2: unknown tag in rule pair (DET, BOGUS)"


def test_rule_file_byte_order_mark_is_skipped():
    rules, _ = parse_rules("\ufeffNOUN NOUN\n")
    assert rules.pairs == (("NOUN", "NOUN"),)
    with pytest.raises(ValueError, match="rule file line 1: unknown tag in rule pair "
                                         "\\(\ufeffNOUN, NOUN\\)"):
        parse_rules("\ufeff\ufeffNOUN NOUN\n")
