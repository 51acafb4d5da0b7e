import pytest
from hypothesis import given
from hypothesis import strategies as st

from udparse.rules import (DEFAULT_POLICY, DEFAULT_RULESET, FREE_POLICY,
                           NAIVE_RULESET, UPOS_TAGS, Direction,
                           DirectionPolicy, RuleSet, is_content,
                           is_nominal, kappa, parse_rules)

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
        assert rules.multiplicity("VERB", "NOUN") == 2
        assert rules.multiplicity("VERB", "ADJ") == 0


class TestKappa:
    def test_det_requires_head_on_right(self):
        assert kappa(6, 4, "DET", DEFAULT_POLICY)
        assert not kappa(3, 4, "DET", DEFAULT_POLICY)

    def test_punct_requires_head_on_left(self):
        assert not kappa(7, 5, "PUNCT", DEFAULT_POLICY)
        assert kappa(2, 5, "PUNCT", DEFAULT_POLICY)

    def test_free_tag_accepts_both_sides(self):
        assert kappa(3, 9, "NOUN", DEFAULT_POLICY)
        assert kappa(12, 9, "NOUN", DEFAULT_POLICY)

    def test_virtual_root_always_valid(self):
        for tag in ("DET", "PUNCT", "NOUN", "SCONJ"):
            assert kappa(0, 5, tag, DEFAULT_POLICY)

    @given(head=st.integers(1, 40), dep=st.integers(1, 40),
           tag=st.sampled_from(sorted(UPOS_TAGS)))
    def test_left_and_right_never_both_accept(self, head, dep, tag):
        if head == dep:
            return
        right = DirectionPolicy({tag: Direction.RIGHT})
        left = DirectionPolicy({tag: Direction.LEFT})
        assert kappa(head, dep, tag, right) != kappa(head, dep, tag, left)

    def test_default_policy_directions(self):
        for tag in ("AUX", "DET", "SCONJ"):
            assert DEFAULT_POLICY.direction_for(tag) is Direction.RIGHT
        for tag in ("CONJ", "PUNCT"):
            assert DEFAULT_POLICY.direction_for(tag) is Direction.LEFT
        for tag in ("NOUN", "VERB", "ADP", "PRON", "X"):
            assert DEFAULT_POLICY.direction_for(tag) is Direction.FREE

    def test_with_direction_does_not_mutate(self):
        updated = DEFAULT_POLICY.with_direction("ADP", Direction.LEFT)
        assert updated.direction_for("ADP") is Direction.LEFT
        assert DEFAULT_POLICY.direction_for("ADP") is Direction.FREE


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
        assert FREE_POLICY.direction_for("FUNCTION") is Direction.FREE
        assert FREE_POLICY.direction_for("CONTENT") is Direction.FREE


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
        assert rules.multiplicity("VERB", "NOUN") == 2
        assert rules.licenses("NOUN", "DET")
        assert policy.direction_for("DET") is Direction.RIGHT
        assert policy.direction_for("PUNCT") is Direction.LEFT
        assert policy.direction_for("SCONJ") is Direction.FREE

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
