import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udparse.conllu import DependencyTree, validate_tree
from udparse.decoder import apply_final_punct_heuristic, attach, decode
from udparse.ranker import rank
from udparse.rules import (DEFAULT_POLICY, DEFAULT_RULESET, NAIVE_RULESET,
                           FREE_POLICY, UPOS_TAGS, Direction)

from helpers import EXAMPLE_HEADS, example_sentence, make_sentence

ADP_RIGHT = DEFAULT_POLICY.with_direction("ADP", Direction.RIGHT)
ADP_LEFT = DEFAULT_POLICY.with_direction("ADP", Direction.LEFT)
ALL_TAGS = sorted(UPOS_TAGS)


def decode_tags(tags, policy=ADP_RIGHT, mode="udp", forms=None):
    sentence = make_sentence(tags, forms)
    return decode(rank(sentence, DEFAULT_RULESET, mode), DEFAULT_RULESET, policy), sentence


class TestAttach:
    def test_det_skips_left_heads_and_takes_closest_right(self):
        sentence = example_sentence()
        assert attach(sentence, 4, [3, 6, 9], DEFAULT_RULESET, ADP_RIGHT) == 6

    def test_closest_licensed_head_wins(self):
        sentence = example_sentence()
        assert attach(sentence, 9, [3, 6], DEFAULT_RULESET, ADP_RIGHT) == 6

    def test_lone_punct_reaches_root_through_backoff(self):
        sentence = make_sentence(["PUNCT"])
        assert attach(sentence, 1, [0], DEFAULT_RULESET, DEFAULT_POLICY) == 0

    def test_direction_only_level_used_when_rules_fail(self):
        # Nothing licenses NOUN heading AUX, so the rule level comes up
        # empty and the direction level picks the rightward candidate.
        sentence = make_sentence(["AUX", "PUNCT", "NOUN"])
        assert attach(sentence, 1, [3], DEFAULT_RULESET, DEFAULT_POLICY) == 3

    def test_distance_tie_goes_leftward(self):
        sentence = make_sentence(["NOUN", "NOUN", "NOUN"])
        assert attach(sentence, 2, [1, 3], DEFAULT_RULESET, DEFAULT_POLICY) == 1

    def test_empty_candidates_is_an_error(self):
        with pytest.raises(ValueError):
            attach(example_sentence(), 1, [], DEFAULT_RULESET, DEFAULT_POLICY)


class TestDecode:
    def test_example_sentence_golden_tree(self):
        tree, sentence = decode_tags(
            ["PRON", "ADV", "VERB", "DET", "ADJ", "NOUN", "ADP", "DET", "NOUN"])
        assert tuple(tree.heads[i] for i in range(1, 10)) == EXAMPLE_HEADS
        assert validate_tree(sentence, tree) == []

    def test_single_noun_heads_to_root(self):
        tree, _ = decode_tags(["NOUN"])
        assert tree.heads == {1: 0}

    def test_word_forms_do_not_matter(self):
        tags = ["PRON", "ADV", "VERB", "DET", "ADJ", "NOUN", "ADP", "DET", "NOUN"]
        tree_a, _ = decode_tags(tags, forms=tuple(f"alpha{i}" for i in range(9)))
        tree_b, _ = decode_tags(tags, forms=tuple(f"beta{i}" for i in range(9)))
        assert tree_a == tree_b
        assert tuple(tree_a.heads[i] for i in range(1, 10)) == EXAMPLE_HEADS

    def test_adp_direction_controls_adposition_attachment(self):
        tags = ["PRON", "ADV", "VERB", "DET", "ADJ", "NOUN", "ADP", "DET", "NOUN"]
        right, _ = decode_tags(tags, ADP_RIGHT)
        left, _ = decode_tags(tags, ADP_LEFT)
        assert right.heads[7] == 9
        assert left.heads[7] == 6
        assert {i: right.heads[i] for i in right.heads if i != 7} == \
            {i: left.heads[i] for i in left.heads if i != 7}

    def test_all_function_sentence_seeds_the_first_token(self):
        for tags in (["PUNCT", "PUNCT"], ["DET", "PUNCT"], ["PUNCT", "DET"],
                     ["ADP", "AUX", "DET"]):
            tree, sentence = decode_tags(tags)
            assert tree.heads[1] == 0
            assert all(tree.heads[i] != 0 for i in range(2, len(tags) + 1))
            assert validate_tree(sentence, tree) == []

    def test_lone_punct_sentence(self):
        tree, sentence = decode_tags(["PUNCT"])
        assert tree.heads == {1: 0}
        assert validate_tree(sentence, tree) == []

    def test_content_heads_respect_ranking(self):
        rng = random.Random(5150)
        for _ in range(200):
            tags = [rng.choice(ALL_TAGS) for _ in range(rng.randint(1, 14))]
            sentence = make_sentence(tags)
            ranked = rank(sentence, DEFAULT_RULESET)
            tree = decode(ranked, DEFAULT_RULESET, ADP_RIGHT)
            order = {index: position for position, index in enumerate(ranked.content_order)}
            for position, index in enumerate(ranked.content_order):
                head = tree.heads[index]
                assert head == 0 or order[head] < position

    def test_naive_tags_decode_with_naive_tables(self):
        sentence = make_sentence(["FUNCTION", "CONTENT", "CONTENT", "FUNCTION"])
        tree = decode(rank(sentence, NAIVE_RULESET), NAIVE_RULESET, FREE_POLICY)
        assert validate_tree(sentence, tree) == []

    def test_known_non_projective_output_is_kept(self):
        tree, sentence = decode_tags(["ADV", "NOUN", "ADJ", "VERB"])
        assert tuple(tree.heads[i] for i in range(1, 5)) == (3, 4, 2, 0)
        arcs = [(min(d, h), max(d, h)) for d, h in tree.heads.items() if h != 0]
        crossing = any(a1 < a2 < b1 < b2
                       for a1, b1 in arcs for a2, b2 in arcs)
        assert crossing  # non-projective output survives decoding
        assert validate_tree(sentence, tree) == []


class TestFinalPunctHeuristic:
    def test_final_punct_moves_to_main_predicate(self):
        tree, _ = decode_tags(["NOUN", "VERB", "PUNCT"])
        assert tree.heads[3] == 2

    def test_no_change_when_last_token_not_punct(self):
        tree, _ = decode_tags(["NOUN", "VERB", "NOUN"])
        assert tree.heads[3] == 2  # normal attachment, not the heuristic
        before = DependencyTree({1: 2, 2: 0, 3: 2})
        after = apply_final_punct_heuristic(before, make_sentence(["NOUN", "VERB", "NOUN"]))
        assert after == before

    def test_initial_punct_is_untouched(self):
        tree, _ = decode_tags(["PUNCT", "NOUN"])
        assert tree.heads == {1: 2, 2: 0}

    def test_lone_punct_does_not_self_attach(self):
        tree = apply_final_punct_heuristic(DependencyTree({1: 0}), make_sentence(["PUNCT"]))
        assert tree.heads == {1: 0}

    def test_heuristic_applies_to_last_token_only_over_all_tag_pairs(self):
        # Exhaustive over two-token sentences: the heuristic can only ever
        # change the final token, and only when that token is PUNCT.
        for first, second in itertools.product(ALL_TAGS, repeat=2):
            sentence = make_sentence([first, second])
            ranked = rank(sentence, DEFAULT_RULESET)
            tree = decode(ranked, DEFAULT_RULESET, ADP_RIGHT)
            assert validate_tree(sentence, tree) == []
            undone = apply_final_punct_heuristic(tree, sentence)
            assert undone == tree  # idempotent
            if second != "PUNCT":
                continue
            roots = tree.root_dependents()
            assert tree.heads[2] == roots[0] or 2 == roots[0]


@given(st.lists(st.sampled_from(ALL_TAGS), min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_reading_order_decode_always_yields_valid_trees(tags):
    sentence = make_sentence(tags)
    ranked = rank(sentence, DEFAULT_RULESET, "udp-nopr")
    for policy in (ADP_RIGHT, ADP_LEFT, DEFAULT_POLICY):
        tree = decode(ranked, DEFAULT_RULESET, policy)
        assert validate_tree(sentence, tree) == []
