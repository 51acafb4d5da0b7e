import itertools
import random
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udparse import ranker
from udparse.cli import parse_corpus
from udparse.conllu import DependencyTree, validate_tree
from udparse.decoder import decode_corpus
from udparse.ranker import rule_counts
from udparse.rules import (DEFAULT_POLICY, DEFAULT_RULESET, NAIVE_RULESET,
                           FREE_POLICY, UPOS_TAGS, Direction, is_content)

from helpers import EXAMPLE_HEADS, example_sentence, make_sentence, orders_of, tag_ids
from oracles import closest_first_heads, rule_edges

ADP_RIGHT = DEFAULT_POLICY.with_direction("ADP", Direction.RIGHT)
ADP_LEFT = DEFAULT_POLICY.with_direction("ADP", Direction.LEFT)
ALL_TAGS = sorted(UPOS_TAGS)


def decode_one(sentence, policy=ADP_RIGHT, mode="udp", ruleset=DEFAULT_RULESET):
    """One sentence's tree, decoded as a stack of one."""
    heads = decode_corpus([sentence], ruleset, policy, mode)
    return DependencyTree(dict(enumerate(heads.tolist(), start=1)))


def decode_tags(tags, policy=ADP_RIGHT, mode="udp", forms=None):
    sentence = make_sentence(tags, forms)
    return decode_one(sentence, policy, mode), sentence


class TestAttach:
    """Head choice for single words, read off whole-sentence decodes."""

    def test_det_skips_left_heads_and_takes_closest_right(self):
        # DET 4 may take any content word; 3 lies on its forbidden left side.
        tree = decode_one(example_sentence())
        assert tree.heads[4] == 6

    def test_closest_licensed_head_wins(self):
        # NOUN 9 ranks third, after 3 and 6; both license it, 6 is closer.
        assert orders_of(example_sentence())[0][:3] == (3, 6, 9)
        assert decode_one(example_sentence()).heads[9] == 6

    def test_lone_punct_reaches_root_through_backoff(self):
        tree, _ = decode_tags(["PUNCT"], DEFAULT_POLICY)
        assert tree.heads == {1: 0}

    def test_direction_only_level_used_when_rules_fail(self):
        # Nothing licenses NOUN heading AUX, so the rule level comes up
        # empty and the direction level picks the rightward noun, although
        # the leftward one is closer.
        tree, _ = decode_tags(["NOUN", "AUX", "PUNCT", "NOUN"], DEFAULT_POLICY)
        assert tree.heads[2] == 4

    def test_distance_tie_goes_leftward(self):
        # Both nouns license the free NUM between them at distance 1.
        tree, _ = decode_tags(["NOUN", "NUM", "NOUN"], DEFAULT_POLICY)
        assert tree.heads[2] == 1


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
            content_order = orders_of(sentence)[0]
            tree = decode_one(sentence)
            order = {index: position for position, index in enumerate(content_order)}
            for position, index in enumerate(content_order):
                head = tree.heads[index]
                assert head == 0 or order[head] < position

    def test_naive_tags_decode_with_naive_tables(self):
        sentence = make_sentence(["FUNCTION", "CONTENT", "CONTENT", "FUNCTION"])
        tree = decode_one(sentence, FREE_POLICY, ruleset=NAIVE_RULESET)
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
        # The final DET keeps its closest head although the root is token 1.
        tree, _ = decode_tags(["VERB", "NOUN", "DET"])
        assert tree.heads == {1: 0, 2: 1, 3: 2}

    def test_initial_punct_is_untouched(self):
        tree, _ = decode_tags(["PUNCT", "NOUN"])
        assert tree.heads == {1: 2, 2: 0}

    def test_lone_punct_does_not_self_attach(self):
        for mode in ("udp", "udp-nopr"):
            tree, _ = decode_tags(["PUNCT"], mode=mode)
            assert tree.heads == {1: 0}

    def test_heuristic_applies_to_last_token_only_over_all_tag_pairs(self):
        # Exhaustive over two tags followed by PUNCT or CONJ.  Neither final
        # tag takes part in any rule and both attach leftward, so the two
        # sentences rank and decode alike except for the heuristic, which
        # may only move the final PUNCT, and only to the root's dependent.
        for first, second in itertools.product(ALL_TAGS, repeat=2):
            punct, sentence = decode_tags([first, second, "PUNCT"])
            conj, _ = decode_tags([first, second, "CONJ"])
            assert validate_tree(sentence, punct) == []
            assert punct.heads[1] == conj.heads[1] and punct.heads[2] == conj.heads[2]
            roots = [d for d, h in punct.heads.items() if h == 0]
            assert len(roots) == 1 and roots[0] != 3
            assert punct.heads[3] == roots[0]


@given(st.lists(st.sampled_from(ALL_TAGS), min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_reading_order_decode_always_yields_valid_trees(tags):
    sentence = make_sentence(tags)
    for policy in (ADP_RIGHT, ADP_LEFT, DEFAULT_POLICY):
        tree = decode_one(sentence, policy, "udp-nopr")
        assert validate_tree(sentence, tree) == []


# The decoder against the sequential closest-first decode it replaced, on
# the dense oracle's ranking: every policy shape and both rule tables, in
# both modes.
ORACLE_SETTINGS = (
    (DEFAULT_RULESET, ADP_RIGHT, False),
    (DEFAULT_RULESET, ADP_LEFT, False),
    (DEFAULT_RULESET, FREE_POLICY, False),
    (NAIVE_RULESET, FREE_POLICY, True),
)


@given(st.lists(st.sampled_from(ALL_TAGS), min_size=1, max_size=40))
@example(tags=(ALL_TAGS * 3)[:40])
@example(tags=["PUNCT", "AUX", "DET"])
@settings(derandomize=True, max_examples=300, deadline=None)
def test_decode_matches_sequential_oracle(tags):
    for ruleset, policy, naive in ORACLE_SETTINGS:
        used = ["CONTENT" if is_content(tag) else "FUNCTION" for tag in tags] if naive else tags
        sentence = make_sentence(used)
        edges = np.zeros((len(used), len(used)), dtype=int)
        for dependent, head in rule_edges(used, ruleset.pairs):
            edges[dependent - 1, head - 1] += 1
        assert (rule_counts(tag_ids([sentence]), ruleset)[0] == edges).all()
        directions = {tag: side.value for tag, side in policy.directions.items()}
        for mode in ("udp", "udp-nopr"):
            heads = decode_corpus([sentence], ruleset, policy, mode)
            expected = closest_first_heads(used, *orders_of(sentence, ruleset, mode),
                                           ruleset.pairs, directions)
            assert tuple(heads.tolist()) == expected, (used, policy, mode)


# parse_corpus ranks and decodes a stack of equal-length sentences at a
# time; per sentence its heads must be the sequential decode of the dense
# oracle's one-sentence ranking.  Corpora mix repeated and interleaved
# lengths.  With a cap of 32 stacked elements, 4-token sentences go two to a
# stack, 3-token ones three, and from 5 tokens on one, so stack boundaries
# and the restore of input order are crossed too.
SMALL_STACKS = 32
CORPUS_SETTINGS = (
    (DEFAULT_RULESET, ADP_RIGHT, "right", False),
    (DEFAULT_RULESET, ADP_LEFT, "left", False),
    (NAIVE_RULESET, FREE_POLICY, "right", True),
)


@given(st.lists(st.lists(st.sampled_from(ALL_TAGS), min_size=1, max_size=8),
                min_size=1, max_size=16))
@example(corpus=[["PUNCT"], ["NOUN", "VERB", "PUNCT"], ["DET", "PUNCT"], ["VERB"],
                 ["ADP", "AUX", "DET"], ["PROPN", "ADP", "NOUN", "PUNCT"], ["PUNCT"],
                 ["DET", "NOUN", "VERB", "PUNCT"], ["ADJ", "NOUN", "NOUN"],
                 ["NOUN", "ADP", "PROPN", "PUNCT"], ["SCONJ", "PRON", "VERB", "ADV"],
                 ["CONJ", "PART", "SYM", "INTJ", "NUM", "X"], ["NOUN", "NOUN", "NOUN", "NOUN"],
                 ["DET", "PUNCT"], ["ADV", "ADJ", "NOUN", "VERB", "PUNCT"]])
@settings(derandomize=True, max_examples=120, deadline=None)
def test_parse_corpus_matches_sequential_oracle_per_sentence(corpus):
    for ruleset, policy, adp_direction, naive in CORPUS_SETTINGS:
        used = [["CONTENT" if is_content(tag) else "FUNCTION" for tag in tags]
                for tags in corpus] if naive else corpus
        sentences = [make_sentence(tags) for tags in used]
        directions = {tag: side.value for tag, side in policy.directions.items()}
        for mode in ("udp", "udp-nopr"):
            expected = []
            for tags, sentence in zip(used, sentences):
                expected.append(closest_first_heads(
                    tags, *orders_of(sentence, ruleset, mode), ruleset.pairs, directions))
            for cap in (ranker._STACK_ELEMENTS, SMALL_STACKS):
                with mock.patch.object(ranker, "_STACK_ELEMENTS", cap):
                    parsed = parse_corpus(sentences, mode=mode, adp_direction=adp_direction,
                                          ruleset=ruleset, policy=policy)
                got = list(map(tuple, parsed.per_sentence(parsed.predicted)))
                assert got == expected, (used, policy, mode, cap)
