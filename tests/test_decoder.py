import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udparse import ranker
from udparse.baselines import DependencyTree, validate_tree
from udparse.cli import parse_corpus
from udparse.conllu import as_corpus
from udparse.decoder import decode_corpus
from udparse.rules import (DEFAULT_POLICY, DEFAULT_RULESET, NAIVE_RULESET,
                           FREE_POLICY, UPOS_TAGS, Direction, RuleSet, is_content)

from helpers import EXAMPLE_HEADS, example_sentence, make_sentence, orders_of, tag_ids
from oracles import (adjacency_parse, baseline_parse, closest_first_heads, rule_counts,
                     rule_edges)

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

    def test_unknown_mode_rejected(self):
        # The decoder owns the parse modes; the ranker takes none.
        with pytest.raises(ValueError, match="unknown mode 'pagerank'"):
            decode_corpus([example_sentence()], mode="pagerank")


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
# the dense oracle's ranking: every policy shape, both rule tables and a
# drawn one (the empty one among them), in both modes; and both baselines
# against their per-sentence loops in both backoff directions.  The
# nearest-head search takes one lifting step per power of two of the
# longest sentence, so lengths at and around powers of two need every step,
# and a long run of function words sends a search all the way to a
# sentence edge.
EDGE_LENGTHS = (1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65, 255, 256, 257)
ORACLE_SETTINGS = (
    (DEFAULT_RULESET, (ADP_RIGHT, ADP_LEFT, FREE_POLICY), False),
    (NAIVE_RULESET, (FREE_POLICY,), True),
)
CONTENT_UPOS = [tag for tag in ALL_TAGS if is_content(tag)]
rule_sets = st.lists(st.tuples(st.sampled_from(CONTENT_UPOS), st.sampled_from(ALL_TAGS)),
                     max_size=30).map(lambda pairs: RuleSet(tuple(pairs)))


def edge_sentence(n, reverse=False):
    """n tags: every tag once, then function words that must look far for
    a head; reversed, the run of function words comes first."""
    tags = (ALL_TAGS + ["DET", "PUNCT", "AUX"] * n)[:n]
    return tags[::-1] if reverse else tags


# Every edge length once, in alternating orientation, and the other way round.
EDGE_SENTENCES = [edge_sentence(n, i % 2 == 1) for i, n in enumerate(EDGE_LENGTHS)]
OTHER_EDGE_SENTENCES = [edge_sentence(n, i % 2 == 0) for i, n in enumerate(EDGE_LENGTHS)]


def at_edge_lengths(**drawn):
    """An ``@example`` of each of ``EDGE_SENTENCES``."""
    def decorate(test):
        for tags in EDGE_SENTENCES:
            test = example(tags=tags, **drawn)(test)
        return test
    return decorate


@given(st.lists(st.sampled_from(ALL_TAGS), min_size=1, max_size=40), rule_sets)
@example(tags=(ALL_TAGS * 3)[:40], drawn=DEFAULT_RULESET)
@example(tags=["PUNCT", "AUX", "DET"], drawn=RuleSet(()))
@at_edge_lengths(drawn=RuleSet(()))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_decode_matches_sequential_oracle(tags, drawn):
    # Each sentence is converted to a corpus once, and every decode reads it.
    naive_tags = ["CONTENT" if is_content(tag) else "FUNCTION" for tag in tags]
    corpora = {naive: as_corpus([make_sentence(naive_tags if naive else tags)])
               for naive in (False, True)}
    for ruleset, policies, naive in ORACLE_SETTINGS + ((drawn, (ADP_LEFT,), False),):
        used = naive_tags if naive else tags
        sentence, corpus = make_sentence(used), corpora[naive]
        # The oracle walk's edge counts against a plain edge list, which is
        # slow enough in Python to keep to the drawn lengths.
        if len(used) <= 40:
            edges = np.zeros((len(used), len(used)), dtype=int)
            for dependent, head in rule_edges(used, ruleset.pairs):
                edges[dependent - 1, head - 1] += 1
            assert (rule_counts(tag_ids([sentence]), ruleset)[0] == edges).all()
        for policy in policies:
            directions = {tag: side.value for tag, side in policy.directions.items()}
            for mode in ("udp", "udp-nopr"):
                heads = decode_corpus(corpus, ruleset, policy, mode)
                expected = closest_first_heads(used, *orders_of(sentence, ruleset, mode),
                                               ruleset.pairs, directions)
                assert tuple(heads.tolist()) == expected, (used, policy, mode)
        for direction in (Direction.LEFT, Direction.RIGHT):
            heads = decode_corpus(corpus, ruleset, mode="baseline", backoff_direction=direction)
            expected = baseline_parse(used, ruleset.pairs, direction.value)
            assert tuple(heads.tolist()) == expected, (used, direction)
    for direction in (Direction.LEFT, Direction.RIGHT):
        heads = decode_corpus(corpora[False], mode="adjacency", backoff_direction=direction)
        assert tuple(heads.tolist()) == adjacency_parse(len(tags), direction.value), direction


# parse_corpus searches the whole corpus at once; per sentence its heads
# must be the sequential decode of the dense oracle's one-sentence ranking,
# so no search may cross into a neighboring sentence.  Corpora mix repeated
# and interleaved lengths, up to the edge lengths above.  The class walk
# solves a stack of sentences with equal class counts at a time; with a cap
# of 32 stacked elements, class stacks hold 32, 8, 3 and 2 sentences of one
# to four classes and one from five on, so stack boundaries and the
# restore of input order are crossed too.
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
@example(corpus=EDGE_SENTENCES)
@example(corpus=OTHER_EDGE_SENTENCES[::-1])
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


def test_decode_of_an_empty_corpus():
    for mode in ("udp", "udp-nopr", "baseline", "adjacency"):
        heads = decode_corpus(as_corpus([]), mode=mode)
        assert heads.dtype == np.intp and heads.tolist() == []


# Decoding memory grows as N log n: one 2,000-token sentence's (n, n) grid
# of int64 costs 30.5 MiB, its search table under 1 MiB.
@pytest.mark.parametrize("mode", ["udp", "udp-nopr", "baseline"])
def test_decode_memory_is_linear_in_sentence_length(mode):
    corpus = as_corpus([make_sentence((ALL_TAGS * 118)[:2000])])
    decode_corpus(corpus, mode=mode)
    tracemalloc.start()
    try:
        decode_corpus(corpus, mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20
