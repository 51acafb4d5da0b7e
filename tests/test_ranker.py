import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udparse import ranker
from udparse.cli import parse_corpus
from udparse.conllu import as_corpus
from udparse.decoder import decode_corpus
from udparse.ranker import (_walk_scores, check_walk, class_scores, content_ranks,
                            main_predicates, ranking_keys)
from udparse.rules import (DEFAULT_POLICY, DEFAULT_RULESET, FREE_POLICY, NAIVE_RULESET,
                           TAG_IDS, RuleSet, UPOS_TAGS, Direction, is_content)

from helpers import (EXAMPLE_CONTENT_ORDER, EXAMPLE_FUNCTION_ORDER,
                     EXAMPLE_IN_DEGREES, EXAMPLE_TAGS, example_sentence,
                     make_sentence, orders_of, rank_orders, tag_ids)
from oracles import (closest_first_heads, content_ranking, estimate_main_predicate,
                     lexsort_content_ranks, power_iteration, rule_counts, rule_edges,
                     teleport_vectors, token_walk_scores)

# Stationary scores for the example sentence, frozen from the dense
# power-iteration reference (cross-checked against a direct linear solve,
# agreement ~5e-12).
EXAMPLE_SCORES = (
    0.03282666932375, 0.03282666932375, 0.39657547495609,
    0.03282666932375, 0.04841933725414, 0.19543592058550,
    0.03282666932375, 0.03282666932375, 0.19543592058550,
)

ALL_TAGS = sorted(UPOS_TAGS)


def counts_of(sentence, ruleset=DEFAULT_RULESET):
    """The ``[dependent, head]`` edge counts of one sentence."""
    return rule_counts(tag_ids([sentence]), ruleset)[0]


def scores_of(sentence, personalization, ruleset=DEFAULT_RULESET, teleport=0.05):
    """Walk scores of one sentence under the given teleport vector."""
    p = np.array([personalization], dtype=float)
    return _walk_scores(counts_of(sentence, ruleset)[None], p, teleport)[0].tolist()


def ranks_of(sentence, mode="udp", ruleset=DEFAULT_RULESET, **options):
    """One sentence's row of ``content_ranks``, on its ``ranking_keys`` in
    ``udp`` mode and on all-zero keys in ``udp-nopr``, as ``decode_corpus``
    ranks it, checked against the dense oracle's order."""
    corpus = as_corpus([sentence])
    predicates = main_predicates(corpus.tags, corpus.offsets)
    keys = (ranking_keys(corpus.tags, corpus.offsets, predicates, ruleset, **options)
            if mode == "udp" else np.zeros(len(corpus.tags)))
    ranks = content_ranks(corpus.tags, corpus.offsets, predicates, keys).tolist()
    assert rank_orders(sentence, ranks) == orders_of(
        sentence, ruleset, mode, options.get("teleport", 0.05),
        options.get("predicate_weight", 5.0))
    return ranks


def class_scores_of(sentences, ruleset=DEFAULT_RULESET, **options):
    """Every token's class-walk score, flat over the sentences."""
    corpus = as_corpus(sentences)
    classes, scores = class_scores(
        corpus.tags, corpus.offsets, main_predicates(corpus.tags, corpus.offsets),
        ruleset, **options)
    return scores[classes]


def teleport_of(tags, weight=5.0):
    """Per-token teleport mass of the class walk: with no rules every node
    dangles, and the walk stays on its teleport vector."""
    return class_scores_of([make_sentence(tags)], RuleSet(()),
                           predicate_weight=weight).tolist()


def predicate_vector(sentence):
    predicate = estimate_main_predicate([t.upos for t in sentence]) - 1
    return teleport_vectors(np.array([predicate]), len(sentence), 5.0)[0]


class TestBuildGraph:
    def test_example_in_degrees(self):
        assert tuple(counts_of(example_sentence()).sum(axis=0)) == EXAMPLE_IN_DEGREES

    def test_single_token_graph_has_no_edges(self):
        counts = counts_of(make_sentence(["NOUN"]))
        assert counts.shape == (1, 1)
        assert not counts.any()

    def test_two_nouns_head_each_other(self):
        counts = counts_of(make_sentence(["NOUN", "NOUN"]))
        assert counts.tolist() == [[0, 1], [1, 0]]

    def test_function_words_have_in_degree_zero(self):
        sentence = make_sentence(["DET", "ADP", "NOUN", "VERB", "PUNCT", "AUX"])
        in_degrees = counts_of(sentence).sum(axis=0)
        for token in sentence:
            if token.upos in ("DET", "ADP", "PUNCT", "AUX"):
                assert in_degrees[token.index - 1] == 0

    def test_rule_multiplicity_duplicates_edges(self):
        doubled = RuleSet((("VERB", "NOUN"), ("VERB", "NOUN")))
        counts = counts_of(make_sentence(["NOUN", "VERB"]), doubled)
        assert counts.tolist() == [[0, 2], [0, 0]]

    def test_parallel_edges_weight_the_walk(self):
        # With VERB<-NOUN doubled, a noun splits its mass 2/3 toward the
        # verb and 1/3 toward the other noun; scores must shift accordingly
        # and still match the dense reference.
        single = RuleSet((("VERB", "NOUN"), ("NOUN", "NOUN")))
        doubled = RuleSet((("VERB", "NOUN"), ("VERB", "NOUN"), ("NOUN", "NOUN")))
        sentence = make_sentence(["NOUN", "NOUN", "VERB"])
        uniform = (1 / 3, 1 / 3, 1 / 3)
        scores = {}
        for name, rules in (("single", single), ("doubled", doubled)):
            got = scores_of(sentence, uniform, rules)
            reference = power_iteration(3, rule_edges(["NOUN", "NOUN", "VERB"], rules.pairs),
                                        uniform)
            assert max(abs(a - b) for a, b in zip(got, reference)) < 1e-10
            scores[name] = got
        assert scores["doubled"][2] > scores["single"][2]


def predicate_of(tags):
    """The package's 1-based main predicate of one sentence, checked
    against the oracle's."""
    corpus = as_corpus([make_sentence(tags)])
    predicate = int(main_predicates(corpus.tags, corpus.offsets)[0]) + 1
    assert predicate == estimate_main_predicate(tags)
    return predicate


class TestMainPredicate:
    def test_example_predicate_is_the_verb(self):
        assert predicate_of(EXAMPLE_TAGS) == 3

    def test_first_content_word_when_no_verb(self):
        assert predicate_of(["DET", "NOUN"]) == 2

    def test_first_token_when_no_content(self):
        assert predicate_of(["PUNCT", "PUNCT"]) == 1

    def test_first_of_several_verbs(self):
        assert predicate_of(["NOUN", "VERB", "VERB"]) == 2


class TestPersonalization:
    def test_example_weights(self):
        vector = teleport_of(EXAMPLE_TAGS)
        assert tuple(vector) == pytest.approx(tuple(w / 13 for w in (1, 1, 5, 1, 1, 1, 1, 1, 1)))

    def test_single_token(self):
        assert teleport_of(["NOUN"]) == pytest.approx([1.0])

    def test_three_tokens_predicate_middle(self):
        assert tuple(teleport_of(["NOUN", "VERB", "NOUN"])) == \
            pytest.approx((1 / 7, 5 / 7, 1 / 7))

    def test_weight_below_one(self):
        assert tuple(teleport_of(["NOUN", "VERB", "NOUN"], 0.5)) == \
            pytest.approx((0.4, 0.2, 0.4))

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("inf"), float("nan")])
    def test_weight_must_be_positive_and_finite(self, weight):
        with pytest.raises(ValueError, match="personalization weight"):
            check_walk(0.05, weight)
        for mode in ("udp", "udp-nopr", "baseline", "adjacency"):
            with pytest.raises(ValueError, match="personalization weight"):
                decode_corpus([make_sentence(["NOUN", "VERB", "DET"])], mode=mode,
                              predicate_weight=weight)


class TestPagerank:
    def test_uniform_scores_on_edgeless_graph(self):
        p = np.full((1, 4), 0.25)
        scores = _walk_scores(np.zeros((1, 4, 4), dtype=int), p, 0.05)
        assert scores[0].tolist() == pytest.approx((0.25,) * 4)

    def test_example_scores_match_reference(self):
        scores = scores_of(example_sentence(), predicate_vector(example_sentence()))
        for got, expected in zip(scores, EXAMPLE_SCORES):
            assert got == pytest.approx(expected, abs=1e-10)

    def test_example_scores_match_runtime_oracle(self):
        weights = [w / 13 for w in (1, 1, 5, 1, 1, 1, 1, 1, 1)]
        scores = scores_of(example_sentence(), weights)
        reference = power_iteration(9, rule_edges(EXAMPLE_TAGS, DEFAULT_RULESET.pairs), weights)
        assert max(abs(a - b) for a, b in zip(scores, reference)) < 1e-10

    def test_scores_sum_to_one(self):
        scores = scores_of(example_sentence(), predicate_vector(example_sentence()))
        assert sum(scores) == pytest.approx(1.0, abs=1e-9)
        assert all(s >= 0 for s in scores)

    def test_bad_teleport_rejected(self):
        for teleport in (0.0, 1.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="teleport"):
                check_walk(teleport, 5.0)
            for mode in ("udp", "udp-nopr", "baseline", "adjacency"):
                with pytest.raises(ValueError, match="teleport"):
                    decode_corpus([example_sentence()], mode=mode, teleport=teleport)

    def test_predicate_weight_boost_never_hurts_the_boosted_node(self):
        rng = random.Random(20240817)
        for _ in range(25):
            n = rng.randint(3, 12)
            sentence = make_sentence([rng.choice(ALL_TAGS) for _ in range(n)])
            base = scores_of(sentence, tuple(1 / n for _ in range(n)))
            node = rng.randrange(n)
            raw = [1.0] * n
            raw[node] = 3.0
            boosted = scores_of(sentence, tuple(w / sum(raw) for w in raw))
            assert boosted[node] >= base[node] - 1e-12


    def test_stacked_walks_match_one_at_a_time(self):
        # Each row of a stack is its own walk, with its own counts and its
        # own teleport vector, also in its dangling rows.
        rng = random.Random(77)
        sentences = [make_sentence([rng.choice(ALL_TAGS) for _ in range(6)])
                     for _ in range(5)]
        counts = rule_counts(tag_ids(sentences), DEFAULT_RULESET)
        p = teleport_vectors(np.arange(5), 6, 5.0)
        stacked = _walk_scores(counts, p, 0.05)
        for row, sentence in enumerate(sentences):
            alone = scores_of(sentence, p[row])
            assert max(abs(a - b) for a, b in zip(stacked[row], alone)) < 1e-12


class TestRank:
    def test_example_content_ranking(self):
        ranks = ranks_of(example_sentence())
        content, function, predicate = rank_orders(example_sentence(), ranks)
        assert content == EXAMPLE_CONTENT_ORDER
        assert function == EXAMPLE_FUNCTION_ORDER
        assert predicate == 3
        assert all(ranks[i - 1] == 9 for i in EXAMPLE_FUNCTION_ORDER)

    def test_symmetric_nouns_tie_to_sentence_order(self):
        # Tokens 6 and 9 occupy symmetric graph positions, so their scores
        # agree to well below the ranking quantum and position decides.
        scores = scores_of(example_sentence(), tuple(1 / 9 for _ in range(9)))
        assert abs(scores[5] - scores[8]) < 5e-9
        # In the class walk they share a class, so one score.
        lumped = class_scores_of([example_sentence()])
        assert lumped[5] == lumped[8]
        assert content_ranking((3, 5, 6, 9), scores).index(6) < \
            content_ranking((3, 5, 6, 9), scores).index(9)

    def test_reading_order_mode_ignores_scores(self):
        # The walk ranks the verb first; reading order puts it first too,
        # but the adjective 5 before the nouns, whatever the scores.
        ranks = ranks_of(example_sentence(), "udp-nopr")
        assert ranks == [9, 9, 0, 9, 1, 2, 9, 9, 3]
        assert rank_orders(example_sentence(), ranks)[:2] == \
            ((3, 5, 6, 9), EXAMPLE_FUNCTION_ORDER)

    def test_single_content_word(self):
        assert ranks_of(make_sentence(["NOUN"])) == [0]

    def test_ranking_matches_oracle_on_random_sentences(self):
        rng = random.Random(991)
        for _ in range(300):
            n = rng.randint(1, 15)
            tags = [rng.choice(ALL_TAGS) for _ in range(n)]
            sentence = make_sentence(tags)
            predicate = estimate_main_predicate(tags)
            weights = [(5.0 if i == predicate else 1.0) / (n + 4) for i in range(1, n + 1)]
            reference = power_iteration(n, rule_edges(tags, DEFAULT_RULESET.pairs), weights)
            scores = scores_of(sentence, weights)
            assert max(abs(a - b) for a, b in zip(scores, reference)) < 1e-10
            content = [t.index for t in sentence if t.upos in ("ADJ", "NOUN", "PROPN", "VERB")]
            ranks = ranks_of(sentence)
            assert rank_orders(sentence, ranks)[0] == content_ranking(content, reference)

    @given(st.lists(st.sampled_from(ALL_TAGS), min_size=1, max_size=10))
    @settings(deadline=None, max_examples=60)
    def test_content_and_function_partition_the_tokens(self, tags):
        sentence = make_sentence(tags)
        ranks = ranks_of(sentence)
        n = len(tags)
        content = [rank for tag, rank in zip(tags, ranks) if is_content(tag)]
        function = [rank for tag, rank in zip(tags, ranks) if not is_content(tag)]
        assert sorted(content) == list(range(len(content)))
        if content:
            assert function == [n] * len(function)
        else:
            assert sorted(function) == [0] + [n] * (n - 1)
        assert sum(scores_of(sentence, predicate_vector(sentence))) == \
            pytest.approx(1.0, abs=1e-9)


class TestClassWalk:
    def test_example_scores_match_reference(self):
        scores = class_scores_of([example_sentence()])
        for got, expected in zip(scores.tolist(), EXAMPLE_SCORES):
            assert got == pytest.approx(expected, abs=1e-10)

    def test_example_classes(self):
        # PRON ADV VERB DET ADJ NOUN ADP DET NOUN: seven distinct tags, the
        # verb is the predicate, so seven classes in tag id order (ADJ ADP
        # ADV DET NOUN PRON), the predicate's last.
        corpus = as_corpus([example_sentence()])
        classes, scores = class_scores(
            corpus.tags, corpus.offsets, main_predicates(corpus.tags, corpus.offsets),
            DEFAULT_RULESET)
        assert classes.tolist() == [5, 2, 6, 3, 0, 4, 1, 3, 4]
        assert len(scores) == 7

    def test_predicate_is_a_class_of_its_own(self):
        # Three verbs: the first is the predicate and keeps the weight; the
        # other two share a class and a score.
        scores = class_scores_of([make_sentence(["VERB", "NOUN", "VERB", "VERB"])])
        dense = token_walk_scores(tag_ids([make_sentence(["VERB", "NOUN", "VERB", "VERB"])]),
                                  DEFAULT_RULESET, [0])[0]
        assert max(abs(scores - dense)) < 1e-12
        assert scores[2] == scores[3] and scores[0] > scores[2]

    def test_sentences_of_one_stack_keep_their_lengths(self):
        # Both sentences have two classes, so they share a stack, but their
        # teleport masses divide by different lengths.
        sentences = [make_sentence(["VERB", "NOUN"]),
                     make_sentence(["VERB", "NOUN", "NOUN", "NOUN", "NOUN"])]
        scores = class_scores_of(sentences)
        assert max(abs(scores[:2] - token_walk_scores(tag_ids(sentences[:1]),
                                                      DEFAULT_RULESET, [0])[0])) < 1e-12
        assert max(abs(scores[2:] - token_walk_scores(tag_ids(sentences[1:]),
                                                      DEFAULT_RULESET, [0])[0])) < 1e-12

    def test_empty_corpus(self):
        empty = as_corpus([])
        predicates = main_predicates(empty.tags, empty.offsets)
        assert predicates.tolist() == []
        assert ranking_keys(empty.tags, empty.offsets, predicates, DEFAULT_RULESET).tolist() == []
        assert content_ranks(empty.tags, empty.offsets, predicates, np.zeros(0)).tolist() == []


# ``ranking_keys`` rounds in numpy and leaves to Python's round only the
# scores whose scaled fraction lies near one half; its keys must be
# ``-round(score, 8)`` bit for bit.  Besides scores drawn from (0, 1], the
# values are built at ``(k + 0.5 ± step) / 1e8``, on both sides of a half
# and on it, and include 1.0 and subnormals.
NEAR_HALF_STEPS = (0.0, 1e-12, 1e-9, 1e-7)
near_halves = st.builds(lambda k, step, sign: (k + 0.5 + sign * step) / 1e8,
                        st.integers(0, 10**8 - 1), st.sampled_from(NEAR_HALF_STEPS),
                        st.sampled_from((-1, 1)))
EDGE_SCORES = (1.0, 5e-324, 1e-310, 2.2250738585072014e-308)


@given(st.lists(st.one_of(st.floats(0.0, 1.0, exclude_min=True), near_halves,
                          st.sampled_from(EDGE_SCORES)), max_size=300))
@example([0.5e-8, 1.5e-8, 2.5e-8, 0.123456785, 0.999999995, *EDGE_SCORES])
@settings(derandomize=True, max_examples=300, deadline=None)
def test_rounding_matches_python_round(scores):
    got = -ranker._rounded(np.array(scores, dtype=float))
    expected = np.array([-round(score, 8) for score in scores], dtype=float)
    assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist(), scores


def test_ranking_keys_are_rounded_class_scores():
    # On a corpus of every tag in many mixes, the keys are the class
    # scores as Python rounds them, negated, and 0 for function words.
    rng = random.Random(13)
    sentences = [make_sentence([rng.choice(ALL_TAGS) for _ in range(rng.randint(1, 30))])
                 for _ in range(200)]
    corpus = as_corpus(sentences)
    predicates = main_predicates(corpus.tags, corpus.offsets)
    classes, scores = class_scores(corpus.tags, corpus.offsets, predicates, DEFAULT_RULESET)
    content = [is_content(token.upos) for sentence in sentences for token in sentence]
    expected = np.array([-round(score, 8) if is_content_word else 0.0
                         for score, is_content_word in zip(scores[classes].tolist(), content)])
    keys = ranking_keys(corpus.tags, corpus.offsets, predicates, DEFAULT_RULESET)
    assert keys.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


# ``content_ranks`` sorts the content words alone, by one integer of
# sentence and key, against the three-key sort of every token it replaced.
# Keys come from a pool of one to three rounded scores, so content words of
# different classes tie and interleave by position; all-zero keys are
# ``udp-nopr``'s; short sentences of drawn tags often have no content word.
@st.composite
def rank_cases(draw):
    sentences = draw(st.lists(st.lists(st.sampled_from(ALL_TAGS), min_size=1, max_size=12),
                              max_size=12))
    pool = draw(st.lists(st.integers(0, 10**8), min_size=1, max_size=3))
    units = draw(st.lists(st.sampled_from(pool), min_size=sum(map(len, sentences)),
                          max_size=sum(map(len, sentences))))
    return sentences, units if draw(st.booleans()) else [0] * len(units)


@given(rank_cases())
@example(([["NOUN", "VERB", "NOUN", "ADJ", "PROPN", "DET"], ["PUNCT", "DET"], ["ADJ"]],
          [7] * 9))
@example(([["DET", "NOUN", "ADP", "NOUN", "VERB"]], [5, 3, 0, 3, 5]))
@example(([["PUNCT"], ["AUX", "DET"]], [0, 0, 0]))
@example(([], []))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_content_ranks_match_lexsort_oracle(case):
    sentences, units = case
    tags = np.array([TAG_IDS[tag] for names in sentences for tag in names], dtype=np.intp)
    offsets = np.concatenate(([0], np.cumsum(list(map(len, sentences)), dtype=np.intp)))
    predicates = main_predicates(tags, offsets)
    keys = -(np.array(units, dtype=float) / 1e8)
    assert content_ranks(tags, offsets, predicates, keys).tolist() == \
        lexsort_content_ranks(tags, offsets, predicates, keys).tolist()


# The class walk against the token-level walk it replaced, and parse_corpus
# against the sequential decode of the dense oracle's ranking, over corpora
# whose sentences draw from tag pools of one to three tags (large classes)
# or from all tags, under the default, naive and a drawn rule table with
# repeated pairs, at drawn walk parameters.  With a cap of 32 stacked
# elements, class stacks hold 32, 8, 3 and 2 sentences of one to four
# classes and one from five on, so the class walk crosses stack
# boundaries.
SMALL_STACKS = 32
CONTENT_UPOS = [tag for tag in ALL_TAGS if is_content(tag)]


@st.composite
def walk_cases(draw):
    pool = draw(st.one_of(st.lists(st.sampled_from(ALL_TAGS), min_size=1, max_size=3,
                                   unique=True),
                          st.just(ALL_TAGS)))
    corpus = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=40),
                           min_size=1, max_size=16))
    pairs = draw(st.lists(st.tuples(st.sampled_from(CONTENT_UPOS), st.sampled_from(ALL_TAGS)),
                          max_size=30))
    repeated = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    teleport = draw(st.floats(0.01, 0.95))
    weight = draw(st.floats(0.05, 50.0))
    return corpus, RuleSet(tuple(pairs + repeated)), teleport, weight


ADP_RIGHT = DEFAULT_POLICY.with_direction("ADP", Direction.RIGHT)


@given(walk_cases())
@example(([["NOUN"] * 40, ["VERB", "NOUN", "VERB"], ["PUNCT", "PUNCT"], ["NOUN", "VERB"]],
          RuleSet((("VERB", "NOUN"), ("VERB", "NOUN"), ("NOUN", "NOUN"))), 0.05, 5.0))
@example(([ALL_TAGS * 2, ALL_TAGS[::-1]], DEFAULT_RULESET, 0.3, 2.0))
@settings(derandomize=True, max_examples=120, deadline=None)
def test_class_walk_matches_dense_walk(case):
    corpus, drawn, teleport, weight = case
    for ruleset, policy, naive in ((DEFAULT_RULESET, ADP_RIGHT, False),
                                   (NAIVE_RULESET, FREE_POLICY, True),
                                   (drawn, ADP_RIGHT, False)):
        used = [["CONTENT" if is_content(tag) else "FUNCTION" for tag in tags]
                for tags in corpus] if naive else corpus
        sentences = [make_sentence(tags) for tags in used]
        directions = {tag: side.value for tag, side in policy.directions.items()}
        dense, expected = [], []
        for tags, sentence in zip(used, sentences):
            predicate = estimate_main_predicate(tags)
            dense.extend(token_walk_scores(tag_ids([sentence]), ruleset, [predicate - 1],
                                           teleport, weight)[0].tolist())
            expected.append(closest_first_heads(
                tags, *orders_of(sentence, ruleset, "udp", teleport, weight),
                ruleset.pairs, directions))
        for cap in (ranker._STACK_ELEMENTS, SMALL_STACKS):
            with mock.patch.object(ranker, "_STACK_ELEMENTS", cap):
                scores = class_scores_of(sentences, ruleset, teleport=teleport,
                                         predicate_weight=weight)
                parsed = parse_corpus(sentences, adp_direction="right", teleport=teleport,
                                      personalization_weight=weight, ruleset=ruleset,
                                      policy=policy)
            assert max(abs(scores - dense)) < 1e-12, (used, ruleset, cap)
            got = list(map(tuple, parsed.per_sentence(parsed.predicted)))
            assert got == expected, (used, ruleset, cap)
