import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udparse.ranker import (SentenceGraph, build_graph,
                            estimate_main_predicate, pagerank,
                            personalization_vector, rank)
from udparse.rules import DEFAULT_RULESET, UPOS_TAGS

from helpers import (EXAMPLE_CONTENT_ORDER, EXAMPLE_FUNCTION_ORDER,
                     EXAMPLE_IN_DEGREES, example_sentence, make_sentence)
from oracles import content_ranking, power_iteration

# Stationary scores for the example sentence, frozen from the dense
# power-iteration reference (cross-checked against a direct linear solve,
# agreement ~5e-12).
EXAMPLE_SCORES = (
    0.03282666932375, 0.03282666932375, 0.39657547495609,
    0.03282666932375, 0.04841933725414, 0.19543592058550,
    0.03282666932375, 0.03282666932375, 0.19543592058550,
)

ALL_TAGS = sorted(UPOS_TAGS)


class TestBuildGraph:
    def test_example_in_degrees(self):
        graph = build_graph(example_sentence(), DEFAULT_RULESET)
        assert graph.in_degrees == EXAMPLE_IN_DEGREES

    def test_single_token_graph_has_no_edges(self):
        graph = build_graph(make_sentence(["NOUN"]), DEFAULT_RULESET)
        assert graph.size == 1
        assert graph.edges == ()

    def test_two_nouns_head_each_other(self):
        graph = build_graph(make_sentence(["NOUN", "NOUN"]), DEFAULT_RULESET)
        assert graph.in_degrees == (1, 1)
        assert set(graph.edges) == {(1, 2), (2, 1)}

    def test_function_words_have_in_degree_zero(self):
        sentence = make_sentence(["DET", "ADP", "NOUN", "VERB", "PUNCT", "AUX"])
        graph = build_graph(sentence, DEFAULT_RULESET)
        for token in sentence:
            if token.upos in ("DET", "ADP", "PUNCT", "AUX"):
                assert graph.in_degrees[token.index - 1] == 0

    def test_rule_multiplicity_duplicates_edges(self):
        from udparse.rules import RuleSet
        doubled = RuleSet((("VERB", "NOUN"), ("VERB", "NOUN")))
        graph = build_graph(make_sentence(["NOUN", "VERB"]), doubled)
        assert graph.edges == ((1, 2), (1, 2))

    def test_parallel_edges_weight_the_walk(self):
        # With VERB<-NOUN doubled, a noun splits its mass 2/3 toward the
        # verb and 1/3 toward the other noun; scores must shift accordingly
        # and still match the dense reference.
        from udparse.rules import RuleSet
        single = RuleSet((("VERB", "NOUN"), ("NOUN", "NOUN")))
        doubled = RuleSet((("VERB", "NOUN"), ("VERB", "NOUN"), ("NOUN", "NOUN")))
        sentence = make_sentence(["NOUN", "NOUN", "VERB"])
        uniform = (1 / 3, 1 / 3, 1 / 3)
        scores = {}
        for name, rules in (("single", single), ("doubled", doubled)):
            graph = build_graph(sentence, rules)
            got = pagerank(graph, uniform)
            reference = power_iteration(3, graph.edges, uniform)
            assert max(abs(a - b) for a, b in zip(got, reference)) < 1e-9
            scores[name] = got
        assert scores["doubled"][2] > scores["single"][2]


class TestMainPredicate:
    def test_example_predicate_is_the_verb(self):
        assert estimate_main_predicate(example_sentence()) == 3

    def test_first_content_word_when_no_verb(self):
        assert estimate_main_predicate(make_sentence(["DET", "NOUN"])) == 2

    def test_first_token_when_no_content(self):
        assert estimate_main_predicate(make_sentence(["PUNCT", "PUNCT"])) == 1

    def test_first_of_several_verbs(self):
        assert estimate_main_predicate(make_sentence(["NOUN", "VERB", "VERB"])) == 2


class TestPersonalization:
    def test_example_weights(self):
        vector = personalization_vector(example_sentence(), 3)
        assert vector == pytest.approx(tuple(w / 13 for w in (1, 1, 5, 1, 1, 1, 1, 1, 1)))

    def test_single_token(self):
        assert personalization_vector(make_sentence(["NOUN"]), 1) == (1.0,)

    def test_three_tokens_predicate_middle(self):
        vector = personalization_vector(make_sentence(["DET", "VERB", "NOUN"]), 2)
        assert vector == pytest.approx((1 / 7, 5 / 7, 1 / 7))

    def test_bad_predicate_index(self):
        with pytest.raises(ValueError):
            personalization_vector(make_sentence(["NOUN"]), 2)


class TestPagerank:
    def test_uniform_scores_on_edgeless_graph(self):
        graph = SentenceGraph(4, ())
        scores = pagerank(graph, (0.25,) * 4)
        assert scores == pytest.approx((0.25,) * 4)

    def test_example_scores_match_reference(self):
        graph = build_graph(example_sentence(), DEFAULT_RULESET)
        scores = pagerank(graph, personalization_vector(example_sentence(), 3))
        for got, expected in zip(scores, EXAMPLE_SCORES):
            assert got == pytest.approx(expected, abs=1e-8)

    def test_example_scores_match_runtime_oracle(self):
        graph = build_graph(example_sentence(), DEFAULT_RULESET)
        weights = personalization_vector(example_sentence(), 3)
        scores = pagerank(graph, weights)
        reference = power_iteration(9, graph.edges, weights)
        assert max(abs(a - b) for a, b in zip(scores, reference)) < 1e-8

    def test_scores_sum_to_one(self):
        graph = build_graph(example_sentence(), DEFAULT_RULESET)
        scores = pagerank(graph, personalization_vector(example_sentence(), 3))
        assert sum(scores) == pytest.approx(1.0, abs=1e-9)
        assert all(s >= 0 for s in scores)

    def test_unnormalized_personalization_rejected(self):
        graph = SentenceGraph(2, ())
        with pytest.raises(ValueError, match="sum"):
            pagerank(graph, (1.0, 1.0))

    def test_bad_teleport_rejected(self):
        graph = SentenceGraph(2, ())
        for teleport in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                pagerank(graph, (0.5, 0.5), teleport)

    def test_predicate_weight_boost_never_hurts_the_boosted_node(self):
        rng = random.Random(20240817)
        for _ in range(25):
            n = rng.randint(3, 12)
            tags = [rng.choice(ALL_TAGS) for _ in range(n)]
            graph = build_graph(make_sentence(tags), DEFAULT_RULESET)
            base = pagerank(graph, tuple(1 / n for _ in range(n)))
            node = rng.randrange(n)
            raw = [1.0] * n
            raw[node] = 3.0
            boosted = pagerank(graph, tuple(w / sum(raw) for w in raw))
            assert boosted[node] >= base[node] - 1e-12


class TestRank:
    def test_example_content_ranking(self):
        ranked = rank(example_sentence(), DEFAULT_RULESET)
        assert ranked.content_order == EXAMPLE_CONTENT_ORDER
        assert ranked.function_order == EXAMPLE_FUNCTION_ORDER
        assert ranked.predicate_index == 3

    def test_symmetric_nouns_tie_to_sentence_order(self):
        # Tokens 6 and 9 occupy symmetric graph positions, so their scores
        # agree to well below the ranking quantum and position decides.
        graph = build_graph(example_sentence(), DEFAULT_RULESET)
        scores = pagerank(graph, tuple(1 / 9 for _ in range(9)))
        assert abs(scores[5] - scores[8]) < 5e-9
        assert content_ranking((3, 5, 6, 9), scores).index(6) < \
            content_ranking((3, 5, 6, 9), scores).index(9)

    def test_reading_order_mode_ignores_scores(self):
        ranked = rank(example_sentence(), DEFAULT_RULESET, "udp-nopr")
        assert ranked.content_order == (3, 5, 6, 9)
        assert ranked.function_order == EXAMPLE_FUNCTION_ORDER
        assert ranked.scores is None

    def test_modes_without_ranking_rejected(self):
        for mode in ("baseline", "adjacency", "pagerank"):
            with pytest.raises(ValueError, match="ranking mode"):
                rank(example_sentence(), DEFAULT_RULESET, mode)

    def test_single_content_word(self):
        ranked = rank(make_sentence(["NOUN"]), DEFAULT_RULESET)
        assert ranked.content_order == (1,)
        assert ranked.function_order == ()

    def test_ranking_matches_oracle_on_random_sentences(self):
        rng = random.Random(991)
        for _ in range(300):
            n = rng.randint(1, 15)
            tags = [rng.choice(ALL_TAGS) for _ in range(n)]
            sentence = make_sentence(tags)
            ranked = rank(sentence, DEFAULT_RULESET)
            graph = build_graph(sentence, DEFAULT_RULESET)
            weights = personalization_vector(sentence, estimate_main_predicate(sentence))
            reference = power_iteration(n, graph.edges, weights)
            content = [t.index for t in sentence if t.upos in ("ADJ", "NOUN", "PROPN", "VERB")]
            assert ranked.content_order == content_ranking(content, reference)

    @given(st.lists(st.sampled_from(ALL_TAGS), min_size=1, max_size=10))
    @settings(deadline=None, max_examples=60)
    def test_content_and_function_partition_the_tokens(self, tags):
        ranked = rank(make_sentence(tags), DEFAULT_RULESET)
        combined = sorted(ranked.content_order + ranked.function_order)
        assert combined == list(range(1, len(tags) + 1))
        assert sum(ranked.scores) == pytest.approx(1.0, abs=1e-9)
