import random

import pytest

from udparse.baselines import (adjacency_parse, baseline_parse, forms_tree,
                               naive_pos_tag)
from udparse.cli import best_baseline_direction
from udparse.conllu import DependencyTree
from udparse.rules import DEFAULT_RULESET, UPOS_TAGS, Direction

from helpers import make_sentence
from oracles import top_frequency_forms

ALL_TAGS = sorted(UPOS_TAGS)


class TestBaselineParse:
    def test_det_noun_verb_by_hand(self):
        # Closest licensed heads: DET under the NOUN, NOUN under the VERB;
        # the VERB takes the root.
        sentence = make_sentence(["DET", "NOUN", "VERB"])
        result = baseline_parse(sentence, DEFAULT_RULESET)
        assert result.heads == {1: 2, 2: 3, 3: 0}
        assert forms_tree(sentence, result.heads)

    def test_single_uncovered_token_is_the_predicate(self):
        sentence = make_sentence(["X"])
        result = baseline_parse(sentence, DEFAULT_RULESET)
        assert result.heads == {1: 0}
        assert forms_tree(sentence, result.heads)

    def test_sym_attaches_to_right_neighbor(self):
        result = baseline_parse(make_sentence(["SYM", "NOUN"]), DEFAULT_RULESET,
                                Direction.RIGHT)
        assert result.heads == {1: 2, 2: 0}

    def test_backoff_clamps_at_sentence_edge(self):
        # Final X with right backoff has no right neighbor, so it clamps left.
        result = baseline_parse(make_sentence(["NOUN", "X"]), DEFAULT_RULESET,
                                Direction.RIGHT)
        assert result.heads == {1: 0, 2: 1}
        left = baseline_parse(make_sentence(["X", "NOUN"]), DEFAULT_RULESET,
                              Direction.LEFT)
        assert left.heads == {1: 2, 2: 0}

    def test_secondary_verb_falls_back_to_neighbor(self):
        # No rule lets anything head a VERB, so the non-predicate verb uses
        # the neighbor backoff.
        result = baseline_parse(make_sentence(["VERB", "VERB"]), DEFAULT_RULESET,
                                Direction.RIGHT)
        assert result.heads == {1: 0, 2: 1}

    def test_distance_tie_goes_leftward(self):
        result = baseline_parse(make_sentence(["NOUN", "ADJ", "NOUN", "VERB"]),
                                DEFAULT_RULESET)
        assert result.heads[2] == 1

    def test_cycles_possible_and_flag_truthful(self):
        sentence = make_sentence(["PUNCT", "PUNCT", "PUNCT"])
        result = baseline_parse(sentence, DEFAULT_RULESET, Direction.RIGHT)
        assert result.heads == {1: 0, 2: 3, 3: 2}
        assert not forms_tree(sentence, result.heads)

    def test_single_root_always(self):
        rng = random.Random(33)
        for _ in range(300):
            tags = [rng.choice(ALL_TAGS) for _ in range(rng.randint(1, 15))]
            sentence = make_sentence(tags)
            direction = rng.choice((Direction.LEFT, Direction.RIGHT))
            result = baseline_parse(sentence, DEFAULT_RULESET, direction)
            assert sorted(result.heads) == list(range(1, len(tags) + 1))
            assert sum(1 for h in result.heads.values() if h == 0) == 1
            assert isinstance(result, DependencyTree)

    def test_free_direction_rejected(self):
        with pytest.raises(ValueError):
            baseline_parse(make_sentence(["X", "X"]), DEFAULT_RULESET, Direction.FREE)


class TestAdjacencyParse:
    def test_right_chain(self):
        result = adjacency_parse(make_sentence(["NOUN", "VERB", "NOUN"]), Direction.RIGHT)
        assert [result.heads[i] for i in (1, 2, 3)] == [2, 3, 0]

    def test_left_chain(self):
        result = adjacency_parse(make_sentence(["NOUN", "VERB", "NOUN"]), Direction.LEFT)
        assert [result.heads[i] for i in (1, 2, 3)] == [0, 1, 2]

    def test_single_token(self):
        for direction in (Direction.LEFT, Direction.RIGHT):
            assert adjacency_parse(make_sentence(["X"]), direction).heads == {1: 0}

    def test_chains_are_always_well_formed(self):
        rng = random.Random(34)
        for _ in range(100):
            tags = [rng.choice(ALL_TAGS) for _ in range(rng.randint(1, 12))]
            for direction in (Direction.LEFT, Direction.RIGHT):
                sentence = make_sentence(tags)
                assert forms_tree(sentence, adjacency_parse(sentence, direction).heads)


class TestNaivePosTag:
    def test_most_frequent_form_becomes_function(self):
        corpus = [make_sentence(["DET", "NOUN"], forms=("the", f"noun{i}"))
                  for i in range(150)]
        retagged = naive_pos_tag(corpus)
        assert all(s.tokens[0].upos == "FUNCTION" for s in retagged)
        # 150 distinct noun forms compete for the other 99 slots.
        content = sum(1 for s in retagged if s.tokens[1].upos == "CONTENT")
        assert content == 51

    def test_small_vocabulary_goes_all_function(self):
        corpus = [make_sentence(["NOUN", "VERB"], forms=("a", "b"))]
        retagged = naive_pos_tag(corpus)
        assert [t.upos for t in retagged[0]] == ["FUNCTION", "FUNCTION"]

    def test_zipfian_corpus_matches_frequency_oracle(self):
        rng = random.Random(8)
        forms = []
        for rank_index in range(200):
            forms.extend([f"f{rank_index:03d}"] * max(1, 400 // (rank_index + 1)))
        rng.shuffle(forms)
        corpus = [make_sentence(["X"] * 10, forms=tuple(forms[i:i + 10]))
                  for i in range(0, 2000, 10) if i + 10 <= len(forms)]
        retagged = naive_pos_tag(corpus)
        expected_function = top_frequency_forms(
            [[t.form for t in s] for s in corpus])
        for sentence in retagged:
            for token in sentence:
                expected = "FUNCTION" if token.form in expected_function else "CONTENT"
                assert token.upos == expected

    def test_boundary_tie_is_lexicographic(self):
        # 101 forms, all with equal counts: the lexicographically largest
        # one is pushed out to CONTENT.
        forms = [f"w{i:03d}" for i in range(101)]
        corpus = [make_sentence(["X"], forms=(form,)) for form in forms]
        retagged = naive_pos_tag(corpus)
        tags = {s.tokens[0].form: s.tokens[0].upos for s in retagged}
        assert tags["w100"] == "CONTENT"
        assert all(tags[f"w{i:03d}"] == "FUNCTION" for i in range(100))

    def test_case_sensitive_counting(self):
        corpus = [make_sentence(["X", "X"], forms=("The", "the"))]
        retagged = naive_pos_tag(corpus)
        assert [t.upos for t in retagged[0]] == ["FUNCTION", "FUNCTION"]
        assert retagged[0].tokens[0].form == "The"

    def test_deterministic_and_preserves_other_fields(self):
        corpus = [make_sentence(["NOUN", "VERB"], forms=("x", "y"),
                                heads=(2, 0), meta={"genre": "g"})]
        once = naive_pos_tag(corpus)
        twice = naive_pos_tag(corpus)
        assert once == twice
        assert once[0].tokens[0].gold_head == 2
        assert once[0].meta == {"genre": "g"}


class TestOracleDirection:
    def test_picks_the_direction_with_higher_score(self):
        # Gold trees follow a left-neighbor chain for the uncovered tags,
        # so LEFT backoff scores higher.
        corpus = [make_sentence(["VERB", "X", "X"], heads=(0, 1, 2))
                  for _ in range(4)]
        direction, parsed, report = best_baseline_direction(corpus, ruleset=DEFAULT_RULESET)
        assert direction is Direction.LEFT
        assert report.uas == 1.0
        assert parsed[0].tokens[1].pred_head == 1

    def test_tie_prefers_right(self):
        corpus = [make_sentence(["VERB"], heads=(0,))]
        direction, _, report = best_baseline_direction(corpus, ruleset=DEFAULT_RULESET)
        assert direction is Direction.RIGHT
        assert report.uas == 1.0
