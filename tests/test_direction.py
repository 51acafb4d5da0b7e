import random

from hypothesis import given
from hypothesis import strategies as st

from udparse.direction import AdpDirectionEstimate, estimate_adp_direction
from udparse.rules import Direction

from helpers import make_sentence
from oracles import adjacent_bigram_counts


def test_adp_then_pronoun_counts_as_adp_nominal():
    estimate = estimate_adp_direction([make_sentence(["ADP", "PRON", "VERB"])])
    assert (estimate.adp_nominal_count, estimate.nominal_adp_count) == (1, 0)
    assert estimate.resolved is Direction.RIGHT


def test_noun_then_adp_counts_as_nominal_adp():
    estimate = estimate_adp_direction([make_sentence(["NOUN", "ADP", "VERB"])])
    assert (estimate.adp_nominal_count, estimate.nominal_adp_count) == (0, 1)
    assert estimate.resolved is Direction.LEFT


def test_det_is_not_nominal_for_counting():
    estimate = estimate_adp_direction([make_sentence(["ADP", "DET", "NOUN"])])
    assert (estimate.adp_nominal_count, estimate.nominal_adp_count) == (0, 0)


def test_twenty_sentence_corpus_with_hand_counted_split():
    # 12 prepositional and 5 postpositional adjacencies spread over 20
    # sentences; 3 sentences contribute no qualifying bigram at all.
    corpus = (
        [make_sentence(["VERB", "ADP", "NOUN"]) for _ in range(8)]          # 8 adp-nominal
        + [make_sentence(["ADP", "PROPN", "VERB", "ADP", "PRON"]) for _ in range(2)]  # +4
        + [make_sentence(["NOUN", "ADP", "DET", "VERB"]) for _ in range(5)]  # 5 nominal-adp
        + [make_sentence(["DET", "NOUN", "VERB"]) for _ in range(3)]
    )
    assert len(corpus) == 18
    corpus += [make_sentence(["VERB", "PUNCT"]) for _ in range(2)]
    estimate = estimate_adp_direction(corpus)
    assert (estimate.adp_nominal_count, estimate.nominal_adp_count) == (12, 5)
    assert estimate.resolved is Direction.RIGHT


def test_zero_adp_corpus_defaults_right():
    corpus = [make_sentence(["NOUN", "VERB"]), make_sentence(["DET", "NOUN"])]
    estimate = estimate_adp_direction(corpus)
    assert (estimate.adp_nominal_count, estimate.nominal_adp_count) == (0, 0)
    assert estimate.resolved is Direction.RIGHT


def test_zero_adp_corpus_still_parses_to_valid_trees():
    from udparse.cli import parse_corpus
    from udparse.baselines import DependencyTree, validate_tree
    corpus = [make_sentence(["DET", "NOUN", "VERB", "PUNCT"]),
              make_sentence(["NOUN", "AUX", "VERB"])]
    for parsed in (parse_corpus(corpus), parse_corpus(corpus, mode="udp-nopr")):
        for sentence, heads in zip(parsed, parsed.per_sentence(parsed.predicted)):
            tree = DependencyTree(dict(enumerate(heads, start=1)))
            assert validate_tree(sentence, tree) == []


def test_exact_tie_resolves_right():
    corpus = [make_sentence(["ADP", "NOUN"]), make_sentence(["NOUN", "ADP"])]
    assert estimate_adp_direction(corpus).resolved is Direction.RIGHT


def test_bigrams_do_not_cross_sentence_boundaries():
    # Last token ADP, next sentence starts with NOUN: no qualifying pair.
    corpus = [make_sentence(["VERB", "ADP"]), make_sentence(["NOUN", "VERB"])]
    estimate = estimate_adp_direction(corpus)
    assert (estimate.adp_nominal_count, estimate.nominal_adp_count) == (0, 0)


def test_swapping_every_qualifying_bigram_flips_the_resolution():
    rng = random.Random(7)
    # Isolated two-token sentences so reversing a sentence reverses exactly
    # one qualifying bigram.
    for prepositional, postpositional in ((9, 6), (6, 9), (10, 0), (1, 2)):
        corpus = ([make_sentence(["ADP", "NOUN"]) for _ in range(prepositional)]
                  + [make_sentence(["PRON", "ADP"]) for _ in range(postpositional)])
        rng.shuffle(corpus)
        swapped = [make_sentence(tuple(reversed([t.upos for t in s]))) for s in corpus]
        original = estimate_adp_direction(corpus)
        flipped = estimate_adp_direction(swapped)
        assert (original.adp_nominal_count, original.nominal_adp_count) == \
            (flipped.nominal_adp_count, flipped.adp_nominal_count)
        if prepositional != postpositional:
            assert original.resolved is not flipped.resolved


@given(st.lists(st.lists(st.sampled_from(["ADP", "NOUN", "PRON", "VERB", "DET"]),
                         min_size=1, max_size=6), min_size=1, max_size=8),
       st.randoms())
def test_counts_are_corpus_order_independent(tag_lists, rng):
    corpus = [make_sentence(tags) for tags in tag_lists]
    shuffled = list(corpus)
    rng.shuffle(shuffled)
    a = estimate_adp_direction(corpus)
    b = estimate_adp_direction(shuffled)
    assert (a.adp_nominal_count, a.nominal_adp_count) == \
        (b.adp_nominal_count, b.nominal_adp_count)


@given(st.lists(st.lists(st.sampled_from(["ADP", "NOUN", "PRON", "PROPN", "DET", "VERB"]),
                         min_size=1, max_size=8), min_size=0, max_size=10))
def test_counts_match_the_independent_counter(tag_lists):
    corpus = [make_sentence(tags) for tags in tag_lists]
    estimate = estimate_adp_direction(corpus)
    expected = adjacent_bigram_counts([[t.upos for t in s] for s in corpus])
    assert (estimate.adp_nominal_count, estimate.nominal_adp_count) == expected


def test_estimate_is_a_value_object():
    assert AdpDirectionEstimate(3, 3).resolved is Direction.RIGHT
    assert AdpDirectionEstimate(2, 3).resolved is Direction.LEFT
