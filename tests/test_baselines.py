import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udparse.baselines import (DependencyTree, forms_tree, naive_pos_tag, tree_violations,
                               validate_tree)
from udparse.cli import best_baseline_direction
from udparse.conllu import as_corpus, read_conllu
from udparse.decoder import decode_corpus
from udparse.rules import (CONTENT_TAGS, DEFAULT_RULESET, KNOWN_TAGS, NAIVE_RULESET, TAG_IDS,
                           UPOS_TAGS, Direction, is_content)

from helpers import make_sentence
from oracles import adjacency_parse, baseline_parse, top_frequency_forms, walk_tree_violations

ALL_TAGS = sorted(UPOS_TAGS)


def baseline_heads(sentence, direction=Direction.RIGHT):
    """One sentence's closest-head baseline, ``{index: head}``."""
    heads = decode_corpus([sentence], DEFAULT_RULESET, mode="baseline",
                          backoff_direction=direction)
    return dict(enumerate(heads.tolist(), start=1))


def adjacency_heads(sentence, direction=Direction.RIGHT):
    """One sentence's adjacency chain, ``{index: head}``."""
    heads = decode_corpus([sentence], mode="adjacency", backoff_direction=direction)
    return dict(enumerate(heads.tolist(), start=1))


class TestBaselineParse:
    def test_det_noun_verb_by_hand(self):
        # Closest licensed heads: DET under the NOUN, NOUN under the VERB;
        # the VERB takes the root.
        sentence = make_sentence(["DET", "NOUN", "VERB"])
        heads = baseline_heads(sentence)
        assert heads == {1: 2, 2: 3, 3: 0}
        assert forms_tree(sentence, heads)

    def test_single_uncovered_token_is_the_predicate(self):
        sentence = make_sentence(["X"])
        for direction in (Direction.LEFT, Direction.RIGHT):
            heads = baseline_heads(sentence, direction)
            assert heads == {1: 0}
            assert forms_tree(sentence, heads)

    def test_sym_attaches_to_right_neighbor(self):
        assert baseline_heads(make_sentence(["SYM", "NOUN"]), Direction.RIGHT) == {1: 2, 2: 0}

    def test_backoff_clamps_at_sentence_edge(self):
        # Final X with right backoff has no right neighbor, so it clamps left.
        assert baseline_heads(make_sentence(["NOUN", "X"]), Direction.RIGHT) == {1: 0, 2: 1}
        assert baseline_heads(make_sentence(["X", "NOUN"]), Direction.LEFT) == {1: 2, 2: 0}

    def test_secondary_verb_falls_back_to_neighbor(self):
        # No rule lets anything head a VERB, so the non-predicate verb uses
        # the neighbor backoff.
        assert baseline_heads(make_sentence(["VERB", "VERB"]), Direction.RIGHT) == {1: 0, 2: 1}

    def test_distance_tie_goes_leftward(self):
        assert baseline_heads(make_sentence(["NOUN", "ADJ", "NOUN", "VERB"]))[2] == 1

    def test_cycles_possible_and_flag_truthful(self):
        sentence = make_sentence(["PUNCT", "PUNCT", "PUNCT"])
        heads = baseline_heads(sentence, Direction.RIGHT)
        assert heads == {1: 0, 2: 3, 3: 2}
        assert not forms_tree(sentence, heads)

    def test_single_root_always(self):
        rng = random.Random(33)
        for _ in range(300):
            tags = [rng.choice(ALL_TAGS) for _ in range(rng.randint(1, 15))]
            direction = rng.choice((Direction.LEFT, Direction.RIGHT))
            heads = baseline_heads(make_sentence(tags), direction)
            assert sorted(heads) == list(range(1, len(tags) + 1))
            assert sum(1 for h in heads.values() if h == 0) == 1

    def test_free_direction_rejected(self):
        for mode in ("baseline", "adjacency"):
            with pytest.raises(ValueError, match="backoff direction"):
                decode_corpus([make_sentence(["X", "X"])], DEFAULT_RULESET, mode=mode,
                              backoff_direction=Direction.FREE)


class TestAdjacencyParse:
    def test_right_chain(self):
        heads = adjacency_heads(make_sentence(["NOUN", "VERB", "NOUN"]), Direction.RIGHT)
        assert [heads[i] for i in (1, 2, 3)] == [2, 3, 0]

    def test_left_chain(self):
        heads = adjacency_heads(make_sentence(["NOUN", "VERB", "NOUN"]), Direction.LEFT)
        assert [heads[i] for i in (1, 2, 3)] == [0, 1, 2]

    def test_single_token(self):
        for direction in (Direction.LEFT, Direction.RIGHT):
            assert adjacency_heads(make_sentence(["X"]), direction) == {1: 0}

    def test_chains_are_always_well_formed(self):
        rng = random.Random(34)
        for _ in range(100):
            tags = [rng.choice(ALL_TAGS) for _ in range(rng.randint(1, 12))]
            for direction in (Direction.LEFT, Direction.RIGHT):
                sentence = make_sentence(tags)
                assert forms_tree(sentence, adjacency_heads(sentence, direction))


# Both baselines against the per-sentence loops they replaced, over the
# standard tags and the two-tag scenario and both backoff directions.  The
# corpora mix repeated and interleaved lengths, and the whole corpus is
# searched at once, so no attachment may cross into a neighboring sentence.


@given(st.lists(st.lists(st.sampled_from(ALL_TAGS), min_size=1, max_size=12),
                min_size=1, max_size=16))
@example(corpus=[[tag] * 3 for tag in ALL_TAGS])
@example(corpus=[["X"], ["VERB", "VERB"], ["PUNCT", "PUNCT", "PUNCT"], ["X"],
                 ["NOUN", "ADJ", "NOUN", "VERB"], ["SYM", "NOUN"], ["NOUN", "X"],
                 ["X", "NOUN"], ["DET", "NOUN", "VERB"], ALL_TAGS[:12]])
@settings(derandomize=True, max_examples=150, deadline=None)
def test_baselines_match_sequential_oracles(corpus):
    naive = [["CONTENT" if is_content(tag) else "FUNCTION" for tag in tags] for tags in corpus]
    for ruleset, used in ((DEFAULT_RULESET, corpus), (NAIVE_RULESET, naive)):
        sentences = as_corpus([make_sentence(tags) for tags in used])
        for direction in (Direction.LEFT, Direction.RIGHT):
            closest = [baseline_parse(tags, ruleset.pairs, direction.value) for tags in used]
            chains = [adjacency_parse(len(tags), direction.value) for tags in used]
            for mode, expected in (("baseline", closest), ("adjacency", chains)):
                heads = decode_corpus(sentences, ruleset, mode=mode, backoff_direction=direction)
                got = list(map(tuple, sentences.per_sentence(heads)))
                assert got == expected, (used, mode, direction)


FUNCTION_TAGS = sorted(KNOWN_TAGS - CONTENT_TAGS)


@st.composite
def head_rows(draw):
    """One sentence's tags and heads.  The tags are drawn from every known
    tag, or from the function tags only.  The heads are arbitrary ones
    (mostly cycles, several roots or none), or a tree drawn by attaching
    tokens in a random order, sometimes with the content words first and
    every later word under one of them, so that function words are leaves."""
    n = draw(st.integers(1, 12))
    only_function = draw(st.integers(0, 2)) == 0
    tags = draw(st.lists(st.sampled_from(FUNCTION_TAGS if only_function else sorted(KNOWN_TAGS)),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        return tags, draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    order = draw(st.permutations(range(1, n + 1)))
    heads_from = n
    if draw(st.booleans()):
        order = sorted(order, key=lambda token: tags[token - 1] not in CONTENT_TAGS)
        heads_from = max(1, sum(tag in CONTENT_TAGS for tag in tags))
    heads = [0] * n
    for place, token in enumerate(order[1:], start=1):
        heads[token - 1] = order[draw(st.integers(0, min(place, heads_from) - 1))]
    return tags, heads


def chain(n, tag="NOUN"):
    """1 -> 2 -> ... -> n -> root: n pointer steps from token 1."""
    return [tag] * n, list(range(2, n + 1)) + [0]


# The corpus-wide check against the dict walk it replaced, sentence by
# sentence, and ``validate_tree`` and ``forms_tree`` against both.  The
# longest sentence sets the number of pointer-jumping rounds, so chains of
# lengths around powers of two need every round.
@given(st.lists(head_rows(), min_size=1, max_size=12))
@example(rows=[chain(17)])
@example(rows=[chain(15), chain(16, "DET"), (["X", "X", "X"], [2, 1, 0])])
@example(rows=[chain(33), chain(32), chain(31, "PUNCT"), (["X", "X"], [0, 0]),
               (["NOUN", "X"], [2, 1]), (["X"], [1]), (["X"], [0])])
# Function-only sentences: the root's dependent may head, no other word.
@example(rows=[(["DET", "ADP"], [0, 1]), (["DET", "ADP", "X"], [0, 1, 2]),
               (["DET", "NOUN"], [0, 1]), (["PUNCT", "PUNCT"], [2, 2])])
@settings(derandomize=True, max_examples=300, deadline=None)
def test_stacked_tree_check_matches_forms_tree(rows):
    corpus = as_corpus([make_sentence(tags) for tags, _ in rows])
    heads = np.array([head for _, row in rows for head in row], dtype=np.intp)
    flags = tree_violations(heads, corpus.offsets, corpus.tags).tolist()
    for sentence, (tags, row), got in zip(corpus, rows, flags):
        head_map = dict(enumerate(row, start=1))
        expected = walk_tree_violations(tags, head_map)
        assert got == [name in expected
                       for name in ("single-root", "connectivity", "function-leaf")], (tags, row)
        assert validate_tree(sentence, DependencyTree(head_map)) == expected
        assert forms_tree(sentence, head_map) == (not got[0] and not got[1])


def test_stacked_tree_check_of_an_empty_corpus():
    empty = np.zeros(0, dtype=np.intp)
    assert tree_violations(empty, np.zeros(1, dtype=np.intp), empty).shape == (0, 3)


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

    def test_tie_across_the_boundary_keeps_the_smallest_forms(self):
        # 95 forms seen three times fill 95 slots; ten forms seen twice,
        # first met out of order, compete for the last 5; 20 are seen once.
        frequent = [f"f{i:02d}" for i in range(95)]
        tied = [f"t{i}" for i in (7, 2, 9, 0, 5, 3, 8, 1, 6, 4)]
        forms = tied + frequent * 3 + [f"r{i:02d}" for i in range(20)] + tied
        corpus = [make_sentence(["X"] * 5, forms=tuple(forms[i:i + 5]))
                  for i in range(0, len(forms), 5)]
        retagged = naive_pos_tag(corpus)
        function = {t.form for s in retagged for t in s if t.upos == "FUNCTION"}
        assert function == {*frequent, "t0", "t1", "t2", "t3", "t4"}
        assert function == top_frequency_forms([[t.form for t in s] for s in corpus])

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


def read_forms(forms, size=7):
    """A corpus of ``forms`` as column 2, ``size`` tokens a sentence, read
    through ``read_conllu``."""
    lines = []
    for start in range(0, len(forms), size):
        lines += [f"{i}\t{form}\t_\tX\t_\t_\t_\t_\t_\t_"
                  for i, form in enumerate(forms[start:start + size], start=1)]
        lines.append("")
    return read_conllu(lines)


def crowded(first, second):
    """98 forms seen twice, ``first`` seen twice around one ``second``, and
    the largest code point once: the 100th place goes to ``second``.  Were
    ``first`` and ``second`` counted as one form, the last form would take
    it; were the two ``first`` counted apart, ``second`` would lose it."""
    return [f"f{i:02d}" for i in range(98)] * 2 + [first, second, first, "\U0010ffff"]


@st.composite
def crowded_forms(draw):
    """Tokens of 70-100 forms seen twice and of up to 30 more forms of
    1-40 bytes seen 1-3 times each: these share their first 8 or 16 bytes
    often, and crowd the 100th place."""
    forms = st.builds(str.__add__, st.sampled_from(["", "abcdefgh", "abcdefghabcdefgh"]),
                      st.text("ab\x00é", min_size=1, max_size=12))
    vocabulary = draw(st.lists(forms, unique=True, max_size=30))
    counts = draw(st.lists(st.integers(1, 3), min_size=len(vocabulary),
                           max_size=len(vocabulary)))
    fillers = [f"f{i:02d}" for i in range(draw(st.integers(70, 100)))]
    return draw(st.permutations(fillers * 2 + [form for form, count in zip(vocabulary, counts)
                                               for _ in range(count)]))


@given(crowded_forms())
@example(forms=crowded("abcdefgh1", "abcdefgh2"))
@example(forms=crowded("abcdefghabcdefgh1", "abcdefghabcdefgh2"))
@example(forms=crowded("a", "a\x00"))
@example(forms=crowded("é", "\ud800x"))
@example(forms=["b", "a", "b", "abcdefghabcdefgh1"])
@example(forms=[])
@settings(derandomize=True, max_examples=200, deadline=None)
def test_naive_tags_are_the_frequency_oracle(forms):
    # Forms are counted by their bytes; FUNCTION goes to exactly the forms
    # that counting the decoded strings puts first.
    tags = naive_pos_tag(read_forms(forms)).tags
    function = top_frequency_forms([forms])
    assert tags.tolist() == [TAG_IDS["FUNCTION"] if form in function else TAG_IDS["CONTENT"]
                             for form in forms]


class TestOracleDirection:
    def test_picks_the_direction_with_higher_score(self):
        # Gold trees follow a left-neighbor chain for the uncovered tags,
        # so LEFT backoff scores higher.
        corpus = [make_sentence(["VERB", "X", "X"], heads=(0, 1, 2))
                  for _ in range(4)]
        direction, parsed, report = best_baseline_direction(corpus, ruleset=DEFAULT_RULESET)
        assert direction is Direction.LEFT
        assert report.uas == 1.0
        assert parsed.predicted[1] == 1

    def test_tie_prefers_right(self):
        corpus = [make_sentence(["VERB"], heads=(0,))]
        direction, _, report = best_baseline_direction(corpus, ruleset=DEFAULT_RULESET)
        assert direction is Direction.RIGHT
        assert report.uas == 1.0
