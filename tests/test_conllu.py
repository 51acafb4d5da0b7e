from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from udparse.conllu import (ConlluError, DependencyTree, Sentence, Token,
                            format_conllu, parse_conllu, validate_tree)

from helpers import (EXAMPLE_HEADS, EXAMPLE_TAGS, example_conllu,
                     example_sentence, make_sentence)

SAMPLE_PATH = Path(__file__).parent / "data" / "sample.conllu"


class TestRead:
    def test_two_token_sentence(self):
        text = ("1\tThey\t_\tPRON\t_\t_\t2\t_\t_\t_\n"
                "2\tleft\t_\tVERB\t_\t_\t0\t_\t_\t_\n")
        (sentence,) = parse_conllu(text)
        assert [t.form for t in sentence] == ["They", "left"]
        assert [t.upos for t in sentence] == ["PRON", "VERB"]
        assert [t.gold_head for t in sentence] == [2, 0]

    def test_example_sentence_reads_in_order(self):
        (sentence,) = parse_conllu(example_conllu())
        assert tuple(t.upos for t in sentence) == EXAMPLE_TAGS
        assert len(sentence) == 9
        assert [t.gold_head for t in sentence] == [None] * 9

    def test_range_line_skipped_but_preserved(self):
        text = ("1\tWe\t_\tPRON\t_\t_\t_\t_\t_\t_\n"
                "2-3\tcan't\t_\t_\t_\t_\t_\t_\t_\t_\n"
                "2\tca\t_\tAUX\t_\t_\t_\t_\t_\t_\n"
                "3\tn't\t_\tPART\t_\t_\t_\t_\t_\t_\n")
        (sentence,) = parse_conllu(text)
        assert [t.form for t in sentence] == ["We", "ca", "n't"]
        assert sentence.extras == ((1, "2-3\tcan't\t_\t_\t_\t_\t_\t_\t_\t_"),)

    def test_empty_node_line_preserved(self):
        text = ("1\tleft\t_\tVERB\t_\t_\t0\t_\t_\t_\n"
                "1.1\tfast\t_\tADV\t_\t_\t_\t_\t_\t_\n")
        (sentence,) = parse_conllu(text)
        assert len(sentence) == 1
        assert sentence.extras[0][0] == 1

    def test_meta_from_key_value_comments(self):
        text = ("# sent_id = abc\n# genre = news\n# free-form note\n"
                "1\tx\t_\tNOUN\t_\t_\t0\t_\t_\t_\n")
        (sentence,) = parse_conllu(text)
        assert sentence.meta == {"sent_id": "abc", "genre": "news"}
        assert len(sentence.comments) == 3

    def test_missing_head_column_is_accepted_as_none(self):
        (sentence,) = parse_conllu("1\tx\t_\tNOUN\t_\t_\t_\t_\t_\t_\n")
        assert sentence.tokens[0].gold_head is None

    def test_no_trailing_newline(self):
        (sentence,) = parse_conllu("1\tx\t_\tNOUN\t_\t_\t0\t_\t_\t_")
        assert len(sentence) == 1

    def test_multi_root_gold_is_readable(self):
        # Malformed gold data must load; the evaluator flags it later.
        (sentence,) = parse_conllu("1\tx\t_\tVERB\t_\t_\t0\t_\t_\t_\n"
                                   "2\ty\t_\tVERB\t_\t_\t0\t_\t_\t_\n")
        assert [t.gold_head for t in sentence] == [0, 0]

    @pytest.mark.parametrize("bad_line,fragment", [
        ("1\tx\t_\tNOUN\t_\t_\t0\t_\t_", "columns"),
        ("x\ty\t_\tNOUN\t_\t_\t0\t_\t_\t_", "token id"),
        ("1\tx\t_\tBOGUS\t_\t_\t0\t_\t_\t_", "UPOS"),
        ("1\tx\t_\tNOUN\t_\t_\t-1\t_\t_\t_", "head"),
        ("1\tx\t_\tNOUN\t_\t_\t3.5\t_\t_\t_", "head"),
        # Only ASCII digits are ids and heads: an Arabic-Indic one, an
        # Arabic-Indic zero and a superscript two are not.
        ("\u0661\tx\t_\tNOUN\t_\t_\t0\t_\t_\t_", "token id"),
        ("\u0661-2\tx\t_\t_\t_\t_\t_\t_\t_\t_", "token id"),
        ("1\tx\t_\tNOUN\t_\t_\t\u0660\t_\t_\t_", "head"),
        ("1\tx\t_\tNOUN\t_\t_\t\u00b2\t_\t_\t_", "head"),
    ])
    def test_malformed_lines_name_the_line(self, bad_line, fragment):
        text = "1\ty\t_\tVERB\t_\t_\t0\t_\t_\t_\n\n" + bad_line + "\n"
        with pytest.raises(ConlluError, match="line 3") as excinfo:
            parse_conllu(text)
        assert fragment in str(excinfo.value)

    def test_out_of_sequence_id_rejected(self):
        with pytest.raises(ConlluError, match="out of sequence"):
            parse_conllu("1\tx\t_\tNOUN\t_\t_\t0\t_\t_\t_\n"
                         "3\ty\t_\tNOUN\t_\t_\t0\t_\t_\t_\n")

    def test_leading_byte_order_mark_is_skipped(self):
        text = "1\tThey\t_\tPRON\t_\t_\t2\t_\t_\t_\n2\tleft\t_\tVERB\t_\t_\t0\t_\t_\t_\n"
        assert parse_conllu("\ufeff" + text) == parse_conllu(text)
        (sentence,) = parse_conllu("\ufeff# sent_id = a\n" + text)
        assert sentence.meta == {"sent_id": "a"}

    def test_byte_order_mark_after_the_first_line_is_rejected(self):
        with pytest.raises(ConlluError, match="line 2"):
            parse_conllu("1\tx\t_\tNOUN\t_\t_\t0\t_\t_\t_\n"
                         "\ufeff2\ty\t_\tNOUN\t_\t_\t1\t_\t_\t_\n")

    def test_gold_head_beyond_the_sentence_names_its_line(self):
        # The first sentence is fine; in the second, head 7 on line 5
        # points past its 2 tokens.  Head 2 on line 4 is in range.
        text = ("1\ty\t_\tVERB\t_\t_\t0\t_\t_\t_\n\n"
                "# sent_id = b\n"
                "1\ta\t_\tNOUN\t_\t_\t2\t_\t_\t_\n"
                "2\tb\t_\tNOUN\t_\t_\t7\t_\t_\t_\n")
        with pytest.raises(ConlluError, match="line 5") as excinfo:
            parse_conllu(text)
        assert "head 7" in str(excinfo.value)

    def test_gold_head_equal_to_the_length_is_accepted(self):
        (sentence,) = parse_conllu("1\ta\t_\tNOUN\t_\t_\t2\t_\t_\t_\n"
                                   "2-3\tbc\t_\t_\t_\t_\t_\t_\t_\t_\n"
                                   "2\tb\t_\tVERB\t_\t_\t0\t_\t_\t_\n")
        assert [t.gold_head for t in sentence] == [2, 0]


class TestWrite:
    def test_single_token_head_zero(self):
        sentence = make_sentence(["NOUN"])
        out = format_conllu([replace_pred(sentence, {1: 0})])
        assert out.splitlines()[0].split("\t")[6] == "0"

    def test_example_heads_written_to_column_seven(self):
        parsed = example_sentence().with_heads(dict(enumerate(EXAMPLE_HEADS, start=1)))
        columns = [line.split("\t") for line in format_conllu([parsed]).splitlines() if line]
        assert [int(c[6]) for c in columns] == list(EXAMPLE_HEADS)
        assert {c[7] for c in columns} == {"dep"}

    def test_missing_pred_head_is_an_error(self):
        with pytest.raises(ConlluError, match="missing predicted head"):
            format_conllu([make_sentence(["NOUN"])])

    @pytest.mark.parametrize("field, value", [
        ("form", "a\tb"), ("form", "a\nb"), ("lemma", "a\rb"), ("misc", "SpaceAfter=No\t_")])
    def test_field_with_tab_or_line_break_is_an_error(self, field, value):
        token = Token(1, "a", "NOUN", pred_head=0)
        sentence = Sentence((replace(token, **{field: value}),))
        with pytest.raises(ConlluError, match="token 1 .*tab or newline"):
            format_conllu([sentence])

    @pytest.mark.parametrize("meta, comments", [
        ({"text": "two\nlines"}, ()), ({"text": "carriage\rreturn"}, ()),
        ({"two\nlines": "key"}, ()), ({}, ("# text = two\nlines",)),
        ({"text": "fine"}, ("# text = fine", "# note\r"))])
    def test_comment_with_line_break_is_an_error(self, meta, comments):
        token = Token(1, "a", "NOUN", pred_head=0)
        fine = Sentence((token,), meta={"text": "fine"})
        broken = Sentence((token,), meta=meta, comments=comments)
        with pytest.raises(ConlluError, match="sentence 2: comment .* line break"):
            format_conllu([fine, broken])

    def test_meta_synthesized_when_no_raw_comments(self):
        sentence = make_sentence(["NOUN"], meta={"genre": "legal"})
        out = format_conllu([replace_pred(sentence, {1: 0})])
        assert out.startswith("# genre = legal\n")

    def test_round_trip_identity_on_tokens_and_heads(self):
        first = parse_conllu(SAMPLE_PATH.read_text(encoding="utf-8"))
        written = format_conllu([copy_gold_to_pred(s) for s in first])
        second = parse_conllu(written)
        assert len(second) == len(first)
        for a, b in zip(first, second):
            assert [t.form for t in a] == [t.form for t in b]
            assert [t.upos for t in a] == [t.upos for t in b]
            assert [t.gold_head for t in a] == [t.gold_head for t in b]

    def test_round_trip_preserves_token_lines_byte_for_byte(self):
        original = SAMPLE_PATH.read_text(encoding="utf-8")
        corpus = parse_conllu(original)
        written = format_conllu([copy_gold_to_pred(s) for s in corpus])
        assert token_lines(written) == token_lines(original)

    def test_range_and_empty_lines_reemitted_in_place(self):
        corpus = parse_conllu(SAMPLE_PATH.read_text(encoding="utf-8"))
        written = token_lines(format_conllu([copy_gold_to_pred(s) for s in corpus]))
        mwt = next(i for i, line in enumerate(written) if line.startswith("2-3"))
        assert written[mwt - 1].startswith("1\tWe")
        assert written[mwt + 1].startswith("2\tca")
        empty_node = next(i for i, line in enumerate(written) if line.startswith("2.1"))
        assert written[empty_node - 1].startswith("2\tleft")


class TestSentenceInvariants:
    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            Sentence(())

    def test_non_consecutive_indices_rejected(self):
        tokens = (Token(1, "a", "NOUN"), Token(3, "b", "NOUN"))
        with pytest.raises(ValueError, match="consecutive"):
            Sentence(tokens)

    def test_unknown_tag_rejected_at_token_level(self):
        with pytest.raises(ValueError):
            Token(1, "a", "WORDS")


class TestValidateTree:
    def test_example_tree_is_valid(self):
        sentence = example_sentence()
        tree = DependencyTree(dict(enumerate(EXAMPLE_HEADS, start=1)))
        assert validate_tree(sentence, tree) == []

    def test_two_cycle_is_invalid(self):
        sentence = make_sentence(["NOUN", "NOUN", "VERB"])
        tree = DependencyTree({1: 2, 2: 1, 3: 0})
        violations = validate_tree(sentence, tree)
        assert "acyclicity" in violations
        assert "connectivity" in violations

    def test_det_with_dependent_is_invalid(self):
        sentence = make_sentence(["DET", "NOUN", "VERB"])
        tree = DependencyTree({1: 3, 2: 1, 3: 0})
        assert validate_tree(sentence, tree) == ["function-leaf"]

    def test_multiple_roots_flagged(self):
        sentence = make_sentence(["NOUN", "VERB"])
        tree = DependencyTree({1: 0, 2: 0})
        assert "single-root" in validate_tree(sentence, tree)

    def test_no_root_flagged(self):
        sentence = make_sentence(["NOUN", "VERB"])
        tree = DependencyTree({1: 2, 2: 1})
        violations = validate_tree(sentence, tree)
        assert "single-root" in violations
        assert "connectivity" in violations

    def test_function_sentence_root_dependent_may_head(self):
        sentence = make_sentence(["PUNCT", "PUNCT"])
        tree = DependencyTree({1: 0, 2: 1})
        assert validate_tree(sentence, tree) == []

    def test_function_head_not_exempt_when_content_present(self):
        sentence = make_sentence(["DET", "NOUN"])
        tree = DependencyTree({1: 0, 2: 1})
        assert "function-leaf" in validate_tree(sentence, tree)

    def test_incomplete_head_map_is_a_caller_error(self):
        sentence = make_sentence(["NOUN", "VERB"])
        with pytest.raises(ValueError):
            validate_tree(sentence, DependencyTree({1: 2}))

    def test_out_of_range_head_is_a_caller_error(self):
        sentence = make_sentence(["NOUN", "VERB"])
        with pytest.raises(ValueError):
            validate_tree(sentence, DependencyTree({1: 2, 2: 9}))


@given(st.lists(st.sampled_from(["NOUN", "VERB", "DET", "PUNCT", "ADP"]),
                min_size=1, max_size=8))
def test_write_read_round_trip_on_generated_sentences(tags):
    sentence = make_sentence(tags, heads=[0] + [1] * (len(tags) - 1))
    text = format_conllu([copy_gold_to_pred(sentence)])
    (back,) = parse_conllu(text)
    assert [t.upos for t in back] == list(tags)
    assert [t.gold_head for t in back] == [0] + [1] * (len(tags) - 1)


def token_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def copy_gold_to_pred(sentence: Sentence) -> Sentence:
    tokens = tuple(replace(t, pred_head=t.gold_head) for t in sentence.tokens)
    return replace(sentence, tokens=tokens)


def replace_pred(sentence: Sentence, heads: dict[int, int]) -> Sentence:
    tokens = tuple(replace(t, pred_head=heads[t.index]) for t in sentence.tokens)
    return replace(sentence, tokens=tokens)
