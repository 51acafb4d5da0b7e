import contextlib
import io
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from udparse.baselines import DependencyTree, forms_tree, naive_pos_tag, validate_tree
from udparse.cli import main, parse_corpus
from udparse.conllu import (ConlluError, Sentence, Token, as_corpus, format_conllu,
                            parse_conllu, read_conllu, write_conllu)
from udparse.rules import KNOWN_TAGS, TAG_IDS, TAG_NAMES

from helpers import (EXAMPLE_HEADS, EXAMPLE_TAGS, decoded, example_conllu,
                     example_sentence, make_sentence)
from oracles import format_conllu_lines, sequential_read_conllu

SAMPLE_PATH = Path(__file__).parent / "data" / "sample.conllu"
MIXED_PATH = Path(__file__).parent / "data" / "mixed_lengths.conllu"


def mixed_times_ten(blank):
    """``mixed_lengths.conllu`` ten times over, each blank line being ``blank``."""
    return (MIXED_PATH.read_text(encoding="utf-8") * 10).replace("\n\n", "\n" + blank)


def reading_peak(tmp_path, text):
    """The corpus read from ``text`` in a file, and the tracemalloc peak of
    the read."""
    path = tmp_path / "read.conllu"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8") as handle:
        tracemalloc.start()
        try:
            corpus = read_conllu(handle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return corpus, peak


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
        # A range or empty-node id has digits on both sides of its mark.
        ("-1\tx\t_\t_\t_\t_\t_\t_\t_\t_", "token id"),
        ("1.\tx\t_\t_\t_\t_\t_\t_\t_\t_", "token id"),
        ("1-2-3\tx\t_\t_\t_\t_\t_\t_\t_\t_", "token id"),
        ("\u0661-2\tx\t_\t_\t_\t_\t_\t_\t_\t_", "token id"),
        ("1\tx\t_\tNOUN\t_\t_\t\u0660\t_\t_\t_", "head"),
        ("1\tx\t_\tNOUN\t_\t_\t\u00b2\t_\t_\t_", "head"),
        # Tags are matched on all their bytes: these differ from CONTENT
        # and NOUN in the last bit only, or in one more byte.
        ("1\tx\t_\tCONTENT\x08\t_\t_\t0\t_\t_\t_", "UPOS"),
        ("1\tx\t_\tNOUO\t_\t_\t0\t_\t_\t_", "UPOS"),
        ("1\tx\t_\tFUNCTIONS\t_\t_\t0\t_\t_\t_", "UPOS"),
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

    @pytest.mark.parametrize("text, line", [
        ("1\ta\t_\tNOUN\t_\t_\t1\t_\t_\t_\n", 1),
        # Zero-padded ids and heads, one of them of more than 18 digits.
        ("01\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n2\tb\t_\tVERB\t_\t_\t002\t_\t_\t_\n", 2),
        ("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n2\tb\t_\tVERB\t_\t_\t0000000000000000000002\t_\t_\t_\n",
         2),
        # Before a head beyond the sentence, which is found at its end.
        ("1\ta\t_\tNOUN\t_\t_\t9\t_\t_\t_\n2\tb\t_\tVERB\t_\t_\t2\t_\t_\t_\n", 2),
    ])
    def test_gold_head_equal_to_its_own_id_is_refused(self, text, line):
        # A token that heads itself is no tree; UD's HEAD column never
        # holds the token's own ID.
        with pytest.raises(ConlluError, match=f"line {line}: token {line} is its own head"):
            parse_conllu(text)
        with pytest.raises(ConlluError, match=f"line {line}: token {line} is its own head"):
            read_conllu(text.splitlines())

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

    @pytest.mark.parametrize("text", [
        "1\ta\rb\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n",
        "1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\r_\n\n",
        "# a\rb\n1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n",
        # Only one \r belongs to the line ending; a file reader ends a line
        # at the other.
        "1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\r\r\n\n",
    ])
    def test_carriage_return_inside_a_line_names_the_line(self, text):
        # Written back, such a line would split when a file is read.
        with pytest.raises(ConlluError, match="line 1: carriage return"):
            parse_conllu(text)
        with pytest.raises(ConlluError, match="line 2: carriage return"):
            parse_conllu("# ok\n" + text)

    def test_crlf_line_endings_are_accepted(self):
        text = "1\ta\t_\tNOUN\t_\t_\t2\t_\t_\t_\n2\tb\t_\tVERB\t_\t_\t0\t_\t_\t_\n\n"
        assert parse_conllu(text.replace("\n", "\r\n")) == parse_conllu(text)

    @pytest.mark.parametrize("inside", [
        "1\ta\t_\tNOUN\t_\t_\t2\t_\t_\t_\n",
        "1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_\n",
        "0.1\tz\t_\t_\t_\t_\t_\t_\t_\t_\n",
    ])
    def test_comment_inside_a_sentence_names_its_line(self, inside):
        # UD allows comments only before a sentence; one after its first
        # token, range or empty-node line would move there on writing.
        text = ("# sent_id = a\n" + inside + "# mid\n"
                + ("" if inside.startswith("1\t") else "1\ta\t_\tNOUN\t_\t_\t2\t_\t_\t_\n")
                + "2\tb\t_\tVERB\t_\t_\t0\t_\t_\t_\n\n")
        with pytest.raises(ConlluError, match="line 3: comment inside a sentence"):
            parse_conllu(text)

    def test_comment_before_the_next_sentence_is_accepted(self):
        (first, second) = parse_conllu("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n"
                                       "# sent_id = b\n1\tb\t_\tVERB\t_\t_\t0\t_\t_\t_\n\n")
        assert first.comments == () and second.comments == ("# sent_id = b",)

    def test_line_break_inside_a_list_element_names_the_line(self):
        # Each element of a list is one line; written back, a form with a
        # line break in it would split its line in two.
        with pytest.raises(ConlluError, match="line 1: line break inside the line"):
            read_conllu(["1\tx\ny\t_\tNOUN\t_\t_\t0\t_\t_\t_\n"])
        with pytest.raises(ConlluError, match="line 2: line break inside the line"):
            read_conllu(["# fine\n", "1\tx\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n"])
        with pytest.raises(ConlluError, match="line 1: expected 10"):
            read_conllu(["1\tx\n", "1\tx\ny\t_\tNOUN\t_\t_\t0\t_\t_\t_\n"])
        # Whitespace around the line break: the element is no blank line.
        with pytest.raises(ConlluError, match="line 1: line break inside the line"):
            read_conllu([" \n \n"])

    def test_list_elements_are_lines_with_an_optional_line_end(self):
        text = "# a\n1\tx\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n1\ty\t_\tVERB\t_\t_\t0\t_\t_\t_\n"
        assert read_conllu(text.splitlines(keepends=True)) == parse_conllu(text)
        assert read_conllu(text.splitlines()) == parse_conllu(text)
        assert read_conllu(["\ufeff" + text.splitlines()[0]] + text.splitlines()[1:]) \
            == parse_conllu(text)
        assert len(read_conllu([])) == 0

    @pytest.mark.parametrize("text", [
        "\ufeff# a\r\n1\tx\u00e9\t_\tNOUN\t_\t_\t0\t_\t_\t_\r\n\r\n1\ty\t_\tVERB\t_\t_\t0\t_\t_\t_\r",
        "1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\r2\tb\t_\tVERB\t_\t_\t1\t_\t_\t_\n",
        "1\tx\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\ufeff2\ty\t_\tNOUN\t_\t_\t1\t_\t_\t_\n",
    ])
    def test_a_binary_stream_reads_as_its_text(self, text):
        # The same bytes give the same corpus, or the same error, as text.
        results = []
        for stream in (io.StringIO(text), io.BytesIO(text.encode())):
            try:
                results.append(read_conllu(stream))
            except ConlluError as error:
                results.append((str(error), error.line))
        assert results[0] == results[1]

    @pytest.mark.parametrize("data, line, byte, reason", [
        (b"\xef\xbb\xbf# a\r\n# \xff\n", 2, 0xff, "invalid start byte"),
        (b"# a\rb\n\n# \xc3(\n", 3, 0xc3, "invalid continuation byte"),
        # Strict UTF-8 has no surrogates, which a text stream may hold.
        (b"1\ta\xed\xa0\x80b\t_\tNOUN\t_\t_\t0\t_\t_\t_\n", 1, 0xed, "invalid continuation byte"),
        (b"1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\xe6\x97", 2, 0xe6, "unexpected end of data"),
    ])
    def test_invalid_utf8_in_a_binary_stream_names_its_line(self, data, line, byte, reason):
        with pytest.raises(ConlluError) as excinfo:
            read_conllu(io.BytesIO(data))
        assert (excinfo.value.line, excinfo.value.reason) == (
            line, f"invalid UTF-8: cannot decode byte 0x{byte:02x} ({reason})")

    def test_a_lone_surrogate_in_text_is_kept(self):
        text = "1\ta\ud800b\t_\tNOUN\t_\t_\t0\t_\t_\t_\n"
        (sentence,) = parse_conllu(text)
        assert sentence.tokens[0].form == "a\ud800b"
        assert format_conllu(parse_conllu(text)) == text + "\n"

    def test_reading_a_binary_file_holds_no_more_than_reading_text(self, tmp_path):
        text = mixed_times_ten("\n")
        corpus, text_peak = reading_peak(tmp_path, text)
        with open(tmp_path / "read.conllu", "rb") as handle:
            tracemalloc.start()
            try:
                read = read_conllu(handle)
                binary_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert read == corpus
        assert binary_peak <= text_peak, (binary_peak, text_peak)

    @pytest.mark.parametrize("blank", ["\n", " \n"], ids=["plain", "spaced"])
    def test_reading_holds_at_most_ten_times_the_input(self, tmp_path, blank):
        # The byte scan holds a few numbers per tab and line end; reading
        # must not hold much more than that at any time, also when blank
        # lines hold whitespace.
        text = mixed_times_ten(blank)
        corpus, peak = reading_peak(tmp_path, text)
        assert len(corpus) == 10 * len(parse_conllu(MIXED_PATH.read_text(encoding="utf-8")))
        assert peak <= 10 * len(text.encode())

    def test_whitespace_only_blank_lines_cost_no_more_to_read(self, tmp_path):
        # A whitespace-only line is decoded alone, not with the whole input.
        plain, spaced = mixed_times_ten("\n"), mixed_times_ten(" \n")
        plain_peak, spaced_peak = (reading_peak(tmp_path, text)[1] / len(text.encode())
                                   for text in (plain, spaced))
        assert spaced_peak <= plain_peak + 0.2, (plain_peak, spaced_peak)

    def test_read_corpus_retains_less_than_three_times_its_input(self):
        # The corpus keeps the input's bytes and a few numbers per token; one
        # string per line would cost more than 50 bytes each on top.
        tags = sorted(KNOWN_TAGS)
        blocks = []
        for number in range(300):
            forms = [f"w{(number * 17 + i) % 997}" for i in range(17)]
            lines = [f"# sent_id = s{number}", "# text = " + " ".join(forms)]
            lines += [f"{i}\t{form}\t_\t{tags[i % len(tags)]}\t_\t_\t{i - 1}\t_\t_\t_"
                      for i, form in enumerate(forms, start=1)]
            blocks.append("\n".join(lines) + "\n\n")
        text = "".join(blocks)
        stream = io.StringIO(text)
        read_conllu(io.StringIO(text))
        tracemalloc.start()
        try:
            corpus = read_conllu(stream)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(corpus.tags) == 5100
        assert retained < 3 * len(text.encode()), retained / len(text.encode())

    def test_lines_are_decoded_on_first_use(self):
        corpus = parse_conllu(SAMPLE_PATH.read_text(encoding="utf-8"))
        parsed = replace(corpus, predicted=corpus.heads)
        assert (len(corpus), np.diff(corpus.offsets).tolist()) == (3, [9, 6, 3])
        assert corpus.per_sentence(corpus.heads)[2] == [2, 0, 2]
        assert decoded(corpus) == set()
        # Indexing builds a sentence from the decoded lines, and one
        # decoding serves every corpus that shares the text.
        assert corpus[0].tokens[0].form == "They"
        everything = {"all_lines", "lines", "comments", "extras"}
        assert decoded(parsed) == everything and parsed.raw is corpus.raw
        decodings = {name: vars(corpus.raw)[name] for name in everything}
        assert parsed[1] == corpus[1] and list(parsed) == list(corpus)
        assert all(vars(corpus.raw)[name] is value for name, value in decodings.items())

    def test_per_sentence_refuses_values_of_another_length(self):
        corpus = parse_conllu(SAMPLE_PATH.read_text(encoding="utf-8"))
        with pytest.raises(ValueError, match="3 values for 18 tokens"):
            corpus.per_sentence(np.arange(3))

    @pytest.mark.parametrize("name", ["tags", "heads", "predicted"])
    def test_arrays_of_another_length_are_refused(self, name):
        corpus = parse_conllu(SAMPLE_PATH.read_text(encoding="utf-8"))
        with pytest.raises(ValueError, match=f"{name} has 3 entries for 18 tokens"):
            replace(corpus, **{name: np.arange(3)})

    def test_gold_head_equal_to_the_length_is_accepted(self):
        (sentence,) = parse_conllu("1\ta\t_\tNOUN\t_\t_\t2\t_\t_\t_\n"
                                   "2-3\tbc\t_\t_\t_\t_\t_\t_\t_\t_\n"
                                   "2\tb\t_\tVERB\t_\t_\t0\t_\t_\t_\n")
        assert [t.gold_head for t in sentence] == [2, 0]


class TestWrite:
    def test_single_token_head_zero(self):
        sentence = make_sentence(["NOUN"])
        out = format_conllu(with_predicted([sentence], [0]))
        assert out.splitlines()[0].split("\t")[6] == "0"

    def test_example_heads_written_to_column_seven(self):
        parsed = with_predicted([example_sentence()], EXAMPLE_HEADS)
        columns = [line.split("\t") for line in format_conllu(parsed).splitlines() if line]
        assert [int(c[6]) for c in columns] == list(EXAMPLE_HEADS)
        assert {c[7] for c in columns} == {"dep"}

    def test_corpus_without_predicted_heads_is_written_verbatim(self):
        # Gold relations, ids with leading zeros and "_" heads all survive.
        text = ("# sent_id = 1\n01\tx\t_\tNOUN\t_\t_\t_\tnsubj\t_\t_\n"
                "02\ty\t_\tVERB\t_\t_\t0\troot\t_\t_\n\n")
        assert format_conllu(parse_conllu(text)) == text

    def test_parsed_token_lines_are_rebuilt_from_their_columns(self):
        # Position, tag name, predicted head and "dep"; the rest stays.
        text = ("01\tx\tlx\tNOUN\tNN\tF=1\t_\tnsubj\t2:a\tM\n"
                "1-2\txy\t_\t_\t_\t_\t_\t_\t_\t_\n"
                "02\ty\tly\tVERB\tVB\tF=2\t0\troot\t_\tN\n\n")
        corpus = parse_conllu(text)
        tags = np.array([TAG_IDS["FUNCTION"], TAG_IDS["CONTENT"]])
        parsed = replace(corpus, tags=tags, predicted=np.array([2, 0]))
        assert format_conllu(parsed) == (
            "1\tx\tlx\tFUNCTION\tNN\tF=1\t2\tdep\t2:a\tM\n"
            "1-2\txy\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "2\ty\tly\tCONTENT\tVB\tF=2\t0\tdep\t_\tN\n\n")

    @pytest.mark.parametrize("field, value", [
        ("form", "a\tb"), ("form", "a\nb"), ("lemma", "a\rb"), ("misc", "SpaceAfter=No\t_")])
    def test_field_with_tab_or_line_break_is_an_error(self, field, value):
        token = Token(1, "a", "NOUN", gold_head=0)
        sentence = Sentence((replace(token, **{field: value}),))
        with pytest.raises(ConlluError, match="token 1 .*tab or newline"):
            format_conllu([sentence])

    @pytest.mark.parametrize("meta, comments", [
        ({"text": "two\nlines"}, ()), ({"text": "carriage\rreturn"}, ()),
        ({"two\nlines": "key"}, ()), ({}, ("# text = two\nlines",)),
        ({"text": "fine"}, ("# text = fine", "# note\r"))])
    def test_comment_with_line_break_is_an_error(self, meta, comments):
        token = Token(1, "a", "NOUN", gold_head=0)
        fine = Sentence((token,), meta={"text": "fine"})
        broken = Sentence((token,), meta=meta, comments=comments)
        with pytest.raises(ConlluError, match="sentence 2: comment .* line break"):
            format_conllu([fine, broken])

    @pytest.mark.parametrize("extras, message", [
        (((1, "1.1\tz\t_\t_\t_\t_\t_\t_\t_\n"),), "line '1.1.*' contains a line break"),
        (((1, "1.1\r"),), "line '1.1\\\\r' contains a line break"),
        (((2, "2.1"), (1, "1.1")), "range or empty-node lines out of order"),
        (((3, "3.1"),), "range or empty-node lines out of order"),
        (((-1, "0.1"),), "range or empty-node lines out of order")])
    def test_misplaced_range_or_empty_node_line_is_an_error(self, extras, message):
        tokens = (Token(1, "a", "NOUN", gold_head=0), Token(2, "b", "NOUN", gold_head=1))
        with pytest.raises(ConlluError, match=f"sentence 2: {message}"):
            as_corpus([Sentence(tokens), Sentence(tokens, extras=extras)])

    @pytest.mark.parametrize("sentence, message", [
        (Sentence((Token(1, "a", "NOUN", gold_head=0),), comments=("no hash",)),
         "sentence 1: comment 'no hash' does not start with '#'"),
        (Sentence((Token(1, "a", "NOUN", gold_head=0),), comments=("  ",)),
         "sentence 1: comment '  ' does not start with '#'"),
        (Sentence((Token(1, "a", "NOUN", gold_head=0),), extras=((1, "junk"),)),
         "sentence 1: line 'junk' is not a range or empty-node line"),
        (Sentence((Token(1, "a", "NOUN", gold_head=0),), extras=((0, "# c"),)),
         "sentence 1: line '# c' is not a range or empty-node line"),
        (Sentence((Token(1, "a", "NOUN", gold_head=0),), extras=((1, "1-2\tjunk"),)),
         "sentence 1: expected 10 tab-separated columns, got 2"),
        (Sentence((Token(1, "a", "NOUN", gold_head=5),)),
         "sentence 1: head 5 outside a sentence of 1 tokens")])
    def test_sentence_whose_lines_would_not_read_back_is_an_error(self, sentence, message):
        for convert in (as_corpus, format_conllu):
            with pytest.raises(ConlluError, match=re.escape(message)):
                convert([sentence])

    def test_reader_errors_name_the_callers_sentence(self):
        # The reader names a line of the text that ``as_corpus`` writes,
        # which the caller never sees; the caller gets its sentence.
        fine = Sentence((Token(1, "a", "NOUN", gold_head=0),), meta={"text": "a"})
        cases = [([fine, fine, Sentence((Token(1, "b", "NOUN", gold_head=5),))],
                  "sentence 3: head 5 outside a sentence of 1 tokens"),
                 ([fine, Sentence(fine.tokens, extras=((1, "1-2\tjunk"),)), fine],
                  "sentence 2: expected 10 tab-separated columns, got 2")]
        for sentences, message in cases:
            with pytest.raises(ConlluError) as raised:
                as_corpus(sentences)
            assert str(raised.value) == message
            assert raised.value.line is None

    def test_meta_is_read_from_the_comments_unless_given(self):
        tokens = (Token(1, "a", "NOUN", gold_head=0),)
        sentence = Sentence(tokens, comments=("# sent_id = 1", "# note"))
        assert sentence.meta == {"sent_id": "1"}
        assert as_corpus([sentence])[0] == sentence
        given = Sentence(tokens, meta={"genre": "news"}, comments=("# sent_id = 1",))
        assert given.meta == {"genre": "news"}

    def test_meta_synthesized_when_no_raw_comments(self):
        sentence = make_sentence(["NOUN"], meta={"genre": "legal"})
        out = format_conllu([sentence])
        assert out.startswith("# genre = legal\n")

    def test_round_trip_identity_on_tokens_and_heads(self):
        first = parse_conllu(SAMPLE_PATH.read_text(encoding="utf-8"))
        written = format_conllu(with_predicted(first, first.heads))
        second = parse_conllu(written)
        assert len(second) == len(first)
        for a, b in zip(first, second):
            assert [t.form for t in a] == [t.form for t in b]
            assert [t.upos for t in a] == [t.upos for t in b]
            assert [t.gold_head for t in a] == [t.gold_head for t in b]

    def test_round_trip_preserves_token_lines_byte_for_byte(self):
        original = SAMPLE_PATH.read_text(encoding="utf-8")
        corpus = parse_conllu(original)
        written = format_conllu(corpus)
        assert token_lines(written) == token_lines(original)

    def test_range_and_empty_lines_reemitted_in_place(self):
        corpus = parse_conllu(SAMPLE_PATH.read_text(encoding="utf-8"))
        written = token_lines(format_conllu(with_predicted(corpus, corpus.heads)))
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

    @pytest.mark.parametrize("head", [None, "2", 1.5])
    def test_head_that_is_not_an_index_is_a_caller_error(self, head):
        # Column 7 ``_`` reads as a gold head of None.
        sentence = make_sentence(["NOUN", "VERB"])
        for check in (lambda: validate_tree(sentence, DependencyTree({1: head, 2: 0})),
                      lambda: forms_tree(sentence, {1: head, 2: 0})):
            with pytest.raises(ValueError, match=f"token 1: head {re.escape(repr(head))} "
                                                 "is not an index in 0..2"):
                check()


@given(st.lists(st.sampled_from(["NOUN", "VERB", "DET", "PUNCT", "ADP"]),
                min_size=1, max_size=8))
def test_write_read_round_trip_on_generated_sentences(tags):
    sentence = make_sentence(tags, heads=[0] + [1] * (len(tags) - 1))
    text = format_conllu([sentence])
    (back,) = parse_conllu(text)
    assert [t.upos for t in back] == list(tags)
    assert [t.gold_head for t in back] == [0] + [1] * (len(tags) - 1)


def token_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def with_predicted(sentences, heads):
    """The sentences as a corpus parsed to the given flat heads."""
    return replace(as_corpus(sentences), predicted=np.array(heads))


# Regression nets for the reader and writer.  ``valid_conllu`` draws whole
# files: comments (some of them ``key = value``), multiword-token ranges and
# empty nodes between and around the tokens, and sometimes a leading
# byte-order mark, which reading skips and writing does not restore.
FIELD = st.text(alphabet="abcXYZ019=|:.,'-_", min_size=1, max_size=4)


@st.composite
def valid_conllu(draw):
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        lines = [f"# {key} = {value}" if key else f"# {value}"
                 for key, value in draw(st.lists(st.tuples(st.sampled_from(["", "id", "genre"]),
                                                           FIELD), max_size=3))]
        n = draw(st.integers(1, 6))
        for position in range(n + 1):
            if position and draw(st.booleans()):
                lines.append(f"{position}.1\t{draw(FIELD)}\t_\t_\t_\t_\t_\t_\t{position}:dep\t_")
            if position < n:
                if draw(st.integers(0, 3)) == 0:
                    lines.append(f"{position + 1}-{position + 2}\t{draw(FIELD)}\t_\t_\t_\t_\t_\t_\t_\t_")
                fields = draw(st.lists(FIELD, min_size=6, max_size=6))
                # Any head but the token's own id, which the reader refuses.
                head = draw(st.one_of(st.integers(0, n - 1).map(lambda h: h + (h > position)),
                                      st.just("_")))
                deprel = draw(st.sampled_from(["nsubj", "obj", "punct", "root", "_"]))
                token_id = draw(st.sampled_from(["", "0"])) + str(position + 1)
                lines.append("\t".join((token_id, fields[0], fields[1],
                                        draw(st.sampled_from(sorted(KNOWN_TAGS))), fields[2],
                                        fields[3], str(head), deprel, fields[4], fields[5])))
        blocks.append("\n".join(lines) + "\n\n")
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(blocks)


@given(valid_conllu())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_read_write_read_is_the_identity(text):
    corpus = parse_conllu(text)
    written = format_conllu(corpus)
    assert written == text.removeprefix("\ufeff")
    assert parse_conllu(written) == corpus


def form_spans(corpus):
    """Column 2 of each token, decoded from its byte bounds in the text."""
    raw = corpus.raw
    return [raw.data[start:end].decode()
            for start, end in zip(raw.form_starts.tolist(), raw.form_ends.tolist())]


@given(valid_conllu())
@settings(derandomize=True, max_examples=100, deadline=None)
def test_sentences_convert_to_the_text_that_is_written(text):
    sentences = list(parse_conllu(text))
    converted = as_corpus(sentences)
    assert list(converted) == sentences
    # Each sentence is what its lines, comments and extras say.
    bounds = converted.offsets.tolist()
    for number in range(len(converted)):
        tokens = [Token(position, form, upos, None if head == "_" else int(head),
                        lemma, xpos, feats, deprel, deps, misc)
                  for position, (_, form, lemma, upos, xpos, feats, head, deprel, deps, misc)
                  in enumerate((line.split("\t") for line in converted.lines[
                      bounds[number]:bounds[number + 1]]), start=1)]
        assert converted[number] == Sentence(tokens, comments=converted.comments[number],
                                             extras=converted.extras[number])
    written = format_conllu(sentences)
    assert converted.raw.data == written.encode()
    assert parse_conllu(written) == converted
    assert form_spans(converted) == [line.split("\t")[1] for line in converted.lines]


# Lines made of CoNLL-U-like pieces, so that most examples get past the
# column count and into the id, tag and head checks.
PIECES = ["1", "2", "3", "0", "01", "_", "1-2", "2.1", "x", "NOUN", "VERB", "PUNCT",
          "BOGUS", "-1", "9", "# c = d", "", " ", "\ufeff", "\u0661", "\r"]
NEAR_LINES = st.one_of(
    st.lists(st.sampled_from(PIECES), min_size=1, max_size=11).map("\t".join),
    st.text(max_size=12))


# int() refuses more than 4300 digits, so long ids and heads must be
# refused as data.
LONG = "1" * 5000
INT_DIGITS = sys.get_int_max_str_digits()


ARBITRARY_TEXT = st.one_of(st.text(), st.lists(NEAR_LINES, max_size=12).map("\n".join))


@given(ARBITRARY_TEXT)
@example(f"{LONG}\tx\t_\tNOUN\t_\t_\t0\t_\t_\t_\n")
@example(f"1\tx\t_\tNOUN\t_\t_\t{LONG}\t_\t_\t_\n")
@example(f"{'0' * 5000}1\tx\t_\tNOUN\t_\t_\t0\t_\t_\t_\n")
@settings(derandomize=True, max_examples=400, deadline=None)
def test_arbitrary_text_parses_or_names_a_line(text):
    try:
        parse_conllu(text)
    except ConlluError as error:
        assert re.match(r"line [0-9]+: ", str(error)), error
        expected = 2
    else:
        expected = 0
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert main(["stats", "-"]) == expected
    if expected:
        assert re.match(r"error: line [0-9]+: ", stderr.getvalue())


def _column(number, value):
    """A change that sets column ``number`` of a line to ``value(column)``."""
    def change(line, at):
        columns = line.split("\t")
        if len(columns) > number:
            columns[number] = value(columns[number])
        return ["\t".join(columns)]
    return change


# One-line changes to a valid file, each aimed at one of the reader's checks
# or at a character that ends lines elsewhere (``str.splitlines`` splits at
# NEL and LINE SEPARATOR; a CoNLL-U reader must not).  ``at`` is a drawn
# character position in the line.
LINE_CHANGES = [
    _column(0, lambda token_id: str(int(token_id) + 1) if token_id.isdigit() else token_id),
    _column(3, lambda tag: "BOGUS"),
    _column(6, lambda head: "99"),
    lambda line, at: [line.replace("\t", "", 1)],
    lambda line, at: [line, "# moved inside"],
    lambda line, at: [line[:at] + "\r" + line[at:]],
    lambda line, at: ["\xa0"],
    lambda line, at: [line[:at] + "\x85" + line[at:]],
    lambda line, at: [line[:at] + "\u2028" + line[at:]],
    _column(0, lambda token_id: "00" + token_id),
    _column(6, lambda head: LONG),
    _column(3, lambda tag: tag + "S"),
    _column(0, lambda token_id: token_id.replace("-", "")),
    _column(0, lambda token_id: token_id[1:]),
]


@st.composite
def changed_conllu(draw):
    lines = draw(valid_conllu()).split("\n")
    number = draw(st.integers(0, len(lines) - 1))
    line = lines[number]
    change = draw(st.sampled_from(LINE_CHANGES))
    lines[number:number + 1] = change(line, draw(st.integers(0, len(line))))
    return "\n".join(lines)


def read_or_refuse(read, source):
    try:
        return read(source)
    except ConlluError as error:
        return str(error)


def near_tags(name):
    """Column-4 values next to the tag ``name``: each of its bytes changed
    or dropped, and one more byte, also NUL, at each position."""
    near = set()
    for at, char in enumerate(name):
        near |= {name[:at] + chr(ord(char) ^ 1) + name[at + 1:],
                 name[:at] + "é" + name[at + 1:], name[:at] + name[at + 1:]}
    for at in range(len(name) + 1):
        near |= {name[:at] + "A" + name[at:], name[:at] + "é" + name[at:],
                 name[:at] + "\x00" + name[at:]}
    return near


NEAR_TAGS = sorted(set().union(*map(near_tags, TAG_NAMES)))
# Ids and heads of these many digits: in one word, and longer.
WIDTHS = [1, 7, 8, 9, 17, 18, 19]


@st.composite
def word_conllu(draw):
    """A sentence whose columns 1, 4 and 7 test the reader's 8-byte word
    reads: zero-padded ids and heads of 1 to 19 digits, tags of 0 to 10
    bytes near the known ones, range and empty-node ids of 8 or more
    bytes, non-ASCII bytes inside fields, and a last line whose columns
    8-10 (or 5-10) are empty, with or without a line end after it."""
    n = draw(st.integers(1, 4))
    text = st.text(alphabet="ab_é\u65e5\U0001f600\u0661", min_size=1, max_size=10)
    lines = []
    for position in range(1, n + 1):
        if draw(st.integers(0, 3)) == 0:
            mark = draw(st.sampled_from("-."))
            first, second = (str(number).zfill(draw(st.sampled_from([1, 4, 8, 9])))
                             for number in (position, position + 1))
            lines.append(f"{first}{mark}{second}\t{draw(text)}\t_\t_\t_\t_\t_\t_\t_\t_")
        token_id = draw(st.one_of(
            st.sampled_from(WIDTHS).map(str(position).zfill),
            st.integers(0, 10**19).map(str)))
        tag = draw(st.one_of(st.sampled_from(TAG_NAMES), st.sampled_from(NEAR_TAGS),
                             st.text(alphabet="ACDEFNOPUX_é\x00", max_size=10)))
        head = draw(st.one_of(
            st.integers(0, n + 1).map(str).flatmap(
                lambda head: st.sampled_from(WIDTHS).map(head.zfill)),
            st.integers(0, 10**19).map(str),
            st.sampled_from(["_", "1\u0660", "é"])))
        columns = [token_id, draw(text), draw(text), tag, draw(text), draw(text), head,
                   draw(text), draw(text), draw(text)]
        if position == n:
            columns[draw(st.sampled_from([7, 4])):] = [""] * draw(st.sampled_from([3, 6]))
            columns = (columns + [""] * 10)[:10]
        lines.append("\t".join(columns))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


def word_example(widths):
    """A sentence whose token ids and heads have these many digits, each
    token headed by the next and the last by the root, with multi-byte
    forms and tags of 1 to 8 bytes."""
    tags = ["FUNCTION", "CONTENT", "X", "PROPN", "PUNCT", "SCONJ", "INTJ"]
    return "".join(
        f"{str(i).zfill(width)}\tw{'é' * i}\t_\t{tags[i - 1]}\t_\t_\t"
        f"{str(i + 1 if i < len(widths) else 0).zfill(width)}\t_\t_\t_\n"
        for i, width in enumerate(widths, start=1))


WORD_EXAMPLE = word_example(WIDTHS)


@given(st.one_of(valid_conllu(), ARBITRARY_TEXT, changed_conllu(), word_conllu()))
# Every known tag.
@example("".join(f"{i}\tx\t_\t{tag}\t_\t_\t0\t_\t_\t_\n"
                 for i, tag in enumerate(sorted(KNOWN_TAGS), start=1)))
# Within a sentence, a later line's fault comes before a head beyond the
# sentence, which is found only at its end.
@example("1\ta\t_\tNOUN\t_\t_\t9\t_\t_\t_\n2\tb\t_\tVERB\t_\t_\t0\t_\t_\n\n")
@example("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n"
         "1\tb\t_\tNOUN\t_\t_\t5\t_\t_\t_\n2\tc\t_\tVERB\t_\t_\t0\t_\t_\n\n")
@example("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n"
         "1\tb\t_\tNOUN\t_\t_\t5\t_\t_\t_\n3\tc\t_\tVERB\t_\t_\t0\t_\t_\t_\n\n")
@example("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n"
         "1\tb\t_\tNOUN\t_\t_\t5\t_\t_\t_\n2\tc\t_\tBOGUS\t_\t_\t0\t_\t_\t_\n\n")
# ... and after the sentence, its head fault comes first.
@example("1\ta\t_\tNOUN\t_\t_\t5\t_\t_\t_\n\n1\tb\t_\tVERB\t_\t_\t0\t_\t_\n")
@example("1\ta\t_\tNOUN\t_\t_\t5\t_\t_\t_\n")
# A comment after an empty-node or range line, also one with a \r\n end.
@example("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n1.1\tz\t_\t_\t_\t_\t_\t_\t_\t_\n# c\n\n")
@example("1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_\n# c\r\n1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n")
# Blocks with no token lines, at a blank line and at the end.
@example("# a\n\n1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n")
@example("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n2.1\tz\t_\t_\t_\t_\t_\t_\t_\t_")
# Token lines read from one word and as whole fields, in one sentence: zero-padded ids, long heads, \r\n ends and
# whitespace-only blank lines.
@example("01\ta\t_\tNOUN\t_\t_\t2\t_\t_\t_\n2\tb\t_\tVERB\t_\t_\t0\t_\t_\t_\r\n"
         "3\tc\t_\tX\t_\t_\t0000000000000000000002\t_\t_\t_\n \t\n1\td\t_\tX\t_\t_\t_\t_\t_\t_\n")
@example("1\ta\t_\tNOUN\t_\t_\t00000000000000000000000000000000000007\t_\t_\t_\n")
@example(f"1\ta\t_\tNOUN\t_\t_\t{'0' * 4000}7\t_\t_\t_\n")
# Heads of as many digits as ``int`` converts, and of one more.
@example(f"1\ta\t_\tNOUN\t_\t_\t{'7'.zfill(INT_DIGITS)}\t_\t_\t_\n")
@example(f"1\ta\t_\tNOUN\t_\t_\t{'7'.zfill(INT_DIGITS + 1)}\t_\t_\t_\n")
@example("\ufeff1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\ufeff\n")
# A whitespace-only blank line ends a sentence, also before a line with a
# \r\n end or a comment.
@example("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n \n1\tb\t_\tVERB\t_\t_\t0\t_\t_\t_\r\n")
@example("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\xa0\n# c\r\n1\tb\t_\tVERB\t_\t_\t0\t_\t_\t_\n")
# A known tag with one more letter; ids that are almost range or
# empty-node ids.
@example("1\tx\t_\tFUNCTIONS\t_\t_\t0\t_\t_\t_\n")
@example("-1\tx\t_\t_\t_\t_\t_\t_\t_\t_\n1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n")
@example("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n1.\tx\t_\t_\t_\t_\t_\t_\t_\t_\n")
@example("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n1-2.3\tx\t_\t_\t_\t_\t_\t_\t_\t_\n")
# Ids and heads of 1 to 19 digits, also past the sentence; long range and
# empty-node ids; non-ASCII bytes inside fields.
@example(WORD_EXAMPLE)
@example(WORD_EXAMPLE.replace("\t0000003\t", "\t999999999999999999\t"))
@example(WORD_EXAMPLE.replace("\t0000003\t", "\t9999999999999999999\t"))
@example("00000001-00000002\tab\t_\t_\t_\t_\t_\t_\t_\t_\n1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n"
         "00000001.00000001\tz\t_\t_\t_\t_\t_\t_\t_\t_\n000000001-2\tb\t_\t_\t_\t_\t_\t_\t_\t_\n"
         "2\tb\t_\tVERB\t_\t_\t1\t_\t_\t_\n")
# Range and empty-node ids of 3, 8 and 9 bytes, at the edges of the word
# they are recognised in, and near misses of at most 8 bytes, one with its
# mark in its word's last byte.
@example("1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_\n1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n"
         "1.1\tz\t_\t_\t_\t_\t_\t_\t_\t_\n2\tb\t_\tVERB\t_\t_\t1\t_\t_\t_\n")
@example("0001-002\tab\t_\t_\t_\t_\t_\t_\t_\t_\n1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n"
         "0001.001\tz\t_\t_\t_\t_\t_\t_\t_\t_\n2\tb\t_\tVERB\t_\t_\t1\t_\t_\t_\n")
@example("00001-002\tab\t_\t_\t_\t_\t_\t_\t_\t_\n1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n"
         "00001.001\tz\t_\t_\t_\t_\t_\t_\t_\t_\n2\tb\t_\tVERB\t_\t_\t1\t_\t_\t_\n")
@example("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n1-\tx\t_\t_\t_\t_\t_\t_\t_\t_\n")
@example("-1\tx\t_\t_\t_\t_\t_\t_\t_\t_\n")
@example("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n1--2\tx\t_\t_\t_\t_\t_\t_\t_\t_\n")
@example("1-2.3\tx\t_\t_\t_\t_\t_\t_\t_\t_\n")
@example("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n1.-2\tx\t_\t_\t_\t_\t_\t_\t_\t_\n")
@example("1é-2\tx\t_\t_\t_\t_\t_\t_\t_\t_\n")
@example("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n0000001-\tx\t_\t_\t_\t_\t_\t_\t_\t_\n")
@example("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n0000001.\tx\t_\t_\t_\t_\t_\t_\t_\t_\n")
# A mark whose byte shares the nibbles of "-" and "." in the word check.
@example("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n1,2\tx\t_\t_\t_\t_\t_\t_\t_\t_\n")
@example("12345678\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n")
@example("1\ta\t_\tNOUN\t_\t_\t87654321\t_\t_\t_\n")
@example("1é\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n")
@example("1\ta\t_\tNOUé\t_\t_\t0\t_\t_\t_\n")
# Tags followed by NUL bytes, which read as 0 in a word, as cleared bytes do.
@example("1\ta\t_\tNOUN\x00\t_\t_\t0\t_\t_\t_\n2\tb\t_\tX\x00\t_\t_\t1\t_\t_\t_\n")
@example("1\ta\t_\tX\x00\t_\t_\t0\t_\t_\t_\n")
@example("1\tcafé\t日本\tNOUN\t_\t_\t0\t_\t_\tGloss=\U0001f600\n")
# A last line with empty columns, with no line end after it: the word of
# column 4 or 7 reaches past the end of the text.
@example("1\ta\t_\tNOUN\t_\t_\t0\t\t\t")
@example("1\ta\t_\tX\t\t\t_\t\t\t")
@example("1\ta\t_\t\t\t\t0\t\t\t")
@example("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n2\tb\t_\tVERB\t\t\t\t\t\t")
@settings(derandomize=True, max_examples=600, deadline=None)
def test_reader_matches_the_sequential_reader(text):
    # The same corpus, or the same error message, from a stream and from
    # its list of lines.
    expected = read_or_refuse(sequential_read_conllu, io.StringIO(text))
    for source in (io.StringIO(text), io.StringIO(text).readlines()):
        got = read_or_refuse(read_conllu, source)
        assert got == expected
        if not isinstance(got, str):
            assert {got.tags.dtype, got.heads.dtype, got.offsets.dtype} == {np.dtype(np.intp)}
            for name in ("token_lines", "read_tags", "token_starts", "form_starts",
                         "form_ends", "tag_starts", "head_starts", "cuts", "comment_lines",
                         "extra_lines", "sentence_lines", "sentence_starts", "sentence_ends"):
                assert getattr(got.raw, name).tolist() == getattr(expected.raw, name).tolist()
            assert form_spans(got) == [line.split("\t")[1] for line in got.lines]


def test_every_tag_reads_as_its_id_and_no_other_column_does():
    # The byte scan settles a line with each tag by itself; a column of 0
    # to 10 bytes next to a tag must not find one.
    with mock.patch("udparse.conllu._line", side_effect=AssertionError("left to _line")):
        for name in TAG_NAMES:
            text = f"1\tx\t_\t{name}\t_\t_\t0\t_\t_\t_\n"
            assert parse_conllu(text).tags.tolist() == [TAG_IDS[name]]
    for column in [*NEAR_TAGS, "", "FUNCTIONAL", "X" + "\x00" * 7, "FUNCTION\x00"]:
        text = f"1\tx\t_\t{column}\t_\t_\t0\t_\t_\t_\n"
        if column in TAG_IDS:
            assert parse_conllu(text).tags.tolist() == [TAG_IDS[column]]
        else:
            with pytest.raises(ConlluError, match=re.escape(f"unknown UPOS tag {column!r}")):
                parse_conllu(text)


def assert_settled_by_the_arrays(text):
    """The text reads as the sequential reader reads it, and ``_line`` is
    not needed: it only words the error of a refused line, so a call would
    mean a valid line misread as bad."""
    expected = sequential_read_conllu(io.StringIO(text))
    with mock.patch("udparse.conllu._line", side_effect=AssertionError("left to _line")):
        assert parse_conllu(text) == expected
        assert read_conllu(io.StringIO(text).readlines()) == expected


PLAIN = "1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n"


@pytest.mark.parametrize("text", [
    # Ids and heads of 1 to 19 digits.
    word_example(WIDTHS),
    # Range and empty-node ids of 17 bytes, and of 39.
    "00000001-00000002\tab\t_\t_\t_\t_\t_\t_\t_\t_\n1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n"
    "00000001.00000001\tz\t_\t_\t_\t_\t_\t_\t_\t_\n2\tb\t_\tVERB\t_\t_\t1\t_\t_\t_\n",
    f"{'2'.zfill(19)}-{'3'.zfill(19)}\tbc\t_\t_\t_\t_\t_\t_\t_\t_\n" + PLAIN
    + "2\tb\t_\tVERB\t_\t_\t1\t_\t_\t_\n"
    + f"{'2'.zfill(19)}.{'1'.zfill(19)}\tz\t_\t_\t_\t_\t_\t_\t_\t_\n",
    # Range and empty-node ids of 8 bytes, read in one word, and of 9.
    *(f"{one}-002\tab\t_\t_\t_\t_\t_\t_\t_\t_\n" + PLAIN + f"{one}.001\tz\t_\t_\t_\t_\t_\t_\t_\t_\n"
      "2\tb\t_\tVERB\t_\t_\t1\t_\t_\t_\n" for one in ["0001", "00001"]),
    # A head zero-padded to as many digits as ``int`` converts.
    f"1\ta\t_\tNOUN\t_\t_\t{'2'.zfill(INT_DIGITS)}\t_\t_\t_\n2\tb\t_\tVERB\t_\t_\t0\t_\t_\t_\n",
    # Whitespace-only blank lines, and a line of one \r before its \r\n end.
    *(PLAIN + blank + PLAIN for blank in [" \n", "\t \t\n", "\xa0\n", "\r\r\n"]),
    # Non-ASCII bytes next to the columns that are read as words.
    "1\té\t日本\tNOUN\t\U0001f600\t_\t0\té\t_\t_\n",
    # A last line whose columns 8-10, or 5-10 but 7, are empty, without a
    # line end: the words of columns 4 and 7 reach past the end of the text.
    "1\ta\t_\tNOUN\t_\t_\t0\t\t\t",
    "1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n2\tb\t_\tX\t\t\t1\t\t\t",
])
def test_the_byte_scan_settles_plain_lines_by_itself(text):
    assert_settled_by_the_arrays(text)


# The array writer against ``oracles.format_conllu_lines``, the writer that
# rebuilt each token line as a string.  ``messy_conllu`` draws a valid file
# and then spaces its blocks out with blank and whitespace-only lines, drops
# its last blank line or ends its lines with ``\r\n``: all of it is read,
# and none of it is written back.
@st.composite
def messy_conllu(draw):
    text = draw(valid_conllu())
    gaps = draw(st.lists(st.sampled_from(["\n", " \n", "\t \n"]), max_size=3))
    text = text.replace("\n\n", "\n\n" + "".join(gaps))
    if draw(st.booleans()):
        text = text.rstrip("\n \t") + "\n"
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    return text


@given(messy_conllu())
@settings(derandomize=True, max_examples=100, deadline=None)
def test_the_byte_scan_settles_messy_files_by_itself(text):
    assert_settled_by_the_arrays(text)


@st.composite
def written_corpora(draw):
    """A corpus read from ``messy_conllu``: as read, with drawn heads in its
    sentences (after ``naive_pos_tag`` or not), or as its sentences,
    sometimes followed by one that cannot be written.  A quarter of the
    parsed corpora keep the heads equal to their token's position."""
    corpus = parse_conllu(draw(messy_conllu()))
    kind = draw(st.sampled_from(["read", "parsed", "retagged", "sentences"]))
    if kind == "read":
        return corpus
    if kind == "sentences":
        sentences = list(corpus)
        if draw(st.booleans()):
            form = draw(st.sampled_from(["a\tb", "a\nb", "a\rb"]))
            sentences.append(Sentence((Token(1, form, "NOUN"),)))
        return sentences
    if kind == "retagged":
        corpus = naive_pos_tag(corpus)
    heads = [draw(st.integers(0, len(sentence))) for sentence in corpus
             for _ in range(len(sentence))]
    heads = np.array(heads)
    if draw(st.integers(0, 3)):
        # Most parsed corpora can be written: a head equal to its token's
        # position, which the writer refuses, becomes the root.
        positions = np.arange(1, len(heads) + 1) - np.repeat(corpus.offsets[:-1],
                                                             np.diff(corpus.offsets))
        heads[heads == positions] = 0
    return replace(corpus, predicted=heads)


def written_or_refused(write, corpus):
    try:
        return write(corpus)
    except ConlluError as error:
        return error


def assert_writes_as_the_oracle(corpus):
    expected = written_or_refused(format_conllu_lines, corpus)
    got = written_or_refused(format_conllu, corpus)
    if isinstance(expected, Exception):
        assert (type(got), str(got)) == (type(expected), str(expected))
    else:
        assert got == expected


@given(written_corpora())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_writer_matches_the_line_string_writer(corpus):
    assert_writes_as_the_oracle(corpus)
    if isinstance(corpus, list):
        return
    # Each form's byte span holds column 2 of its line.
    assert list(map(corpus.raw.form, range(len(corpus.tags)))) == [
        line.split("\t")[1] for line in corpus.lines]
    if corpus.predicted is not None and not isinstance(
            written_or_refused(format_conllu, corpus), ConlluError):
        written = parse_conllu(format_conllu(corpus))
        assert written.heads.tolist() == corpus.predicted.tolist()


WRITER_CASES = {
    "zero-padded ids": "# a = b\n001\tx\t_\tNOUN\t_\t_\t02\tnsubj\t_\t_\n"
                       "0002\ty\t_\tVERB\t_\t_\t0\troot\t_\t_\n\n",
    "range and empty-node lines first and last":
        "# c\n1-2\txy\t_\t_\t_\t_\t_\t_\t_\t_\n1\tx\t_\tNOUN\t_\t_\t2\t_\t_\t_\n"
        "2\ty\t_\tVERB\t_\t_\t0\t_\t_\t_\n2.1\tz\t_\t_\t_\t_\t_\t_\t2:dep\t_\n\n"
        "1.1\tz\t_\t_\t_\t_\t_\t_\t_\t_\n1\tw\t_\tX\t_\t_\t0\t_\t_\tM\n1.1\tv\t_\t_\t_\t_\t_\t_\t_\t_\n",
    "blank and whitespace-only lines, no final blank line":
        "\n \n1\tx\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n\n \t\n\n# c\n1\ty\t_\tVERB\t_\t_\t0\t_\t_\t_\n",
    "CRLF and a byte-order mark":
        "\ufeff# c\r\n1\tx\t_\tNOUN\t_\t_\t0\t_\t_\t_\r\n\r\n1\ty\t_\tVERB\t_\t_\t0\t_\t_\t_\r\n\r\n",
    "multi-byte forms": "# text = café ✓\n1\tcafé\tcafé\tNOUN\tNN\t_\t0\t_\t_\tGloss=コーヒー\n"
                        "2\t✓\t_\tSYM\t_\t_\t1\t_\t_\t😀\n\n",
    "every tag": "".join(f"{i}\tx{i}\t_\t{tag}\t_\t_\t0\t_\t_\t_\n"
                         for i, tag in enumerate(sorted(KNOWN_TAGS), start=1)) + "\n",
    "positions and heads past 10 and 100":
        "".join(f"{i}\tw{i}\t_\tNOUN\t_\t_\t{i - 1}\t_\t_\t_\n" for i in range(1, 121)) + "\n",
    # Ids copied and rebuilt within one sentence, the first line among them.
    "padded and unpadded ids in one sentence":
        "01\tx\t_\tNOUN\t_\t_\t0\t_\t_\t_\n2\ty\t_\tVERB\t_\t_\t1\t_\t_\t_\n"
        "003\tz\t_\tADJ\t_\t_\t1\t_\t_\t_\n4\tw\t_\tX\t_\t_\t3\t_\t_\t_\n"
        + "".join(f"{i}\tv\t_\tDET\t_\t_\t1\t_\t_\t_\n" for i in range(5, 10))
        + "010\tu\t_\tNOUN\t_\t_\t1\t_\t_\t_\n11\tt\t_\tPUNCT\t_\t_\t1\t_\t_\t_\n\n",
    "a last empty-node line without a line end":
        "1\tx\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n# c\n1\ty\t_\tVERB\t_\t_\t0\t_\t_\t_\n"
        "2\tz\t_\tNOUN\t_\t_\t1\t_\t_\t_\n2.1\te\t_\t_\t_\t_\t_\t_\t1:dep\t_",
    "several blank and whitespace-only lines between sentences":
        "1\tx\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n\n \n\t\n\n# c\n1\ty\t_\tVERB\t_\t_\t0\t_\t_\t_\n"
        "1.1\te\t_\t_\t_\t_\t_\t_\t_\t_\n\n \n\n1\tz\t_\tADP\t_\t_\t0\t_\t_\t_\n\n\n",
}


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_writer_cases_match_the_line_string_writer(case):
    corpus = parse_conllu(WRITER_CASES[case])
    sizes = np.diff(corpus.offsets)
    # Reversed positions, which head the middle token of an even-length
    # sentence by itself, and each token headed by the next, the last by
    # the root.
    reversed_heads = np.concatenate([np.arange(size)[::-1] for size in sizes])
    heads = np.concatenate([np.arange(2, size + 2) % (size + 1) for size in sizes])
    assert_writes_as_the_oracle(corpus)
    for predicted in (reversed_heads, heads):
        assert_writes_as_the_oracle(replace(corpus, predicted=predicted))
        assert_writes_as_the_oracle(replace(naive_pos_tag(corpus), predicted=predicted))
    written = parse_conllu(format_conllu(replace(corpus, predicted=heads)))
    assert written.heads.tolist() == heads.tolist()


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_writer_rewrites_tags_swapped_for_names_of_the_same_length(case):
    # A column 4 of the right length but another tag's name, such as NOUN
    # for VERB, must be rewritten, not copied.
    corpus = parse_conllu(WRITER_CASES[case])
    by_length = {}
    for name in TAG_NAMES:
        by_length.setdefault(len(name), []).append(TAG_IDS[name])
    swap = np.arange(len(TAG_NAMES))
    for ids in by_length.values():
        swap[ids] = np.roll(ids, 1)
    swapped = replace(corpus, tags=swap[corpus.tags])
    sizes = np.diff(corpus.offsets)
    heads = np.concatenate([np.arange(size) for size in sizes])
    assert_writes_as_the_oracle(replace(swapped, predicted=heads))
    written = parse_conllu(format_conllu(replace(swapped, predicted=heads)))
    assert written.tags.tolist() == swapped.tags.tolist()
    assert written.heads.tolist() == heads.tolist()


def test_writer_does_not_scan_the_text_again():
    # The writer takes every bound from the reader's ``RawText``: no call
    # may look for tabs or line ends in an array as long as the text.
    corpus = parse_conllu(WRITER_CASES["positions and heads past 10 and 100"]
                          + WRITER_CASES["range and empty-node lines first and last"])
    parsed = replace(corpus, predicted=np.zeros(len(corpus.tags), np.intp))
    variants = (parsed, replace(naive_pos_tag(corpus), predicted=parsed.predicted), corpus)
    sizes = []
    flatnonzero = np.flatnonzero

    def recording(array):
        sizes.append(np.size(array))
        return flatnonzero(array)

    with mock.patch("numpy.flatnonzero", recording):
        for variant in variants:
            format_conllu(variant)
    assert sizes and max(sizes) < len(corpus.raw.data), sizes


def test_writer_of_a_retagged_corpus_writes_content_and_function():
    corpus = parse_conllu(WRITER_CASES["positions and heads past 10 and 100"])
    retagged = naive_pos_tag(corpus)
    written = format_conllu(replace(retagged, predicted=np.zeros(120, np.intp)))
    assert {line.split("\t")[3] for line in token_lines(written)} == {"CONTENT", "FUNCTION"}
    assert token_lines(written)[119] == "120\tw120\t_\tFUNCTION\t_\t_\t0\tdep\t_\t_"


def test_writer_of_an_empty_corpus_writes_nothing():
    for corpus in (parse_conllu(""), parse_conllu("\n \n"), as_corpus([])):
        out = mock.Mock()
        write_conllu(replace(corpus, predicted=np.zeros(0, np.intp)), out)
        write_conllu(corpus, out)
        assert out.write.call_count == 0
        assert format_conllu_lines(corpus) == ""


def test_writer_keeps_a_lone_surrogate_as_the_line_string_writer(tmp_path):
    sentence = Sentence((Token(1, "a\ud800b", "NOUN", gold_head=0),))
    corpus = as_corpus([sentence])
    parsed = replace(corpus, predicted=np.array([0]))
    for variant in (corpus, parsed):
        assert_writes_as_the_oracle(variant)
        assert "a\ud800b" in format_conllu(variant)
        errors = []
        for text in (format_conllu_lines(variant), None):
            with open(tmp_path / "out.conllu", "w", encoding="utf-8") as handle:
                with pytest.raises(UnicodeEncodeError) as error:
                    if text is None:
                        write_conllu(variant, handle)
                    else:
                        handle.write(text)
                        handle.flush()
            errors.append(str(error.value))
        assert errors[0] == errors[1]


@pytest.mark.parametrize("heads", [[0, 3], [-1, 0]])
def test_writer_refuses_a_predicted_head_outside_its_sentence(heads):
    corpus = parse_conllu("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n"
                          "1\tb\t_\tNOUN\t_\t_\t2\t_\t_\t_\n2\tc\t_\tVERB\t_\t_\t0\t_\t_\t_\n\n")
    parsed = replace(corpus, predicted=np.array([0, *heads]))
    token = 1 + (heads[0] == 0)
    with pytest.raises(ConlluError, match=f"sentence 2, token {token}: predicted head "
                                          f"{heads[token - 1]} outside a sentence of 2"):
        format_conllu(parsed)


@pytest.mark.parametrize("heads, message", [
    ([1, 0], "sentence 2, token 1 is its own predicted head"),
    ([2, 2], "sentence 2, token 2 is its own predicted head"),
    # The first fault in token order, of either kind.
    ([1, 3], "sentence 2, token 1 is its own predicted head"),
    ([3, 2], "sentence 2, token 1: predicted head 3 outside a sentence of 2 tokens"),
])
def test_writer_refuses_a_predicted_head_equal_to_its_position(heads, message):
    # Such a line would not read back: the reader refuses a token that
    # heads itself.
    corpus = parse_conllu("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n"
                          "1\tb\t_\tNOUN\t_\t_\t2\t_\t_\t_\n2\tc\t_\tVERB\t_\t_\t0\t_\t_\t_\n\n")
    parsed = replace(corpus, predicted=np.array([0, *heads]))
    for write in (format_conllu, format_conllu_lines):
        with pytest.raises(ConlluError, match=f"^{re.escape(message)}$"):
            write(parsed)


def test_writer_peaks_below_the_reader():
    # The gather holds one 4-byte source position per output byte; one
    # string per line, or 8-byte positions, would cost more than reading.
    tags = sorted(KNOWN_TAGS)
    blocks = []
    for number in range(300):
        forms = [f"w{(number * 17 + i) % 997}" for i in range(17)]
        lines = [f"# sent_id = s{number}", "# text = " + " ".join(forms)]
        lines += [f"{i}\t{form}\t_\t{tags[i % len(tags)]}\t_\t_\t{i - 1}\t_\t_\t_"
                  for i, form in enumerate(forms, start=1)]
        blocks.append("\n".join(lines) + "\n\n")
    text = "".join(blocks)
    parsed = parse_corpus(parse_conllu(text), mode="adjacency")
    format_conllu(parse_conllu(text))
    peaks = []
    for run in (lambda: parse_conllu(text), lambda: write_conllu(parsed, io.StringIO())):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(parsed.tags) == 5100
    assert peaks[1] <= peaks[0], peaks
