import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udparse.conllu import as_corpus, format_conllu, read_conllu
from udparse.evaluation import (AlignmentError, _check_aligned, domain_report,
                                error_propagation, format_domain_report,
                                format_report, uas)

from helpers import decoded, make_sentence, random_head, with_column7
from oracles import (attachment_counts, check_aligned, mean_and_population_std,
                     per_pos_counts, root_match_count)

TAGS = ["NOUN", "VERB", "DET", "ADP", "PRON", "ADJ", "PUNCT"]


def with_predictions(sentence, heads):
    """The sentence as a predicted file holds it: ``heads`` in column 7."""
    return with_column7(sentence, heads)


def random_corpus(rng, sentences=10, groups=("news", "wiki", "legal")):
    gold = []
    pred = []
    for _ in range(sentences):
        n = rng.randint(1, 12)
        tags = [rng.choice(TAGS) for _ in range(n)]
        gold_heads = [random_head(rng, n, i) for i in range(n)]
        meta = {"genre": rng.choice(groups)} if rng.random() < 0.8 else {}
        sentence = make_sentence(tags, heads=gold_heads, meta=meta)
        pred_heads = [h if rng.random() < 0.6 else random_head(rng, n, i)
                      for i, h in enumerate(gold_heads)]
        gold.append(sentence)
        pred.append(with_predictions(sentence, pred_heads))
    return gold, pred


class TestUas:
    def test_identical_prediction_scores_one(self):
        gold = [make_sentence(["NOUN", "VERB"], heads=(2, 0))]
        pred = [with_predictions(gold[0], [2, 0])]
        report = uas(gold, pred)
        assert report.uas == 1.0
        assert report.root_accuracy == 1.0

    def test_seven_of_ten(self):
        tags = ["NOUN"] * 10
        gold_heads = [0] + [1] * 9
        pred_heads = [0] + [1] * 6 + [2] * 3
        gold = [make_sentence(tags, heads=gold_heads)]
        pred = [with_predictions(gold[0], pred_heads)]
        assert uas(gold, pred).uas == pytest.approx(0.7)

    def test_matches_brute_force_on_random_corpora(self):
        rng = random.Random(12)
        for _ in range(50):
            gold, pred = random_corpus(rng)
            report = uas(gold, pred)
            gold_heads = [[t.gold_head for t in s] for s in gold]
            pred_heads = [[t.gold_head for t in s] for s in pred]
            correct, total = attachment_counts(gold_heads, pred_heads)
            assert (report.correct, report.total) == (correct, total)
            tags = [[t.upos for t in s] for s in gold]
            assert report.per_pos == per_pos_counts(tags, gold_heads, pred_heads)
            assert report.root_correct == root_match_count(gold_heads, pred_heads)

    def test_per_pos_totals_sum_to_token_count(self):
        rng = random.Random(13)
        gold, pred = random_corpus(rng)
        report = uas(gold, pred)
        assert sum(t for _, t in report.per_pos.values()) == report.total
        fractions = report.per_pos_uas()
        for tag, (c, t) in report.per_pos.items():
            assert fractions[tag] == (c, t, c / t)

    def test_uas_is_sentence_order_invariant(self):
        rng = random.Random(14)
        gold, pred = random_corpus(rng)
        paired = list(zip(gold, pred))
        rng.shuffle(paired)
        shuffled_gold, shuffled_pred = zip(*paired)
        assert uas(gold, pred).uas == uas(list(shuffled_gold), list(shuffled_pred)).uas

    def test_misaligned_sentence_count(self):
        gold = [make_sentence(["NOUN"], heads=(0,))] * 2
        pred = [with_predictions(gold[0], [0])]
        with pytest.raises(AlignmentError, match="sentence count"):
            uas(gold, pred)

    def test_misalignment_names_first_divergence(self):
        gold = [make_sentence(["NOUN"], forms=("cat",), heads=(0,)),
                make_sentence(["NOUN", "VERB"], forms=("a", "b"), heads=(2, 0))]
        pred = [with_predictions(gold[0], [0]),
                with_predictions(make_sentence(["NOUN", "VERB"], forms=("a", "zz")), [2, 0])]
        with pytest.raises(AlignmentError, match="sentence 2, token 2"):
            uas(gold, pred)

    def test_missing_gold_head_is_an_error(self):
        gold = [make_sentence(["NOUN"])]
        pred = [with_predictions(gold[0], [0])]
        with pytest.raises(ValueError, match="missing gold head"):
            uas(gold, pred)

    def test_missing_prediction_is_an_error(self):
        gold = [make_sentence(["NOUN"], heads=(0,))]
        pred = [make_sentence(["NOUN"])]
        with pytest.raises(ValueError, match="missing predicted head"):
            uas(gold, pred)

    def test_multi_root_gold_flagged_and_scored_against_first(self):
        gold = [make_sentence(["VERB", "VERB"], heads=(0, 0))]
        pred = [with_predictions(gold[0], [0, 1])]
        report = uas(gold, pred)
        assert report.multi_root_gold == 1
        assert report.root_correct == 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            uas([], [])

    def test_gold_cycle_flagged_and_scored(self):
        # Tokens 1 and 2 head each other: neither reaches the root.
        gold = [make_sentence(["NOUN", "NOUN"], heads=(2, 1), meta={"genre": "a"}),
                make_sentence(["NOUN", "VERB"], heads=(2, 0), meta={"genre": "b"})]
        pred = [with_predictions(gold[0], [2, 1]), with_predictions(gold[1], [2, 0])]
        report = uas(gold, pred)
        assert (report.correct, report.total) == (4, 4)
        assert (report.unrooted_gold, report.multi_root_gold) == (1, 0)
        grouped = domain_report(gold, pred, "genre")
        assert grouped.groups["a"].unrooted_gold == 1
        assert grouped.groups["b"].unrooted_gold == 0


# Forms that share a byte length but not their bytes (``café``, ``cafè``),
# multi-byte and empty forms, and forms of up to 20 bytes with a multi-byte
# character that may straddle byte 8 or 16, where the 8-byte words that
# forms are compared in meet.
SWAPS = {"é": "è", "è": "é", "\u65e5": "\u65e6", "\u65e6": "\u65e5"}
FORMS = st.one_of(st.sampled_from(["a", "b", "ab", "café", "cafè", "日本", "_", ""]),
                  st.text(alphabet="aé\u65e5", max_size=3),
                  st.builds(lambda pad, char, tail: "a" * pad + char + tail,
                            st.integers(5, 14), st.sampled_from(sorted(SWAPS)),
                            st.text(alphabet="ab", max_size=3)))


def changed_at(form, at):
    """``form`` with its character at ``at`` changed to one of the same
    byte length; an ASCII form then differs in byte ``at`` only, and a
    form of ``SWAPS`` characters in that character's last byte only."""
    if not -len(form) <= at < len(form):
        return form
    char = form[at]
    other = SWAPS.get(char, "z" if char != "z" else "y")
    return form[:at] + other + form[at:][1:]


@st.composite
def misaligned_forms(draw):
    """Gold forms per sentence, and predicted forms with some forms changed,
    most at the first or last token, some in their 1st, 8th, 9th, 10th or
    last character only, and maybe a token or a sentence added or dropped,
    before or after the changed forms."""
    gold = draw(st.lists(st.lists(FORMS, min_size=1, max_size=5), min_size=1, max_size=5))
    pred = [list(forms) for forms in gold]
    tokens = [(s, t) for s, forms in enumerate(pred) for t in range(len(forms))]
    for _ in range(draw(st.integers(0, 2))):
        s, t = draw(st.sampled_from([tokens[0], tokens[-1], *tokens]))
        pred[s][t] = draw(st.one_of(FORMS, st.just("z" + pred[s][t][1:]),
                                    st.sampled_from([7, 8, 9, -1]).map(
                                        lambda at, form=pred[s][t]: changed_at(form, at))))
    change = draw(st.sampled_from(["none"] * 4 + ["add token", "drop token", "add sentence",
                                                  "drop sentence"]))
    s = draw(st.integers(0, len(pred) - 1))
    if change == "add token":
        pred[s].insert(draw(st.integers(0, len(pred[s]))), draw(FORMS))
    elif change == "drop token" and len(pred[s]) > 1:
        del pred[s][draw(st.integers(0, len(pred[s]) - 1))]
    elif change == "add sentence":
        pred.append(["x"])
    elif change == "drop sentence" and len(pred) > 1:
        del pred[s]
    return gold, pred


def built(forms, reader):
    """A corpus of NOUN tokens with these forms, read from its CoNLL-U text
    or converted from sentences."""
    sentences = [make_sentence(["NOUN"] * len(words), words) for words in forms]
    return read_conllu(io.StringIO(format_conllu(sentences))) if reader else as_corpus(sentences)


def alignment_error(check, gold, pred):
    try:
        check(gold, pred)
    except AlignmentError as error:
        return type(error), str(error)
    return None


@given(misaligned_forms(), st.booleans(), st.booleans())
@example(([["café"]], [["cafè"]]), True, False)
@example(([["a", "b"], ["c"]], [["a", "x"], ["c"]]), False, True)
@example(([["a", "café"], ["b"]], [["a", "cafè"], ["b"]]), True, True)
@example(([["a"], ["café", "b"]], [["a", "x"], ["cafè", "b"]]), False, True)
@example(([["café"], ["a", "b"]], [["cafè"], ["a"]]), True, False)
# Forms that differ only in byte 8, 9 or 10 (from 1) or their last byte,
# of 1 to 20 bytes, some with a character across byte 8 or 16.
@example(([["abcdefgh", "x"]], [["abcdefgz", "x"]]), True, True)
@example(([["abcdefghi", "x"]], [["abcdefghz", "x"]]), True, True)
@example(([["abcdefghij"], ["x"]], [["abcdefghiz"], ["x"]]), True, False)
@example(([["a", "b" * 20]], [["a", "b" * 19 + "c"]]), False, True)
@example(([["b" * 16 + "c", "d"]], [["b" * 16 + "d", "d"]]), True, True)
@example(([["a" * 7 + "é", "a" * 7 + "é"]], [["a" * 7 + "é", "a" * 7 + "è"]]), True, False)
@example(([["a" * 15 + "\u65e5b"]], [["a" * 15 + "\u65e6b"]]), False, False)
@example(([["a" * k for k in range(1, 21)]], [["a" * k for k in range(1, 20)] + ["a" * 19 + "b"]]),
         True, True)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_alignment_on_byte_spans_matches_form_lists(forms, gold_read, pred_read):
    gold, pred = built(forms[0], gold_read), built(forms[1], pred_read)
    assert alignment_error(_check_aligned, gold, pred) == alignment_error(
        check_aligned, gold, pred)


def test_scoring_read_corpora_decodes_no_line():
    text = ("# text = a café\n"
            "1\ta\t_\tDET\t_\t_\t2\t_\t_\t_\n"
            "2\tcafé\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n")
    gold, pred = read_conllu(io.StringIO(text)), read_conllu(io.StringIO(text))
    assert len(gold) == len(pred) == 1
    assert uas(gold, pred).uas == 1.0
    assert decoded(gold) == decoded(pred) == set()


def test_alignment_names_the_first_differing_multi_byte_form():
    gold = built([["a", "café"], ["b"]], reader=True)
    pred = built([["a", "cafè"], ["c", "d"]], reader=False)
    with pytest.raises(AlignmentError) as raised:
        _check_aligned(gold, pred)
    assert str(raised.value) == ("sentence 1, token 2: form mismatch "
                                 "(gold 'café', predicted 'cafè')")
    # The message is worded from the two forms' bytes alone.
    assert decoded(gold) == decoded(pred) == set()


class TestErrorPropagation:
    def test_reference_values(self):
        assert error_propagation(0.553, 0.575, 0.941) == pytest.approx(0.373, abs=5e-4)
        assert error_propagation(0.612, 0.639, 0.941) == pytest.approx(0.458, abs=5e-4)

    def test_zero_when_accuracies_match(self):
        assert error_propagation(0.6, 0.6, 0.9) == 0.0

    def test_undefined_at_perfect_pos(self):
        with pytest.raises(ValueError, match="undefined"):
            error_propagation(0.5, 0.6, 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            error_propagation(1.5, 0.6, 0.9)

    def test_linear_in_predicted_parse_accuracy(self):
        xs = (0.2, 0.4, 0.6)
        ys = [error_propagation(x, 0.7, 0.9) for x in xs]
        assert ys[1] - ys[0] == pytest.approx(ys[2] - ys[1])


class TestDomainReport:
    def test_empty_corpus_rejected_as_uas_rejects_it(self):
        with pytest.raises(ValueError, match="^cannot evaluate an empty corpus$"):
            domain_report([], [], "genre")

    def test_single_group_has_zero_std(self):
        gold = [make_sentence(["NOUN"], heads=(0,), meta={"genre": "news"})]
        pred = [with_predictions(gold[0], [0])]
        report = domain_report(gold, pred, "genre")
        assert list(report.groups) == ["news"]
        assert report.std_uas == 0.0

    def test_two_groups_mean_and_std(self):
        gold = [
            make_sentence(["NOUN"] * 5, heads=(0, 1, 1, 1, 1), meta={"genre": "a"}),
            make_sentence(["NOUN"] * 5, heads=(0, 1, 1, 1, 1), meta={"genre": "b"}),
        ]
        pred = [
            with_predictions(gold[0], [0, 1, 1, 2, 2]),   # 3/5
            with_predictions(gold[1], [0, 1, 1, 1, 2]),   # 4/5
        ]
        report = domain_report(gold, pred, "genre")
        assert report.groups["a"].uas == pytest.approx(0.6)
        assert report.groups["b"].uas == pytest.approx(0.8)
        assert report.mean_uas == pytest.approx(0.7)
        assert report.std_uas == pytest.approx(0.1)

    def test_missing_field_goes_to_unknown(self):
        gold = [make_sentence(["NOUN"], heads=(0,))]
        pred = [with_predictions(gold[0], [0])]
        report = domain_report(gold, pred, "genre")
        assert list(report.groups) == ["unknown"]

    def test_synthetic_three_domain_corpus_matches_recomputation(self):
        rng = random.Random(15)
        gold, pred = random_corpus(rng, sentences=30)
        report = domain_report(gold, pred, "genre")
        by_group = {}
        for g, p in zip(gold, pred):
            by_group.setdefault(g.meta.get("genre", "unknown"), ([], []))
            by_group[g.meta.get("genre", "unknown")][0].append(g)
            by_group[g.meta.get("genre", "unknown")][1].append(p)
        for label, (gs, ps) in by_group.items():
            gold_heads = [[t.gold_head for t in s] for s in gs]
            pred_heads = [[t.gold_head for t in s] for s in ps]
            correct, total = attachment_counts(gold_heads, pred_heads)
            assert report.groups[label].uas == pytest.approx(correct / total)
        mean, std = mean_and_population_std([r.uas for r in report.groups.values()])
        assert report.mean_uas == pytest.approx(mean)
        assert report.std_uas == pytest.approx(std)


class TestFormatting:
    def test_plain_report_mentions_percent_uas(self):
        gold = [make_sentence(["NOUN", "VERB"], heads=(2, 0))]
        pred = [with_predictions(gold[0], [2, 0])]
        lines = format_report(uas(gold, pred))
        assert lines[0] == "UAS: 100.00 (2/2)"
        assert any(line.startswith("Per-POS") for line in lines)

    def test_machine_report_is_key_value(self):
        gold = [make_sentence(["NOUN", "VERB"], heads=(2, 0))]
        pred = [with_predictions(gold[0], [2, 0])]
        lines = format_report(uas(gold, pred), machine=True)
        assert "uas\t1.000000" in lines
        assert "multi_root_gold\t0" in lines
        assert not any(line.startswith("unrooted_gold") for line in lines)
        assert any(line.startswith("pos_uas.NOUN\t") for line in lines)

    def test_multi_root_gold_shows_in_plain_report(self):
        gold = [make_sentence(["VERB", "VERB"], heads=(0, 0))]
        pred = [with_predictions(gold[0], [0, 1])]
        lines = format_report(uas(gold, pred))
        assert any("Multi-root gold sentences: 1" in line for line in lines)

    def test_domain_lines(self):
        gold = [make_sentence(["NOUN"], heads=(0,), meta={"genre": "news"})]
        pred = [with_predictions(gold[0], [0])]
        report = domain_report(gold, pred, "genre")
        text = format_domain_report(report, "genre")
        assert text[0] == "Domain UAS (genre):"
        machine = format_domain_report(report, "genre", machine=True)
        assert machine[-2] == "domain_mean_uas\t1.000000"
