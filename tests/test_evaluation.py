import random
from dataclasses import replace

import pytest

from udparse.evaluation import (AlignmentError, domain_report,
                                error_propagation, format_domain_report,
                                format_report, uas)

from helpers import make_sentence
from oracles import (attachment_counts, mean_and_population_std,
                     per_pos_counts, root_match_count)

TAGS = ["NOUN", "VERB", "DET", "ADP", "PRON", "ADJ", "PUNCT"]


def with_predictions(sentence, heads):
    tokens = tuple(replace(t, pred_head=heads[t.index - 1]) for t in sentence.tokens)
    return replace(sentence, tokens=tokens)


def random_corpus(rng, sentences=10, groups=("news", "wiki", "legal")):
    gold = []
    pred = []
    for _ in range(sentences):
        n = rng.randint(1, 12)
        tags = [rng.choice(TAGS) for _ in range(n)]
        gold_heads = [rng.randint(0, n) for _ in range(n)]
        meta = {"genre": rng.choice(groups)} if rng.random() < 0.8 else {}
        sentence = make_sentence(tags, heads=gold_heads, meta=meta)
        pred_heads = [h if rng.random() < 0.6 else rng.randint(0, n)
                      for h in gold_heads]
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
            pred_heads = [[t.pred_head for t in s] for s in pred]
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
            pred_heads = [[t.pred_head for t in s] for s in ps]
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
