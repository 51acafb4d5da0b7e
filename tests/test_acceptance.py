"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a ``criterion N PASS`` line once its assertions hold; run
with ``pytest -s tests/test_acceptance.py`` to see the lines (pytest -v
shows per-test outcomes either way).
"""

import os
import random
import time

import numpy as np
import pytest

from udparse.baselines import tree_violations
from udparse.cli import main, parse_corpus
from udparse.conllu import as_corpus, parse_conllu
from udparse.decoder import decode_corpus
from udparse.direction import estimate_adp_direction
from udparse.evaluation import domain_report, error_propagation, uas
from udparse.ranker import class_scores, content_ranks, main_predicates, ranking_keys
from udparse.rules import DEFAULT_POLICY, DEFAULT_RULESET, UPOS_TAGS, Direction

from helpers import (EXAMPLE_CONTENT_ORDER, EXAMPLE_FORMS, EXAMPLE_HEADS,
                     EXAMPLE_IN_DEGREES, example_conllu, example_sentence,
                     make_sentence, random_head, rank_orders, tag_ids, with_column7)
from oracles import (attachment_counts, content_ranking, estimate_main_predicate,
                     mean_and_population_std, per_pos_counts, power_iteration,
                     rule_counts, rule_edges)

ALL_TAGS = sorted(UPOS_TAGS)

# Prepositional context sentences: parsing happens corpus-at-a-time, and the
# bigram estimate needs corpus-level statistics (here 2 adp-nominal vs the 1
# nominal-adp pair inside the example sentence itself).
CONTEXT_BLOCK = (
    "1\tWe\t_\tPRON\t_\t_\t_\t_\t_\t_\n"
    "2\twalked\t_\tVERB\t_\t_\t_\t_\t_\t_\n"
    "3\tin\t_\tADP\t_\t_\t_\t_\t_\t_\n"
    "4\tLondon\t_\tPROPN\t_\t_\t_\t_\t_\t_\n"
    "\n"
    "1\tShe\t_\tPRON\t_\t_\t_\t_\t_\t_\n"
    "2\tspoke\t_\tVERB\t_\t_\t_\t_\t_\t_\n"
    "3\tof\t_\tADP\t_\t_\t_\t_\t_\t_\n"
    "4\tpeople\t_\tNOUN\t_\t_\t_\t_\t_\t_\n"
    "\n"
)


def report_pass(number: int, text: str) -> None:
    print(f"criterion {number:>2} PASS: {text}")


def test_criterion_1_golden_tree_end_to_end(tmp_path, capsys):
    source = tmp_path / "in.conllu"
    source.write_text(example_conllu() + "\n" + CONTEXT_BLOCK, encoding="utf-8")
    out = tmp_path / "out.conllu"
    assert main(["parse", str(source), "-o", str(out)]) == 0
    capsys.readouterr()
    parsed = parse_conllu(out.read_text(encoding="utf-8"))
    heads = [t.gold_head for t in parsed[0]]
    assert heads == list(EXAMPLE_HEADS), "end-to-end tree differs from reference"

    # Same outcome through the library pipeline with default parameters.
    corpus = [example_sentence(),
              make_sentence(["PRON", "VERB", "ADP", "PROPN"]),
              make_sentence(["PRON", "VERB", "ADP", "NOUN"])]
    library = parse_corpus(corpus)
    assert library.per_sentence(library.predicted)[0] == list(EXAMPLE_HEADS)
    report_pass(1, "default end-to-end parse reproduces the reference tree")


def test_criterion_2_golden_graph_in_degrees():
    counts = rule_counts(tag_ids([example_sentence()]), DEFAULT_RULESET)[0]
    in_degrees = tuple(counts.sum(axis=0).tolist())
    assert in_degrees == EXAMPLE_IN_DEGREES
    report_pass(2, f"in-degrees {in_degrees} match the reference row")


def test_criterion_3_golden_ranking_and_score_agreement():
    sentence = example_sentence()
    corpus = as_corpus([sentence])
    predicates = main_predicates(corpus.tags, corpus.offsets)
    keys = ranking_keys(corpus.tags, corpus.offsets, predicates, DEFAULT_RULESET,
                        teleport=0.05, predicate_weight=5.0)
    ranks = content_ranks(corpus.tags, corpus.offsets, predicates, keys)
    content_order = rank_orders(sentence, ranks.tolist())[0]
    assert content_order == EXAMPLE_CONTENT_ORDER
    content_forms = [EXAMPLE_FORMS[i - 1] for i in content_order]
    assert content_forms == ["had", "connection", "extremists", "special"]

    classes, scores = class_scores(corpus.tags, corpus.offsets, predicates,
                                   DEFAULT_RULESET, teleport=0.05, predicate_weight=5.0)
    predicate = estimate_main_predicate([t.upos for t in sentence]) - 1
    weights = [(5.0 if i == predicate else 1.0) / 13 for i in range(9)]
    edges = rule_edges([t.upos for t in sentence], DEFAULT_RULESET.pairs)
    reference = power_iteration(len(sentence), edges, weights)
    assert content_ranking(EXAMPLE_CONTENT_ORDER, reference) == EXAMPLE_CONTENT_ORDER
    worst = max(abs(a - b) for a, b in zip(scores[classes].tolist(), reference))
    assert worst < 1e-10, f"scores diverge from dense power iteration by {worst}"
    report_pass(3, f"content ranking reproduced; score gap vs oracle {worst:.2e}")


def test_criterion_4_structural_suite_over_ten_thousand_sentences():
    rng = random.Random(20250501)
    policies = (DEFAULT_POLICY.with_direction("ADP", Direction.RIGHT),
                DEFAULT_POLICY.with_direction("ADP", Direction.LEFT),
                DEFAULT_POLICY)
    cases = []
    for length in range(1, 41):
        cases.append(["PUNCT"] * length)
        cases.append(["X"] * length)
    while len(cases) < 10_000:
        length = rng.randint(1, 40)
        cases.append([rng.choice(ALL_TAGS) for _ in range(length)])

    def corpus_of(numbers, prefix):
        """The cases as one corpus read from CoNLL-U text, token i of each
        with the form ``prefix`` and i."""
        return parse_conllu("".join(
            "".join(f"{i}\t{prefix}{i}\t_\t{tag}\t_\t_\t_\t_\t_\t_\n"
                    for i, tag in enumerate(cases[number], start=1)) + "\n"
            for number in numbers))

    # One corpus per policy, case k under policy k % 3, each decoded and
    # checked with one call; every 7th case is decoded again with renamed
    # forms, as one more corpus per policy.
    started = time.perf_counter()
    checked = 0
    for first, policy in enumerate(policies):
        numbers = range(first, len(cases), len(policies))
        corpus = corpus_of(numbers, "w")
        heads = decode_corpus(corpus, DEFAULT_RULESET, policy)
        lengths = np.repeat(np.diff(corpus.offsets), np.diff(corpus.offsets))
        assert ((heads >= 0) & (heads <= lengths)).all(), "head outside its sentence"
        broken = np.flatnonzero(tree_violations(heads, corpus.offsets, corpus.tags).any(axis=1))
        assert not len(broken), f"invalid tree for tags {cases[numbers[broken[0]]]}"
        sampled = [number for number in numbers if number % 7 == 0]
        renamed = corpus_of(sampled, "alt")
        rows = corpus.per_sentence(heads)
        again = renamed.per_sentence(decode_corpus(renamed, DEFAULT_RULESET, policy))
        for number, row in zip(sampled, again):
            assert row == rows[(number - first) // len(policies)], \
                f"nondeterministic decode for {cases[number]}"
        checked += len(numbers)
    elapsed = time.perf_counter() - started
    assert checked >= 10_000
    assert elapsed < 60.0, f"structural suite took {elapsed:.1f}s"
    report_pass(4, f"{checked} random sentences decoded to valid trees in {elapsed:.1f}s")


def test_criterion_5_direction_estimator_majorities_and_flip():
    prepositional = ([make_sentence(["ADP", "NOUN"]) for _ in range(9)]
                     + [make_sentence(["PRON", "ADP"]) for _ in range(6)])
    postpositional = ([make_sentence(["NOUN", "ADP"]) for _ in range(9)]
                      + [make_sentence(["ADP", "PRON"]) for _ in range(6)])
    assert len(prepositional) == len(postpositional) == 15

    right = estimate_adp_direction(prepositional)
    assert (right.adp_nominal_count, right.nominal_adp_count) == (9, 6)
    assert right.resolved is Direction.RIGHT

    left = estimate_adp_direction(postpositional)
    assert (left.adp_nominal_count, left.nominal_adp_count) == (6, 9)
    assert left.resolved is Direction.LEFT

    # Swapping every qualifying bigram flips the resolution.
    swapped = [make_sentence(tuple(reversed([t.upos for t in s])))
               for s in prepositional]
    flipped = estimate_adp_direction(swapped)
    assert (flipped.adp_nominal_count, flipped.nominal_adp_count) == (6, 9)
    assert flipped.resolved is Direction.LEFT
    report_pass(5, "60/40 splits resolve with the majority within 15 sentences; "
                   "swapping bigrams flips the call")


def test_criterion_6_error_propagation_reference_values():
    first = error_propagation(0.553, 0.575, 0.941)
    second = error_propagation(0.612, 0.639, 0.941)
    assert first == pytest.approx(0.37, abs=5e-3)
    assert second == pytest.approx(0.46, abs=5e-3)
    report_pass(6, f"error propagation {first:.4f} and {second:.4f} hit 0.37/0.46")


@pytest.mark.skipif("UD_ENGLISH_TEST" not in os.environ,
                    reason="set UD_ENGLISH_TEST to a UD v1.2 English test "
                           "file to run the treebank-level check")
def test_criterion_7_ud_english_treebank_scores():
    path = os.environ["UD_ENGLISH_TEST"]
    with open(path, encoding="utf-8") as handle:
        gold = parse_conllu(handle.read())

    parsed = parse_corpus(gold)
    udp_score = uas(gold, parsed).uas * 100
    assert udp_score == pytest.approx(53.0, abs=2.0)

    baseline = parse_corpus(gold, mode="baseline", backoff_direction=Direction.RIGHT)
    bl_score = uas(gold, baseline).uas * 100
    assert bl_score == pytest.approx(46.2, abs=2.0)
    report_pass(7, f"treebank scores UDP {udp_score:.1f} / baseline {bl_score:.1f}")


def test_criterion_8_evaluator_matches_brute_force():
    rng = random.Random(424242)
    tags_pool = ["NOUN", "VERB", "DET", "ADP", "ADJ", "PRON", "PUNCT", "ADV"]
    trials = 0
    for _ in range(120):
        gold = []
        pred = []
        for _ in range(rng.randint(2, 12)):
            n = rng.randint(1, 10)
            tags = [rng.choice(tags_pool) for _ in range(n)]
            gold_heads = [random_head(rng, n, i) for i in range(n)]
            meta = {"genre": rng.choice(["a", "b", "c"])}
            sentence = make_sentence(tags, heads=gold_heads, meta=meta)
            gold.append(sentence)
            pred_heads = [gold_heads[i] if rng.random() < 0.5 else random_head(rng, n, i)
                          for i in range(n)]
            pred.append(with_column7(sentence, pred_heads))

        report = uas(gold, pred)
        gold_heads = [[t.gold_head for t in s] for s in gold]
        pred_heads = [[t.gold_head for t in s] for s in pred]
        correct, total = attachment_counts(gold_heads, pred_heads)
        assert (report.correct, report.total) == (correct, total)
        tag_rows = [[t.upos for t in s] for s in gold]
        assert report.per_pos == per_pos_counts(tag_rows, gold_heads, pred_heads)

        grouped = domain_report(gold, pred, "genre")
        by_label = {}
        for g_sentence, g_row, p_row in zip(gold, gold_heads, pred_heads):
            by_label.setdefault(g_sentence.meta["genre"], ([], []))
            by_label[g_sentence.meta["genre"]][0].append(g_row)
            by_label[g_sentence.meta["genre"]][1].append(p_row)
        for label, (g_rows, p_rows) in by_label.items():
            c, t = attachment_counts(g_rows, p_rows)
            assert grouped.groups[label].uas == pytest.approx(c / t)
        mean, std = mean_and_population_std([r.uas for r in grouped.groups.values()])
        assert grouped.mean_uas == pytest.approx(mean)
        assert grouped.std_uas == pytest.approx(std)
        trials += 1
    assert trials >= 100
    report_pass(8, f"evaluator equals brute-force recomputation on {trials} corpora")
