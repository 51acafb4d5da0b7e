"""Attachment scoring: UAS, per-tag breakdowns, root accuracy, domain reports.

All tokens are scored, punctuation included.  Corpora are compared
position-by-position and must describe the same token sequences; every
count is one ``np.bincount`` over the flat arrays.  ``eval`` reads the
predicted heads from column 7 of the predicted file.
"""

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .baselines import tree_violations
from .conllu import Corpus, Sentence, _locate, _meta, as_corpus
from .rules import TAG_NAMES


class AlignmentError(ValueError):
    """Gold and predicted corpora do not describe the same tokens."""


@dataclass(frozen=True)
class EvalReport:
    correct: int
    total: int
    per_pos: dict[str, tuple[int, int]]
    root_correct: int
    sentence_count: int
    multi_root_gold: int = 0
    # Gold sentences with a token that does not reach the root: a head cycle.
    unrooted_gold: int = 0

    @property
    def uas(self) -> float:
        return self.correct / self.total

    @property
    def root_accuracy(self) -> float:
        return self.root_correct / self.sentence_count

    def per_pos_uas(self) -> dict[str, tuple[int, int, float]]:
        return {tag: (c, t, c / t) for tag, (c, t) in self.per_pos.items()}


@dataclass(frozen=True)
class DomainReport:
    """Per-group attachment reports plus their mean and spread."""

    groups: dict[str, EvalReport]

    @property
    def mean_uas(self) -> float:
        values = [report.uas for report in self.groups.values()]
        return sum(values) / len(values)

    @property
    def std_uas(self) -> float:
        # Population standard deviation; group counts are small.
        mean = self.mean_uas
        values = [report.uas for report in self.groups.values()]
        return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def _check_aligned(gold: Corpus, pred: Corpus) -> None:
    """Raise AlignmentError at the first sentence whose token count or
    forms differ between the corpora.

    Forms are compared as the UTF-8 byte spans of column 2, so that no
    string is built unless a form differs: first their lengths, then the
    bytes of the tokens before the first length mismatch, 8 at a time
    (``RawText.first_form_mismatch``).
    """
    if len(gold) != len(pred):
        raise AlignmentError(
            f"sentence count differs: gold {len(gold)}, predicted {len(pred)}")
    gold_lengths, pred_lengths = np.diff(gold.offsets), np.diff(pred.offsets)
    differs = np.flatnonzero(gold_lengths != pred_lengths)
    # Sentences before the first count mismatch line up token by token.
    aligned = int(gold.offsets[differs[0]]) if len(differs) else len(gold.tags)
    token = gold.raw.first_form_mismatch(pred.raw, aligned)
    if token is not None:
        number, index = _locate(gold.offsets, token)
        raise AlignmentError(
            f"sentence {number}, token {index}: form mismatch "
            f"(gold {gold.raw.form(token)!r}, predicted {pred.raw.form(token)!r})")
    if len(differs):
        number = int(differs[0])
        raise AlignmentError(
            f"sentence {number + 1}: token count differs "
            f"(gold {gold_lengths[number]}, predicted {pred_lengths[number]})")


def _scored_heads(gold: Corpus | Iterable[Sentence], pred: Corpus | Iterable[Sentence]
                  ) -> tuple[Corpus, np.ndarray]:
    """The gold corpus and the predicted heads of aligned corpora.

    The gold heads are the gold corpus's column 7, its ``heads``.  The
    predicted heads are the predicted corpus's column 7 as it is written:
    the ``predicted`` heads of a corpus that ``cli.parse_corpus`` returned,
    else the column as read, which is what ``eval`` scores.  A ``_`` in
    either raises ValueError naming the first sentence and token that lack
    a head, a missing gold head first within a sentence.
    """
    gold, pred = as_corpus(gold), as_corpus(pred)
    _check_aligned(gold, pred)
    pred_heads = pred.heads if pred.predicted is None else pred.predicted
    missing = []
    for kind, heads in (("gold", gold.heads), ("predicted", pred_heads)):
        tokens = np.flatnonzero(heads < 0)
        if len(tokens):
            missing.append((*_locate(gold.offsets, int(tokens[0])), kind))
    if missing:
        number, index, kind = min(missing, key=lambda m: (m[0], m[2]))
        raise ValueError(f"sentence {number}, token {index}: missing {kind} head")
    return gold, pred_heads


def _roots(heads: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per sentence, the flat position of its first root dependent (-1 for
    none) and its number of root dependents."""
    roots = np.flatnonzero(heads == 0)
    sentences = np.searchsorted(offsets, roots, side="right") - 1
    first = np.full(len(offsets) - 1, -1)
    with_root, at = np.unique(sentences, return_index=True)
    first[with_root] = roots[at]
    return first, np.bincount(sentences, minlength=len(offsets) - 1)


def _reports(gold: Corpus, pred_heads: np.ndarray, unrooted: np.ndarray,
             groups: np.ndarray, group_count: int) -> list[EvalReport]:
    """One report per group; ``unrooted`` flags the gold sentences that are
    not connected to the root, and ``groups`` holds each sentence's group."""
    tag_count = len(TAG_NAMES)
    keys = np.repeat(groups, np.diff(gold.offsets)) * tag_count + gold.tags
    size = group_count * tag_count
    totals = np.bincount(keys, minlength=size).reshape(group_count, tag_count)
    correct = np.bincount(keys[gold.heads == pred_heads],
                          minlength=size).reshape(group_count, tag_count)
    gold_first, gold_roots = _roots(gold.heads, gold.offsets)
    pred_first, _ = _roots(pred_heads, gold.offsets)
    root_correct = np.bincount(groups[(gold_first >= 0) & (gold_first == pred_first)],
                               minlength=group_count)
    multi_root = np.bincount(groups[gold_roots > 1], minlength=group_count)
    unrooted_gold = np.bincount(groups[unrooted], minlength=group_count)
    sentences = np.bincount(groups, minlength=group_count)
    return [EvalReport(int(correct[group].sum()), int(totals[group].sum()),
                       {TAG_NAMES[tag]: (int(correct[group, tag]), int(totals[group, tag]))
                        for tag in np.flatnonzero(totals[group])},
                       int(root_correct[group]), int(sentences[group]),
                       int(multi_root[group]), int(unrooted_gold[group]))
            for group in range(group_count)]


def uas(gold: Corpus | Iterable[Sentence], pred: Corpus | Iterable[Sentence]) -> EvalReport:
    """Score predicted heads against gold heads.

    The corpora must describe the same tokens, and every token needs a
    gold and a predicted head; ``_scored_heads`` says where each comes
    from.  A token counts as correct when its predicted head index equals
    the gold head index; per-tag buckets use the gold tags.  Root accuracy
    compares each sentence's first predicted root dependent with its first
    gold one.  Malformed gold is scored as it is, and counted: sentences
    with several gold roots in ``multi_root_gold``, and sentences with a
    token that does not reach the root, by ``baselines.tree_violations``,
    in ``unrooted_gold``.
    """
    return evaluate(gold, pred)[0]


def evaluate(gold: Corpus | Iterable[Sentence], pred: Corpus | Iterable[Sentence],
             group_key: str | None = None) -> tuple[EvalReport, DomainReport | None]:
    """``uas`` of the corpora and, for a ``group_key``, their
    ``domain_report``, from one alignment and one gold tree check.  The
    key is read from each gold sentence's comments, as ``Sentence.meta``
    reads it."""
    gold, pred_heads = _scored_heads(gold, pred)
    if not len(gold):
        raise ValueError("cannot evaluate an empty corpus")
    unrooted = tree_violations(gold.heads, gold.offsets, gold.tags)[:, 1]
    report = _reports(gold, pred_heads, unrooted, np.zeros(len(gold), dtype=np.intp), 1)[0]
    if group_key is None:
        return report, None
    names, groups = np.unique(
        [_meta(comments).get(group_key, "unknown") for comments in gold.comments],
        return_inverse=True)
    return report, DomainReport(dict(zip(
        names.tolist(), _reports(gold, pred_heads, unrooted, groups, len(names)))))


def error_propagation(parse_acc_pred_pos: float, parse_acc_gold_pos: float,
                      pos_acc: float) -> float:
    """Extra parse errors caused per POS-tagging error.

    Computed as the parse-error increase under predicted tags divided by the
    POS error rate.  Undefined when POS accuracy is 1.
    """
    for name, value in (("parse_acc_pred_pos", parse_acc_pred_pos),
                        ("parse_acc_gold_pos", parse_acc_gold_pos),
                        ("pos_acc", pos_acc)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    if pos_acc == 1.0:
        raise ValueError("error propagation is undefined when POS accuracy is 1")
    return ((1.0 - parse_acc_pred_pos) - (1.0 - parse_acc_gold_pos)) / (1.0 - pos_acc)


def domain_report(gold: Corpus | Iterable[Sentence], pred: Corpus | Iterable[Sentence],
                  group_key: str) -> DomainReport:
    """Group-wise attachment scores keyed by a gold sentence metadata field.

    Sentences missing the field collect under ``unknown``.  Groups are
    weighted equally in the mean and population standard deviation.  The
    report is ``evaluate``'s, so it refuses what ``evaluate`` refuses.
    """
    return evaluate(gold, pred, group_key)[1]


def format_report(report: EvalReport, machine: bool = False) -> list[str]:
    """Render a report as plain text lines, or as key/value lines."""
    if machine:
        lines = [
            f"uas\t{report.uas:.6f}",
            f"uas_correct\t{report.correct}",
            f"uas_total\t{report.total}",
            f"root_accuracy\t{report.root_accuracy:.6f}",
            f"root_correct\t{report.root_correct}",
            f"sentences\t{report.sentence_count}",
            f"tokens\t{report.total}",
            f"multi_root_gold\t{report.multi_root_gold}",
        ]
        if report.unrooted_gold:
            lines.append(f"unrooted_gold\t{report.unrooted_gold}")
        for tag in sorted(report.per_pos):
            c, t = report.per_pos[tag]
            lines.append(f"pos_uas.{tag}\t{c / t:.6f}\t{c}\t{t}")
        return lines
    lines = [
        f"UAS: {report.uas * 100:.2f} ({report.correct}/{report.total})",
        f"Root accuracy: {report.root_accuracy * 100:.2f} ({report.root_correct}/{report.sentence_count})",
        f"Sentences: {report.sentence_count}",
        f"Tokens: {report.total}",
        "Per-POS UAS:",
    ]
    for tag in sorted(report.per_pos):
        c, t = report.per_pos[tag]
        lines.append(f"  {tag:<8} {c / t * 100:6.2f} ({c}/{t})")
    if report.multi_root_gold:
        lines.append(f"Multi-root gold sentences: {report.multi_root_gold} "
                     f"(scored against the first gold root)")
    if report.unrooted_gold:
        lines.append(f"Gold sentences not connected to the root: {report.unrooted_gold} "
                     f"(a head cycle; scored as they are)")
    return lines


def format_domain_report(report: DomainReport, group_key: str,
                         machine: bool = False) -> list[str]:
    if machine:
        lines = []
        for label, group in report.groups.items():
            lines.append(f"domain_uas.{label}\t{group.uas:.6f}\t{group.correct}\t{group.total}")
        lines.append(f"domain_mean_uas\t{report.mean_uas:.6f}")
        lines.append(f"domain_std_uas\t{report.std_uas:.6f}")
        return lines
    lines = [f"Domain UAS ({group_key}):"]
    for label, group in report.groups.items():
        lines.append(f"  {label:<12} {group.uas * 100:6.2f} ({group.correct}/{group.total})")
    lines.append(f"Domain mean UAS: {report.mean_uas * 100:.2f}")
    lines.append(f"Domain std UAS: {report.std_uas * 100:.2f}")
    return lines
