"""Attachment scoring: UAS, per-tag breakdowns, root accuracy, domain reports.

All tokens are scored, punctuation included.  Corpora are compared
position-by-position and must describe the same token sequences.
"""

import math
from dataclasses import dataclass
from typing import Sequence

from .conllu import Sentence, Token


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


def _check_aligned(gold: Sequence[Sentence], pred: Sequence[Sentence]) -> None:
    if len(gold) != len(pred):
        raise AlignmentError(
            f"sentence count differs: gold {len(gold)}, predicted {len(pred)}")
    for number, (g, p) in enumerate(zip(gold, pred), start=1):
        if len(g) != len(p):
            raise AlignmentError(
                f"sentence {number}: token count differs "
                f"(gold {len(g)}, predicted {len(p)})")
        for gt, pt in zip(g.tokens, p.tokens):
            if gt.form != pt.form:
                raise AlignmentError(
                    f"sentence {number}, token {gt.index}: form mismatch "
                    f"(gold {gt.form!r}, predicted {pt.form!r})")


def _gold_head(number: int, token: Token) -> int:
    if token.gold_head is None:
        raise ValueError(f"sentence {number}, token {token.index}: missing gold head")
    return token.gold_head


def _predicted_head(number: int, token: Token) -> int:
    if token.pred_head is not None:
        return token.pred_head
    if token.gold_head is not None:
        return token.gold_head
    raise ValueError(f"sentence {number}, token {token.index}: missing predicted head")


def uas(gold: Sequence[Sentence], pred: Sequence[Sentence]) -> EvalReport:
    """Score predicted heads against gold heads.

    A token counts as correct when its predicted head index equals the gold
    head index; per-tag buckets use the gold tags.  Root accuracy compares
    each sentence's predicted root dependent with its gold one; sentences
    with several gold roots (malformed gold) are scored against the first
    and counted in ``multi_root_gold``.
    """
    gold = list(gold)
    pred = list(pred)
    _check_aligned(gold, pred)
    if not gold:
        raise ValueError("cannot evaluate an empty corpus")

    correct = 0
    total = 0
    per_pos: dict[str, tuple[int, int]] = {}
    root_correct = 0
    multi_root = 0
    for number, (g, p) in enumerate(zip(gold, pred), start=1):
        gold_roots = [t.index for t in g.tokens if _gold_head(number, t) == 0]
        if len(gold_roots) > 1:
            multi_root += 1
        pred_roots = [t.index for t in p.tokens if _predicted_head(number, t) == 0]
        if gold_roots and pred_roots and pred_roots[0] == gold_roots[0]:
            root_correct += 1
        for gt, pt in zip(g.tokens, p.tokens):
            hit = _gold_head(number, gt) == _predicted_head(number, pt)
            c, t = per_pos.get(gt.upos, (0, 0))
            per_pos[gt.upos] = (c + hit, t + 1)
            correct += hit
            total += 1
    return EvalReport(correct, total, per_pos, root_correct, len(gold), multi_root)


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


def domain_report(gold: Sequence[Sentence], pred: Sequence[Sentence],
                  group_key: str) -> DomainReport:
    """Group-wise attachment scores keyed by a sentence metadata field.

    Sentences missing the field collect under ``unknown``.  Groups are
    weighted equally in the mean and population standard deviation.
    """
    gold = list(gold)
    pred = list(pred)
    _check_aligned(gold, pred)
    buckets: dict[str, tuple[list[Sentence], list[Sentence]]] = {}
    for g, p in zip(gold, pred):
        label = g.meta.get(group_key, "unknown")
        buckets.setdefault(label, ([], []))
        buckets[label][0].append(g)
        buckets[label][1].append(p)
    groups = {label: uas(gs, ps) for label, (gs, ps) in sorted(buckets.items())}
    return DomainReport(groups)


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
