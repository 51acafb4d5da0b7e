"""Command-line interface: parse corpora, run baselines, evaluate, report stats.

The parser is training-free, so ``parse`` makes two passes over its input:
one to estimate the adposition attachment direction from tag bigrams, one to
parse the whole corpus through ``decoder.decode_corpus``; the baselines skip
the first pass and take the second, through the same decoder.  Exit status
is 0 on success, 1 for usage errors, 2 for data errors.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .baselines import naive_pos_tag, tree_violations
from .conllu import Corpus, Sentence, as_corpus, read_conllu, write_conllu
from .decoder import MODES, RANKED_MODES, decode_corpus
from .direction import estimate_adp_direction
from .evaluation import evaluate, format_domain_report, format_report, uas
from .ranker import DEFAULT_PREDICATE_WEIGHT, DEFAULT_TELEPORT
from .rules import (DEFAULT_POLICY, DEFAULT_RULESET, FREE_POLICY,
                    NAIVE_RULESET, TAG_NAMES, Direction, DirectionPolicy,
                    RuleSet, parse_rules)

ADP_DIRECTIONS = ("auto", "left", "right")


def parse_corpus(corpus: Corpus | Iterable[Sentence], *, mode: str = "udp",
                 pos_source: str = "gold-column", adp_direction: str = "auto",
                 teleport: float = DEFAULT_TELEPORT,
                 personalization_weight: float = DEFAULT_PREDICATE_WEIGHT,
                 backoff_direction: Direction = Direction.RIGHT,
                 ruleset: RuleSet | None = None,
                 policy: DirectionPolicy | None = None) -> Corpus:
    """Run the full pipeline over a corpus; returns it with ``predicted`` set.

    Every mode takes one route: tags, then ``decode_corpus``, then one flat
    head array, attached to the corpus without copying it.
    ``adp_direction`` is ``auto`` (estimate from the corpus), ``left``, or
    ``right``; it only matters for the ranked modes under the standard tag
    set, where the direction policy gains an ADP entry.
    """
    if adp_direction not in ADP_DIRECTIONS:
        raise ValueError(f"unknown ADP direction {adp_direction!r}")
    corpus = as_corpus(corpus)
    if pos_source == "naive":
        corpus = naive_pos_tag(corpus)
        active_rules = ruleset if ruleset is not None else NAIVE_RULESET
        active_policy = policy if policy is not None else FREE_POLICY
    elif pos_source == "gold-column":
        active_rules = ruleset if ruleset is not None else DEFAULT_RULESET
        active_policy = policy if policy is not None else DEFAULT_POLICY
        if mode in RANKED_MODES:
            if adp_direction == "auto":
                resolved = estimate_adp_direction(corpus).resolved
            else:
                resolved = Direction(adp_direction)
            active_policy = active_policy.with_direction("ADP", resolved)
    else:
        raise ValueError(f"unknown POS source {pos_source!r}")

    heads = decode_corpus(corpus, active_rules, active_policy, mode,
                          teleport=teleport, predicate_weight=personalization_weight,
                          backoff_direction=backoff_direction)
    return replace(corpus, predicted=heads)


def best_baseline_direction(corpus: Corpus | Iterable[Sentence], *,
                            pos_source: str = "gold-column",
                            ruleset: RuleSet | None = None):
    """Try both backoff directions against gold heads, keep the better one.

    Each direction is one ``parse_corpus`` run in baseline mode.  Returns
    ``(direction, parsed_corpus, report)`` for the direction with the higher
    attachment score; ties prefer RIGHT.  The corpus must carry gold heads.
    """
    corpus = as_corpus(corpus)
    outcomes = {}
    for direction in (Direction.RIGHT, Direction.LEFT):
        parsed = parse_corpus(corpus, mode="baseline", pos_source=pos_source,
                              backoff_direction=direction, ruleset=ruleset)
        outcomes[direction] = (parsed, uas(corpus, parsed))
    best = max(outcomes, key=lambda direction: outcomes[direction][1].uas)
    return (best, *outcomes[best])


class _ArgumentParser(argparse.ArgumentParser):
    # Usage problems exit with 1; argparse's default of 2 is reserved for
    # data errors here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1: {text}")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be positive and finite: {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="udparse",
                             description="Training-free dependency parsing "
                                         "for POS-tagged CoNLL-U corpora.")
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("parse", help="parse a corpus and write CoNLL-U")
    cmd.add_argument("input", nargs="?", default="-",
                     help="input CoNLL-U file, '-' for stdin (default)")
    cmd.add_argument("-o", "--output", default="-",
                     help="output file, '-' for stdout (default)")
    cmd.add_argument("--mode", choices=MODES, default="udp")
    cmd.add_argument("--pos", choices=("gold-column", "naive"), default="gold-column",
                     help="use the UPOS column or retag by form frequency")
    cmd.add_argument("--adp-direction", choices=ADP_DIRECTIONS,
                     default="auto", help="adposition attachment side")
    cmd.add_argument("--teleport", type=_probability, default=DEFAULT_TELEPORT)
    cmd.add_argument("--personalization-weight", type=_positive,
                     default=DEFAULT_PREDICATE_WEIGHT)
    cmd.add_argument("--backoff-direction", choices=("left", "right"), default="right",
                     help="neighbor side for baseline backoff / adjacency chains")
    cmd.add_argument("--rules", metavar="FILE",
                     help="rule file overriding the built-in tables")
    cmd.add_argument("--oracle-direction", action="store_true",
                     help="baseline mode only: try both backoff directions "
                          "against gold heads and keep the better one")
    cmd.set_defaults(func=_cmd_parse)

    cmd = commands.add_parser("eval", help="score predictions against gold heads")
    cmd.add_argument("gold", help="CoNLL-U file whose column 7 holds the gold heads")
    cmd.add_argument("pred", help="CoNLL-U file whose column 7 holds the predicted heads, "
                                  "such as the output of parse")
    cmd.add_argument("--group-by", metavar="KEY",
                     help="additionally report per-group scores by this "
                          "sentence metadata field")
    cmd.add_argument("--machine", action="store_true",
                     help="key/value output instead of readable text")
    cmd.set_defaults(func=_cmd_eval)

    cmd = commands.add_parser("stats", help="corpus counts and bigram statistics")
    cmd.add_argument("input", nargs="?", default="-")
    cmd.set_defaults(func=_cmd_stats)
    return parser


def _read_corpus(path: str) -> Corpus:
    if path == "-":
        return read_conllu(sys.stdin)
    with open(path, encoding="utf-8") as handle:
        return read_conllu(handle)


def _write_corpus(corpus: Corpus, path: str) -> None:
    if path == "-":
        write_conllu(corpus, sys.stdout)
        return
    with open(path, "w", encoding="utf-8") as handle:
        write_conllu(corpus, handle)


def _cmd_parse(args) -> int:
    if args.oracle_direction and args.mode != "baseline":
        print("error: --oracle-direction only applies to --mode baseline",
              file=sys.stderr)
        return 1
    corpus = _read_corpus(args.input)
    ruleset = policy = None
    if args.rules:
        ruleset, policy = parse_rules(Path(args.rules).read_text(encoding="utf-8"))
    backoff = Direction(args.backoff_direction)

    if args.oracle_direction:
        direction, parsed, report = best_baseline_direction(
            corpus, pos_source=args.pos, ruleset=ruleset)
        print(f"oracle backoff direction: {direction.value} "
              f"(UAS {report.uas * 100:.2f})", file=sys.stderr)
    else:
        parsed = parse_corpus(
            corpus, mode=args.mode, pos_source=args.pos,
            adp_direction=args.adp_direction, teleport=args.teleport,
            personalization_weight=args.personalization_weight,
            backoff_direction=backoff, ruleset=ruleset, policy=policy)

    if args.mode == "baseline":
        broken = tree_violations(parsed.predicted, parsed.offsets, parsed.tags)[:, :2]
        well_formed = len(parsed) - int(broken.any(axis=1).sum())
        share = well_formed / len(parsed) * 100 if parsed else 0.0
        print(f"baseline well-formed trees: {well_formed}/{len(parsed)} "
              f"({share:.2f})", file=sys.stderr)

    _write_corpus(parsed, args.output)
    return 0


def _cmd_eval(args) -> int:
    gold = _read_corpus(args.gold)
    pred = _read_corpus(args.pred)
    report, grouped = evaluate(gold, pred, args.group_by)
    lines = format_report(report, machine=args.machine)
    if grouped is not None:
        lines.extend(format_domain_report(grouped, args.group_by,
                                          machine=args.machine))
    print("\n".join(lines))
    return 0


def _cmd_stats(args) -> int:
    corpus = _read_corpus(args.input)
    histogram = np.bincount(corpus.tags, minlength=len(TAG_NAMES))
    estimate = estimate_adp_direction(corpus)
    lines = [f"sentences\t{len(corpus)}", f"tokens\t{len(corpus.tags)}"]
    for tag in np.flatnonzero(histogram):
        lines.append(f"upos\t{TAG_NAMES[tag]}\t{histogram[tag]}")
    lines.append(f"adp_nominal\t{estimate.adp_nominal_count}")
    lines.append(f"nominal_adp\t{estimate.nominal_adp_count}")
    lines.append(f"adp_direction\t{estimate.resolved.value}")
    print("\n".join(lines))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        return exit_request.code if isinstance(exit_request.code, int) else 1
    try:
        return args.func(args)
    except (OSError, ValueError) as error:  # ConlluError, AlignmentError included
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
