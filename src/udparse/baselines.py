"""Comparison systems.

* closest-head parsing: every word attaches to the nearest token whose tag
  may head it, falling back to a neighbor; single-rooted but not guaranteed
  connected;
* adjacency chains: every word attaches to its left or right neighbor;
* naive two-tag POS: the 100 most frequent word forms of the input become
  FUNCTION, everything else CONTENT.
"""

from collections import Counter
from dataclasses import replace
from typing import Sequence

from .conllu import DependencyTree, Sentence, validate_tree
from .ranker import estimate_main_predicate
from .rules import Direction, RuleSet

FUNCTION_FORM_COUNT = 100

_TREE_CONSTRAINTS = ("single-root", "connectivity", "acyclicity")


def forms_tree(sentence: Sentence, heads: dict[int, int]) -> bool:
    """True when the heads form a single-rooted, connected, acyclic tree.

    Function-word leafness is the main decoder's guarantee; the baselines'
    neighbor attachments make no such promise, so it is not checked here.
    """
    violations = validate_tree(sentence, DependencyTree(heads))
    return not any(v in _TREE_CONSTRAINTS for v in violations)


def _checked_direction(direction: Direction) -> Direction:
    if direction not in (Direction.LEFT, Direction.RIGHT):
        raise ValueError(f"direction must be LEFT or RIGHT, got {direction}")
    return direction


def _neighbor(index: int, n: int, direction: Direction) -> int:
    # Clamped to the existing neighbor at sentence edges.
    if direction is Direction.RIGHT:
        return index + 1 if index < n else index - 1
    return index - 1 if index > 1 else index + 1


def baseline_parse(sentence: Sentence, ruleset: RuleSet,
                   backoff_direction: Direction = Direction.RIGHT) -> DependencyTree:
    """Attach every token to its closest rule-licensed head.

    The first verb (else first content word, else the first token) becomes
    the root's dependent.  Tokens with no licensed head available attach to
    their immediate neighbor in ``backoff_direction``.  Distance ties go
    leftward.  The output is single-rooted but may contain cycles among
    backoff attachments; ``forms_tree`` tells whether it is a tree.
    """
    _checked_direction(backoff_direction)
    n = len(sentence)
    predicate = estimate_main_predicate(sentence)
    heads: dict[int, int] = {}
    for token in sentence.tokens:
        if token.index == predicate:
            heads[token.index] = 0
            continue
        candidates = [other.index for other in sentence.tokens
                      if other.index != token.index and ruleset.licenses(other.upos, token.upos)]
        if candidates:
            heads[token.index] = min(candidates,
                                     key=lambda h: (abs(h - token.index), h))
        else:
            heads[token.index] = _neighbor(token.index, n, backoff_direction)
    return DependencyTree(heads)


def adjacency_parse(sentence: Sentence,
                    direction: Direction = Direction.RIGHT) -> DependencyTree:
    """Attach every token to its neighbor; the edge token takes the root."""
    _checked_direction(direction)
    n = len(sentence)
    if direction is Direction.RIGHT:
        heads = {i: i + 1 if i < n else 0 for i in range(1, n + 1)}
    else:
        heads = {i: i - 1 for i in range(1, n + 1)}
    return DependencyTree(heads)


def naive_pos_tag(corpus: Sequence[Sentence]) -> list[Sentence]:
    """Replace every tag with CONTENT or FUNCTION by form frequency.

    Frequencies are counted case-sensitively over the corpus being parsed;
    the 100 most frequent forms become FUNCTION, ties at the boundary broken
    by lexicographic order of the form.  All other token fields survive.
    """
    counts = Counter(token.form for sentence in corpus for token in sentence.tokens)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    function_forms = {form for form, _ in ranked[:FUNCTION_FORM_COUNT]}
    retagged = []
    for sentence in corpus:
        tokens = tuple(
            replace(token, upos="FUNCTION" if token.form in function_forms else "CONTENT")
            for token in sentence.tokens)
        retagged.append(replace(sentence, tokens=tokens))
    return retagged

