"""Two-step tree decoding, and the two comparison parsers.

Content words are attached in rank order, each to a content word ranked
above it; function words then attach to content words only, which keeps
them leaves.  Head choice is closest-first under the licensing rules and
direction constraints, with a two-stage back-off (drop the rules, then drop
the direction constraint) so every word finds a head.  The first-ranked
content word attaches to the virtual root, enforcing a single root, and
sentence-final punctuation is then re-attached to it.

Once the ranking is known every attachment is independent of the others, so
a sentence is decoded as one argmin per row of a dependent-by-head cost
matrix.  ``decode_corpus``, the one entry to parsing in every mode, takes
the corpus's main predicates and ranking keys once (``ranker``), groups
sentences of equal length into stacks, slices each stack's tag ids and keys
out of the corpus's flat arrays, orders it with one sort and decodes it
with one ``(B, n, n)`` argmin, and writes the heads into one flat array; a
single sentence is a stack of one.  The closest-head baseline is one argmin
over the same distance grid, and an adjacency chain is one constant head
row per length.
"""

from typing import Iterable

import numpy as np

from .conllu import Corpus, Sentence, as_corpus
from .ranker import (DEFAULT_PREDICATE_WEIGHT, DEFAULT_TELEPORT, check_walk,
                     content_ranks, main_predicates, ranking_keys, rule_counts, stacks)
from .rules import (DEFAULT_POLICY, DEFAULT_RULESET, TAG_IDS, Direction,
                    DirectionPolicy, RuleSet)

_PUNCT = TAG_IDS["PUNCT"]

# Index step towards the neighbor on each backoff side.
_STEPS = {Direction.RIGHT: 1, Direction.LEFT: -1}

# Head-minus-dependent offsets and the distance part of the cost for the
# longest sentence decoded so far, rebound as one pair so that concurrent
# callers never mix sizes; a shorter sentence uses the top-left blocks.
_grid = (np.zeros((0, 0), dtype=np.intp),) * 2


def _geometry(n: int) -> tuple[np.ndarray, np.ndarray]:
    global _grid
    offsets, distance_costs = _grid
    if n > len(offsets):
        positions = np.arange(n)
        offsets = positions - positions[:, None]
        distance_costs = 2 * np.abs(offsets) + (offsets > 0)
        _grid = offsets, distance_costs
    return offsets[:n, :n], distance_costs[:n, :n]


def decode_corpus(corpus: Corpus | Iterable[Sentence], ruleset: RuleSet = DEFAULT_RULESET,
                  policy: DirectionPolicy = DEFAULT_POLICY, mode: str = "udp", *,
                  teleport: float = DEFAULT_TELEPORT,
                  predicate_weight: float = DEFAULT_PREDICATE_WEIGHT,
                  backoff_direction: Direction = Direction.RIGHT) -> np.ndarray:
    """Parse every sentence in ``mode``; one flat head array for the corpus.

    The one entry to parsing, also for a single sentence
    (``decode_corpus([sentence], ...)``), one stack of equal-length
    sentences (``ranker.stacks``) at a time, its ``(B, n)`` tag ids sliced
    out of the corpus's flat ``tags``.  ``udp`` and ``udp-nopr`` take the
    corpus's ``ranker.ranking_keys`` in that mode once, rank each stack by
    ``ranker.content_ranks`` and decode it by ``_heads`` under the cost
    rule it documents; ``baseline`` attaches by ``_closest_heads`` and
    ``adjacency`` chains neighbors, both towards ``backoff_direction``
    (LEFT or RIGHT).  Walk parameters that ``ranker.check_walk`` refuses
    are refused in every mode.  Heads are 1-based, 0 for the root, aligned
    with ``corpus.tags``.
    """
    check_walk(teleport, predicate_weight)
    if mode in ("baseline", "adjacency") and backoff_direction not in _STEPS:
        raise ValueError(f"backoff direction must be LEFT or RIGHT, got {backoff_direction}")
    corpus = as_corpus(corpus)
    starts = corpus.offsets[:-1]
    heads = np.empty(len(corpus.tags), dtype=np.intp)
    if mode != "adjacency":
        predicates = main_predicates(corpus.tags, corpus.offsets)
    if mode not in ("baseline", "adjacency"):
        keys = ranking_keys(corpus.tags, corpus.offsets, predicates, ruleset, mode,
                            teleport=teleport, predicate_weight=predicate_weight)
    for n, rows in stacks(np.diff(corpus.offsets)):
        tokens = starts[rows, None] + np.arange(n)
        if mode == "adjacency":
            neighbors, edge = _neighbors(n, backoff_direction)
            neighbors[edge] = 0
            heads[tokens] = neighbors
            continue
        tags = corpus.tags[tokens]
        licensed = rule_counts(tags, ruleset) > 0
        if mode == "baseline":
            heads[tokens] = _closest_heads(tags, licensed, predicates[rows], backoff_direction)
        else:
            ranks = content_ranks(tags, keys[tokens], predicates[rows])
            heads[tokens] = _heads(tags, ranks, licensed, policy)
    return heads


def _neighbors(n: int, direction: Direction) -> tuple[np.ndarray, int]:
    """1-based neighbor of every token on the ``direction`` side, and the
    0-based edge token that has none there; it takes its other neighbor."""
    step = _STEPS[direction]
    edge = n - 1 if step == 1 else 0
    neighbors = np.arange(1 + step, n + 1 + step)
    neighbors[edge] -= 2 * step
    return neighbors, edge


def _closest_heads(tags: np.ndarray, licensed: np.ndarray, predicates: np.ndarray,
                   direction: Direction) -> np.ndarray:
    """``(B, n)`` closest-head baseline heads of a stack.

    Every token attaches to the closest head the rules license for it,
    leftward on a distance tie, or to its ``direction`` neighbor when no
    token may head it; the main predicate (0-based ``predicates``) attaches
    to the root.  The output is single-rooted but may contain
    cycles among neighbor attachments, so it need not be a tree.
    """
    stack, n = tags.shape
    _, distance_costs = _geometry(n)
    closest = np.where(licensed, distance_costs, 2 * n).argmin(axis=2) + 1
    heads = np.where(licensed.any(axis=2), closest, _neighbors(n, direction)[0])
    heads[np.arange(stack), predicates] = 0
    return heads


def _heads(tags: np.ndarray, ranks: np.ndarray, licensed: np.ndarray,
           policy: DirectionPolicy) -> np.ndarray:
    """``(B, n)`` 1-based heads (0 for the root) of a decoded stack.

    ``ranks`` places each token in its sentence's order (``content_ranks``),
    0 for the word that takes the root; ``licensed[b, d, h]`` says the rules
    allow head h for dependent d.

    Each word attaches to the cheapest head among the content words ranked
    above it; function words rank n, so they may attach to any content word
    and never head one.  The cost of head h for dependent d is
    ``tier * 4n + 2|h - d| + [h > d]``: tier 0 when the rules license the
    pair and h lies on d's allowed side, tier 1 when only the side holds,
    tier 2 otherwise, and tier 3 (never chosen) when h is not ranked above
    d.  So a lower tier always wins, then the closer head, then the
    leftward one on a distance tie.  The word ranked 0 attaches to the root:
    the top content word, or, in a sentence with no content words, its
    fallback predicate, so the function words still have a head.
    Sentence-final PUNCT then attaches to the root's dependent, unless it
    is that word.
    """
    stack, n = tags.shape
    offsets, distance_costs = _geometry(n)
    directed = policy.sides[tags][:, :, None] * offsets >= 0
    tiers = np.where(ranks[:, :, None] <= ranks[:, None, :], 3, 2 - directed * (1 + licensed))
    del directed
    heads = (tiers * (4 * n) + distance_costs).argmin(axis=2) + 1
    roots = ranks.argmin(axis=1)
    heads[np.arange(stack), roots] = 0
    moved = (tags[:, -1] == _PUNCT) & (roots != n - 1)
    heads[moved, -1] = roots[moved] + 1
    return heads
