"""Two-step tree decoding.

Content words are attached in rank order, each to a content word ranked
above it; function words then attach to content words only, which keeps
them leaves.  Head choice is closest-first under the licensing rules and
direction constraints, with a two-stage back-off (drop the rules, then drop
the direction constraint) so every word finds a head.  The first-ranked
content word attaches to the virtual root, enforcing a single root, and
sentence-final punctuation is then re-attached to it.

Once the ranking is known every attachment is independent of the others, so
a sentence is decoded as one argmin per row of a dependent-by-head cost
matrix.  ``decode_corpus``, the one entry to ranking and decoding, groups
sentences of equal length into stacks and ranks and decodes each stack with
one ``(B, n, n)`` solve and one argmin; a single sentence is a stack of one.
"""

from collections import defaultdict
from typing import Sequence

import numpy as np

from .conllu import Sentence
from .ranker import (DEFAULT_PREDICATE_WEIGHT, DEFAULT_TELEPORT, content_ranks,
                     rule_counts, tag_ids)
from .rules import DEFAULT_POLICY, DEFAULT_RULESET, TAG_IDS, DirectionPolicy, RuleSet

# Most ``B * n * n`` elements in one stack, which bounds the memory of the
# stacked arrays; a sentence with more than this many ``n * n`` elements
# forms a stack of its own.
_STACK_ELEMENTS = 1 << 16

_PUNCT = TAG_IDS["PUNCT"]

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


def decode_corpus(sentences: Sequence[Sentence], ruleset: RuleSet = DEFAULT_RULESET,
                  policy: DirectionPolicy = DEFAULT_POLICY, mode: str = "udp", *,
                  teleport: float = DEFAULT_TELEPORT,
                  predicate_weight: float = DEFAULT_PREDICATE_WEIGHT) -> list[list[int]]:
    """Rank and decode every sentence; heads per sentence, in input order.

    The one entry to ranking and decoding, also for a single sentence
    (``decode_corpus([sentence], ...)[0]``).  Sentences are ranked by
    ``ranker.content_ranks`` in ``mode`` and decoded by ``_heads`` under the
    cost rule it documents, one stack of equal-length sentences at a time.
    Heads are 1-based, 0 for the root.
    """
    by_length: dict[int, list[int]] = defaultdict(list)
    for position, sentence in enumerate(sentences):
        by_length[len(sentence)].append(position)
    heads: list[list[int]] = [[] for _ in sentences]
    for n, positions in by_length.items():
        size = max(1, _STACK_ELEMENTS // (n * n))
        for start in range(0, len(positions), size):
            stack = positions[start:start + size]
            members = [sentences[position] for position in stack]
            tags = tag_ids(members)
            counts = rule_counts(tags, ruleset)
            ranks = content_ranks(members, tags, counts, mode, teleport=teleport,
                                  predicate_weight=predicate_weight)
            licensed = counts > 0
            del counts
            for position, row in zip(stack, _heads(tags, ranks, licensed, policy).tolist()):
                heads[position] = row
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
