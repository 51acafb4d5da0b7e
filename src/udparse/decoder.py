"""Two-step tree decoding, and the two comparison parsers.

Content words are attached in rank order, each to a content word ranked
above it; function words then attach to content words only, which keeps
them leaves.  Head choice is closest-first under the licensing rules and
direction constraints, with a two-stage back-off (drop the rules, then drop
the direction constraint) so every word finds a head.  The first-ranked
content word attaches to the virtual root, enforcing a single root, and
sentence-final punctuation is then re-attached to it.

Once the ranking is known every attachment is independent of the others:
each word takes the nearest eligible head on each side in the lowest tier.
The nearest head ranked above a word on one side is an all-nearest-smaller-
values query (Berkman, Schieber & Vishkin 1993), which ``_nearest`` answers
for every token of a corpus at once by binary lifting over a sparse table of
range minima (Bender & Farach-Colton 2000), in O(N log n) memory for N
tokens and sentences of at most n.  ``decode_corpus``, the one entry to
parsing in every mode, ranks the corpus's content words once (``ranker``)
and runs that search on its flat arrays.  The closest-head baseline is the
same search with every word eligible, and an adjacency chain is one
``np.where``.  The parse modes are defined here, once: ``MODES``, of which
``RANKED_MODES`` rank content words before decoding.
"""

from typing import Iterable

import numpy as np

from .conllu import Corpus, Sentence, as_corpus
from .ranker import (DEFAULT_PREDICATE_WEIGHT, DEFAULT_TELEPORT, check_walk,
                     content_ranks, main_predicates, ranking_keys)
from .rules import (DEFAULT_POLICY, DEFAULT_RULESET, FREE_POLICY, SIDES, TAG_IDS,
                    Direction, DirectionPolicy, RuleSet)

MODES = ("udp", "udp-nopr", "baseline", "adjacency")
RANKED_MODES = MODES[:2]

_PUNCT = TAG_IDS["PUNCT"]


def decode_corpus(corpus: Corpus | Iterable[Sentence], ruleset: RuleSet = DEFAULT_RULESET,
                  policy: DirectionPolicy = DEFAULT_POLICY, mode: str = "udp", *,
                  teleport: float = DEFAULT_TELEPORT,
                  predicate_weight: float = DEFAULT_PREDICATE_WEIGHT,
                  backoff_direction: Direction = Direction.RIGHT) -> np.ndarray:
    """Parse every sentence in ``mode``; one flat head array for the corpus.

    The one entry to parsing, also for a single sentence
    (``decode_corpus([sentence], ...)``).  ``udp`` and ``udp-nopr`` rank
    the corpus by ``ranker.content_ranks``, on ``ranker.ranking_keys`` in
    ``udp`` and on all-zero keys (reading order) in ``udp-nopr``, and
    attach every word by ``_nearest``; the word ranked 0 takes the root,
    and sentence-final PUNCT then attaches to the root's dependent, unless
    it is that word.  ``baseline`` attaches every word to its closest
    licensed head, leftward on a distance tie, else to its neighbor towards
    ``backoff_direction`` (LEFT or RIGHT, the other one at a sentence
    edge), and its main predicate to the root; the output is single-rooted
    but need not be a tree.  ``adjacency`` chains neighbors towards
    ``backoff_direction``.  Walk parameters that ``ranker.check_walk``
    refuses are refused in every mode, then modes not in ``MODES``.  Heads
    are 1-based, 0 for the root, aligned with ``corpus.tags``.
    """
    check_walk(teleport, predicate_weight)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode not in RANKED_MODES and backoff_direction not in (Direction.LEFT, Direction.RIGHT):
        raise ValueError(f"backoff direction must be LEFT or RIGHT, got {backoff_direction}")
    corpus = as_corpus(corpus)
    tags, offsets = corpus.tags, corpus.offsets
    starts, lasts = offsets[:-1], offsets[1:] - 1
    if mode not in RANKED_MODES:
        # The index step towards the neighbor.
        step = SIDES[backoff_direction]
        edge = np.zeros(len(tags), dtype=bool)
        edge[lasts if step == 1 else starts] = True
        neighbors = np.arange(1, len(tags) + 1) + np.where(edge, -step, step)
        neighbors -= np.repeat(starts, np.diff(offsets))
        if mode == "adjacency":
            return np.where(edge, 0, neighbors)
        heads, tiers = _nearest(tags, offsets, np.zeros_like(tags), np.ones_like(tags),
                                ruleset, FREE_POLICY, backoff=False)
        heads = np.where(tiers == 0, heads, neighbors)
        heads[starts + main_predicates(tags, offsets)] = 0
        return heads
    predicates = main_predicates(tags, offsets)
    keys = (ranking_keys(tags, offsets, predicates, ruleset, teleport=teleport,
                         predicate_weight=predicate_weight)
            if mode == "udp" else np.zeros(len(tags)))
    ranks = content_ranks(tags, offsets, predicates, keys)
    heads, _ = _nearest(tags, offsets, ranks, ranks, ruleset, policy)
    roots = np.flatnonzero(ranks == 0)
    heads[roots] = 0
    moved = (tags[lasts] == _PUNCT) & (roots != lasts)
    heads[lasts[moved]] = (roots - starts + 1)[moved]
    return heads


def _nearest(tags: np.ndarray, offsets: np.ndarray, ranks: np.ndarray, limits: np.ndarray,
             ruleset: RuleSet, policy: DirectionPolicy, *, backoff: bool = True
             ) -> tuple[np.ndarray, np.ndarray]:
    """1-based in-sentence head of every token, and the tier it came from.

    Head h is eligible for dependent d when ``ranks[h] < limits[d]``; no
    rank exceeds the largest limit.  d takes the nearest eligible head,
    leftward on a distance tie, in the lowest tier: 0 when the rules
    license it and it lies on d's allowed side (``policy.sides``), 1 when
    only the side holds, 2 otherwise; a token with no eligible head gets
    tier 3 and a head to be overwritten.  That is the argmin of
    ``tier * 4n + 2|h - d| + [h > d]``.  Without ``backoff``, tiers 1 and
    2 are not searched, and a token with no tier-0 head gets tier 3.

    The table has a row per licensing row of ``RuleSet.licensing``, which
    the rule set derives once, one per distinct set of head tags that its
    rules license for a dependent tag; a row holds the ranks of the heads
    it licenses.  With ``backoff``, one more row holds the ranks of all
    tokens.  In each row, each sentence sits behind a -1 sentinel, and the
    layout is followed by its reverse, so a leftward search there looks
    rightward.  Level k holds the minimum of the 2^k entries ending at
    each place, all levels in one buffer, and one descent over the levels
    finds, for every token and side at once, the nearest entry below its
    limit in its licensing row; a second descent searches the all-token
    row for the tokens that found no tier-0 head.
    """
    lengths = np.diff(offsets)
    places = np.arange(len(tags)) - np.repeat(offsets[:-1], lengths)
    rows, masks = ruleset.licensing
    licensed = len(masks)
    if backoff:
        masks = np.vstack([masks, np.ones(len(TAG_IDS), dtype=bool)])
    # The forward layout: a sentinel, then each sentence followed by one.
    at = np.arange(len(tags)) + np.repeat(np.arange(1, len(lengths) + 1), lengths)
    width = 2 * (len(tags) + len(lengths) + 1)
    levels = int(lengths.max(initial=1) - 1).bit_length()
    # Heads a row leaves out read as the largest limit, which no limit
    # exceeds; entries take the smallest signed type that holds it, and so
    # do ranks and limits, which then compare with entries without a cast.
    never = int(limits.max(initial=0))
    dtype = np.min_scalar_type(-1 - never)
    table = np.full((max(levels, 1), len(masks), width), -1, dtype=dtype)
    # A row's entry is the head's rank where the row holds the head, else
    # the largest limit: the larger of the rank and 0, or of the rank and
    # that limit, which no rank exceeds.
    table[0][:, at] = np.maximum(ranks.astype(dtype), np.where(masks, 0, never).astype(dtype)
                                 .take(tags, axis=1))
    table[0][:, width // 2:] = table[0][:, width // 2 - 1::-1]
    # A window that would reach past the first place holds its sentinel, so
    # those entries keep the buffer's -1.
    for k in range(1, levels):
        span = 1 << (k - 1)
        np.minimum(table[k - 1][:, span:], table[k - 1][:, :-span], out=table[k][:, span:])
    flat = table.reshape(len(table), -1)
    limits = limits.astype(dtype)
    # Searches [left, right], started just before each token in the forward
    # and the reversed layout.
    begins = np.stack([at - 1, width - 2 - at])
    # A side suits d when ``sides[tag_d] * (h - d) >= 0``.
    allowed = np.array([[-1], [1]]) * policy.sides[tags] >= 0
    rightward = np.array([[0], [1]])

    def costs(found, bounds, tiers):
        """Least ``tier * 4n + 2|h - d| + [h > d]`` over both sides of the
        searches started at ``found`` for entries below ``bounds``, each
        side at its ``tiers``, or at 3 where its search stopped on its
        sentence's sentinel."""
        distances = found + 1
        for k in reversed(range(levels)):
            found -= (flat[k].take(found) >= bounds) * (1 << k)
        distances -= found
        tiers = np.where(flat[0].take(found) < 0, 3, tiers)
        return (tiers * (4 << levels) + 2 * distances + rightward).min(axis=0)

    # Tier 0 searches the suitable sides of dependents that some rule
    # licenses; the all-token row, the tokens that found no head there.
    # With no licensing row (no rule), every token starts in tier 3.
    none = 3 << (levels + 2)
    least = np.full(len(tags), none)
    if licensed:
        row = rows[tags]
        least = costs(np.maximum(row, 0) * width + begins, limits,
                      np.where(allowed & (row >= 0), 0, 3))
    if backoff:
        unsettled = np.flatnonzero(least >= none)
        least[unsettled] = costs(licensed * width + begins.take(unsettled, axis=1),
                                 limits.take(unsettled), 2 - allowed.take(unsettled, axis=1))
    tiers, rest = np.divmod(least, 4 << levels)
    distances, right = np.divmod(rest, 2)
    return places + 1 + np.where(right, distances, -distances), tiers
