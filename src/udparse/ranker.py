"""Sentence-graph construction and content-word ranking.

Every token pair licensed by the head rules contributes one directed edge
from dependent to head, so a word collects an incoming edge per eligible
dependent.  A personalized random walk over this multigraph scores the
tokens; its stationary distribution is solved exactly as one linear system.
Content words are then ordered by descending score, or simply by reading
order when ranking is disabled.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conllu import Sentence
from .rules import TAG_IDS, RuleSet, is_content

DEFAULT_TELEPORT = 0.05
DEFAULT_PREDICATE_WEIGHT = 5.0

# Scores this close are treated as tied when ordering content words, so
# symmetric graph positions fall back to sentence order instead of float
# noise.
_SCORE_DECIMALS = 8


@dataclass(frozen=True, eq=False)
class SentenceGraph:
    """Directed dependent-to-head multigraph over the tokens of a sentence.

    ``counts[d, h]`` is the number of parallel edges from token ``d + 1`` to
    token ``h + 1``.
    """

    counts: np.ndarray

    @property
    def size(self) -> int:
        return len(self.counts)

    @property
    def in_degrees(self) -> tuple[int, ...]:
        return tuple(self.counts.sum(axis=0).tolist())

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """1-based ``(dependent, head)`` pairs, one per parallel edge,
        ordered by head and then by dependent."""
        by_head = self.counts.T
        heads, dependents = np.nonzero(by_head)
        repeats = by_head[heads, dependents]
        return tuple(zip(np.repeat(dependents + 1, repeats).tolist(),
                         np.repeat(heads + 1, repeats).tolist()))


@dataclass(frozen=True)
class RankedSentence:
    """A sentence with its ranked content words and function-word list.

    ``content_order`` and ``function_order`` partition the token indices;
    function words always keep sentence order.  ``scores`` is None when
    ranking ran in ``udp-nopr`` (reading-order) mode.
    """

    sentence: Sentence
    scores: tuple[float, ...] | None
    content_order: tuple[int, ...]
    function_order: tuple[int, ...]
    predicate_index: int


def build_graph(sentence: Sentence, ruleset: RuleSet) -> SentenceGraph:
    """Add one dependent-to-head edge per licensing rule application."""
    tags = np.array([TAG_IDS[token.upos] for token in sentence.tokens])
    counts = ruleset.matrix[tags, tags[:, None]]
    np.fill_diagonal(counts, 0)
    return SentenceGraph(counts)


def estimate_main_predicate(sentence: Sentence) -> int:
    """Index of the first verb, else the first content word, else token 1."""
    for token in sentence.tokens:
        if token.upos == "VERB":
            return token.index
    for token in sentence.tokens:
        if is_content(token.upos):
            return token.index
    return 1


def personalization_vector(sentence: Sentence, predicate_index: int,
                           weight: float = DEFAULT_PREDICATE_WEIGHT) -> tuple[float, ...]:
    """Unit-sum teleport distribution favoring the estimated predicate."""
    n = len(sentence)
    if not 1 <= predicate_index <= n:
        raise ValueError(f"predicate index {predicate_index} outside sentence of length {n}")
    if weight <= 0:
        raise ValueError(f"personalization weight must be positive, got {weight}")
    raw = [1.0] * n
    raw[predicate_index - 1] = float(weight)
    total = sum(raw)
    return tuple(value / total for value in raw)


def pagerank(graph: SentenceGraph, personalization: Sequence[float],
             teleport: float = DEFAULT_TELEPORT) -> tuple[float, ...]:
    """Stationary distribution of the teleporting walk over the graph.

    Each step follows a uniformly chosen outgoing edge (parallel edges count
    with multiplicity) with probability ``1 - teleport`` and otherwise jumps
    according to the personalization vector p.  Mass sitting on dangling
    nodes is likewise redistributed by p, keeping the chain stochastic.
    With M the transition matrix whose dangling rows are p, the distribution
    is the exact solution of ``(I - (1 - teleport) M^T) s = teleport * p``,
    which is nonsingular for any teleport in (0, 1).
    """
    if not 0.0 < teleport < 1.0:
        raise ValueError(f"teleport probability must be in (0, 1), got {teleport}")
    n = graph.size
    p = np.asarray(personalization, dtype=float)
    if p.shape != (n,):
        raise ValueError(f"personalization must have one weight per token ({n}), got shape {p.shape}")
    if np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("personalization must be a probability distribution summing to 1")

    out_totals = graph.counts.sum(axis=1, keepdims=True)
    walk = np.where(out_totals > 0, graph.counts / np.maximum(out_totals, 1), p)
    scores = np.linalg.solve(np.eye(n) - (1.0 - teleport) * walk.T, teleport * p)
    return tuple(scores.tolist())


def rank(sentence: Sentence, ruleset: RuleSet, mode: str = "udp", *,
         teleport: float = DEFAULT_TELEPORT,
         predicate_weight: float = DEFAULT_PREDICATE_WEIGHT) -> RankedSentence:
    """Split a sentence into ranked content words and ordered function words.

    ``udp`` mode orders content words by descending walk score, with ties
    (after rounding away float noise) broken by sentence position;
    ``udp-nopr`` mode keeps them in sentence order and computes no scores.
    """
    content = [t.index for t in sentence.tokens if is_content(t.upos)]
    function = tuple(t.index for t in sentence.tokens if not is_content(t.upos))
    predicate = estimate_main_predicate(sentence)

    if mode == "udp":
        graph = build_graph(sentence, ruleset)
        weights = personalization_vector(sentence, predicate, weight=predicate_weight)
        scores = pagerank(graph, weights, teleport)
        content.sort(key=lambda i: (-round(scores[i - 1], _SCORE_DECIMALS), i))
    elif mode == "udp-nopr":
        scores = None
    else:
        raise ValueError(f"unknown ranking mode {mode!r}")

    return RankedSentence(sentence, scores, tuple(content), function, predicate)
