"""Sentence-graph construction and content-word ranking.

Every token pair licensed by the head rules contributes one directed edge
from dependent to head, so a word collects an incoming edge per eligible
dependent.  A personalized random walk over this multigraph scores the
tokens; its stationary distribution is solved exactly as one linear system.
Content words are then ordered by descending score, or simply by reading
order when ranking is disabled.

The kernels work on stacks of equal-length sentences: a ``(B, n)`` array of
tag ids, ``(B, n, n)`` edge counts, and one stacked solve for all B walks.
``build_graph``, ``pagerank`` and ``rank`` run them on a stack of one.
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


def tag_ids(sentences: Sequence[Sentence]) -> np.ndarray:
    """``(B, n)`` ``TAG_IDS`` of a stack of sentences that all have n tokens."""
    return np.array([[TAG_IDS[token.upos] for token in sentence.tokens]
                     for sentence in sentences], dtype=np.intp)


def rule_counts(tags: np.ndarray, ruleset: RuleSet) -> np.ndarray:
    """``(B, n, n)`` edge multiplicities ``[sentence, dependent, head]``, one
    per licensing rule application; a token never heads itself."""
    counts = ruleset.matrix[tags[:, None, :], tags[:, :, None]]
    diagonal = np.arange(tags.shape[1])
    counts[:, diagonal, diagonal] = 0
    return counts


def build_graph(sentence: Sentence, ruleset: RuleSet) -> SentenceGraph:
    """Add one dependent-to-head edge per licensing rule application."""
    return SentenceGraph(rule_counts(tag_ids([sentence]), ruleset)[0])


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
    return tuple(_teleport_vectors(np.array([predicate_index - 1]), n, weight)[0].tolist())


def _teleport_vectors(predicates: np.ndarray, n: int, weight: float) -> np.ndarray:
    """``(B, n)`` rows of 1 with ``weight`` at each 0-based predicate, divided
    by their sum ``(n - 1) + weight``."""
    if weight <= 0:
        raise ValueError(f"personalization weight must be positive, got {weight}")
    raw = np.ones((len(predicates), n))
    raw[np.arange(len(predicates)), predicates] = weight
    return raw / ((n - 1) + float(weight))


def _walk_scores(counts: np.ndarray, p: np.ndarray, teleport: float) -> np.ndarray:
    """``(B, n)`` stationary distributions of the B walks, one stacked solve."""
    out_totals = counts.sum(axis=2, keepdims=True)
    walk = np.where(out_totals > 0, counts / np.maximum(out_totals, 1), p[:, None, :])
    system = np.eye(counts.shape[1]) - (1.0 - teleport) * walk.transpose(0, 2, 1)
    # b keeps an explicit trailing axis: numpy 2 reads a (B, n) b as one matrix.
    return np.linalg.solve(system, (teleport * p)[..., None])[..., 0]


def _check_teleport(teleport: float) -> None:
    if not 0.0 < teleport < 1.0:
        raise ValueError(f"teleport probability must be in (0, 1), got {teleport}")


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
    _check_teleport(teleport)
    n = graph.size
    p = np.asarray(personalization, dtype=float)
    if p.shape != (n,):
        raise ValueError(f"personalization must have one weight per token ({n}), got shape {p.shape}")
    if np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("personalization must be a probability distribution summing to 1")
    return tuple(_walk_scores(graph.counts[None], p[None], teleport)[0].tolist())


# Whether each tag id is a content tag.
_CONTENT = np.array([is_content(tag) for tag in TAG_IDS])


def content_ranks(sentences: Sequence[Sentence], tags: np.ndarray, counts: np.ndarray,
                  mode: str = "udp", *, teleport: float = DEFAULT_TELEPORT,
                  predicate_weight: float = DEFAULT_PREDICATE_WEIGHT
                  ) -> tuple[np.ndarray, np.ndarray | None]:
    """Rank the content words of a stack of equal-length sentences.

    ``tags`` and ``counts`` are the stack's ``tag_ids`` and ``rule_counts``.
    Returns ``(ranks, scores)``: ``ranks[b, i]`` is the place of token i + 1
    of sentence b in its content order, and n for function words, except
    that a sentence with no content words ranks its predicate 0.  ``scores``
    holds the walk scores in ``udp`` mode and is None in ``udp-nopr`` mode.
    """
    stack, n = tags.shape
    content = _CONTENT[tags]
    predicates = np.array([estimate_main_predicate(s) for s in sentences]) - 1
    if mode == "udp":
        p = _teleport_vectors(predicates, n, predicate_weight)
        _check_teleport(teleport)
        scores = _walk_scores(counts, p, teleport)
        keys = np.zeros((stack, n))
        keys[content] = [-round(score, _SCORE_DECIMALS) for score in scores[content].tolist()]
        # Content words first, then descending rounded score; lexsort is
        # stable, so ties and all function words keep sentence order.
        order = np.lexsort((keys, ~content))
    elif mode == "udp-nopr":
        scores = None
        order = np.argsort(~content, axis=1, kind="stable")
    else:
        raise ValueError(f"unknown ranking mode {mode!r}")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(n), axis=1)
    ranks[~content] = n
    no_content = ~content.any(axis=1)
    ranks[no_content, predicates[no_content]] = 0
    return ranks, scores


def rank(sentence: Sentence, ruleset: RuleSet, mode: str = "udp", *,
         teleport: float = DEFAULT_TELEPORT,
         predicate_weight: float = DEFAULT_PREDICATE_WEIGHT) -> RankedSentence:
    """Split a sentence into ranked content words and ordered function words.

    ``udp`` mode orders content words by descending walk score, with ties
    (after rounding away float noise) broken by sentence position;
    ``udp-nopr`` mode keeps them in sentence order and computes no scores.
    """
    tags = tag_ids([sentence])
    ranks, scores = content_ranks([sentence], tags, rule_counts(tags, ruleset), mode,
                                  teleport=teleport, predicate_weight=predicate_weight)
    places = ranks[0].tolist()
    content = sorted((t.index for t in sentence.tokens if is_content(t.upos)),
                     key=lambda i: places[i - 1])
    function = tuple(t.index for t in sentence.tokens if not is_content(t.upos))
    return RankedSentence(sentence, None if scores is None else tuple(scores[0].tolist()),
                          tuple(content), function, estimate_main_predicate(sentence))
