"""Content-word ranking over the rule-licensed head graph.

Every token pair licensed by the head rules contributes one directed edge
from dependent to head, so a word collects an incoming edge per eligible
dependent.  A personalized random walk over this multigraph scores the
tokens; its stationary distribution is solved exactly as one linear system.
Content words are then ordered by descending score, or simply by reading
order when ranking is disabled.

Everything works on stacks of equal-length sentences: a ``(B, n)`` array
of tag ids, ``(B, n, n)`` edge counts, and one stacked solve for all B
walks.  ``decoder.decode_corpus`` slices the stacks out of a corpus's flat
tag array, also for a single sentence.
"""

import numpy as np

from .rules import TAG_IDS, RuleSet, is_content

DEFAULT_TELEPORT = 0.05
DEFAULT_PREDICATE_WEIGHT = 5.0

# Scores this close are treated as tied when ordering content words, so
# symmetric graph positions fall back to sentence order instead of float
# noise.
_SCORE_DECIMALS = 8


def rule_counts(tags: np.ndarray, ruleset: RuleSet) -> np.ndarray:
    """``(B, n, n)`` edge multiplicities ``[sentence, dependent, head]``, one
    per licensing rule application; a token never heads itself."""
    counts = ruleset.matrix[tags[:, None, :], tags[:, :, None]]
    diagonal = np.arange(tags.shape[1])
    counts[:, diagonal, diagonal] = 0
    return counts


def _teleport_vectors(predicates: np.ndarray, n: int, weight: float) -> np.ndarray:
    """``(B, n)`` rows of 1 with ``weight`` at each 0-based predicate, divided
    by their sum ``(n - 1) + weight``; ``check_walk`` has refused a weight
    that is not positive and finite."""
    raw = np.ones((len(predicates), n))
    raw[np.arange(len(predicates)), predicates] = weight
    return raw / ((n - 1) + float(weight))


def _walk_scores(counts: np.ndarray, p: np.ndarray, teleport: float) -> np.ndarray:
    """``(B, n)`` stationary distributions of the B walks, one stacked solve.

    Each step follows a uniformly chosen outgoing edge (parallel edges count
    with multiplicity) with probability ``1 - teleport`` and otherwise jumps
    according to the personalization p; mass on dangling nodes is
    redistributed by p too.  With M the transition matrix whose dangling
    rows are p, the scores solve ``(I - (1 - teleport) M^T) s = teleport * p``
    exactly (Haveliwala 2002, "Topic-sensitive PageRank"), a system that is
    nonsingular for any teleport in (0, 1).
    """
    out_totals = counts.sum(axis=2, keepdims=True)
    # M, -(1 - teleport) M, then the system's transpose, all in one buffer.
    system = np.divide(counts, np.maximum(out_totals, 1))
    np.copyto(system, p[:, None, :], where=out_totals == 0)
    system *= -(1.0 - teleport)
    diagonal = np.arange(counts.shape[1])
    system[:, diagonal, diagonal] += 1.0
    # b keeps an explicit trailing axis: numpy 2 reads a (B, n) b as one matrix.
    return np.linalg.solve(system.transpose(0, 2, 1), (teleport * p)[..., None])[..., 0]


# Whether each tag id is a content tag.
_CONTENT = np.array([is_content(tag) for tag in TAG_IDS])
_VERB = TAG_IDS["VERB"]


def main_predicates(tags: np.ndarray) -> np.ndarray:
    """``(B,)`` 0-based main predicate of each sentence of a stack: its first
    verb, else its first content word, else its first token."""
    verbs = tags == _VERB
    return np.where(verbs.any(axis=1), verbs.argmax(axis=1), _CONTENT[tags].argmax(axis=1))


def check_walk(teleport: float, predicate_weight: float) -> None:
    """Refuse a teleport probability outside (0, 1) and a predicate weight
    that is not positive and finite."""
    if not 0.0 < teleport < 1.0:
        raise ValueError(f"teleport probability must be in (0, 1), got {teleport}")
    if not 0.0 < predicate_weight < np.inf:
        raise ValueError("personalization weight must be positive and finite, "
                         f"got {predicate_weight}")


def content_ranks(tags: np.ndarray, counts: np.ndarray, mode: str = "udp", *,
                  teleport: float = DEFAULT_TELEPORT,
                  predicate_weight: float = DEFAULT_PREDICATE_WEIGHT) -> np.ndarray:
    """Rank the content words of a stack of equal-length sentences.

    ``tags`` and ``counts`` are the stack's tag ids and ``rule_counts``.
    ``ranks[b, i]`` is the place of token i + 1 of sentence b in its content
    order, and n for function words, except that a sentence with no content
    words ranks its predicate (``main_predicates``) 0.  ``udp`` mode orders
    content words by descending walk score, with ties (after rounding away
    float noise) broken by sentence position; ``udp-nopr`` mode keeps them
    in sentence order and computes no scores.  Both modes refuse the walk
    parameters that ``check_walk`` refuses.
    """
    check_walk(teleport, predicate_weight)
    stack, n = tags.shape
    content = _CONTENT[tags]
    predicates = main_predicates(tags)
    if mode == "udp":
        p = _teleport_vectors(predicates, n, predicate_weight)
        scores = _walk_scores(counts, p, teleport)
        keys = np.zeros((stack, n))
        keys[content] = [-round(score, _SCORE_DECIMALS) for score in scores[content].tolist()]
        # Content words first, then descending rounded score; lexsort is
        # stable, so ties and all function words keep sentence order.
        order = np.lexsort((keys, ~content))
    elif mode == "udp-nopr":
        order = np.argsort(~content, axis=1, kind="stable")
    else:
        raise ValueError(f"unknown ranking mode {mode!r}")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(n), axis=1)
    ranks[~content] = n
    no_content = ~content.any(axis=1)
    ranks[no_content, predicates[no_content]] = 0
    return ranks
