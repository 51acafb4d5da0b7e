"""Content-word ranking over the rule-licensed head graph.

Every token pair licensed by the head rules contributes one directed edge
from dependent to head, so a word collects an incoming edge per eligible
dependent.  A personalized random walk over this multigraph scores the
tokens; its stationary distribution is solved exactly as one linear system.
Content words are then ordered by descending score, ties in reading order.

The walk is solved on word classes, not on tokens.  An edge's multiplicity
depends only on the tags at its two ends, and the teleport vector singles
out only the main predicate, so swapping two tokens of a sentence that
share a tag, neither of them the predicate, maps both the graph and the
teleport vector onto themselves: such tokens have the same score.  The
walk is therefore exactly lumpable onto classes (Kemeny & Snell 1960,
"Finite Markov Chains", section 6.3): each distinct tag of a sentence is a
class, and the predicate is a class of its own, so a sentence has at most
20 classes however long it is.  The class walk is the same kind of linear
system at that size, and a token's score is its class's mass divided by
the class size.

The class walks are solved in stacks: ``stacks`` groups sentences by class
count and cuts each group so that a ``(B, k, k)`` system stays within one
budget.  The ranker knows no parse modes: ``decoder`` owns them, and
``decoder.decode_corpus``, the one entry to parsing, checks the walk
parameters, takes the flat sort keys of ``ranking_keys`` once per corpus in
``udp`` mode, or all-zero keys (reading order) in ``udp-nopr``, and ranks
the whole corpus by them with ``content_ranks``.
"""

from typing import Iterator

import numpy as np

from .rules import CONTENT_MASK, TAG_IDS, RuleSet

DEFAULT_TELEPORT = 0.05
DEFAULT_PREDICATE_WEIGHT = 5.0

# Scores this close are treated as tied when ordering content words, so
# symmetric graph positions fall back to sentence order instead of float
# noise.
_SCORE_DECIMALS = 8

# Most ``B * n * n`` elements in one stack, which bounds the memory of the
# stacked arrays; a sentence with more than this many ``n * n`` elements
# forms a stack of its own.
_STACK_ELEMENTS = 1 << 16

_VERB = TAG_IDS["VERB"]


def stacks(sizes: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``(n, positions)`` for the positions of equal ``sizes``, in input
    order, cut into stacks of at most ``_STACK_ELEMENTS`` ``B * n * n``
    elements."""
    order = np.argsort(sizes, kind="stable")
    cuts = np.flatnonzero(np.diff(sizes[order])) + 1
    for positions in np.split(order, cuts) if len(order) else ():
        n = int(sizes[positions[0]])
        size = max(1, _STACK_ELEMENTS // (n * n))
        for start in range(0, len(positions), size):
            yield n, positions[start:start + size]


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


def main_predicates(tags: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """0-based main predicate of each sentence of a corpus (its flat tag ids
    and sentence offsets): its first verb, else its first content word,
    else its first token."""
    starts = offsets[:-1]
    # Verbs claim first, then the other content words, then any token; the
    # earliest claim of the best kind wins.
    span = max(len(tags), 1)
    claims = 2 - CONTENT_MASK[tags] - (tags == _VERB)
    claims *= span
    claims += np.arange(len(tags))
    return np.minimum.reduceat(claims, starts) % span - starts


def check_walk(teleport: float, predicate_weight: float) -> None:
    """Refuse a teleport probability outside (0, 1) and a predicate weight
    that is not positive and finite."""
    if not 0.0 < teleport < 1.0:
        raise ValueError(f"teleport probability must be in (0, 1), got {teleport}")
    if not 0.0 < predicate_weight < np.inf:
        raise ValueError("personalization weight must be positive and finite, "
                         f"got {predicate_weight}")


def class_scores(tags: np.ndarray, offsets: np.ndarray, predicates: np.ndarray,
                 ruleset: RuleSet, *, teleport: float = DEFAULT_TELEPORT,
                 predicate_weight: float = DEFAULT_PREDICATE_WEIGHT
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Walk scores of a corpus's word classes: ``(classes, scores)``, where
    token i is in class ``classes[i]`` and each of its tokens scores
    ``scores[class]``.

    A sentence's classes are its distinct tags in tag id order, the main
    predicate (``predicates``, 0-based) last and on its own; m is their
    sizes.  Each token of class a has ``R[tag c, tag a] * (m_c - [a = c])``
    edges into class c, R being ``RuleSet.matrix``, and each class holds
    ``m_c`` times a token's teleport mass: 1 per token and
    ``predicate_weight`` for the predicate, over ``(n - 1) + weight``.
    Sentences with the same class count are solved as one stack by
    ``_walk_scores``.
    """
    # Each token's label is its tag id, or one above every tag id for the
    # predicate.  A sentence's classes are the labels it has, so a flat
    # table of (sentence, label) cells counts them off in order.
    lengths = np.diff(offsets)
    labels = len(TAG_IDS) + 1
    cells = tags.astype(np.intp)
    cells[offsets[:-1] + predicates] = len(TAG_IDS)
    cells += np.repeat(np.arange(0, len(lengths) * labels, labels), lengths)
    present = np.zeros(len(lengths) * labels, dtype=bool)
    present[cells] = True
    class_ends = np.cumsum(present)
    classes = class_ends[cells] - 1
    class_offsets = np.concatenate(([0], class_ends[labels - 1::labels]))
    del cells, present, class_ends
    sizes = np.bincount(classes, minlength=class_offsets[-1])
    class_tags = np.empty(class_offsets[-1], dtype=tags.dtype)
    class_tags[classes] = tags
    scores = np.empty(class_offsets[-1])
    for k, rows in stacks(np.diff(class_offsets)):
        members = class_offsets[rows, None] + np.arange(k)
        m = sizes[members]
        kinds = class_tags[members]
        counts = ruleset.matrix[kinds[:, None, :], kinds[:, :, None]]
        counts *= m[:, None, :]
        diagonal = np.arange(k)
        counts[:, diagonal, diagonal] -= ruleset.matrix[kinds, kinds]
        q = m.astype(float)
        q[:, -1] = predicate_weight
        q /= ((lengths[rows] - 1) + float(predicate_weight))[:, None]
        scores[members] = _walk_scores(counts, q, teleport) / m
    return classes, scores


def ranking_keys(tags: np.ndarray, offsets: np.ndarray, predicates: np.ndarray,
                 ruleset: RuleSet, *, teleport: float = DEFAULT_TELEPORT,
                 predicate_weight: float = DEFAULT_PREDICATE_WEIGHT) -> np.ndarray:
    """The ``udp`` sort key of every token of a corpus; ``content_ranks``
    orders content words by ascending key.

    A content word's key is its negated ``class_scores`` score, rounded to
    ``_SCORE_DECIMALS`` once per class, and a function word's 0.  The walk
    parameters are the caller's to check: ``decoder.decode_corpus`` refuses
    what ``check_walk`` refuses before it ranks.
    """
    classes, scores = class_scores(
        tags, offsets, predicates, ruleset, teleport=teleport,
        predicate_weight=predicate_weight)
    content = np.zeros(len(scores), dtype=bool)
    content[classes[CONTENT_MASK[tags]]] = True
    keys = np.zeros(len(scores))
    keys[content] = [-round(score, _SCORE_DECIMALS) for score in scores[content].tolist()]
    return keys[classes]


def content_ranks(tags: np.ndarray, offsets: np.ndarray, predicates: np.ndarray,
                  keys: np.ndarray) -> np.ndarray:
    """Rank the content words of a corpus (its flat tag ids, sentence
    offsets, 0-based main predicates and ``ranking_keys``).

    ``ranks[i]`` is the place of token i in its sentence's content order,
    and the sentence's length for function words, except that a sentence
    with no content words ranks its predicate 0.  Content words come in
    ascending key order, ties in sentence order.
    """
    lengths = np.diff(offsets)
    sentences = np.repeat(np.arange(len(lengths)), lengths)
    content = CONTENT_MASK[tags]
    # By sentence, content words first, then by key; lexsort is stable, so
    # ties keep sentence order.  Function words' places are then overwritten.
    order = np.lexsort((keys, ~content, sentences))
    ranks = np.empty(len(tags), dtype=np.intp)
    ranks[order] = np.arange(len(tags)) - offsets[sentences]
    ranks[~content] = lengths[sentences[~content]]
    no_content = np.bincount(sentences[content], minlength=len(lengths)) == 0
    ranks[(offsets[:-1] + predicates)[no_content]] = 0
    return ranks
