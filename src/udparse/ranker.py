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
budget.  Each stack's system is built in one float buffer, gathered from
the rule table's float transpose.  A key is a class's score rounded to 8
decimals, as Python's ``round`` gives it; numpy rounds every class, and
only the few scores that lie within 1e-6 of a rounding tie go through
``round`` itself.  ``content_ranks`` orders a corpus's content words with
one stable sort of one integer each, its sentence above its key.  The
ranker knows no parse modes: ``decoder`` owns them, and
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
    nonsingular for any teleport in (0, 1).  Float ``counts`` are
    overwritten: the system is built in their buffer.
    """
    # M, -(1 - teleport) M, then the system's transpose, all in one float
    # buffer: the caller's, when it passes float counts.  The counts are
    # whole numbers, so a matrix product sums them exactly.
    system = np.asarray(counts, dtype=float)
    n = system.shape[1]
    out_totals = system @ np.ones((n, 1))
    system /= np.maximum(out_totals, 1)
    np.copyto(system, p[:, None, :], where=out_totals == 0)
    system *= -(1.0 - teleport)
    system.reshape(len(system), -1)[:, ::n + 1] += 1.0
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
    edges into class c, R being ``RuleSet.matrix`` (read through its
    cached ``float_transpose``), and each class holds ``m_c`` times a
    token's teleport mass: 1 per token and ``predicate_weight`` for the
    predicate, over ``(n - 1) + weight``.
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
    sizes = np.bincount(classes, minlength=class_offsets[-1]).astype(float)
    class_tags = np.empty(class_offsets[-1], dtype=np.intp)
    class_tags[classes] = tags
    # R as floats, dependent tag by head tag, as the rule set keeps it: a
    # class pair's count is one flat take, and the walk's system is built
    # in the buffer it fills.  Floats hold these small integers exactly, so
    # each step is the IEEE operation an integer build would cast to.
    rules = ruleset.float_transpose
    loops = rules.diagonal()[class_tags]
    # Every class's teleport mass at once; the predicate class is last.
    class_counts = np.diff(class_offsets)
    masses = sizes.copy()
    masses[class_offsets[1:] - 1] = predicate_weight
    masses /= np.repeat((lengths - 1) + float(predicate_weight), class_counts)
    scores = np.empty(class_offsets[-1])
    for k, rows in stacks(class_counts):
        members = class_offsets[rows, None] + np.arange(k)
        m = sizes[members]
        kinds = class_tags[members]
        counts = np.take(rules, kinds[:, :, None] * len(rules) + kinds[:, None, :])
        counts *= m[:, None, :]
        counts.reshape(len(rows), -1)[:, ::k + 1] -= loops[members]
        scores[members] = _walk_scores(counts, masses[members], teleport) / m
    return classes, scores


def ranking_keys(tags: np.ndarray, offsets: np.ndarray, predicates: np.ndarray,
                 ruleset: RuleSet, *, teleport: float = DEFAULT_TELEPORT,
                 predicate_weight: float = DEFAULT_PREDICATE_WEIGHT) -> np.ndarray:
    """The ``udp`` sort key of every token of a corpus; ``content_ranks``
    orders content words by ascending key.

    A content word's key is its negated ``class_scores`` score, rounded to
    ``_SCORE_DECIMALS`` once per class, bit for bit as Python's ``round``
    rounds it (``_rounded``), and a function word's 0.  So every key is a
    multiple of 1e-8 in [-1, 0].  The walk parameters are the caller's to
    check: ``decoder.decode_corpus`` refuses what ``check_walk`` refuses
    before it ranks.
    """
    classes, scores = class_scores(
        tags, offsets, predicates, ruleset, teleport=teleport,
        predicate_weight=predicate_weight)
    return np.where(CONTENT_MASK[tags], -_rounded(scores)[classes], 0.0)


def _rounded(scores: np.ndarray) -> np.ndarray:
    """``round(score, _SCORE_DECIMALS)`` of every score, bit for bit, for
    scores of at most about 1."""
    scale = 10.0 ** _SCORE_DECIMALS
    scaled = scores * scale
    rounded = np.rint(scaled)
    # Python's round takes the integer nearest the exact ``score * 1e8``,
    # ties to even, and returns the double nearest that integer over 1e8.
    # The product is below 2^27, where doubles lie at most 2^-26 apart, so
    # ``scaled`` is off by at most 2^-27, about 7.5e-9.  Where its fraction
    # lies more than 1e-6 from one half, the exact product's lies on the
    # same side, and rint picks the same integer.  Both that integer and 1e8
    # are doubles, and IEEE division rounds their exact quotient correctly,
    # so the division gives round's double.  Only the rest need the Python
    # call.
    near = np.flatnonzero(abs(scaled - rounded) > 0.5 - 1e-6)
    rounded /= scale
    rounded[near] = [round(score, _SCORE_DECIMALS) for score in scores[near].tolist()]
    return rounded


def content_ranks(tags: np.ndarray, offsets: np.ndarray, predicates: np.ndarray,
                  keys: np.ndarray) -> np.ndarray:
    """Rank the content words of a corpus (its flat tag ids, sentence
    offsets, 0-based main predicates and keys).

    ``ranks[i]`` is the place of token i in its sentence's content order,
    and the sentence's length for function words, except that a sentence
    with no content words ranks its predicate 0.  Content words come in
    ascending key order, ties in sentence order.  Content words' keys must
    be multiples of 1e-8 in [-1, 0], as ``ranking_keys`` and all-zero keys
    are: each is ordered as its whole number of 1e-8 units, and a key that
    is ``-(k / 1e8)`` scales back to k exactly.  Only content words are
    sorted, by one stable integer sort.
    """
    lengths = np.diff(offsets)
    content = np.flatnonzero(CONTENT_MASK[tags])
    sentences = np.repeat(np.arange(len(lengths)), lengths)[content]
    # One int64 per content word, its sentence above its key in units of
    # the rounding: the key lies in [-1e8, 0], so 2^27 plus it takes 28
    # bits.  The sort is stable, so ties keep sentence order, also between
    # classes whose keys are equal.
    order = (sentences << 28) + (
        (1 << 27) + np.rint(keys[content] * 10.0 ** _SCORE_DECIMALS).astype(np.int64))
    order = content[np.argsort(order, kind="stable")]
    counts = np.bincount(sentences, minlength=len(lengths))
    ranks = np.repeat(lengths, lengths).astype(np.intp)
    ranks[order] = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    ranks[(offsets[:-1] + predicates)[counts == 0]] = 0
    return ranks
