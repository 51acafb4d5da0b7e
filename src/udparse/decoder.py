"""Two-step tree decoding.

Content words are attached in rank order, each to a content word ranked
above it; function words then attach to content words only, which keeps
them leaves.  Head choice is closest-first under the licensing rules and
direction constraints, with a two-stage back-off (drop the rules, then drop
the direction constraint) so every word finds a head.  The first-ranked
content word attaches to the virtual root, enforcing a single root.

Once the ranking is known every attachment is independent of the others, so
the whole sentence is decoded as one argmin per row of a dependent-by-head
cost matrix.
"""

import numpy as np

from .conllu import DependencyTree, Sentence
from .ranker import RankedSentence
from .rules import DEFAULT_POLICY, DEFAULT_RULESET, TAG_IDS, DirectionPolicy, RuleSet

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


def decode(ranked: RankedSentence, ruleset: RuleSet = DEFAULT_RULESET,
           policy: DirectionPolicy = DEFAULT_POLICY) -> DependencyTree:
    """Build the dependency tree for a ranked sentence.

    Each word attaches to the cheapest head among the content words ranked
    above it; function words may attach to any content word.  The cost of
    head h for dependent d is ``tier * 4n + 2|h - d| + [h > d]``: tier 0
    when the rules license the pair and h lies on d's allowed side, tier 1
    when only the side holds, tier 2 otherwise.  So a lower tier always
    wins, then the closer head, then the leftward one on a distance tie.
    The top-ranked content word attaches to the root.  A sentence with no
    content words ranks its fallback predicate first so the function words
    still have a head.  The final-punctuation heuristic runs last.
    """
    sentence = ranked.sentence
    n = len(sentence)
    tags = np.array([TAG_IDS[token.upos] for token in sentence.tokens])
    order = ranked.content_order or (ranked.predicate_index,)
    ranks = [n] * n  # function words: below every content word
    for position, index in enumerate(order):
        ranks[index - 1] = position
    ranks = np.array(ranks)
    offsets, distance_costs = _geometry(n)

    directed = policy.sides[tags][:, None] * offsets >= 0
    licensed = ruleset.matrix[tags, tags[:, None]] > 0
    # Tier 3 marks heads not ranked above the dependent: never chosen.
    tiers = np.where(ranks[:, None] <= ranks, 3, 2 - directed * (1 + licensed))
    heads = ((tiers * (4 * n) + distance_costs).argmin(axis=1) + 1).tolist()
    heads[order[0] - 1] = 0
    tree = DependencyTree(dict(zip(range(1, n + 1), heads)))
    return apply_final_punct_heuristic(tree, sentence)


def apply_final_punct_heuristic(tree: DependencyTree, sentence: Sentence) -> DependencyTree:
    """Re-attach sentence-final punctuation to the main predicate.

    Only the last token is affected, and only when it is PUNCT.  When that
    token is itself the root's dependent (a lone punctuation sentence) the
    tree is left alone.
    """
    last = sentence.tokens[-1]
    if last.upos != "PUNCT":
        return tree
    roots = tree.root_dependents()
    if not roots or roots[0] == last.index:
        return tree
    heads = dict(tree.heads)
    heads[last.index] = roots[0]
    return DependencyTree(heads)
