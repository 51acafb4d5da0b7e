"""Two-step tree decoding.

Content words are attached first, in rank order, each becoming eligible to
head later words; function words are then attached against that frozen head
set, which keeps them leaves.  Head choice is closest-first under the
licensing rules and direction constraints, with a two-stage back-off (drop
the rules, then drop the direction constraint) so every word finds a head.
The first-ranked content word attaches to the virtual root, enforcing a
single root.
"""

from .conllu import DependencyTree, Sentence
from .ranker import RankedSentence
from .rules import DEFAULT_POLICY, DEFAULT_RULESET, DirectionPolicy, RuleSet, kappa


def attach(sentence: Sentence, dependent_index: int, head_candidates,
           ruleset: RuleSet = DEFAULT_RULESET,
           policy: DirectionPolicy = DEFAULT_POLICY) -> int:
    """Closest admissible head for one dependent, with back-off.

    Preference order: candidates satisfying both the head rules and the
    direction constraint, then direction only, then anything.  Distance
    ties go to the leftward (smaller-index) candidate.  Candidates may
    include 0 for the virtual root, which satisfies any direction but is
    never rule-licensed.
    """
    candidates = list(head_candidates)
    if not candidates:
        raise ValueError("head candidate set is empty")
    dependent = sentence.tokens[dependent_index - 1]

    def licensed(head: int) -> bool:
        return head != 0 and ruleset.licenses(sentence.tokens[head - 1].upos, dependent.upos)

    def directed(head: int) -> bool:
        return kappa(head, dependent_index, dependent.upos, policy)

    def closest(pool):
        return min(pool, key=lambda h: (abs(h - dependent_index), h)) if pool else None

    best = closest([h for h in candidates if directed(h) and licensed(h)])
    if best is None:
        best = closest([h for h in candidates if directed(h)])
    if best is None:
        best = closest(candidates)
    return best


def decode(ranked: RankedSentence, ruleset: RuleSet = DEFAULT_RULESET,
           policy: DirectionPolicy = DEFAULT_POLICY) -> DependencyTree:
    """Build the dependency tree for a ranked sentence.

    The top-ranked content word heads the sentence; remaining content words
    attach in rank order and join the head set; function words then attach
    without extending it.  A sentence with no content words is seeded by
    attaching its fallback predicate to the root so the function block still
    has a head to work with.  The final-punctuation heuristic runs last.
    """
    sentence = ranked.sentence
    heads: dict[int, int] = {}
    pending_function = list(ranked.function_order)

    if ranked.content_order:
        first, *rest = ranked.content_order
        heads[first] = 0
        head_set = [first]
        for content_index in rest:
            heads[content_index] = attach(sentence, content_index, head_set, ruleset, policy)
            head_set.append(content_index)
    else:
        seed = ranked.predicate_index
        heads[seed] = attach(sentence, seed, [0], ruleset, policy)
        head_set = [seed]
        pending_function.remove(seed)

    for function_index in pending_function:
        heads[function_index] = attach(sentence, function_index, head_set, ruleset, policy)

    return apply_final_punct_heuristic(DependencyTree(heads), sentence)


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
