"""Support for the comparison systems, and the tree check.

The closest-head and adjacency baselines are ``decoder.decode_corpus``
modes.  Here lives the one check of the trees that every mode's heads must
or may form, ``tree_violations``, over a whole corpus at once;
``validate_tree`` and ``forms_tree`` apply it to one sentence.  Here too is
the naive two-tag POS scenario: the 100 most frequent word forms of the
input become FUNCTION, everything else CONTENT.  Forms are counted by
their bytes, and ties at the 100th place still break in Python's string
order of the forms.
"""

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .conllu import Corpus, Sentence, as_corpus
from .rules import CONTENT_MASK, TAG_IDS

FUNCTION_FORM_COUNT = 100

# The constraint names of each column of ``tree_violations``: in a head
# map, a token that cannot reach the root is on a cycle or hangs below one.
_VIOLATIONS = (("single-root",), ("connectivity", "acyclicity"), ("function-leaf",))


@dataclass(frozen=True)
class DependencyTree:
    """Head assignment for every token; head 0 is the virtual root.

    The container itself accepts any assignment so that defective structures
    can be represented and inspected; ``validate_tree`` reports whether the
    assignment actually is a single-rooted tree with function-word leaves.
    """

    heads: dict[int, int]


def tree_violations(heads: np.ndarray, offsets: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """Which tree constraints each sentence of a corpus breaks: ``(S, 3)`` bools.

    ``heads`` is a flat head array (0 for the root, else in the sentence),
    ``offsets`` the corpus's sentence offsets, every sentence holding a
    token, and ``tags`` the flat tag ids.  The columns are:

    0. single-root: not exactly one token attaches to the root;
    1. connectivity: some token does not reach the root through head links,
       which in a head map means it is on a cycle or below one;
    2. function-leaf: some token is headed by a function word, other than
       the root's dependent of a sentence with no content words, where one
       token must still carry the structure.

    Connectivity comes from pointer jumping (Hillis & Steele 1986, "Data
    parallel algorithms"): every token's link to its head, with the root
    absorbing, is composed with itself ceil(log2(n + 1)) times for the
    longest sentence n, after which a token has reached the root exactly
    when its head chain ends there.
    """
    lengths = np.diff(offsets)
    violations = np.zeros((len(lengths), 3), dtype=bool)
    if not len(lengths):
        return violations
    firsts = offsets[:-1]
    root = len(heads)
    # Each token's head as a flat position, the root as one past the last.
    links = np.append(np.where(heads == 0, root, np.repeat(firsts, lengths) + heads - 1), root)
    heads_at = links[:-1]
    reached = links
    for _ in range(int(lengths.max()).bit_length()):
        reached = reached[reached]
    violations[:, 0] = np.add.reduceat((heads == 0).astype(np.intp), firsts) != 1
    violations[:, 1] = ~np.logical_and.reduceat(reached[:-1] == root, firsts)
    content = CONTENT_MASK[tags]
    content_free = np.repeat(~np.logical_or.reduceat(content, firsts), lengths)
    # The root heads as a content word does.
    under_function = ~np.append(content, True)[heads_at]
    exempt = content_free & (links == root)[heads_at]
    violations[:, 2] = np.logical_or.reduceat(under_function & ~exempt, firsts)
    return violations


def _sentence_violations(sentence: Sentence, heads: dict[int, int]) -> np.ndarray:
    """``tree_violations`` of one sentence's head map: ``(3,)`` bools."""
    n = len(sentence)
    if set(heads) != set(range(1, n + 1)):
        raise ValueError("tree must assign exactly one head to every token")
    for dependent, head in heads.items():
        if not isinstance(head, (int, np.integer)) or not 0 <= head <= n:
            raise ValueError(f"token {dependent}: head {head!r} is not an index in 0..{n}")
    row = np.array([heads[dependent] for dependent in range(1, n + 1)], dtype=np.intp)
    tags = np.array([TAG_IDS[token.upos] for token in sentence.tokens], dtype=np.intp)
    return tree_violations(row, np.array([0, n]), tags)[0]


def validate_tree(sentence: Sentence, tree: DependencyTree) -> list[str]:
    """Check the structural constraints on an output tree.

    Returns the violated constraint names, empty when the tree is valid:

    * ``single-root``: exactly one token attaches to the virtual root;
    * ``connectivity``: every token reaches the root through head links;
    * ``acyclicity``: no head cycles;
    * ``function-leaf``: function words have no dependents.  In a sentence
      with no content words one token must still carry the structure, so
      there the root's dependent is exempt.

    Connectivity and acyclicity coincide in a head map, so they are
    reported together.  A tree whose head map does not cover the tokens,
    or has a head that is not an index in the sentence, is a caller error
    and raises ValueError.
    """
    flags = _sentence_violations(sentence, tree.heads).tolist()
    return [name for flag, names in zip(flags, _VIOLATIONS) if flag for name in names]


def forms_tree(sentence: Sentence, heads: dict[int, int]) -> bool:
    """True when the heads form a single-rooted, connected, acyclic tree.

    Function-word leafness is the main decoder's guarantee; the baselines'
    neighbor attachments make no such promise, so it is not checked here.
    """
    return not _sentence_violations(sentence, heads)[:2].any()


def naive_pos_tag(corpus: Corpus | Iterable[Sentence]) -> Corpus:
    """Replace every tag with CONTENT or FUNCTION by form frequency.

    Frequencies are counted case-sensitively over the corpus being parsed,
    on the forms' bytes (``RawText.form_groups``); the 100 most frequent
    forms become FUNCTION, ties at the boundary broken by Python's string
    order of the form.  Only the forms tied at the 100th count are decoded,
    to be ordered.  Everything but the tags survives.
    """
    corpus = as_corpus(corpus)
    raw = corpus.raw
    groups, counts, tokens = raw.form_groups()
    function = np.ones(len(counts), bool)
    below = len(counts) - FUNCTION_FORM_COUNT
    if below > 0:
        # The 100th-largest count: every form counted more often is
        # FUNCTION, and the forms counted this often share the places left.
        least = np.partition(counts, below)[below]
        function = counts > least
        tied = np.flatnonzero(counts == least)
        forms = map(raw.form, tokens.take(tied).tolist())
        chosen = sorted(zip(forms, tied.tolist()))[:FUNCTION_FORM_COUNT - function.sum()]
        function[[group for _, group in chosen]] = True
    tags = np.where(function, TAG_IDS["FUNCTION"], TAG_IDS["CONTENT"]).take(groups)
    return replace(corpus, tags=tags)
