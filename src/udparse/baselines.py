"""Support for the comparison systems.

The closest-head and adjacency baselines are ``decoder.decode_corpus``
modes.  Here live the checks that tell whether a baseline's heads form
trees, one sentence at a time or a whole corpus at once, and the naive
two-tag POS scenario: the 100 most frequent word forms of the input become
FUNCTION, everything else CONTENT.
"""

import heapq
from collections import Counter
from dataclasses import replace
from typing import Iterable

import numpy as np

from .conllu import Corpus, DependencyTree, Sentence, as_corpus, validate_tree
from .rules import TAG_IDS

FUNCTION_FORM_COUNT = 100

_TREE_CONSTRAINTS = ("single-root", "connectivity", "acyclicity")


def forms_tree(sentence: Sentence, heads: dict[int, int]) -> bool:
    """True when the heads form a single-rooted, connected, acyclic tree.

    Function-word leafness is the main decoder's guarantee; the baselines'
    neighbor attachments make no such promise, so it is not checked here.
    """
    violations = validate_tree(sentence, DependencyTree(heads))
    return not any(v in _TREE_CONSTRAINTS for v in violations)


def forms_trees(heads: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``forms_tree`` of every sentence of a corpus at once: ``(S,)`` bools.

    ``heads`` is a flat head array (0 for the root, else in the sentence),
    and ``offsets`` the corpus's sentence offsets.  Connectivity and
    acyclicity come from pointer jumping (Hillis & Steele 1986, "Data
    parallel algorithms"): every token's link to its head, with the root
    absorbing, is composed with itself ceil(log2(n + 1)) times for the
    longest sentence n, after which a token has reached the root exactly
    when its head chain ends there.  Single-root is a count of root
    dependents per sentence.
    """
    lengths = np.diff(offsets)
    if not len(lengths):
        return np.zeros(0, dtype=bool)
    root = len(heads)
    links = np.where(heads == 0, root, np.repeat(offsets[:-1], lengths) + heads - 1)
    links = np.append(links, root)
    for _ in range(int(lengths.max()).bit_length()):
        links = links[links]
    connected = np.logical_and.reduceat(links[:-1] == root, offsets[:-1])
    single_root = np.add.reduceat((heads == 0).astype(np.intp), offsets[:-1]) == 1
    return connected & single_root


def naive_pos_tag(corpus: Corpus | Iterable[Sentence]) -> Corpus:
    """Replace every tag with CONTENT or FUNCTION by form frequency.

    Frequencies are counted case-sensitively over the corpus being parsed;
    the 100 most frequent forms become FUNCTION, ties at the boundary broken
    by lexicographic order of the form.  Everything but the tags survives.
    """
    corpus = as_corpus(corpus)
    counts = Counter(corpus.forms)
    function_forms = {form for form, _ in heapq.nsmallest(
        FUNCTION_FORM_COUNT, counts.items(), key=lambda item: (-item[1], item[0]))}
    function = np.fromiter(map(function_forms.__contains__, corpus.forms), dtype=bool,
                           count=len(corpus.forms))
    tags = np.where(function, TAG_IDS["FUNCTION"], TAG_IDS["CONTENT"]).astype(np.intp)
    return replace(corpus, tags=tags)
