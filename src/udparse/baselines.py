"""Support for the comparison systems.

The closest-head and adjacency baselines are ``decoder.decode_corpus``
modes.  Here live the check that tells whether a baseline's heads form a
tree, and the naive two-tag POS scenario: the 100 most frequent word forms
of the input become FUNCTION, everything else CONTENT.
"""

from collections import Counter
from dataclasses import replace
from typing import Sequence

from .conllu import DependencyTree, Sentence, validate_tree

FUNCTION_FORM_COUNT = 100

_TREE_CONSTRAINTS = ("single-root", "connectivity", "acyclicity")


def forms_tree(sentence: Sentence, heads: dict[int, int]) -> bool:
    """True when the heads form a single-rooted, connected, acyclic tree.

    Function-word leafness is the main decoder's guarantee; the baselines'
    neighbor attachments make no such promise, so it is not checked here.
    """
    violations = validate_tree(sentence, DependencyTree(heads))
    return not any(v in _TREE_CONSTRAINTS for v in violations)


def naive_pos_tag(corpus: Sequence[Sentence]) -> list[Sentence]:
    """Replace every tag with CONTENT or FUNCTION by form frequency.

    Frequencies are counted case-sensitively over the corpus being parsed;
    the 100 most frequent forms become FUNCTION, ties at the boundary broken
    by lexicographic order of the form.  All other token fields survive.
    """
    counts = Counter(token.form for sentence in corpus for token in sentence.tokens)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    function_forms = {form for form, _ in ranked[:FUNCTION_FORM_COUNT]}
    retagged = []
    for sentence in corpus:
        tokens = tuple(
            replace(token, upos="FUNCTION" if token.form in function_forms else "CONTENT")
            for token in sentence.tokens)
        retagged.append(replace(sentence, tokens=tokens))
    return retagged

