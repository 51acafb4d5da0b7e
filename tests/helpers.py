"""Shared fixtures: quick sentence construction and the worked example."""

from dataclasses import fields, replace

import numpy as np

from udparse.conllu import Sentence, Token
from udparse.rules import DEFAULT_RULESET, TAG_IDS, is_content

from oracles import content_ranking, estimate_main_predicate, token_walk_scores

EXAMPLE_TAGS = ("PRON", "ADV", "VERB", "DET", "ADJ", "NOUN", "ADP", "DET", "NOUN")
EXAMPLE_FORMS = ("They", "also", "had", "a", "special", "connection",
                 "to", "some", "extremists")
EXAMPLE_HEADS = (3, 3, 0, 6, 6, 3, 9, 9, 6)
EXAMPLE_IN_DEGREES = (0, 0, 4, 0, 1, 5, 0, 0, 5)
EXAMPLE_CONTENT_ORDER = (3, 6, 9, 5)
EXAMPLE_FUNCTION_ORDER = (1, 2, 4, 7, 8)


def make_sentence(tags, forms=None, heads=None, meta=None) -> Sentence:
    forms = forms or tuple(f"w{i + 1}" for i in range(len(tags)))
    heads = heads or (None,) * len(tags)
    tokens = tuple(
        Token(index=i + 1, form=forms[i], upos=tags[i], gold_head=heads[i])
        for i in range(len(tags)))
    return Sentence(tokens, meta=dict(meta or {}))


def with_column7(sentence, heads) -> Sentence:
    """The sentence with ``heads`` in column 7, as a predicted file holds
    them."""
    return Sentence(tuple(replace(t, gold_head=h) for t, h in zip(sentence.tokens, heads)),
                    sentence.meta, sentence.comments, sentence.extras)


def random_head(rng, n: int, i: int) -> int:
    """A random gold or predicted head for token ``i + 1`` of ``n``: any
    but its own id, which the reader refuses."""
    head = rng.randint(0, n - 1)
    return head + (head > i)


def decoded(corpus):
    """What has been decoded from the corpus's text into strings so far:
    the cached properties of its ``RawText``."""
    return vars(corpus.raw).keys() - {field.name for field in fields(corpus.raw)}


def tag_ids(sentences):
    """``(B, n)`` tag ids of equal-length sentences: the stack that
    ``oracles.rule_counts`` and ``oracles.token_walk_scores`` take."""
    return np.array([[TAG_IDS[token.upos] for token in sentence] for sentence in sentences],
                    dtype=np.intp)


def rank_orders(sentence, ranks):
    """``(content_order, function_order, predicate)`` of one sentence's
    ``ranker.content_ranks``, as ``oracles.closest_first_heads`` takes them:
    content indices by rank, function indices in sentence order."""
    content = sorted((t.index for t in sentence if is_content(t.upos)),
                     key=lambda index: ranks[index - 1])
    function = tuple(t.index for t in sentence if not is_content(t.upos))
    return (tuple(content), function,
            estimate_main_predicate([t.upos for t in sentence]))


def orders_of(sentence, ruleset=DEFAULT_RULESET, mode="udp", teleport=0.05, weight=5.0):
    """``rank_orders`` of one sentence as the dense oracle ranks it: content
    words by ``oracles.content_ranking`` of the token-level walk's scores,
    or in sentence order in ``udp-nopr`` mode."""
    tags = [t.upos for t in sentence]
    predicate = estimate_main_predicate(tags)
    content = [t.index for t in sentence if is_content(t.upos)]
    if mode == "udp":
        scores = token_walk_scores(tag_ids([sentence]), ruleset, [predicate - 1],
                                   teleport, weight)[0].tolist()
        # Tokens that share a tag, neither of them the predicate, can trade
        # places in the walk, so their exact scores are equal; give them the
        # first one's score, or float noise across a rounding step orders them.
        first = {}
        scores = [scores[first.setdefault((tag, i == predicate - 1), i)]
                  for i, tag in enumerate(tags)]
        content = content_ranking(content, scores)
    function = tuple(t.index for t in sentence if not is_content(t.upos))
    return tuple(content), function, predicate


def example_sentence() -> Sentence:
    return make_sentence(EXAMPLE_TAGS, EXAMPLE_FORMS)


def example_conllu(heads=None) -> str:
    """The example sentence as a CoNLL-U block (gold heads optional)."""
    heads = heads or ("_",) * len(EXAMPLE_TAGS)
    lines = []
    for i, (form, tag) in enumerate(zip(EXAMPLE_FORMS, EXAMPLE_TAGS), start=1):
        lines.append(f"{i}\t{form}\t_\t{tag}\t_\t_\t{heads[i - 1]}\t_\t_\t_")
    return "\n".join(lines) + "\n"
