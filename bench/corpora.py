"""Seeded synthetic CoNLL-U corpora for the benchmark workloads.

Nothing is downloaded.  Tags are drawn with UD-English-like frequencies,
forms from per-tag vocabularies (small closed classes, Zipf-like open
classes, so the naive two-tag scenario finds real function forms), and gold
heads form a seeded tree per sentence, so ``eval`` and UAS have something
to score.  The same seed always gives the same bytes.

Sentence lengths are stratified: the i-th of m lengths is drawn from the
i-th m-quantile slice of the length distribution, then the lengths are
shuffled.  The token count, and the share of long sentences that dominate
the O(n^2) layers, then barely move between seeds, so run-to-run spread
measures the program rather than the draw.
"""

import hashlib
import random
from statistics import NormalDist

# Share (percent) of each UPOS tag in the UD English treebank, rounded.
TAG_SHARES = {
    "NOUN": 17.0, "PUNCT": 11.5, "VERB": 10.5, "PRON": 9.0, "ADP": 8.5,
    "DET": 8.0, "PROPN": 6.5, "ADJ": 6.0, "AUX": 6.0, "ADV": 5.0,
    "CONJ": 3.3, "PART": 2.8, "NUM": 2.0, "SCONJ": 1.6, "INTJ": 0.5,
    "SYM": 0.4, "X": 0.4,
}
_TAGS = tuple(TAG_SHARES)
_CUM_WEIGHTS = tuple(sum(tuple(TAG_SHARES.values())[:i + 1]) for i in range(len(_TAGS)))

CONTENT_TAGS = frozenset({"ADJ", "NOUN", "PROPN", "VERB"})
_NOMINALS = ("NOUN", "NOUN", "PROPN", "PRON")
# Gold attachment side of function words; the rest attach to the nearest
# content word on either side.
_HEAD_RIGHT = frozenset({"ADP", "AUX", "DET", "SCONJ", "PART"})
_HEAD_LEFT = frozenset({"CONJ", "PUNCT"})

_CLOSED_FORMS = {
    "ADP": ("of", "in", "to", "for", "with", "on", "at", "from", "by", "about"),
    "AUX": ("is", "was", "be", "have", "will", "can", "would", "are", "been"),
    "CONJ": ("and", "or", "but"),
    "DET": ("the", "a", "this", "that", "an", "any", "some", "all", "no"),
    "PART": ("to", "not", "'s", "n't"),
    "PRON": ("I", "it", "you", "he", "they", "we", "she", "that", "me", "them"),
    "PUNCT": (".", ",", "!", "?", ":", "(", ")", "-", "\""),
    "SCONJ": ("that", "if", "because", "as", "while", "when"),
    "SYM": ("$", "%", "+", "/"),
}
_OPEN_VOCABULARY = 5000
_GENRES = ("news", "wiki", "blog", "email", "review")


def _length_quantile(workload: str):
    if workload == "news":
        normal = NormalDist(17, 10)
        return lambda u: min(80, max(1, round(normal.inv_cdf(u))))
    if workload == "long":
        return lambda u: 60 + int(u * 191)
    if workload == "short":
        return lambda u: 1 + int(u * 8)
    raise ValueError(f"unknown workload {workload!r}")


# Sentences per workload: about 14k tokens of news, 5k of long, 7k of
# short, sized so that one round of all commands takes 3-5 s on a 2-core
# x86-64 machine and a run repeats every command several times.
SENTENCES = {"news": 800, "long": 32, "short": 1600}


def _tags(rng: random.Random, n: int) -> list[str]:
    tags = rng.choices(_TAGS, cum_weights=_CUM_WEIGHTS, k=n)
    for i in range(1, n):
        # Prepositions: an adposition is mostly followed by a nominal.
        if tags[i - 1] == "ADP" and rng.random() < 0.5:
            tags[i] = rng.choice(_NOMINALS)
    if n >= 3 and rng.random() < 0.85:
        tags[-1] = "PUNCT"
    return tags


def _form(rng: random.Random, tag: str) -> str:
    closed = _CLOSED_FORMS.get(tag)
    if closed:
        return closed[min(len(closed) - 1, int(rng.expovariate(0.5)))]
    # Log-uniform rank: a few frequent open-class forms, a long tail.
    return f"{tag.lower()}{int(_OPEN_VOCABULARY ** rng.random())}"


def _gold_heads(rng: random.Random, tags: list[str]) -> list[int]:
    """A seeded tree: the first verb (else content word) heads the sentence,
    other content words hang mostly off their nearest placed content word,
    function words off the nearest content word on their side."""
    n = len(tags)
    content = [i for i, t in enumerate(tags, 1) if t in CONTENT_TAGS]
    root = next((i for i, t in enumerate(tags, 1) if t == "VERB"),
                content[0] if content else 1)
    heads = [0] * (n + 1)
    placed = [root]
    for i in sorted(content, key=lambda i: (abs(i - root), i)):
        if i == root:
            continue
        if rng.random() < 0.8:
            heads[i] = min(placed, key=lambda h: (abs(h - i), h))
        else:
            heads[i] = rng.choice(placed)
        placed.append(i)
    anchors = set(placed)
    for i in range(1, n + 1):
        if i in anchors:
            continue
        if tags[i - 1] in _HEAD_RIGHT:
            pool = [h for h in placed if h > i]
        elif tags[i - 1] in _HEAD_LEFT:
            pool = [h for h in placed if h < i]
        else:
            pool = []
        heads[i] = min(pool or placed, key=lambda h: (abs(h - i), h))
    return heads[1:]


def _sentence_lines(rng: random.Random, workload: str, number: int, n: int) -> list[str]:
    tags = _tags(rng, n)
    forms = [_form(rng, tag) for tag in tags]
    heads = _gold_heads(rng, tags)
    lines = [f"# sent_id = {workload}-{number:05d}",
             f"# genre = {_GENRES[number % len(_GENRES)]}"]
    if workload != "short":
        for i, (form, tag, head) in enumerate(zip(forms, tags, heads), 1):
            lines.append(f"{i}\t{form}\t_\t{tag}\t_\t_\t{head}\tdep\t_\t_")
        return lines
    # Short sentences fill all ten columns and exercise the reader's
    # pass-through paths: comments, multiword ranges and empty nodes.
    lines.append("# text = " + " ".join(forms))
    fused = rng.randrange(1, n) if n > 1 and rng.random() < 0.3 else None
    empty_after = rng.randrange(1, n + 1) if rng.random() < 0.2 else None
    for i, (form, tag, head) in enumerate(zip(forms, tags, heads), 1):
        if i == fused:
            lines.append(f"{i}-{i + 1}\t{form}{forms[i]}\t_\t_\t_\t_\t_\t_\t_\t_")
        lines.append(f"{i}\t{form}\t{form.lower()}\t{tag}\t{tag[:2]}\tNumber=Sing"
                     f"\t{head}\tdep\t{head}:dep\tSpaceAfter=No")
        if i == empty_after:
            lines.append(f"{i}.1\t{form}\t{form.lower()}\tVERB\t_\t_\t_\t_"
                         f"\t{head}:dep\t_")
    return lines


def generate(workload: str, seed: int, sentences: int | None = None) -> str:
    """CoNLL-U text of one workload's corpus; ``sentences`` overrides the
    workload's size (the self-test uses tiny corpora)."""
    quantile = _length_quantile(workload)
    m = SENTENCES[workload] if sentences is None else sentences
    rng = random.Random(f"{workload}:{seed}")
    lengths = [quantile((i + rng.uniform(1e-9, 1.0)) / m) for i in range(m)]
    rng.shuffle(lengths)
    out = []
    for number, n in enumerate(lengths, 1):
        out.extend(_sentence_lines(rng, workload, number, n))
        out.append("")
    return "\n".join(out) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
