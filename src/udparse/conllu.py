"""CoNLL-U reading and writing, plus structural validation of output trees.

The reader keeps only syntactic words: multiword-token range lines (ids like
``3-4``) and empty-node lines (ids like ``5.1``) are excluded from the token
sequence but retained verbatim so that written output reproduces them in
place.  Comment lines are preserved as-is; ``# key = value`` comments are
additionally exposed through ``Sentence.meta``.
"""

import io
import re
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, TextIO

from .rules import KNOWN_TAGS, is_content

# ASCII digits only, here and in the isascii-and-isdigit checks of ids and
# heads: ``\d`` and ``str.isdigit`` alone also take other scripts' digits.
_RANGE_ID = re.compile(r"[0-9]+-[0-9]+")
_EMPTY_NODE_ID = re.compile(r"[0-9]+\.[0-9]+")


class ConlluError(ValueError):
    """Malformed CoNLL-U input, or a sentence that cannot be serialized."""


@dataclass(frozen=True)
class Token:
    """One syntactic word: 1-based index, surface form, POS tag, heads.

    ``gold_head`` comes from column 7 of the input (0 denotes the root);
    ``pred_head`` is filled in by a parser.  The remaining CoNLL-U columns
    are carried along untouched so that files round-trip.
    """

    index: int
    form: str
    upos: str
    gold_head: int | None = None
    pred_head: int | None = None
    lemma: str = "_"
    xpos: str = "_"
    feats: str = "_"
    deprel: str = "_"
    deps: str = "_"
    misc: str = "_"

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"token index must be >= 1, got {self.index}")
        if self.upos not in KNOWN_TAGS:
            raise ValueError(f"unknown UPOS tag {self.upos!r}")
        for name, head in (("gold_head", self.gold_head), ("pred_head", self.pred_head)):
            if head is not None and head < 0:
                raise ValueError(f"{name} must be non-negative, got {head}")


@dataclass(frozen=True)
class Sentence:
    """An ordered, non-empty token sequence plus corpus metadata.

    ``extras`` holds preserved range/empty-node lines as ``(k, raw_line)``
    pairs, meaning the raw line appeared after the first ``k`` token lines.
    """

    tokens: tuple[Token, ...]
    meta: dict[str, str] = field(default_factory=dict)
    comments: tuple[str, ...] = ()
    extras: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")
        for position, token in enumerate(self.tokens, start=1):
            if token.index != position:
                raise ValueError(
                    f"token indices must be consecutive from 1; "
                    f"found {token.index} at position {position}")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def with_heads(self, heads: Mapping[int, int]) -> "Sentence":
        """Copy of the sentence with predicted heads set and relation ``dep``."""
        tokens = tuple(replace(t, pred_head=heads[t.index], deprel="dep")
                       for t in self.tokens)
        return replace(self, tokens=tokens)


@dataclass(frozen=True)
class DependencyTree:
    """Head assignment for every token; head 0 is the virtual root.

    The container itself accepts any assignment so that defective structures
    can be represented and inspected; ``validate_tree`` reports whether the
    assignment actually is a single-rooted tree with function-word leaves.
    """

    heads: dict[int, int]


def read_conllu(source: TextIO | Iterable[str]) -> list[Sentence]:
    """Read CoNLL-U from a line iterable into sentences.

    A UTF-8 byte-order mark at the start of the input is skipped.  Raises
    ConlluError naming the offending line for malformed column counts, bad
    token ids, unknown UPOS tags, unparseable head fields (``_`` is accepted
    as "no gold head"), and heads beyond the end of their sentence.
    """
    sentences: list[Sentence] = []
    comments: list[str] = []
    tokens: list[Token] = []
    token_lines: list[int] = []
    extras: list[tuple[int, str]] = []

    def flush(line_no: int) -> None:
        nonlocal comments, tokens, token_lines, extras
        if tokens:
            n = len(tokens)
            for token, token_line in zip(tokens, token_lines):
                if token.gold_head is not None and token.gold_head > n:
                    raise ConlluError(f"line {token_line}: head {token.gold_head} "
                                      f"outside a sentence of {n} tokens")
            meta: dict[str, str] = {}
            for comment in comments:
                body = comment.lstrip("#").strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    meta[key.strip()] = value.strip()
            sentences.append(Sentence(tuple(tokens), meta, tuple(comments), tuple(extras)))
        elif comments or extras:
            raise ConlluError(f"line {line_no}: sentence block contains no token lines")
        comments, tokens, token_lines, extras = [], [], [], []

    line_no = 0
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if line_no == 1:
            line = line.removeprefix("\ufeff")
        if not line.strip():
            flush(line_no)
            continue
        if line.startswith("#"):
            comments.append(line)
            continue
        columns = line.split("\t")
        if len(columns) != 10:
            raise ConlluError(
                f"line {line_no}: expected 10 tab-separated columns, got {len(columns)}")
        token_id = columns[0]
        if _RANGE_ID.fullmatch(token_id) or _EMPTY_NODE_ID.fullmatch(token_id):
            extras.append((len(tokens), line))
            continue
        if not (token_id.isascii() and token_id.isdigit()):
            raise ConlluError(f"line {line_no}: invalid token id {token_id!r}")
        index = int(token_id)
        if index != len(tokens) + 1:
            raise ConlluError(
                f"line {line_no}: token id {index} out of sequence "
                f"(expected {len(tokens) + 1})")
        upos = columns[3]
        if upos not in KNOWN_TAGS:
            raise ConlluError(f"line {line_no}: unknown UPOS tag {upos!r}")
        head_column = columns[6]
        if head_column == "_":
            gold_head = None
        elif head_column.isascii() and head_column.isdigit():
            gold_head = int(head_column)
        else:
            raise ConlluError(
                f"line {line_no}: head must be a non-negative integer or '_', "
                f"got {head_column!r}")
        tokens.append(Token(
            index=index, form=columns[1], upos=upos, gold_head=gold_head,
            lemma=columns[2], xpos=columns[4], feats=columns[5],
            deprel=columns[7], deps=columns[8], misc=columns[9]))
        token_lines.append(line_no)
    flush(line_no + 1)
    return sentences


def parse_conllu(text: str) -> list[Sentence]:
    return read_conllu(io.StringIO(text))


def write_conllu(sentences: Iterable[Sentence], out: TextIO) -> None:
    """Write sentences as CoNLL-U, one blank line after each sentence.

    Predicted heads go to column 7 and must be present on every token, and
    no field may contain a tab or a line break, which would corrupt the
    columns; nor may a comment line, or a metadata key or value written as
    one, contain a line break.  Tokens without a relation label are written
    with ``dep``; preserved range/empty-node lines are re-emitted in their
    original positions.
    """
    for number, sentence in enumerate(sentences, start=1):
        comment_lines = sentence.comments or tuple(
            f"# {key} = {value}" for key, value in sentence.meta.items())
        for comment in comment_lines:
            if "\n" in comment or "\r" in comment:
                raise ConlluError(
                    f"sentence {number}: comment {comment!r} contains a line break")
            out.write(comment + "\n")
        extras_after: dict[int, list[str]] = defaultdict(list)
        for position, raw in sentence.extras:
            extras_after[position].append(raw)
        for raw in extras_after.get(0, ()):
            out.write(raw + "\n")
        for token in sentence.tokens:
            if token.pred_head is None:
                raise ConlluError(
                    f"token {token.index} ({token.form!r}): missing predicted head")
            deprel = token.deprel if token.deprel != "_" else "dep"
            line = "\t".join((
                str(token.index), token.form, token.lemma, token.upos,
                token.xpos, token.feats, str(token.pred_head), deprel,
                token.deps, token.misc))
            if line.count("\t") != 9 or "\n" in line or "\r" in line:
                raise ConlluError(
                    f"token {token.index} ({token.form!r}): a field contains a tab or newline")
            out.write(line + "\n")
            for raw in extras_after.get(token.index, ()):
                out.write(raw + "\n")
        out.write("\n")


def format_conllu(sentences: Iterable[Sentence]) -> str:
    buffer = io.StringIO()
    write_conllu(sentences, buffer)
    return buffer.getvalue()


def validate_tree(sentence: Sentence, tree: DependencyTree) -> list[str]:
    """Check the structural constraints on an output tree.

    Returns the violated constraint names, empty when the tree is valid:

    * ``single-root``: exactly one token attaches to the virtual root;
    * ``connectivity``: every token reaches the root through head links;
    * ``acyclicity``: no head cycles;
    * ``function-leaf``: function words have no dependents.  In a sentence
      with no content words one token must still carry the structure, so
      there the root's dependent is exempt.

    A tree whose head map does not cover the tokens, or points outside the
    sentence, is a caller error and raises ValueError.
    """
    n = len(sentence)
    heads = tree.heads
    if set(heads) != set(range(1, n + 1)):
        raise ValueError("tree must assign exactly one head to every token")
    for dependent, head in heads.items():
        if not 0 <= head <= n:
            raise ValueError(f"head index {head} out of range for token {dependent}")

    violations: list[str] = []
    roots = [d for d in range(1, n + 1) if heads[d] == 0]
    if len(roots) != 1:
        violations.append("single-root")

    # Heads form a functional graph; a chain either terminates at the root
    # or enters a cycle, so unreachable and cyclic coincide here.
    reaches_root: dict[int, bool] = {0: True}
    for start in range(1, n + 1):
        chain: list[int] = []
        on_chain: set[int] = set()
        node = start
        while node not in reaches_root and node not in on_chain:
            on_chain.add(node)
            chain.append(node)
            node = heads[node]
        resolved = reaches_root.get(node, False)
        for visited in chain:
            reaches_root[visited] = resolved
    if not all(reaches_root[i] for i in range(1, n + 1)):
        violations.append("connectivity")
        violations.append("acyclicity")

    has_content = any(is_content(t.upos) for t in sentence.tokens)
    for dependent, head in heads.items():
        if head == 0 or is_content(sentence.tokens[head - 1].upos):
            continue
        if not has_content and heads[head] == 0:
            continue
        violations.append("function-leaf")
        break
    return violations
