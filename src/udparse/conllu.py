"""CoNLL-U reading and writing over a columnar corpus, plus tree validation.

``read_conllu`` returns a ``Corpus``: flat arrays plus sentence offsets, the
layout of Apache Arrow's list arrays.  ``tags`` (``rules.TAG_IDS``) and
``heads`` (column 7, -1 for ``_``) hold one entry per syntactic word, and
``offsets[s]:offsets[s + 1]`` is sentence s's slice of them and of
``lines``, its raw token lines.  Multiword-token range lines (ids like
``3-4``) and empty-node lines (ids like ``5.1``) are not syntactic words:
they are kept verbatim per sentence in ``extras``, and comment lines in
``comments``; ``# key = value`` comments are read as ``Sentence.meta``.  A
parse is one more flat array, ``predicted``, never stored on tokens.

``write_conllu`` writes a corpus without a parse back verbatim, so a plain
round-trip keeps every byte after a leading byte-order mark.  A parsed
corpus has each token line rebuilt from its raw columns: column 1 is the
token's position, column 4 the name of its tag id (CONTENT or FUNCTION
after ``naive_pos_tag``), column 7 its predicted head and column 8 ``dep``;
every other column and line passes through.

``Token`` and ``Sentence`` are read-only views for library callers.
Indexing or iterating a corpus gives sentences that build their tokens on
first use, and ``as_corpus`` turns sentences, also ones built from tokens,
into a corpus; every function that takes a corpus accepts either.
"""

import io
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .rules import KNOWN_TAGS, TAG_IDS, TAG_NAMES, is_content

# ASCII digits only, here and in the isascii-and-isdigit checks of ids and
# heads: ``\d`` and ``str.isdigit`` alone also take other scripts' digits.
_RANGE_ID = re.compile(r"[0-9]+-[0-9]+")
_EMPTY_NODE_ID = re.compile(r"[0-9]+\.[0-9]+")


class ConlluError(ValueError):
    """Malformed CoNLL-U input, or a sentence that cannot be serialized."""


@dataclass(frozen=True)
class Token:
    """One syntactic word: 1-based index, surface form, POS tag, head.

    ``gold_head`` is column 7 (0 denotes the root, None ``_``).  The
    remaining CoNLL-U columns are carried along untouched.
    """

    index: int
    form: str
    upos: str
    gold_head: int | None = None
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
        if self.gold_head is not None and self.gold_head < 0:
            raise ValueError(f"gold_head must be non-negative, got {self.gold_head}")


class Sentence:
    """One sentence: ``tokens``, ``meta``, raw ``comments`` and ``extras``.

    Read-only.  ``Sentence(tokens, meta, comments, extras)`` wraps tokens
    that a library caller built, numbered from 1.  ``Corpus[i]`` is a view
    that builds its tokens and meta from the corpus on first use, so its
    ``len`` costs nothing.  ``extras`` holds range/empty-node lines as
    ``(k, raw_line)`` pairs, meaning the raw line came after the first
    ``k`` token lines.
    """

    def __init__(self, tokens: Iterable[Token], meta: dict[str, str] | None = None,
                 comments: Iterable[str] = (), extras: Iterable[tuple[int, str]] = ()):
        tokens = tuple(tokens)
        if not tokens:
            raise ValueError("sentence must contain at least one token")
        for position, token in enumerate(tokens, start=1):
            if token.index != position:
                raise ValueError(
                    f"token indices must be consecutive from 1; "
                    f"found {token.index} at position {position}")
        vars(self).update(tokens=tokens, meta=dict(meta or {}), comments=tuple(comments),
                          extras=tuple(extras), _length=len(tokens))

    @classmethod
    def _view(cls, corpus: "Corpus", number: int) -> "Sentence":
        view = cls.__new__(cls)
        start, end = corpus.offsets[number:number + 2].tolist()
        vars(view).update(comments=corpus.comments[number], extras=corpus.extras[number],
                          _length=end - start, _source=(corpus, start))
        return view

    @cached_property
    def tokens(self) -> tuple[Token, ...]:
        corpus, start = self._source
        end = start + self._length
        return tuple(
            _token(position, line, tag, head) for position, (line, tag, head) in enumerate(
                zip(corpus.lines[start:end], corpus.tags[start:end].tolist(),
                    corpus.heads[start:end].tolist()), start=1))

    @cached_property
    def meta(self) -> dict[str, str]:
        return _meta(self.comments)

    def __setattr__(self, name, value):
        raise AttributeError("Sentence is read-only")

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def __eq__(self, other):
        if not isinstance(other, Sentence):
            return NotImplemented
        return ((self.tokens, self.meta, self.comments, self.extras)
                == (other.tokens, other.meta, other.comments, other.extras))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Sentence({self.tokens!r}, meta={self.meta!r})"


def _token(position: int, line: str, tag: int, head: int) -> Token:
    _, form, lemma, _, xpos, feats, _, deprel, deps, misc = line.split("\t")
    return Token(position, form, TAG_NAMES[tag], None if head < 0 else head,
                 lemma, xpos, feats, deprel, deps, misc)


def _meta(comments: Iterable[str]) -> dict[str, str]:
    meta: dict[str, str] = {}
    for comment in comments:
        body = comment.lstrip("#").strip()
        if "=" in body:
            key, value = body.split("=", 1)
            meta[key.strip()] = value.strip()
    return meta


@dataclass(frozen=True, eq=False)
class Corpus:
    """A CoNLL-U corpus as flat per-token arrays and per-sentence lines.

    ``tags``, ``heads`` and ``lines`` have one entry per syntactic word,
    sentence s owning ``offsets[s]:offsets[s + 1]``; ``comments`` and
    ``extras`` have one entry per sentence.  ``predicted`` is None, or the
    flat heads of a parse (0 for the root).  The arrays are read-only;
    ``dataclasses.replace`` makes a retagged or parsed corpus in O(1).
    """

    tags: np.ndarray
    heads: np.ndarray
    offsets: np.ndarray
    lines: tuple[str, ...]
    comments: tuple[tuple[str, ...], ...]
    extras: tuple[tuple[tuple[int, str], ...], ...]
    predicted: np.ndarray | None = None

    def __post_init__(self):
        for array in (self.tags, self.heads, self.offsets, self.predicted):
            if array is not None:
                array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.comments)

    def __getitem__(self, number: int) -> Sentence:
        return Sentence._view(self, range(len(self))[number])

    def __iter__(self) -> Iterator[Sentence]:
        return (Sentence._view(self, number) for number in range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return (all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in ("tags", "heads", "offsets", "predicted"))
                and (self.lines, self.comments, self.extras)
                == (other.lines, other.comments, other.extras))

    __hash__ = None

    @cached_property
    def forms(self) -> list[str]:
        """Column 2 of every token line."""
        return [line.split("\t", 2)[1] for line in self.lines]

    def per_sentence(self, values: Sequence) -> list[list]:
        """A flat per-token array, such as ``predicted``, as one list per
        sentence."""
        values = np.asarray(values).tolist()
        bounds = self.offsets.tolist()
        return [values[start:end] for start, end in zip(bounds, bounds[1:])]


def _corpus(tags: list[int], heads: list[int], offsets: list[int], lines: list[str],
            comments: list[tuple[str, ...]], extras: list[tuple[tuple[int, str], ...]]) -> Corpus:
    return Corpus(np.array(tags, dtype=np.intp), np.array(heads, dtype=np.intp),
                  np.array(offsets, dtype=np.intp), tuple(lines), tuple(comments), tuple(extras))


def as_corpus(sentences: "Corpus | Iterable[Sentence]") -> Corpus:
    """``sentences`` as a corpus; a ``Corpus`` is returned as it is.

    Raises ConlluError for a token field that contains a tab or a line
    break, and for a comment line, or a metadata key or value, that
    contains a line break, since such a line would not read back.  A
    sentence with metadata but no comments gets one ``# key = value``
    comment per entry.  Sentences carry no parse: a view of a parsed
    corpus brings its column 7 as read, not the corpus's ``predicted``.
    """
    if isinstance(sentences, Corpus):
        return sentences
    tags: list[int] = []
    heads: list[int] = []
    offsets = [0]
    lines: list[str] = []
    comments_of: list[tuple[str, ...]] = []
    extras_of: list[tuple[tuple[int, str], ...]] = []
    for number, sentence in enumerate(sentences, start=1):
        comments = sentence.comments or tuple(
            f"# {key} = {value}" for key, value in sentence.meta.items())
        for comment in comments:
            if "\n" in comment or "\r" in comment:
                raise ConlluError(
                    f"sentence {number}: comment {comment!r} contains a line break")
        for token in sentence.tokens:
            head = token.gold_head
            line = "\t".join((
                str(token.index), token.form, token.lemma, token.upos, token.xpos,
                token.feats, "_" if head is None else str(head), token.deprel,
                token.deps, token.misc))
            if line.count("\t") != 9 or "\n" in line or "\r" in line:
                raise ConlluError(
                    f"token {token.index} ({token.form!r}): a field contains a tab or newline")
            tags.append(TAG_IDS[token.upos])
            heads.append(-1 if head is None else head)
            lines.append(line)
        offsets.append(len(tags))
        comments_of.append(tuple(comments))
        extras_of.append(tuple(sentence.extras))
    return _corpus(tags, heads, offsets, lines, comments_of, extras_of)


def read_conllu(source: TextIO | Iterable[str]) -> Corpus:
    """Read CoNLL-U from a line iterable into a corpus.

    A UTF-8 byte-order mark at the start of the input is skipped.  Raises
    ConlluError naming the offending line for malformed column counts, bad
    token ids, unknown UPOS tags, unparseable head fields (``_`` is accepted
    as "no gold head"), heads beyond the end of their sentence, a carriage
    return inside a line, and a comment after a sentence's first token,
    range or empty-node line.
    """
    tags: list[int] = []
    heads: list[int] = []
    lines: list[str] = []
    offsets = [0]
    comments_of: list[tuple[str, ...]] = []
    extras_of: list[tuple[tuple[int, str], ...]] = []
    comments: list[str] = []
    extras: list[tuple[int, str]] = []
    token_lines: list[int] = []

    def flush(line_no: int) -> None:
        nonlocal comments, extras, token_lines
        start = offsets[-1]
        n = len(tags) - start
        if n:
            if max(heads[start:]) > n:
                head, token_line = next(
                    (head, token_line) for head, token_line in zip(heads[start:], token_lines)
                    if head > n)
                raise ConlluError(f"line {token_line}: head {head} "
                                  f"outside a sentence of {n} tokens")
            offsets.append(len(tags))
            comments_of.append(tuple(comments))
            extras_of.append(tuple(extras))
        elif comments or extras:
            raise ConlluError(f"line {line_no}: sentence block contains no token lines")
        comments, extras, token_lines = [], [], []

    line_no = 0
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if line_no == 1:
            line = line.removeprefix("\ufeff")
        if not line.strip():
            flush(line_no)
            continue
        if "\r" in line:
            line = line.removesuffix("\r")
            # A file reader splits lines at a bare \r too, so such a line
            # would not read back once written.
            if "\r" in line:
                raise ConlluError(f"line {line_no}: carriage return inside the line")
        if line.startswith("#"):
            if token_lines or extras:
                raise ConlluError(f"line {line_no}: comment inside a sentence; "
                                  "comments go before its first line")
            comments.append(line)
            continue
        columns = line.split("\t")
        if len(columns) != 10:
            raise ConlluError(
                f"line {line_no}: expected 10 tab-separated columns, got {len(columns)}")
        token_id = columns[0]
        if not (token_id.isascii() and token_id.isdigit()):
            if _RANGE_ID.fullmatch(token_id) or _EMPTY_NODE_ID.fullmatch(token_id):
                extras.append((len(tags) - offsets[-1], line))
                continue
            raise ConlluError(f"line {line_no}: invalid token id {token_id!r}")
        # Compared as text: int() refuses more than 4300 digits.
        position = str(len(tags) - offsets[-1] + 1)
        if token_id.lstrip("0") != position:
            raise ConlluError(
                f"line {line_no}: token id {token_id.lstrip('0') or '0'} out of sequence "
                f"(expected {position})")
        tag = TAG_IDS.get(columns[3])
        if tag is None:
            raise ConlluError(f"line {line_no}: unknown UPOS tag {columns[3]!r}")
        head = columns[6]
        if head == "_":
            heads.append(-1)
        elif head.isascii() and head.isdigit():
            try:
                heads.append(int(head))
            except ValueError:  # more digits than int() converts
                raise ConlluError(f"line {line_no}: head has too many digits") from None
        else:
            raise ConlluError(
                f"line {line_no}: head must be a non-negative integer or '_', "
                f"got {head!r}")
        tags.append(tag)
        lines.append(line)
        token_lines.append(line_no)
    flush(line_no + 1)
    return _corpus(tags, heads, offsets, lines, comments_of, extras_of)


def parse_conllu(text: str) -> Corpus:
    return read_conllu(io.StringIO(text))


def _parsed_lines(corpus: Corpus) -> list[str]:
    """Token lines with position, tag name, predicted head and ``dep``."""
    starts = np.repeat(corpus.offsets[:-1], np.diff(corpus.offsets))
    positions = (np.arange(1, len(corpus.tags) + 1) - starts).tolist()
    names = [TAG_NAMES[tag] for tag in corpus.tags.tolist()]
    rebuilt = []
    for line, position, tag, head in zip(corpus.lines, positions, names,
                                         corpus.predicted.tolist()):
        _, form, lemma, _, xpos, feats, _, _, rest = line.split("\t", 8)
        rebuilt.append(f"{position}\t{form}\t{lemma}\t{tag}\t{xpos}\t{feats}\t{head}\tdep\t{rest}")
    return rebuilt


def write_conllu(corpus: "Corpus | Iterable[Sentence]", out: TextIO) -> None:
    """Write a corpus as CoNLL-U, one blank line after each sentence.

    A corpus without ``predicted`` heads is written back verbatim; a parsed
    one gets its token lines rebuilt as the module docstring says.
    Comments and preserved range/empty-node lines are re-emitted in their
    original positions either way.  Sentences are converted by
    ``as_corpus`` first, which may raise ConlluError.
    """
    corpus = as_corpus(corpus)
    lines = corpus.lines if corpus.predicted is None else _parsed_lines(corpus)
    bounds = corpus.offsets.tolist()
    text: list[str] = []
    for number, comments in enumerate(corpus.comments):
        text.extend(comments)
        start, end = bounds[number], bounds[number + 1]
        for after, raw in corpus.extras[number]:
            text.extend(lines[start:bounds[number] + after])
            text.append(raw)
            start = bounds[number] + after
        text.extend(lines[start:end])
        text.append("")
    if text:
        out.write("\n".join(text) + "\n")


def format_conllu(corpus: "Corpus | Iterable[Sentence]") -> str:
    buffer = io.StringIO()
    write_conllu(corpus, buffer)
    return buffer.getvalue()


@dataclass(frozen=True)
class DependencyTree:
    """Head assignment for every token; head 0 is the virtual root.

    The container itself accepts any assignment so that defective structures
    can be represented and inspected; ``validate_tree`` reports whether the
    assignment actually is a single-rooted tree with function-word leaves.
    """

    heads: dict[int, int]


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
