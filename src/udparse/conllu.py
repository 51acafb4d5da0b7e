"""CoNLL-U reading and writing over a columnar corpus.

``read_conllu`` reads its input whole and settles every valid line at
once, as numpy arrays over its UTF-8 bytes.  A line the arrays leave
unsettled is decoded alone: it is blank if it is whitespace-only, and an
error if not.  An error names the first bad line in reading order, as a
line-by-line reader would, and only that line is worded one at a time
(``_line``).  The input is a binary or text stream, split at ``\\n``.
Columns 1, 4 and 7 (id, tag and head) are each read as one 8-byte word,
through a zero-copy view of the bytes that has an unaligned little-endian
word at every byte position, as simdjson reads JSON (Langdale and Lemire
2019); ``eval`` compares forms, and ``naive_pos_tag`` groups them, 8 bytes
at a time through the same view.  A word that would reach past the end
of the bytes, as the words of columns 4 and 7 of the last line can, has
those bytes cleared instead.

It returns a ``Corpus``: flat arrays plus sentence offsets, the layout of
Apache Arrow's list arrays.  ``tags`` (``rules.TAG_IDS``) and
``heads`` (column 7, -1 for ``_``) hold one entry per syntactic word, and
``offsets[s]:offsets[s + 1]`` is sentence s's slice of them.  The text
stays the UTF-8 buffer that the reader scanned, a ``RawText`` that also
holds each token's line number, the tag id its column 4 was read as, and
the byte bounds of its line, its column 2 (after Apache Arrow's
variable-size binary layout), its columns 4 and 7 and the tab before its
column 9, and the byte bounds of each sentence: ``eval`` compares and
``naive_pos_tag`` groups forms on those bounds, and the writer copies
between them.  ``lines`` (the raw token lines), ``comments`` and
``extras`` are decoded from the buffer on first use, once for every corpus
that shares it; writing a corpus decodes none of them.
Multiword-token range lines (ids like ``3-4``) and empty-node lines (ids
like ``5.1``) are not syntactic words: they are kept verbatim per sentence
in ``extras``, and comment lines in ``comments``; ``# key = value``
comments are read as ``Sentence.meta``.  A parse is one more flat array,
``predicted``, never stored on tokens.

``write_conllu`` writes a corpus without a parse back verbatim, one slice
of the buffer per sentence, so a plain round-trip keeps every byte of a
sentence after a leading byte-order mark.  A parsed corpus has each token
line rebuilt from its raw columns: column 1 is the token's position,
column 4 the name of its tag id (CONTENT or FUNCTION after
``naive_pos_tag``), column 7 its predicted head and column 8 ``dep``;
every other column and line passes through.  The written text is one
gather over the buffer and a small table of those inserted strings,
taken 16 KiB of output at a time through one source position per output
byte of the step.  The segments are laid out from the reader's bounds,
without looking at the bytes again: a column 1 that already is the
token's position (no zero padding) and a column 4 that already holds its
tag's name are copied with the columns around them, so such a token costs
one copied segment, from the tab before the previous token's column 9 to
its column 7, and one inserted head.  No line is decoded into a string.

``Token`` and ``Sentence`` are read-only values for library callers.
Indexing or iterating a corpus builds each sentence it gives from the
decoded lines, and ``as_corpus`` turns sentences, also ones built from
tokens, into a corpus; every function that takes a corpus accepts either.
"""

import io
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .rules import KNOWN_TAGS, TAG_IDS, TAG_NAMES

# A range or empty-node id.  ASCII digits only, here and in the
# isascii-and-isdigit checks of ids and heads: ``\d`` and ``str.isdigit``
# alone also take other scripts' digits.
_EXTRA_ID = re.compile(rb"[0-9]+[-.][0-9]+")


class ConlluError(ValueError):
    """Malformed CoNLL-U input, or a sentence that cannot be serialized.

    A reader error carries the 1-based input ``line`` that it names, and
    its message is ``line N: `` and then its ``reason``; ``line`` is None
    for every other error."""

    def __init__(self, reason: str, line: int | None = None):
        super().__init__(reason if line is None else f"line {line}: {reason}")
        self.reason, self.line = reason, line


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


@dataclass(frozen=True)
class Sentence:
    """One sentence: ``tokens``, ``meta``, raw ``comments`` and ``extras``.

    Read-only.  ``Sentence(tokens, meta, comments, extras)`` takes tokens
    numbered from 1, and ``meta`` defaults to what the ``# key = value``
    comments say; ``Corpus[i]`` builds one from the corpus's lines.
    ``extras`` holds range/empty-node lines as ``(k, raw_line)`` pairs,
    meaning the raw line came after the first ``k`` token lines.
    """

    tokens: tuple[Token, ...]
    meta: dict[str, str] | None = None
    comments: tuple[str, ...] = ()
    extras: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        tokens, comments = tuple(self.tokens), tuple(self.comments)
        if not tokens:
            raise ValueError("sentence must contain at least one token")
        for position, token in enumerate(tokens, start=1):
            if token.index != position:
                raise ValueError(
                    f"token indices must be consecutive from 1; "
                    f"found {token.index} at position {position}")
        vars(self).update(tokens=tokens, comments=comments, extras=tuple(self.extras),
                          meta=_meta(comments) if self.meta is None else dict(self.meta))

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    __hash__ = None


def _meta(comments: Iterable[str]) -> dict[str, str]:
    meta: dict[str, str] = {}
    for comment in comments:
        body = comment.lstrip("#").strip()
        if "=" in body:
            key, value = body.split("=", 1)
            meta[key.strip()] = value.strip()
    return meta


def _position_type(size: int) -> type:
    """The dtype of byte and line positions in ``size`` bytes: int32 where
    they fit, to keep the arrays small."""
    return np.int32 if size < 2**31 else np.int64


@dataclass(frozen=True, eq=False)
class RawText:
    """The text of a corpus as UTF-8 bytes, and where its parts lie in it.

    ``data`` holds every line, each ended by ``\\n``.  ``token_lines``,
    ``comment_lines`` and ``extra_lines`` are the 0-based numbers of its
    token, comment and range/empty-node lines in reading order, and
    ``sentence_lines[s]`` is the number of sentence s's first line.
    Sentence s's lines are ``data[sentence_starts[s]:sentence_ends[s]]``,
    its end being the start of the blank line after it or the end of
    ``data``.  Token t's line starts at ``token_starts[t]``; its column 2
    is ``data[form_starts[t]:form_ends[t]]``; its column 4 starts at
    ``tag_starts[t]`` and holds the name of tag id ``read_tags[t]``; its
    column 7 starts at ``head_starts[t]``, and ``cuts[t]`` is the tab
    before its column 9.  These are the bounds that the writer copies
    between.  The arrays are read-only.  The lines are decoded into
    strings once, on first use, for every corpus that shares this text.
    """

    data: bytes
    token_lines: np.ndarray
    read_tags: np.ndarray
    token_starts: np.ndarray
    form_starts: np.ndarray
    form_ends: np.ndarray
    tag_starts: np.ndarray
    head_starts: np.ndarray
    cuts: np.ndarray
    comment_lines: np.ndarray
    extra_lines: np.ndarray
    sentence_lines: np.ndarray
    sentence_starts: np.ndarray
    sentence_ends: np.ndarray

    def __post_init__(self):
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    @cached_property
    def all_lines(self) -> list[str]:
        """Every line of ``data``, decoded."""
        lines = self.data.decode(errors="surrogatepass").split("\n")
        lines.pop()  # what follows the last line end
        return lines

    def _at(self, numbers: np.ndarray) -> tuple[str, ...]:
        return tuple(map(self.all_lines.__getitem__, numbers.tolist()))

    def _grouped(self, numbers: np.ndarray, items: tuple) -> tuple[tuple, ...]:
        """``items``, one per line in ``numbers``, as one tuple per sentence."""
        bounds = [*np.searchsorted(numbers, self.sentence_lines).tolist(), len(items)]
        return tuple(map(items.__getitem__, map(slice, bounds, bounds[1:])))

    @cached_property
    def lines(self) -> tuple[str, ...]:
        return self._at(self.token_lines)

    def form(self, t: int) -> str:
        """Column 2 of token ``t``, decoded."""
        return self.data[self.form_starts[t]:self.form_ends[t]].decode(errors="surrogatepass")

    @cached_property
    def comments(self) -> tuple[tuple[str, ...], ...]:
        return self._grouped(self.comment_lines, self._at(self.comment_lines))

    def first_form_mismatch(self, other: "RawText", count: int) -> int | None:
        """The first of the first ``count`` tokens whose column 2 differs
        between this text and ``other``, or None.

        Before the first pair of forms whose lengths differ, forms are
        compared as words (``_words``): the XOR of the two forms' first
        words, and of their second for forms of more than 8 bytes, masked
        to the form's length, is 0 where the bytes agree.  The few forms of
        more than 16 bytes are compared past that as byte strings.
        """
        starts, other_starts = self.form_starts[:count], other.form_starts[:count]
        lengths = self.form_ends[:count] - starts
        unequal = np.flatnonzero(lengths != other.form_ends[:count] - other_starts)[:1]
        count = int(unequal[0]) if len(unequal) else count
        starts, other_starts, lengths = starts[:count], other_starts[:count], lengths[:count]
        differs = ((_words(self.data, starts) ^ _words(other.data, other_starts))
                   & _LOW_BYTES.take(np.minimum(lengths, 8)))
        rest = np.flatnonzero(lengths > 8)
        differs[rest] |= ((_words(self.data, starts[rest] + 8)
                           ^ _words(other.data, other_starts[rest] + 8))
                          & _LOW_BYTES.take(np.minimum(lengths[rest] - 8, 8)))
        differ = np.flatnonzero(differs)[:1]
        first = int(differ[0]) if len(differ) else count
        for t in np.flatnonzero(lengths[:first] > 16).tolist():
            start, other_start, end = int(starts[t]) + 16, int(other_starts[t]) + 16, int(
                self.form_ends[t])
            if self.data[start:end] != other.data[other_start:other_start + end - start]:
                return t
        if first < count:
            return first
        return int(unequal[0]) if len(unequal) else None

    def form_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The tokens grouped by their column 2: each token's group, the
        number of tokens in each group, and one token of each group.

        A form of up to 16 bytes is told apart by its length and its first
        and second words (``_words``), each masked to the form's length:
        the length keeps ``a`` apart from ``a\\x00``.  A form of more than
        16 bytes has, in place of its second word, its number among the
        distinct such forms, which are few and are told apart one at a
        time from their bytes.  The tokens are sorted on their first word
        alone, and only its runs that hold other second words or lengths
        are sorted again on those.
        """
        data, starts, ends = self.data, self.form_starts, self.form_ends
        lengths = ends - starts
        first = _words(data, starts) & _LOW_BYTES.take(np.minimum(lengths, 8))
        second = np.zeros_like(first)
        past = np.flatnonzero(lengths > 8)
        second[past] = (_words(data, starts.take(past) + 8)
                        & _LOW_BYTES.take(np.minimum(lengths.take(past) - 8, 8)))
        long = np.flatnonzero(lengths > 16)
        if len(long):
            numbers: dict[bytes, int] = {}
            second[long] = [numbers.setdefault(data[start:end], len(numbers)) for start, end
                            in zip(starts.take(long).tolist(), ends.take(long).tolist())]
        order = np.argsort(first)
        keys = [key.take(order) for key in (first, second, lengths)]
        del first, second, lengths
        changed = [key[1:] != key[:-1] for key in keys]
        mixed = ~changed[0] & (changed[1] | changed[2])
        if mixed.any():
            run = np.append(0, np.cumsum(changed[0]))
            hit = np.zeros(run[-1] + 1, bool)
            hit[run[1:][mixed]] = True
            at = np.flatnonzero(hit.take(run))
            moved = at.take(np.lexsort((keys[2].take(at), keys[1].take(at), run.take(at))))
            for values in (order, *keys):
                values[at] = values.take(moved)
            changed[1:] = (key[1:] != key[:-1] for key in keys[1:])
        new = np.ones(len(order), bool)
        new[1:] = changed[0] | changed[1] | changed[2]
        firsts = np.flatnonzero(new)
        counts = np.diff(firsts, append=len(order))
        groups = np.empty_like(order)
        groups[order] = np.repeat(np.arange(len(counts)), counts)
        return groups, counts, order.take(firsts)

    @cached_property
    def extras(self) -> tuple[tuple[tuple[int, str], ...], ...]:
        sentence = np.searchsorted(self.sentence_lines, self.extra_lines, side="right") - 1
        first = np.searchsorted(self.token_lines, self.sentence_lines)
        after = np.searchsorted(self.token_lines, self.extra_lines) - first[sentence]
        return self._grouped(self.extra_lines,
                             tuple(zip(after.tolist(), self._at(self.extra_lines))))


@dataclass(frozen=True, eq=False)
class Corpus:
    """A CoNLL-U corpus as flat per-token arrays over its raw text.

    ``tags`` and ``heads`` have one entry per syntactic word, sentence s
    owning ``offsets[s]:offsets[s + 1]``, and ``raw`` holds the text.
    ``lines`` (one per token), ``comments`` and ``extras`` (one entry per
    sentence) are decoded from it on first use: indexing the corpus
    builds a ``Sentence`` from them.  ``predicted`` is None, or the flat
    heads of a parse (0 for the root).  ``tags``, ``heads`` and
    ``predicted`` of another length than ``offsets[-1]`` raise
    ValueError.  The arrays are read-only; ``dataclasses.replace`` makes a
    retagged or parsed corpus in O(1) that shares the text and what has
    been decoded from it.
    """

    tags: np.ndarray
    heads: np.ndarray
    offsets: np.ndarray
    raw: RawText
    predicted: np.ndarray | None = None

    def __post_init__(self):
        self.offsets.flags.writeable = False
        for name in ("tags", "heads", "predicted"):
            array = getattr(self, name)
            if array is not None:
                if len(array) != self.offsets[-1]:
                    raise ValueError(f"{name} has {len(array)} entries for "
                                     f"{self.offsets[-1]} tokens")
                array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, number: int) -> Sentence:
        number = range(len(self))[number]
        start, end = self.offsets[number:number + 2].tolist()
        tokens = []
        for line, tag, head in zip(self.lines[start:end], self.tags[start:end].tolist(),
                                   self.heads[start:end].tolist()):
            _, form, lemma, _, xpos, feats, _, deprel, deps, misc = line.split("\t")
            tokens.append(Token(len(tokens) + 1, form, TAG_NAMES[tag], None if head < 0 else head,
                                lemma, xpos, feats, deprel, deps, misc))
        return Sentence(tokens, comments=self.comments[number], extras=self.extras[number])

    def __iter__(self) -> Iterator[Sentence]:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return (all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in ("tags", "heads", "offsets", "predicted"))
                and (self.lines, self.comments, self.extras)
                == (other.lines, other.comments, other.extras))

    __hash__ = None

    @property
    def lines(self) -> tuple[str, ...]:
        return self.raw.lines

    @property
    def comments(self) -> tuple[tuple[str, ...], ...]:
        return self.raw.comments

    @property
    def extras(self) -> tuple[tuple[tuple[int, str], ...], ...]:
        return self.raw.extras

    def per_sentence(self, values: Sequence) -> list[list]:
        """A flat per-token array, such as ``predicted``, as one list per
        sentence; ValueError if it has not one entry per token."""
        values = np.asarray(values).tolist()
        if len(values) != self.offsets[-1]:
            raise ValueError(f"{len(values)} values for {self.offsets[-1]} tokens")
        bounds = self.offsets.tolist()
        return [values[start:end] for start, end in zip(bounds, bounds[1:])]


def as_corpus(sentences: "Corpus | Iterable[Sentence]") -> Corpus:
    """``sentences`` as a corpus; a ``Corpus`` is returned as it is.

    The sentences are written as CoNLL-U lines and read back with
    ``read_conllu`` from an ``io.StringIO``, so the text is what
    ``write_conllu`` writes for them and a sentence whose lines would not
    read back is refused.  Raises ConlluError for a token field that
    contains a tab or a line break, for a comment line, range/empty-node
    line, or metadata key or value that contains a line break, for a
    comment line without a leading ``#`` or a range/empty-node line
    without such an id, which would read back as another kind of line, for
    metadata that its comments would not read back as (metadata given
    beside other comments, or a key with ``=`` or a key or value with
    whitespace at its ends), for range/empty-node lines out of order or
    placed after more tokens than the sentence has, and for any error
    ``read_conllu`` finds in the lines, such as a range/empty-node line
    without ten columns or a gold head outside its sentence; such an error
    is raised again as ``sentence N: `` and the reader's reason, N being
    the sentence whose written line it names.  A sentence with metadata
    but no comments gets one ``# key = value`` comment per entry.  Sentences
    carry no parse: a sentence of a parsed corpus brings its column 7 as
    read, not the corpus's ``predicted``.
    """
    if isinstance(sentences, Corpus):
        return sentences
    lines: list[str] = []
    # The number of lines written up to the end of each sentence.
    ends: list[int] = []
    for number, sentence in enumerate(sentences, start=1):
        comments = sentence.comments or tuple(
            f"# {key} = {value}" for key, value in sentence.meta.items())
        for comment in comments:
            if "\n" in comment or "\r" in comment:
                raise ConlluError(
                    f"sentence {number}: comment {comment!r} contains a line break")
            if not comment.startswith("#"):
                raise ConlluError(
                    f"sentence {number}: comment {comment!r} does not start with '#'")
        if (read := _meta(comments)) != sentence.meta:
            raise ConlluError(f"sentence {number}: metadata {sentence.meta!r} "
                              f"would read back from its comments as {read!r}")
        extras = sentence.extras
        for _, raw in extras:
            if "\n" in raw or "\r" in raw:
                raise ConlluError(f"sentence {number}: line {raw!r} contains a line break")
            token_id = raw.split("\t", 1)[0].encode(errors="surrogatepass")
            if not _EXTRA_ID.fullmatch(token_id):
                raise ConlluError(
                    f"sentence {number}: line {raw!r} is not a range or empty-node line")
        afters = [after for after, _ in extras]
        if afters != sorted(afters) or not 0 <= min(afters, default=0) <= max(
                afters, default=0) <= len(sentence):
            raise ConlluError(f"sentence {number}: range or empty-node lines out of order")
        body = []
        for token in sentence.tokens:
            head = token.gold_head
            line = "\t".join((
                str(token.index), token.form, token.lemma, token.upos, token.xpos,
                token.feats, "_" if head is None else str(head), token.deprel,
                token.deps, token.misc))
            if line.count("\t") != 9 or "\n" in line or "\r" in line:
                raise ConlluError(
                    f"token {token.index} ({token.form!r}): a field contains a tab or newline")
            body.append(line)
        # Inserted from the last, each after the first ``after`` token lines.
        for after, raw in reversed(extras):
            body.insert(after, raw)
        lines += [*comments, *body, ""]
        ends.append(len(lines))
    # Each line, then its line end.  Written, not given to the constructor,
    # which in CPython copies it at 4 bytes a character.
    stream = io.StringIO()
    stream.write("\n".join([*lines, ""]))
    stream.seek(0)
    try:
        return read_conllu(stream)
    except ConlluError as error:
        number = int(np.searchsorted(ends, error.line)) + 1
        raise ConlluError(f"sentence {number}: {error.reason}") from None


def decode_utf8(data: bytes) -> str:
    """``data`` decoded as strict UTF-8; an invalid byte raises ConlluError
    naming the byte and its line, counted in ``data``."""
    try:
        return data.decode()
    except UnicodeDecodeError as error:
        raise ConlluError(f"invalid UTF-8: cannot decode byte 0x{data[error.start]:02x} "
                          f"({error.reason})", data.count(b"\n", 0, error.start) + 1) from None


def read_conllu(source: BinaryIO | TextIO) -> Corpus:
    """Read CoNLL-U from a binary or text stream.

    The stream is read whole and split at ``\\n`` only.  A binary stream's
    bytes must be strict UTF-8 (``decode_utf8``); text is taken as its
    UTF-8 encoding, lone surrogates kept, as the writer keeps them.  Open
    a file in binary mode: text mode's universal newlines would end a line
    at a bare ``\\r``, and its decoder would refuse a bad byte without a
    line number.  Both then take one path: a UTF-8 byte-order mark at the
    start is skipped, and a line's ending ``\\n``, and one ``\\r`` before it,
    are dropped.  Raises ConlluError naming the first offending line in
    reading order, also as its ``line``, for invalid UTF-8, malformed
    column counts, bad token ids, unknown UPOS tags, unparseable head
    fields (``_`` is accepted as "no gold head"), a head equal to the
    token's own id, heads beyond the end of their sentence (found when the
    sentence ends), a carriage return inside a line, and a comment after a
    sentence's first token, range or empty-node line.

    The input's columns are checked as arrays over its UTF-8 bytes, and
    the carriage-return passes run only when it has a ``\\r``.  The arrays
    settle every valid line: empty lines, comments, range and empty-node
    lines, and token lines with a known tag and an id and head of ASCII
    digits, zero-padded to any length (or a head of ``_``).  A token line's
    id, tag and head are read from the word at their start: a ten-column
    line has nine tabs and a line end after its column 1, so that word
    lies inside the bytes, and the words of columns 4 and 7 have the bytes
    past the end cleared.  Fields of up to 8 bytes, range and empty-node
    ids among them, are read from their word alone, and longer ones, which
    are rare, one at a time from their bytes.  Of the lines left
    unsettled, each is decoded alone, and a whitespace-only one is blank;
    every other is an error.
    Every fault is found from the settled arrays, and the first in reading
    order is raised, with the line and message of a reader that takes one
    line at a time: ``_line`` words a refused line's, given the id that
    its sentence has reached there.  The corpus keeps the scanned bytes as
    its ``RawText``, and no other line is decoded, so that reading holds no
    more than about twice its input.
    """
    data = source.read()
    if isinstance(data, str):
        data = data.encode(errors="surrogatepass")
    else:
        decode_utf8(data)
    data = data.removeprefix(b"\xef\xbb\xbf")
    if b"\r" in data:
        # One carriage return before a line's end belongs to the line end.
        data = data.replace(b"\r\n", b"\n").removesuffix(b"\r")
    if data and not data.endswith(b"\n"):
        data += b"\n"
    kind, candidate, ids, tags, heads, bounds, line_starts = _settle(data)
    refused = None
    unsettled = np.flatnonzero(kind == _UNSETTLED)
    if len(unsettled):
        # A whitespace-only line is blank, and the first other is refused.
        spaces = []
        for i, start, end in zip(unsettled.tolist(), line_starts.take(unsettled).tolist(),
                                 line_starts.take(unsettled + 1).tolist()):
            line = str(data[start:end - 1], "utf-8", "surrogatepass")
            if line.strip():
                refused = i, line
                break
            spaces.append(i)
        kind[spaces] = _BLANK

    # Every token line has ten columns; keep the values of token lines.
    is_token = kind[candidate] == _TOKEN
    token = candidate
    if not is_token.all():  # range and empty-node lines have ten columns too
        kept = np.flatnonzero(is_token)
        token, ids, tags, heads, *bounds = (
            values.take(kept) for values in (candidate, ids, tags, heads, *bounds))
    # Blank lines end blocks; a block with token lines is a sentence.
    blank = kind == _BLANK
    block_ends = np.append(np.flatnonzero(blank), len(kind))
    token_block = np.cumsum(blank)[token]
    del blank
    sizes = np.bincount(token_block, minlength=len(block_ends))
    firsts = np.cumsum(sizes) - sizes
    positions = np.arange(1, len(token) + 1) - firsts[token_block]
    faults = []
    if refused is not None:
        # Every line before it is settled, so its sentence's tokens so far
        # are the token lines since its block began.
        i, line = refused
        block = np.searchsorted(block_ends, i)
        position = int(np.searchsorted(token, i) - firsts[block]) + 1
        faults.append((i, _line(line, i + 1, position)))
    # A settled id has at most 18 digits after its leading zeros, and is
    # printed as a number.
    for t in np.flatnonzero(ids != positions)[:1]:
        faults.append((token[t], ConlluError(
            f"token id {ids[t]} out of sequence (expected {positions[t]})",
            int(token[t]) + 1)))
    for t in np.flatnonzero(heads == positions)[:1]:
        faults.append((token[t], ConlluError(f"token {positions[t]} is its own head",
                                             int(token[t]) + 1)))
    # The first comment inside a sentence follows a token, range or
    # empty-node line.
    previous = kind[:-1]
    for c in np.flatnonzero((kind[1:] == _COMMENT)
                            & ((previous == _TOKEN) | (previous == _EXTRA)))[:1] + 1:
        faults.append((c, ConlluError("comment inside a sentence; "
                                      "comments go before its first line", int(c) + 1)))
    lengths = np.diff(block_ends, prepend=-1) - 1
    for end in block_ends[(sizes == 0) & (lengths > 0)][:1]:
        faults.append((end, ConlluError("sentence block contains no token lines", int(end) + 1)))
    # A head beyond its sentence is found when the sentence ends.
    for t in np.flatnonzero(heads > sizes[token_block])[:1]:
        block, at = token_block[t], token[t]
        # The head as written: a long one is clipped in ``heads``.
        head = int(data[line_starts[at]:line_starts[at + 1]].split(b"\t")[6])
        faults.append((block_ends[block], ConlluError(
            f"head {head} outside a sentence of {sizes[block]} tokens", int(at) + 1)))
    if faults:
        raise min(faults, key=lambda fault: fault[0])[1]

    del ids, positions
    position_type = line_starts.dtype
    # A sentence runs from its block's first line to the blank line that
    # closes the block, or to the end of the text.
    sentence_lines = np.append(0, block_ends[:-1] + 1)[sizes > 0].astype(position_type)
    raw = RawText(data, token.astype(position_type), tags,
                  *bounds,
                  np.flatnonzero(kind == _COMMENT).astype(position_type),
                  np.flatnonzero(kind == _EXTRA).astype(position_type), sentence_lines,
                  line_starts[sentence_lines], line_starts[block_ends[sizes > 0]])
    return Corpus(tags.astype(np.intp), heads.astype(np.intp, copy=False),
                  np.append(0, np.cumsum(sizes[sizes > 0])), raw)


# Line kinds.  The array pass leaves a line it cannot settle _UNSETTLED.
_BLANK, _COMMENT, _TOKEN, _EXTRA, _UNSETTLED = range(5)
# ``_LOW_BYTES[k]`` keeps the first k bytes of a little-endian word.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
# A field of k bytes shifted left by ``_PAD_BITS[k]`` ends at its word's
# highest byte; ``_ZERO_PADS[k]`` fills the bytes before it with "0".
_PAD_BITS = np.array([64 - 8 * k for k in range(9)], np.uint64)
_ZERO_PADS = np.array([int.from_bytes(b"0" * (8 - k), "little") for k in range(9)], np.uint64)
# A tag column of at most 8 bytes, read as a word with the bytes after it
# cleared, is its tag's key.  The keys of ``TAG_NAMES`` differ modulo 74,
# so a key's slot in these tables is the key modulo 74.  A column is its
# slot's tag when it has the slot's key and length: a column that ends in
# NUL bytes has the key of the column without them.  An empty slot has a
# length that no column has.
_TAG_SLOTS = 74
_SLOT_KEYS = np.zeros(_TAG_SLOTS, np.uint64)
_SLOT_LENGTHS = np.full(_TAG_SLOTS, -1, np.int8)
_SLOT_TAGS = np.zeros(_TAG_SLOTS, np.int8)
_TAG_KEYS = np.array([int.from_bytes(name.encode(), "little") for name in TAG_NAMES], np.uint64)
_TAG_LENGTHS = np.array([len(name) for name in TAG_NAMES], np.int8)
_SLOT_KEYS[_TAG_KEYS % _TAG_SLOTS] = _TAG_KEYS
_SLOT_LENGTHS[_TAG_KEYS % _TAG_SLOTS] = _TAG_LENGTHS
_SLOT_TAGS[_TAG_KEYS % _TAG_SLOTS] = range(len(TAG_NAMES))


def _words(data: bytes, at: np.ndarray) -> np.ndarray:
    """The 8 bytes of ``data`` from each position in ``at``, ascending, as
    one little-endian word each: its first byte is the lowest.  The words
    are read through a view of ``data`` that has one unaligned word per
    byte position, not a copy; bytes past the end of ``data`` read as 0."""
    words = np.ndarray((max(len(data) - 7, 0),), "<u8", data, 0, (1,))
    limit = len(words) - 1
    if not len(at) or at[-1] <= limit:
        return words[at]
    inside = np.minimum(at, limit)
    return words[inside] >> ((at - inside) * 8).astype(np.uint64)


def _settle(data: bytes) -> tuple[np.ndarray, ...]:
    """Each line's kind, for the lines of the UTF-8 bytes ``data``, each
    ended by ``\\n``, that the byte scan settles; the numbers of the lines
    with ten columns; per such line, its id, tag id and head (-1 for
    ``_``), which hold for the token lines among them, and the byte bounds
    that ``RawText`` keeps for a token line, in its field order; and each
    line's first byte, followed by the end of ``data``.

    Columns 1, 4 and 7 are read from the word at their start (``_words``;
    ``read_conllu`` says why those words lie inside ``data``, or have the
    bytes past its end cleared).  Ids and heads are numbers read by
    ``_digits``; of the ids that are not, ``_joined`` finds the range and
    empty-node ids.
    """
    buffer = np.frombuffer(data, np.uint8)
    position_type = _position_type(len(data))
    # The tabs and line ends in reading order, and where each line's are;
    # built a step at a time, so that each step frees what the last made.
    stops = buffer == ord("\t")
    stops |= buffer == ord("\n")
    stops = np.flatnonzero(stops)
    # ``take`` gathers about 3x faster than indexing does, and at int32
    # positions through an intp copy of them; the byte at each tab and line
    # end is gathered before the positions are cut to int32, so no copy.
    last = np.flatnonzero(buffer.take(stops) == ord("\n"))
    stops = stops.astype(position_type)
    first = np.zeros_like(last)
    first[1:] = last[:-1] + 1
    ends = stops.take(last)
    line_starts = np.zeros(len(ends) + 1, position_type)
    line_starts[1:] = ends + 1
    starts = line_starts[:-1]
    kind = np.full(len(ends), _UNSETTLED, np.int8)
    kind[starts == ends] = _BLANK
    # One line start per line: its intp copy for ``take`` is small.
    kind[buffer.take(starts) == ord("#")] = _COMMENT
    candidate = (last - first == 9) & (kind == _UNSETTLED)
    if b"\r" in data:
        # A line with a carriage return is left unsettled.
        has_return = np.zeros(len(ends), bool)
        has_return[np.searchsorted(ends, np.flatnonzero(buffer == ord("\r")))] = True
        kind[has_return] = _UNSETTLED
        candidate &= ~has_return
        del has_return
    candidate = np.flatnonzero(candidate)
    del ends, last

    # Columns 1, 4 and 7 (id, tag and head) end at tabs 0, 3 and 6, and
    # ``stops[k:].take(at)`` is each line's tab k.
    at = first.take(candidate)
    id_end, tag_end, head_end = stops.take(at), stops[3:].take(at), stops[6:].take(at)
    tag_start, head_start = stops[2:].take(at) + 1, stops[5:].take(at) + 1
    form_end, cut = stops[1:].take(at), stops[7:].take(at)
    del stops, first, at
    id_start = starts.take(candidate)
    id_digits, id_values, id_words, id_pairs = _digits(data, id_start, id_end, _id_number)
    # Range and empty-node ids are among the few ids that are not numbers.
    mixed = np.flatnonzero(~id_digits)
    joined = _joined(data, id_start[mixed], id_end[mixed], id_words[mixed], id_pairs[mixed])
    kind[candidate[mixed[joined]]] = _EXTRA
    tag_length = tag_end - tag_start
    key = _words(data, tag_start) & _LOW_BYTES.take(np.minimum(tag_length, 8))
    slot = (key % _TAG_SLOTS).view(np.int64)
    tag_ok = (_SLOT_KEYS.take(slot) == key) & (_SLOT_LENGTHS.take(slot) == tag_length)
    head_digits, head_values, *_ = _digits(data, head_start, head_end, _head_number)
    no_head = (head_end - head_start == 1) & (buffer.take(head_start) == ord("_"))
    head_values[no_head] = -1
    settled = id_digits & tag_ok & (head_digits | no_head)

    kind[candidate[settled]] = _TOKEN
    return (kind, candidate, id_values, _SLOT_TAGS.take(slot), head_values,
            (id_start, id_end + 1, form_end, tag_start, head_start, cut), line_starts)


def _digits(data: bytes, start: np.ndarray, end: np.ndarray,
            number: Callable[[bytes], int | None]) -> tuple[np.ndarray, ...]:
    """For each field ``data[start:end]``, ``start`` ascending: whether it
    is ASCII digits with a value, and that value; and, for ``_joined``,
    its word and its word's nibble pairs.

    A field of at most 8 bytes is one word, shifted so that the field ends
    at its highest byte, with "0"s before it, and checked and converted
    in a few word operations (the SWAR digit parsing of simdjson; Langdale
    and Lemire 2019).  Longer fields are rare, and each is read alone from
    its bytes, in time linear in its length; ``number`` gives the value of
    one made of digits, or None.
    """
    length = end - start
    size = np.clip(length, 1, 8)
    word = _words(data, start) << _PAD_BITS.take(size) | _ZERO_PADS.take(size)
    # 0x30-0x39 are the bytes whose high nibble is 3 and stays 3 when 6 is
    # added; a UTF-8 byte is below 0xFA, so no sum carries into the next.
    other = (word & 0xF0F0F0F0F0F0F0F0) | ((word + 0x0606060606060606) & 0xF0F0F0F0F0F0F0F0) >> 4
    digits = (length >= 1) & (length <= 8) & (other == 0x3333333333333333)
    # The digits summed in pairs, fours and eights, the first of each two
    # scaled by 10, 100 and 10,000; a field that is not digits gives junk.
    value = (word & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8 & 0x00FF00FF00FF00FF
    value = value * 6553601 >> 16 & 0x0000FFFF0000FFFF
    value = (value * 42949672960001 >> 32).view(np.int64)
    for t in np.flatnonzero(length > 8).tolist():
        field = data[start[t]:end[t]]
        read = number(field) if field.isdigit() else None
        if read is not None:
            digits[t], value[t] = True, read
    return digits, value, word, other


def _joined(data: bytes, start: np.ndarray, end: np.ndarray, word: np.ndarray,
            other: np.ndarray) -> np.ndarray:
    """Whether each field ``data[start:end]`` is two runs of ASCII digits
    joined by one ``-`` or ``.``, as range and empty-node ids are, given
    the field's word and nibble pairs from ``_digits``.

    A field of at most 8 bytes is checked in its word: it has one byte
    that is not a digit, that byte is ``-`` or ``.``, and it lies after
    the field's first byte and before its last, the word's highest.
    Longer ones are matched one at a time.
    """
    # A byte's nibble pair is 0x33 exactly where it is a digit, as in the
    # "0"s before the field; flag every other byte, with no carry between
    # bytes.
    x = other ^ 0x3333333333333333
    flags = (x | (x & 0x7F7F7F7F7F7F7F7F) + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080
    units = flags >> 7
    mark = word & units * 0xFF
    # No flag passes the power-of-two test too, and fails the first bound.
    joined = ((flags & (flags - 1) == 0) & (flags < 1 << 63)
              & (flags > 0x80 << _PAD_BITS.take(np.clip(end - start, 1, 8)))
              & ((mark == units * ord("-")) | (mark == units * ord("."))))
    for t in np.flatnonzero(end - start > 8).tolist():
        joined[t] = _EXTRA_ID.fullmatch(data[start[t]:end[t]]) is not None
    return joined


def _id_number(field: bytes) -> int | None:
    """The value of an id of digits, or None past 18 digits after its
    leading zeros: no token has a position that large."""
    significant = field.lstrip(b"0")
    return int(significant or b"0") if len(significant) <= 18 else None


def _head_number(field: bytes) -> int | None:
    """The value of a head of digits, clipped to one past any sentence, or
    None where ``int`` refuses that many digits."""
    try:
        return min(int(field), sys.maxsize)
    except ValueError:
        return None


def _line(line: str, line_no: int, position: int) -> ConlluError:
    """The error of a line that the array pass refused, worded as a
    sequential reader words it, ``position`` being the id a token line
    there must have; the error names ``line_no``.

    Such a line is neither blank, nor a comment, range or empty-node line,
    nor a token line that a sequential reader accepts; where a comment may
    stand, and whether a head equals its token's id or lies beyond its
    sentence, is for ``read_conllu`` to check.
    """
    columns = line.split("\t")
    if "\r" in line:
        # A file reader splits lines at a bare \r too, so such a line
        # would not read back once written.
        reason = "carriage return inside the line"
    elif len(columns) != 10:
        reason = f"expected 10 tab-separated columns, got {len(columns)}"
    elif not (columns[0].isascii() and columns[0].isdigit()):
        reason = f"invalid token id {columns[0]!r}"
    elif (token_id := columns[0].lstrip("0") or "0") != str(position):
        # Compared as text: int() refuses more than 4300 digits.
        reason = f"token id {token_id} out of sequence (expected {position})"
    elif columns[3] not in TAG_IDS:
        reason = f"unknown UPOS tag {columns[3]!r}"
    elif not (columns[6].isascii() and columns[6].isdigit()):
        reason = f"head must be a non-negative integer or '_', got {columns[6]!r}"
    else:  # the one refusal left
        reason = "head has too many digits"
    return ConlluError(reason, line_no)


def parse_conllu(text: str) -> Corpus:
    return read_conllu(io.StringIO(text))


def write_conllu(corpus: "Corpus | Iterable[Sentence]", out: TextIO) -> None:
    """Write a corpus as CoNLL-U, one blank line after each sentence.

    A corpus without ``predicted`` heads is written back verbatim, each
    sentence's lines copied as one slice of the text; a parsed one gets
    its token lines rebuilt as the module docstring says, in one gather of
    the segments that ``_segments`` lays out.  Comments and preserved
    range/empty-node lines are re-emitted in their original positions
    either way.  The text is decoded once and passed to ``out.write``
    whole; nothing is written for an empty corpus.  Sentences are
    converted by ``as_corpus`` first, which may raise ConlluError; so does
    a predicted head outside its sentence or equal to its token's
    position, as its line would not read back.
    """
    corpus = as_corpus(corpus)
    raw = corpus.raw
    if corpus.predicted is None:
        # Each sentence's lines, then the blank line that the empty last
        # entry's separator gives.
        view = memoryview(raw.data)
        written = b"\n".join([*map(view.__getitem__, map(
            slice, raw.sentence_starts.tolist(), raw.sentence_ends.tolist())), b""])
    else:
        data, inserts, starts, lengths = _segments(corpus)
        written = _gather(np.concatenate((data, inserts)), starts, lengths)
    text = str(written, "utf-8", "surrogatepass")
    del written
    if text:
        out.write(text)


# Output bytes per step of ``_gather``.  Each step's positions are a new
# array of 8 bytes a byte; at 64 and 128 KiB a step, glibc may map that
# array afresh for every step, and the bench's parse commands ran slower
# than at 16 or 32 KiB.
_GATHER_STEP = 1 << 14


def _gather(source: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The segments of ``source`` at ``starts`` with ``lengths``, laid end
    to end.

    The output is gathered ``_GATHER_STEP`` bytes at a time, through one
    intp source position per byte of the step: each segment's shift from
    output to source position, repeated over its bytes in the step, plus
    the output position.  A running sum of jumps would also build them,
    but ``np.cumsum`` takes about 3 ns a byte, against 1 for ``np.repeat``.
    """
    ends = lengths.astype(np.intp)
    np.cumsum(ends, out=ends)
    shifts = starts + lengths - ends
    gathered = np.empty(int(ends[-1]) if len(ends) else 0, np.uint8)
    steps = np.arange(min(_GATHER_STEP, len(gathered)))
    for low in range(0, len(gathered), _GATHER_STEP):
        high = min(low + _GATHER_STEP, len(gathered))
        # The step starts inside segment ``first`` and ends inside ``last``.
        first, last = np.searchsorted(ends, (low, high - 1), side="right").tolist()
        segment_ends = ends[first:last + 1]
        counts = (np.minimum(segment_ends, high)
                  - np.maximum(segment_ends - lengths[first:last + 1], low))
        index = np.repeat(shifts[first:last + 1] + low, counts)
        index += steps[:high - low]
        np.take(source, index, out=gathered[low:high], mode="clip")
    return gathered


def _segments(corpus: Corpus) -> tuple[np.ndarray, ...]:
    """The text that ``write_conllu`` writes for a parsed corpus, as
    segments of one source: the corpus's bytes followed by the inserted
    strings ``\\n``, the tag names, and the numbers 0 to the longest
    sentence's length, alone and followed by ``\\tdep``.  Returns the
    bytes, the inserted strings, and each segment's start and length in
    the source, in writing order.  The bounds are the reader's
    (``RawText``); no byte is scanned.  Each token has up to eight
    segments:

    0. the bytes from the previous token's cut, or from the start of its
       sentence, to the first byte that is not copied: the previous line's
       columns 9-10, comments and range/empty-node lines, and as much of
       its own line as is written as it was read;
    1. its position, unless its column 1 has as many bytes as the position
       has digits, and so is the position already;
    2. with segment 1 only: the bytes from the tab after column 1 to its
       column 4, or to its column 7 if column 4 is copied;
    3. its tag name, unless its tag id is the one its column 4 was read
       as (``read_tags``);
    4. with segment 3 only: the bytes from the tab after column 4 to its
       column 7;
    5. its predicted head and ``\\tdep``;
    6. a sentence's last token only: the bytes from its cut, the tab
       before its column 9, to its sentence's end;
    7. a sentence's last token only: ``\\n``, the blank line.

    A token whose columns 1 and 4 are copied has segments 0 and 5 alone.
    Only segment 0 can be empty: a sentence's first line is its first
    token's, whose id is rebuilt.  Blank and whitespace-only lines outside
    sentences are left out, and every sentence gets one blank line after
    it.
    """
    raw, offsets, heads, tags = corpus.raw, corpus.offsets, corpus.predicted, corpus.tags
    sizes = np.diff(offsets)
    positions = np.arange(1, len(heads) + 1) - np.repeat(offsets[:-1], sizes)
    outside = (heads < 0) | (heads > np.repeat(sizes, sizes))
    for token in np.flatnonzero(outside | (heads == positions))[:1].tolist():
        number, index = _locate(offsets, token)
        raise ConlluError(f"sentence {number}, token {index}: predicted head "
                          f"{heads[token]} outside a sentence of {sizes[number - 1]} tokens"
                          if outside[token] else
                          f"sentence {number}, token {index} is its own predicted head")
    data = np.frombuffer(raw.data, np.uint8)
    longest = int(sizes.max(initial=0))
    numbers = [str(number) for number in range(longest + 1)]
    pieces = [piece.encode() for piece in (
        "\n", *TAG_NAMES, *numbers, *(number + "\tdep" for number in numbers))]
    inserts = np.frombuffer(b"".join(pieces), np.uint8)
    position_type = _position_type(len(data) + len(inserts))
    insert_lengths = np.array([len(piece) for piece in pieces], position_type)
    insert_starts = len(data) + np.cumsum(insert_lengths) - insert_lengths

    token_starts, form_starts, tag_starts, head_starts, cuts = (
        raw.token_starts, raw.form_starts, raw.tag_starts, raw.head_starts, raw.cuts)
    position_at = 1 + len(TAG_NAMES) + positions
    id_rebuilt = form_starts - 1 - token_starts != insert_lengths[position_at]
    tag_rebuilt = tags != raw.read_tags
    firsts, lasts = offsets[:-1], offsets[1:] - 1
    # Each token's segments in writing order end before ``ends``.
    count = 2 + 2 * id_rebuilt + 2 * tag_rebuilt
    count[lasts] += 2
    ends = np.cumsum(count)
    starts = np.empty(int(ends[-1]) if len(ends) else 0, position_type)
    lengths = np.empty_like(starts)

    def put(at, segment_starts, segment_lengths):
        starts[at], lengths[at] = segment_starts, segment_lengths

    # The first byte after segment 2, and after segment 0.
    to_tag = np.where(tag_rebuilt, tag_starts, head_starts)
    copied = np.where(id_rebuilt, token_starts, to_tag)
    from_cut = np.empty_like(cuts)
    from_cut[1:] = cuts[:-1]
    from_cut[firsts] = raw.sentence_starts
    at = ends - count  # segment 0
    put(at, from_cut, copied - from_cut)
    rebuilt = np.flatnonzero(id_rebuilt)  # segments 1-2
    at = at[rebuilt]
    put(at + 1, insert_starts[position_at[rebuilt]], insert_lengths[position_at[rebuilt]])
    put(at + 2, form_starts[rebuilt] - 1, to_tag[rebuilt] - form_starts[rebuilt] + 1)
    at = ends - 1  # segment 5
    at[lasts] -= 2
    head_at = 2 + len(TAG_NAMES) + longest + heads
    put(at, insert_starts[head_at], insert_lengths[head_at])
    rebuilt = np.flatnonzero(tag_rebuilt)  # segments 3-4, before segment 5
    at = at[rebuilt]
    put(at - 2, insert_starts[1 + tags[rebuilt]], insert_lengths[1 + tags[rebuilt]])
    tag_ends = tag_starts[rebuilt] + _TAG_LENGTHS.take(raw.read_tags[rebuilt])
    put(at - 1, tag_ends, head_starts[rebuilt] - tag_ends)
    at = ends[lasts]  # segments 6-7
    put(at - 2, cuts[lasts], raw.sentence_ends - cuts[lasts])
    put(at - 1, insert_starts[0], 1)
    return data, inserts, starts, lengths


def _locate(offsets: np.ndarray, token: int) -> tuple[int, int]:
    """1-based sentence number and token index of a flat token position."""
    number = int(np.searchsorted(offsets, token, side="right"))
    return number, token - int(offsets[number - 1]) + 1


def format_conllu(corpus: "Corpus | Iterable[Sentence]") -> str:
    buffer = io.StringIO()
    write_conllu(corpus, buffer)
    return buffer.getvalue()

