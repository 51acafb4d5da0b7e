"""Head-dependent licensing rules and attachment-direction constraints.

The default tables target the Universal Dependencies v1 tag set (17 tags,
with ``CONJ`` rather than the later ``CCONJ``).  Two synthetic tags,
``CONTENT`` and ``FUNCTION``, support corpora whose POS information has been
reduced to a two-way open/closed distinction.
"""

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

UPOS_TAGS = frozenset({
    "ADJ", "ADP", "ADV", "AUX", "CONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
})
SYNTHETIC_TAGS = frozenset({"CONTENT", "FUNCTION"})
KNOWN_TAGS = UPOS_TAGS | SYNTHETIC_TAGS
# Row/column index of each tag in ``RuleSet.matrix`` and ``DirectionPolicy.sides``,
# and the tag of each index.
TAG_NAMES = tuple(sorted(KNOWN_TAGS))
TAG_IDS = {tag: tag_id for tag_id, tag in enumerate(TAG_NAMES)}

CONTENT_TAGS = frozenset({"ADJ", "NOUN", "PROPN", "VERB", "CONTENT"})
NOMINAL_TAGS = frozenset({"NOUN", "PROPN", "PRON"})


class Direction(enum.Enum):
    """Side on which a dependent's head must lie; FREE allows either."""

    RIGHT = "right"
    LEFT = "left"
    FREE = "free"


def is_content(upos: str) -> bool:
    """True for open-class tags, the only tags allowed to head other words."""
    return upos in CONTENT_TAGS


def is_nominal(upos: str) -> bool:
    """True for NOUN, PROPN, and PRON."""
    return upos in NOMINAL_TAGS


# Read-only: whether each tag id is a content tag, and a nominal tag.
CONTENT_MASK = np.array([is_content(tag) for tag in TAG_NAMES])
NOMINAL_MASK = np.array([is_nominal(tag) for tag in TAG_NAMES])
CONTENT_MASK.setflags(write=False)
NOMINAL_MASK.setflags(write=False)


@dataclass(frozen=True)
class RuleSet:
    """Licensed (head tag, dependent tag) pairs.

    Pairs may repeat: multiplicity carries through to graph construction,
    where each licensing occurrence contributes one edge.  Heads must be
    content tags; function words never head anything.  The tables that
    parsing reads are derived from the pairs once, read-only.
    """

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        for head, dep in self.pairs:
            if head not in KNOWN_TAGS or dep not in KNOWN_TAGS:
                raise ValueError(f"unknown tag in rule pair ({head}, {dep})")
            if not is_content(head):
                raise ValueError(f"rule head must be a content tag, got {head}")

    def licenses(self, head_upos: str, dependent_upos: str) -> bool:
        return (head_upos in TAG_IDS and dependent_upos in TAG_IDS
                and bool(self.matrix[TAG_IDS[head_upos], TAG_IDS[dependent_upos]]))

    @cached_property
    def matrix(self) -> np.ndarray:
        """Read-only pair multiplicities, indexed ``[head, dep]`` by ``TAG_IDS``."""
        matrix = np.zeros((len(TAG_IDS), len(TAG_IDS)), dtype=np.intp)
        for head, dep in self.pairs:
            matrix[TAG_IDS[head], TAG_IDS[dep]] += 1
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def float_transpose(self) -> np.ndarray:
        """Read-only ``matrix`` as floats, indexed ``[dep, head]``."""
        table = np.ascontiguousarray(self.matrix.T, dtype=float)
        table.setflags(write=False)
        return table

    @cached_property
    def licensing(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(rows, masks)``: ``masks[r, h]`` is whether licensing
        row r licenses head tag id h, and ``rows[d]`` is dependent tag id
        d's row, or -1 where no rule licenses d.  Dependents licensed by
        the same head tags share a row, so there is one row per distinct
        non-empty column of ``matrix``."""
        licensed = self.matrix.T > 0
        # Each dependent's column as a bit pattern over head tags.
        patterns = licensed @ (1 << np.arange(len(TAG_IDS)))
        columns, firsts, rows = np.unique(patterns, return_index=True, return_inverse=True)
        # The empty column, if some dependent has it, sorts first.
        empty = int(columns[0] == 0)
        rows -= empty
        masks = licensed[firsts[empty:]]
        rows.setflags(write=False)
        masks.setflags(write=False)
        return rows, masks


# The side of the head for each direction: +1 right, -1 left, 0 either.
SIDES = {Direction.RIGHT: 1, Direction.LEFT: -1, Direction.FREE: 0}


@dataclass(frozen=True)
class DirectionPolicy:
    """Per-tag attachment directions; tags not listed attach freely."""

    directions: Mapping[str, Direction] = field(default_factory=dict)

    def __post_init__(self):
        for tag, direction in self.directions.items():
            if tag not in KNOWN_TAGS:
                raise ValueError(f"unknown tag in direction policy: {tag}")
            if not isinstance(direction, Direction):
                raise ValueError(f"bad direction for {tag}: {direction!r}")

    @cached_property
    def sides(self) -> np.ndarray:
        """Read-only side of the head per dependent tag id: +1 right, -1 left,
        0 either; head h suits dependent d iff ``sides[tag_d] * (h - d) >= 0``."""
        sides = np.zeros(len(TAG_IDS), dtype=np.intp)
        for tag, direction in self.directions.items():
            sides[TAG_IDS[tag]] = SIDES[direction]
        sides.setflags(write=False)
        return sides

    def with_direction(self, upos: str, direction: Direction) -> "DirectionPolicy":
        updated = dict(self.directions)
        updated[upos] = direction
        return DirectionPolicy(updated)


DEFAULT_RULESET = RuleSet((
    ("ADJ", "ADV"),
    ("NOUN", "ADJ"), ("NOUN", "NOUN"), ("NOUN", "PROPN"),
    ("NOUN", "ADP"), ("NOUN", "DET"), ("NOUN", "NUM"),
    ("PROPN", "ADJ"), ("PROPN", "NOUN"), ("PROPN", "PROPN"),
    ("PROPN", "ADP"), ("PROPN", "DET"), ("PROPN", "NUM"),
    ("VERB", "ADV"), ("VERB", "AUX"), ("VERB", "NOUN"),
    ("VERB", "PROPN"), ("VERB", "PRON"), ("VERB", "SCONJ"),
))

# Minimal rule set for the two-tag scenario: content words head anything,
# function words head nothing, no direction constraints.
NAIVE_RULESET = RuleSet((("CONTENT", "CONTENT"), ("CONTENT", "FUNCTION")))

DEFAULT_POLICY = DirectionPolicy({
    "AUX": Direction.RIGHT,
    "DET": Direction.RIGHT,
    "SCONJ": Direction.RIGHT,
    "CONJ": Direction.LEFT,
    "PUNCT": Direction.LEFT,
})

FREE_POLICY = DirectionPolicy({})


def parse_rules(text: str) -> tuple[RuleSet, DirectionPolicy]:
    """Parse a rule file into a rule set and a direction policy.

    Two line forms, ``#`` comments and blank lines ignored:

        HEAD DEP            licensed pair (repeats raise edge multiplicity)
        DIR TAG LEFT|RIGHT|FREE

    Tags without a DIR line attach freely.  A line that ``RuleSet`` or
    ``DirectionPolicy`` refuses, or that has neither form, raises
    ValueError with ``rule file line N: `` before the reason.
    """
    pairs: list[tuple[str, str]] = []
    directions: dict[str, Direction] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        # Each entry is checked as the table it joins checks its entries.
        try:
            if fields[0] == "DIR":
                if len(fields) != 3 or fields[2].upper() not in Direction.__members__:
                    raise ValueError("expected 'DIR TAG LEFT|RIGHT|FREE'")
                directions |= DirectionPolicy({fields[1]: Direction[fields[2].upper()]}).directions
            elif len(fields) == 2:
                pairs += RuleSet(((fields[0], fields[1]),)).pairs
            else:
                raise ValueError("expected 'HEAD DEP' or 'DIR TAG DIRECTION'")
        except ValueError as error:
            raise ValueError(f"rule file line {line_no}: {error}") from None
    return RuleSet(tuple(pairs)), DirectionPolicy(directions)
