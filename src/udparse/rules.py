"""Head-dependent licensing rules and attachment-direction constraints.

The default tables target the Universal Dependencies v1 tag set (17 tags,
with ``CONJ`` rather than the later ``CCONJ``).  Two synthetic tags,
``CONTENT`` and ``FUNCTION``, support corpora whose POS information has been
reduced to a two-way open/closed distinction.
"""

import enum
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

UPOS_TAGS = frozenset({
    "ADJ", "ADP", "ADV", "AUX", "CONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
})
SYNTHETIC_TAGS = frozenset({"CONTENT", "FUNCTION"})
KNOWN_TAGS = UPOS_TAGS | SYNTHETIC_TAGS

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


@dataclass(frozen=True)
class RuleSet:
    """Licensed (head tag, dependent tag) pairs.

    Pairs may repeat: multiplicity carries through to graph construction,
    where each licensing occurrence contributes one edge.  Heads must be
    content tags; function words never head anything.
    """

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        for head, dep in self.pairs:
            if head not in KNOWN_TAGS or dep not in KNOWN_TAGS:
                raise ValueError(f"unknown tag in rule pair ({head}, {dep})")
            if not is_content(head):
                raise ValueError(f"rule head must be a content tag, got {head}")

    @cached_property
    def _counts(self) -> Counter:
        return Counter(self.pairs)

    def licenses(self, head_upos: str, dependent_upos: str) -> bool:
        return (head_upos, dependent_upos) in self._counts

    def multiplicity(self, head_upos: str, dependent_upos: str) -> int:
        return self._counts[(head_upos, dependent_upos)]


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

    def direction_for(self, upos: str) -> Direction:
        return self.directions.get(upos, Direction.FREE)

    def with_direction(self, upos: str, direction: Direction) -> "DirectionPolicy":
        updated = dict(self.directions)
        updated[upos] = direction
        return DirectionPolicy(updated)


def kappa(head_index: int, dependent_index: int, dependent_upos: str,
          policy: DirectionPolicy) -> bool:
    """True when the head lies on an allowed side of the dependent.

    The virtual root (index 0) satisfies every direction constraint.
    """
    if head_index == 0:
        return True
    direction = policy.direction_for(dependent_upos)
    if direction is Direction.RIGHT:
        return head_index > dependent_index
    if direction is Direction.LEFT:
        return head_index < dependent_index
    return True


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

_DIRECTION_NAMES = {"LEFT": Direction.LEFT, "RIGHT": Direction.RIGHT,
                    "FREE": Direction.FREE}


def parse_rules(text: str) -> tuple[RuleSet, DirectionPolicy]:
    """Parse a rule file into a rule set and a direction policy.

    Two line forms, ``#`` comments and blank lines ignored:

        HEAD DEP            licensed pair (repeats raise edge multiplicity)
        DIR TAG LEFT|RIGHT|FREE

    Tags without a DIR line attach freely.
    """
    pairs: list[tuple[str, str]] = []
    directions: dict[str, Direction] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "DIR":
            if len(fields) != 3 or fields[2].upper() not in _DIRECTION_NAMES:
                raise ValueError(f"rule file line {line_no}: expected 'DIR TAG LEFT|RIGHT|FREE'")
            tag = fields[1]
            if tag not in KNOWN_TAGS:
                raise ValueError(f"rule file line {line_no}: unknown tag {tag!r}")
            directions[tag] = _DIRECTION_NAMES[fields[2].upper()]
        elif len(fields) == 2:
            head, dep = fields
            if head not in KNOWN_TAGS or dep not in KNOWN_TAGS:
                raise ValueError(f"rule file line {line_no}: unknown tag in pair {head!r} {dep!r}")
            if not is_content(head):
                raise ValueError(f"rule file line {line_no}: head {head!r} is not a content tag")
            pairs.append((head, dep))
        else:
            raise ValueError(f"rule file line {line_no}: expected 'HEAD DEP' or 'DIR TAG DIRECTION'")
    return RuleSet(tuple(pairs)), DirectionPolicy(directions)
