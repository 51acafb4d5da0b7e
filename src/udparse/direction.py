"""Corpus-level estimation of adposition attachment direction.

Whether ADP tokens behave as prepositions (head to their right) or
postpositions (head to their left) is decided by counting adjacent
ADP/nominal token pairs over the whole input, with nominal meaning NOUN,
PROPN, or PRON.  Bigrams never cross sentence boundaries.
"""

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .conllu import Corpus, Sentence, as_corpus
from .rules import NOMINAL_MASK, TAG_IDS, Direction

_ADP = TAG_IDS["ADP"]


@dataclass(frozen=True)
class AdpDirectionEstimate:
    adp_nominal_count: int
    nominal_adp_count: int

    @property
    def resolved(self) -> Direction:
        """Majority direction; ties (including no ADP at all) go right."""
        if self.adp_nominal_count >= self.nominal_adp_count:
            return Direction.RIGHT
        return Direction.LEFT


def estimate_adp_direction(corpus: Corpus | Iterable[Sentence]) -> AdpDirectionEstimate:
    """Count ADP-nominal and nominal-ADP adjacencies across the corpus."""
    corpus = as_corpus(corpus)
    left, right = corpus.tags[:-1], corpus.tags[1:]
    within = np.ones(len(left), dtype=bool)
    within[corpus.offsets[1:-1] - 1] = False
    adp_nominal = (left == _ADP) & NOMINAL_MASK[right] & within
    nominal_adp = NOMINAL_MASK[left] & (right == _ADP) & within
    return AdpDirectionEstimate(int(adp_nominal.sum()), int(nominal_adp.sum()))
