"""Training-free dependency parsing for POS-tagged UD corpora.

Rule-licensed head attachment, a personalized random-walk ranking of content
words, and two-step decoding produce single-rooted trees whose function
words are leaves.  Ships with closest-head and adjacency baselines, a naive
two-tag POS scenario, and attachment-score evaluation.
"""

from .baselines import DependencyTree, naive_pos_tag, validate_tree
from .cli import best_baseline_direction, main, parse_corpus
from .conllu import (ConlluError, Corpus, Sentence, Token, as_corpus,
                     format_conllu, parse_conllu, read_conllu, write_conllu)
from .decoder import decode_corpus
from .direction import AdpDirectionEstimate, estimate_adp_direction
from .evaluation import (AlignmentError, DomainReport, EvalReport,
                         domain_report, error_propagation, evaluate, uas)
from .rules import (CONTENT_TAGS, DEFAULT_POLICY, DEFAULT_RULESET,
                    FREE_POLICY, KNOWN_TAGS, NAIVE_RULESET, NOMINAL_TAGS,
                    UPOS_TAGS, Direction, DirectionPolicy, RuleSet,
                    is_content, is_nominal, parse_rules)

__version__ = "0.1.0"
