"""Training-free dependency parsing for POS-tagged UD corpora.

Rule-licensed head attachment, a personalized random-walk ranking of content
words, and two-step decoding produce single-rooted trees whose function
words are leaves.  Ships with closest-head and adjacency baselines, a naive
two-tag POS scenario, and attachment-score evaluation.
"""

from .baselines import adjacency_parse, baseline_parse, naive_pos_tag
from .cli import best_baseline_direction, main, parse_corpus
from .conllu import (ConlluError, DependencyTree, Sentence, Token,
                     format_conllu, parse_conllu, read_conllu, validate_tree,
                     write_conllu)
from .decoder import apply_final_punct_heuristic, attach, decode
from .direction import AdpDirectionEstimate, estimate_adp_direction
from .evaluation import (AlignmentError, DomainReport, EvalReport,
                         domain_report, error_propagation, uas)
from .ranker import (RankedSentence, SentenceGraph, build_graph,
                     estimate_main_predicate, pagerank, personalization_vector,
                     rank)
from .rules import (CONTENT_TAGS, DEFAULT_POLICY, DEFAULT_RULESET,
                    FREE_POLICY, KNOWN_TAGS, NAIVE_RULESET, NOMINAL_TAGS,
                    UPOS_TAGS, Direction, DirectionPolicy, RuleSet,
                    is_content, is_nominal, kappa, parse_rules)

__version__ = "0.1.0"
