"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch with plain Python data
structures: dense row-stochastic matrices and explicit loops, no shared code
with the implementations under test.  The one exception is
``token_walk_scores``, the token-level walk the package solved before it
lumped words into classes: it runs the package's ``_walk_scores`` kernel,
which ``power_iteration`` checks, on the full token graph of
``rule_counts``, the dense edge counts the package built before it did.
``sequential_read_conllu`` is the line-at-a-time reader that the package's
array reader replaced, ``check_aligned`` the alignment check that
compared lists of form strings before ``eval`` compared byte spans, and
``format_conllu_lines`` the writer that rebuilt each token line as a
string before ``write_conllu`` gathered bytes,
``walk_tree_violations`` the per-sentence dict walk that checked trees
before ``baselines.tree_violations`` checked a whole corpus as arrays, and
``lexsort_content_ranks`` the sort of every token by three keys that
ranked content words before ``ranker.content_ranks`` sorted them alone.
"""

import re

import numpy as np

from udparse.conllu import ConlluError, Corpus, RawText, as_corpus
from udparse.evaluation import AlignmentError
from udparse.ranker import _walk_scores
from udparse.rules import CONTENT_TAGS, TAG_IDS, TAG_NAMES


def dense_transition(n, edges):
    """Row-stochastic matrix from (dependent, head) edges, 1-based."""
    rows = [[0.0] * n for _ in range(n)]
    outs = [0] * n
    for dependent, head in edges:
        rows[dependent - 1][head - 1] += 1.0
        outs[dependent - 1] += 1
    for i in range(n):
        if outs[i]:
            rows[i] = [value / outs[i] for value in rows[i]]
    return rows, outs


def power_iteration(n, edges, personalization, teleport=0.05,
                    tol=1e-14, max_iter=100_000):
    """Dense power iteration with dangling mass going to the personalization.

    Iterates until one step changes the scores by less than ``tol`` in L1
    and raises RuntimeError when ``max_iter`` steps do not get there, so an
    unconverged walk can never serve as the reference.
    """
    rows, outs = dense_transition(n, edges)
    targets = [[(j, weight) for j, weight in enumerate(row) if weight] for row in rows]
    x = list(personalization)
    for _ in range(max_iter):
        dangling = sum(x[i] for i in range(n) if not outs[i])
        pushed = [0.0] * n
        for i in range(n):
            for j, weight in targets[i]:
                pushed[j] += x[i] * weight
        updated = [teleport * personalization[j]
                   + (1.0 - teleport) * (pushed[j] + dangling * personalization[j])
                   for j in range(n)]
        change = sum(abs(a - b) for a, b in zip(updated, x))
        x = updated
        if change < tol:
            return x
    raise RuntimeError(f"power iteration still moving by {change} after {max_iter} steps")


def teleport_vectors(predicates, n, weight):
    """``(B, n)`` rows of 1 with ``weight`` at each 0-based predicate,
    divided by their sum ``(n - 1) + weight``."""
    raw = np.ones((len(predicates), n))
    raw[np.arange(len(predicates)), predicates] = weight
    return raw / ((n - 1) + float(weight))


def rule_counts(tags, ruleset):
    """``(B, n, n)`` edge multiplicities ``[sentence, dependent, head]`` of a
    stack of equal-length sentences (tag ids), one per licensing rule
    application; a token never heads itself."""
    counts = ruleset.matrix[tags[:, None, :], tags[:, :, None]]
    diagonal = np.arange(tags.shape[1])
    counts[:, diagonal, diagonal] = 0
    return counts


def token_walk_scores(tags, ruleset, predicates, teleport=0.05, weight=5.0):
    """``(B, n)`` walk scores of a stack of equal-length sentences (tag ids),
    one node per token."""
    p = teleport_vectors(predicates, tags.shape[1], weight)
    return _walk_scores(rule_counts(tags, ruleset), p, teleport)


def rule_edges(tags, pairs):
    """(dependent, head) edges, 1-based, one per occurrence of a licensing
    (head tag, dependent tag) pair; ordered by head, then dependent."""
    edges = []
    for head, head_tag in enumerate(tags, start=1):
        for dependent, dependent_tag in enumerate(tags, start=1):
            if head == dependent:
                continue
            for pair in pairs:
                if pair == (head_tag, dependent_tag):
                    edges.append((dependent, head))
    return edges


def closest_first_heads(tags, content_order, function_order, predicate,
                        pairs, directions):
    """Heads from the sequential two-step decode, one per token in order.

    Content words attach in ``content_order``, each joining the head set;
    function words then attach to that set.  Each attachment takes the
    closest candidate (leftward on a distance tie) that is licensed by
    ``pairs`` and on the side ``directions`` names ("left", "right" or
    "free", default free), then the closest on that side, then the closest.
    With no content words, ``predicate`` attaches to the root and heads the
    rest.  Sentence-final PUNCT finally moves to the root's dependent.
    """
    licensed = set(pairs)

    def attach(dependent, candidates):
        tag = tags[dependent - 1]
        side = directions.get(tag, "free")

        def directed(head):
            if head == 0 or side == "free":
                return True
            return head > dependent if side == "right" else head < dependent

        def closest(pool):
            return min(pool, key=lambda h: (abs(h - dependent), h)) if pool else None

        best = closest([h for h in candidates
                        if h != 0 and directed(h) and (tags[h - 1], tag) in licensed])
        if best is None:
            best = closest([h for h in candidates if directed(h)])
        if best is None:
            best = closest(candidates)
        return best

    heads = {}
    pending = list(function_order)
    if content_order:
        heads[content_order[0]] = 0
        head_set = [content_order[0]]
        for index in content_order[1:]:
            heads[index] = attach(index, head_set)
            head_set.append(index)
    else:
        heads[predicate] = attach(predicate, [0])
        head_set = [predicate]
        pending.remove(predicate)
    for index in pending:
        heads[index] = attach(index, head_set)

    last = len(tags)
    if tags[-1] == "PUNCT":
        roots = sorted(d for d, h in heads.items() if h == 0)
        if roots and roots[0] != last:
            heads[last] = roots[0]
    return tuple(heads[i] for i in range(1, last + 1))


def estimate_main_predicate(tags):
    """1-based index of the first VERB, else of the first content tag, else 1."""
    content = {"ADJ", "NOUN", "PROPN", "VERB", "CONTENT"}
    for wanted in ({"VERB"}, content):
        for index, tag in enumerate(tags, start=1):
            if tag in wanted:
                return index
    return 1


def baseline_parse(tags, pairs, backoff_direction="right"):
    """Heads of the closest-head baseline, one per token in order.

    The main predicate takes the root.  Every other token attaches to the
    closest token (leftward on a distance tie) that ``pairs`` license to
    head it, else to its neighbor on the ``backoff_direction`` side
    ("left" or "right"), clamped to the other neighbor at sentence edges.
    """
    licensed = set(pairs)
    n = len(tags)
    predicate = estimate_main_predicate(tags)
    heads = []
    for dependent, tag in enumerate(tags, start=1):
        candidates = [head for head, head_tag in enumerate(tags, start=1)
                      if head != dependent and (head_tag, tag) in licensed]
        if dependent == predicate:
            heads.append(0)
        elif candidates:
            heads.append(min(candidates, key=lambda h: (abs(h - dependent), h)))
        elif backoff_direction == "right":
            heads.append(dependent + 1 if dependent < n else dependent - 1)
        else:
            heads.append(dependent - 1 if dependent > 1 else dependent + 1)
    return tuple(heads)


def adjacency_parse(n, direction="right"):
    """Heads of an n-token neighbor chain towards ``direction``; the token
    at the end of the chain takes the root."""
    if direction == "right":
        return tuple(i + 1 if i < n else 0 for i in range(1, n + 1))
    return tuple(range(n))


def content_ranking(indices, scores):
    """Descending-score order with float noise rounded away, ties leftward."""
    return tuple(sorted(indices, key=lambda i: (-round(scores[i - 1], 8), i)))


def lexsort_content_ranks(tags, offsets, predicates, keys):
    """``ranker.content_ranks`` as the three-key ``lexsort`` of every token
    that it was before it sorted the content words alone: by sentence,
    content words first, then by key, ties in sentence order."""
    lengths = np.diff(offsets)
    sentences = np.repeat(np.arange(len(lengths)), lengths)
    content = np.isin(tags, [TAG_IDS[tag] for tag in CONTENT_TAGS])
    order = np.lexsort((keys, ~content, sentences))
    ranks = np.empty(len(tags), dtype=np.intp)
    ranks[order] = np.arange(len(tags)) - offsets[sentences]
    ranks[~content] = lengths[sentences[~content]]
    no_content = np.bincount(sentences[content], minlength=len(lengths)) == 0
    ranks[(offsets[:-1] + predicates)[no_content]] = 0
    return ranks


def attachment_counts(gold_heads, pred_heads):
    """(correct, total) over two parallel lists of per-sentence head lists."""
    correct = 0
    total = 0
    for gold, pred in zip(gold_heads, pred_heads):
        for g, p in zip(gold, pred):
            total += 1
            if g == p:
                correct += 1
    return correct, total


def per_pos_counts(gold_tags, gold_heads, pred_heads):
    buckets = {}
    for tags, gold, pred in zip(gold_tags, gold_heads, pred_heads):
        for tag, g, p in zip(tags, gold, pred):
            c, t = buckets.get(tag, (0, 0))
            buckets[tag] = (c + (g == p), t + 1)
    return buckets


def root_match_count(gold_heads, pred_heads):
    matches = 0
    for gold, pred in zip(gold_heads, pred_heads):
        gold_roots = [i + 1 for i, h in enumerate(gold) if h == 0]
        pred_roots = [i + 1 for i, h in enumerate(pred) if h == 0]
        if gold_roots and pred_roots and gold_roots[0] == pred_roots[0]:
            matches += 1
    return matches


def mean_and_population_std(values):
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, variance ** 0.5


def adjacent_bigram_counts(tag_sequences):
    """(adp_nominal, nominal_adp) counts over lists of tag sequences."""
    nominal = {"NOUN", "PROPN", "PRON"}
    adp_nominal = 0
    nominal_adp = 0
    for tags in tag_sequences:
        for left, right in zip(tags, tags[1:]):
            if left == "ADP" and right in nominal:
                adp_nominal += 1
            if left in nominal and right == "ADP":
                nominal_adp += 1
    return adp_nominal, nominal_adp


def check_aligned(gold, pred):
    """``evaluation._check_aligned`` over column 2 of the corpora's lines:
    the first sentence count, form or token count mismatch, in that order
    of precedence within the sentences that line up."""
    if len(gold) != len(pred):
        raise AlignmentError(
            f"sentence count differs: gold {len(gold)}, predicted {len(pred)}")
    gold_lengths, pred_lengths = np.diff(gold.offsets), np.diff(pred.offsets)
    differs = np.flatnonzero(gold_lengths != pred_lengths)
    aligned = int(gold.offsets[differs[0]]) if len(differs) else len(gold.tags)
    gold_forms, pred_forms = ([line.split("\t")[1] for line in corpus.lines[:aligned]]
                              for corpus in (gold, pred))
    if gold_forms != pred_forms:
        token = next(i for i, pair in enumerate(zip(gold_forms, pred_forms))
                     if pair[0] != pair[1])
        number = int(np.searchsorted(gold.offsets, token, side="right"))
        index = token - int(gold.offsets[number - 1]) + 1
        raise AlignmentError(
            f"sentence {number}, token {index}: form mismatch "
            f"(gold {gold_forms[token]!r}, predicted {pred_forms[token]!r})")
    if len(differs):
        number = int(differs[0])
        raise AlignmentError(
            f"sentence {number + 1}: token count differs "
            f"(gold {gold_lengths[number]}, predicted {pred_lengths[number]})")


def top_frequency_forms(form_sequences, limit=100):
    counts = {}
    for forms in form_sequences:
        for form in forms:
            counts[form] = counts.get(form, 0) + 1
    ordered = sorted(counts, key=lambda form: (-counts[form], form))
    return set(ordered[:limit])


_RANGE_ID = re.compile(r"[0-9]+-[0-9]+")
_EMPTY_NODE_ID = re.compile(r"[0-9]+\.[0-9]+")


def sequential_read_conllu(source):
    """``conllu.read_conllu`` as one loop over the lines of ``source``,
    with every check made on one line at a time in reading order.  The
    corpus's ``RawText`` is built from the lines and their encoded lengths."""
    tags = []
    heads = []
    offsets = [0]
    text = []
    line_starts = []
    # Per token: its line's start, column 2's start and end, and the starts
    # of columns 4 and 7 and of the tab before column 9.
    token_bounds = []
    sentence_lines = []
    sentence_ends = []
    all_tokens = []
    all_comments = []
    all_extras = []
    comments = []
    extras = []
    token_lines = []
    size = 0

    def flush(line_no, end):
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
            sentence_lines.append(min(comments + extras + token_lines) - 1)
            sentence_ends.append(end)
            all_tokens.extend(token_lines)
            all_comments.extend(comments)
            all_extras.extend(extras)
        elif comments or extras:
            raise ConlluError(f"line {line_no}: sentence block contains no token lines")
        comments, extras, token_lines = [], [], []

    line_no = 0
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if line_no == 1:
            line = line.removeprefix("\ufeff")
        line_start = size
        line_starts.append(size)
        text.append(line.removesuffix("\r"))
        size += len(text[-1].encode()) + 1
        if not line.strip():
            flush(line_no, line_start)
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
            comments.append(line_no)
            continue
        columns = line.split("\t")
        if len(columns) != 10:
            raise ConlluError(
                f"line {line_no}: expected 10 tab-separated columns, got {len(columns)}")
        token_id = columns[0]
        if not (token_id.isascii() and token_id.isdigit()):
            if _RANGE_ID.fullmatch(token_id) or _EMPTY_NODE_ID.fullmatch(token_id):
                extras.append(line_no)
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
            if heads[-1] == int(position):
                raise ConlluError(f"line {line_no}: token {position} is its own head")
        else:
            raise ConlluError(
                f"line {line_no}: head must be a non-negative integer or '_', "
                f"got {head!r}")
        tags.append(tag)
        token_lines.append(line_no)
        column_starts = [line_start]
        for column in columns:
            column_starts.append(column_starts[-1] + len(column.encode()) + 1)
        token_bounds.append((line_start, column_starts[1], column_starts[2] - 1,
                             column_starts[3], column_starts[6], column_starts[8] - 1))
    flush(line_no + 1, size)
    raw = RawText("".join(line + "\n" for line in text).encode(),
                  np.array(all_tokens, np.int32) - 1, np.array(tags, np.int8),
                  *np.array(token_bounds, np.int32).reshape(-1, 6).T,
                  *(np.array(numbers, np.int32) - 1 for numbers in (all_comments, all_extras)),
                  np.array(sentence_lines, np.int32),
                  np.array(line_starts, np.int32)[sentence_lines],
                  np.array(sentence_ends, np.int32))
    return Corpus(np.array(tags, dtype=np.intp), np.array(heads, dtype=np.intp),
                  np.array(offsets, dtype=np.intp), raw)


def parsed_lines(corpus):
    """Token lines with position, tag name, predicted head and ``dep``.
    Raises ConlluError at the first head outside its sentence or equal to
    its token's position."""
    sizes = np.diff(corpus.offsets).tolist()
    numbers = [number for number, size in enumerate(sizes, start=1) for _ in range(size)]
    positions = [position for size in sizes for position in range(1, size + 1)]
    names = [TAG_NAMES[tag] for tag in corpus.tags.tolist()]
    rebuilt = []
    for line, number, position, tag, head in zip(corpus.lines, numbers, positions, names,
                                                 corpus.predicted.tolist()):
        size = sizes[number - 1]
        if not 0 <= head <= size:
            raise ConlluError(f"sentence {number}, token {position}: predicted head "
                              f"{head} outside a sentence of {size} tokens")
        if head == position:
            raise ConlluError(f"sentence {number}, token {position} is its own predicted head")
        _, form, lemma, _, xpos, feats, _, _, rest = line.split("\t", 8)
        rebuilt.append(f"{position}\t{form}\t{lemma}\t{tag}\t{xpos}\t{feats}\t{head}\tdep\t{rest}")
    return rebuilt


def format_conllu_lines(corpus):
    """``conllu.format_conllu`` as one loop over decoded line strings:
    comments, token lines (rebuilt by ``parsed_lines`` for a parsed corpus)
    and range/empty-node lines in place, and a blank line per sentence."""
    corpus = as_corpus(corpus)
    lines = corpus.lines if corpus.predicted is None else parsed_lines(corpus)
    bounds = corpus.offsets.tolist()
    extras = corpus.extras
    text = []
    for number, comments in enumerate(corpus.comments):
        text.extend(comments)
        start, end = bounds[number], bounds[number + 1]
        for after, raw in extras[number]:
            text.extend(lines[start:bounds[number] + after])
            text.append(raw)
            start = bounds[number] + after
        text.extend(lines[start:end])
        text.append("")
    return "\n".join(text) + "\n" if text else ""


def walk_tree_violations(tags, heads):
    """``baselines.validate_tree`` as a walk over dicts: the tree constraints
    that the heads ``{dependent: head}`` of a sentence with UPOS ``tags``
    break, in the order single-root, connectivity, acyclicity,
    function-leaf.  Every head must lie in 0..n."""
    n = len(tags)
    violations = []
    roots = [d for d in range(1, n + 1) if heads[d] == 0]
    if len(roots) != 1:
        violations.append("single-root")

    # Heads form a functional graph; a chain either terminates at the root
    # or enters a cycle, so unreachable and cyclic coincide here.
    reaches_root = {0: True}
    for start in range(1, n + 1):
        chain = []
        on_chain = set()
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

    has_content = any(tag in CONTENT_TAGS for tag in tags)
    for dependent, head in heads.items():
        if head == 0 or tags[head - 1] in CONTENT_TAGS:
            continue
        if not has_content and heads[head] == 0:
            continue
        violations.append("function-leaf")
        break
    return violations
