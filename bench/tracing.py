"""Span tracing of udparse's module boundaries, from outside the package.

``Tracer.installed()`` swaps the module attributes that callers look up
(``udparse.cli.rank``, ``udparse.ranker.build_graph``,
``udparse.decoder.attach``, ``udparse.conllu.Sentence.with_heads``, ...)
for wrappers that record a span per call, and restores them on exit.  Only
this process is affected and nothing under ``src/`` changes.  Spans stay
in memory until the benchmark reduces them to self times.

An attribute that a later version of the package no longer has is skipped,
so its layer reads 0 instead of failing the traced run.
"""

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import udparse.baselines
import udparse.cli
import udparse.conllu
import udparse.decoder
import udparse.ranker

# The seed's pagerank stopping tolerance; a result whose next step still
# moves it by this much in L1 did not converge.
_CONVERGENCE_TOL = getattr(udparse.ranker, "CONVERGENCE_TOL", 1e-10)


class Tracer:
    """Spans ``[layer, start, end, parent]`` plus counts, per command run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.pagerank_calls: list[tuple] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.pagerank_calls.clear()

    def _span(self, layer: str, function, on_result=None):
        def traced(*args, **kwargs):
            record = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def _counted(self, function, on_result):
        def counted(*args, **kwargs):
            result = function(*args, **kwargs)
            on_result(args, result)
            return result
        return counted

    def _count_read(self, args, corpus):
        self.counts["conllu.sentences"] += len(corpus)
        self.counts["conllu.tokens"] += sum(len(sentence) for sentence in corpus)

    def _count_edges(self, args, graph):
        self.counts["ranker.edges"] += len(graph.edges)

    def _keep_pagerank(self, args, scores):
        self.counts["ranker.pagerank_calls"] += 1
        self.pagerank_calls.append((args, scores))

    def _count_attach(self, args, head):
        self.counts["decoder.attach_calls"] += 1

    def _count_punct_move(self, args, tree):
        self.counts["decoder.final_punct_moves"] += tree.heads != args[0].heads

    def _count_forms_tree(self, args, well_formed):
        self.counts["baselines.forms_tree_calls"] += 1
        self.counts["baselines.well_formed"] += bool(well_formed)

    def _patches(self):
        cli, ranker, decoder = udparse.cli, udparse.ranker, udparse.decoder
        baselines, sentence = udparse.baselines, udparse.conllu.Sentence
        span, counted = self._span, self._counted
        return [
            (cli, "read_conllu", lambda f: span("conllu.read", f, self._count_read)),
            (cli, "write_conllu", lambda f: span("conllu.write", f)),
            (sentence, "with_heads", lambda f: span("conllu.with_heads", f)),
            (cli, "estimate_adp_direction", lambda f: span("direction.estimate", f)),
            (cli, "rank", lambda f: span("ranker.rank", f)),
            (ranker, "build_graph", lambda f: span("ranker.build_graph", f, self._count_edges)),
            (ranker, "pagerank", lambda f: span("ranker.pagerank", f, self._keep_pagerank)),
            (cli, "decode", lambda f: span("decoder.decode", f)),
            (decoder, "attach", lambda f: span("decoder.attach", f, self._count_attach)),
            (decoder, "apply_final_punct_heuristic",
             lambda f: counted(f, self._count_punct_move)),
            (cli, "baseline_parse", lambda f: span("baselines.baseline_parse", f)),
            (cli, "adjacency_parse", lambda f: span("baselines.adjacency_parse", f)),
            (cli, "naive_pos_tag", lambda f: span("baselines.naive_pos_tag", f)),
            (cli, "forms_tree", lambda f: span("baselines.forms_tree", f, self._count_forms_tree)),
            (baselines, "forms_tree",
             lambda f: span("baselines.forms_tree", f, self._count_forms_tree)),
            (cli, "uas", lambda f: span("evaluation.uas", f)),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced attribute for the duration of the block."""
        saved = []
        try:
            for owner, name, wrap in self._patches():
                original = owner.__dict__.get(name)
                if original is None:
                    continue
                saved.append((owner, name, original))
                setattr(owner, name, wrap(original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def self_times(self) -> tuple[dict[str, float], float]:
        """Per-layer self time (span minus child spans), and the summed
        duration of top-level spans, which the caller subtracts from the
        command's wall time to get the CLI's own share."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        top = 0.0
        for (layer, start, end, parent), children in zip(self.spans, child_time):
            own[layer] += end - start - children
            if parent < 0:
                top += end - start
        return dict(own), top

    def unconverged_share(self) -> float:
        """Share of pagerank results whose one-step L1 residual is still at
        least the stopping tolerance (the walk hit its iteration cap)."""
        if not self.pagerank_calls:
            return 0.0
        unconverged = sum(_residual(*args, scores=scores) >= _CONVERGENCE_TOL
                          for args, scores in self.pagerank_calls)
        return unconverged / len(self.pagerank_calls)


def _residual(graph, personalization, teleport=udparse.ranker.DEFAULT_TELEPORT, *,
              scores) -> float:
    """L1 change of one more teleporting-walk step from ``scores``."""
    n = graph.size
    counts = np.zeros((n, n))
    if graph.edges:
        dependents, heads = np.array(graph.edges).T - 1
        np.add.at(counts, (dependents, heads), 1.0)
    out_totals = counts.sum(axis=1)
    moving = out_totals > 0.0
    transition = np.zeros_like(counts)
    transition[moving] = counts[moving] / out_totals[moving, None]
    p = np.asarray(personalization, dtype=float)
    s = np.asarray(scores, dtype=float)
    step = teleport * p + (1.0 - teleport) * (transition.T @ s + s[~moving].sum() * p)
    return float(np.abs(step - s).sum())
