"""Seeded benchmark of every udparse command, end to end and layer by layer.

    python3 bench/run.py --workload news --seed 1 --seconds 36 --trace 0
    python3 bench/run.py                  # every workload, untraced and traced
    python3 bench/run.py --write-spec     # regenerate BENCHMARK.json

One process generates the workload's corpus from the seed and runs each
command through ``udparse.cli.main``, one at a time and each on the whole
corpus (a closed loop with one client; the machine this was sized on has
two cores, so there are no extra threads).  Imports and a first call on a
small corpus are warmed before timing.  Rounds of all commands repeat until
``--seconds`` have passed.  A command's throughput is its tokens over all
its timed runs divided by their summed wall time; set-up time is a median.
Every output is checked; the result is the last line of standard output.

``--trace 0`` reports the end-to-end metrics from untraced runs.
``--trace 1`` alternates untraced and traced runs of each command.  It
reports per-layer self times and counts from the traced run with the median
wall time, and the tracing overhead.  See README.md in this directory.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import corpora  # noqa: E402  (bench/ is on sys.path as the script's directory)

WORKLOADS = {
    "news": "UD-English-like tags and N(17, 10) lengths with gold heads: the "
            "paper's target traffic, where ranking and decoding both weigh",
    "long": "60-250 tokens per sentence: the O(n^2) graph build and decode "
            "loops dominate, pagerank is a small share",
    "short": "1-8 tokens, all ten columns, multiword ranges, empty nodes: "
             "per-sentence overhead, reader pass-through and write-back dominate",
}

COMMANDS = ("udp", "udp-nopr", "baseline", "adjacency", "naive", "eval", "stats")
_TREE_MODES = ("udp", "udp-nopr", "naive")

END_TO_END = [
    *({"name": f"{command.replace('-', '_')}_tok_s", "unit": "tok/s",
       "better": "higher", "bound": 0.25} for command in COMMANDS),
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "udp_uas", "unit": "share", "better": "higher", "bound": 0.1},
    {"name": "ok_share", "unit": "share", "better": "higher", "bound": 0.01},
]

_READ = ("conllu.read_s", "conllu.tokens", "conllu.sentences")
_PARSE = _READ + ("conllu.with_heads_s", "conllu.write_s")
_RANKED = ("ranker.rank_s", "ranker.build_graph_s", "ranker.edges", "ranker.pagerank_s",
           "ranker.pagerank_calls", "ranker.unconverged_share")
_DECODED = ("decoder.decode_s", "decoder.attach_s", "decoder.attach_calls",
            "decoder.final_punct_moves")
_FORMS_TREE = ("baselines.forms_tree_s", "baselines.forms_tree_calls",
               "baselines.well_formed_share")
_GLUE = ("cli.self_s", "cli.trace_overhead")
LAYERS = {
    "udp": _PARSE + ("direction.estimate_s",) + _RANKED + _DECODED + _GLUE,
    "udp-nopr": _PARSE + ("direction.estimate_s", "ranker.rank_s") + _DECODED + _GLUE,
    "baseline": _PARSE + ("baselines.baseline_parse_s",) + _FORMS_TREE + _GLUE,
    "adjacency": _PARSE + ("baselines.adjacency_parse_s",) + _FORMS_TREE + _GLUE,
    "naive": _PARSE + ("baselines.naive_pos_tag_s",) + _RANKED + _DECODED + _GLUE,
    "eval": _READ + ("evaluation.uas_s",) + _GLUE,
    "stats": _READ + ("direction.estimate_s",) + _GLUE,
}


def _layer_unit(what: str) -> str:
    if what.endswith("_s"):
        return "s"
    if what.endswith("_share"):
        return "share"
    if what == "forms_tree_calls":
        return "calls/sentence"
    if what == "trace_overhead":
        return "ratio"
    return "count"


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    per_layer = []
    for command, layers in LAYERS.items():
        for layer in layers:
            what = layer.rsplit(".", 1)[1]
            # Fewer seconds and less work are better; the rest are the input's
            # size and the baselines' tree rate.
            better = "higher" if what in ("tokens", "sentences", "well_formed_share") else "lower"
            per_layer.append({"name": f"{command}.{layer}", "unit": _layer_unit(what),
                              "better": better})
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 36,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer,
    }


def _environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg(),
            "machine": platform.machine()}


def _argvs(corpus: Path, work: Path) -> dict[str, list[str]]:
    def parse(name, *options):
        return ["parse", str(corpus), *options, "-o", str(work / f"{name}.conllu")]
    return {
        "udp": parse("udp"),
        "udp-nopr": parse("udp-nopr", "--mode", "udp-nopr"),
        "baseline": parse("baseline", "--mode", "baseline"),
        "adjacency": parse("adjacency", "--mode", "adjacency"),
        "naive": parse("naive", "--pos", "naive"),
        "eval": ["eval", str(corpus), str(work / "udp.conllu")],
        "stats": ["stats", str(corpus)],
    }


def _run_command(main, argv: list[str]) -> tuple[int, float, str]:
    """Exit code, wall seconds and captured stdout of one in-process call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    if code != 0:
        print(f"udparse {' '.join(argv)} exited {code}: {stderr.getvalue()}", file=sys.stderr)
    return code, wall, stdout.getvalue()


def _token_heads(text: str) -> list[list[int]]:
    """Column 7 of the syntactic-word lines, per sentence."""
    sentences, heads = [], []
    for line in text.splitlines():
        if not line:
            if heads:
                sentences.append(heads)
            heads = []
        elif not line.startswith("#"):
            columns = line.split("\t")
            if columns[0].isdigit():
                heads.append(int(columns[6]))
    if heads:
        sentences.append(heads)
    return sentences


class Checker:
    """Checks each command's output against the gold corpus and against the
    first output the same invocation produced in this run."""

    def __init__(self, gold_text: str):
        self.gold = _token_heads(gold_text)
        self.tokens = sum(map(len, self.gold))
        self.first: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.udp_correct = 0

    def check(self, command: str, output: str) -> list[str]:
        """Problems found, empty when the output is right."""
        if command in self.first:
            return [] if output == self.first[command] else ["output differs between runs"]
        self.first[command] = output
        if command == "eval":
            return self._check_eval(output)
        if command == "stats":
            expected = {f"sentences\t{len(self.gold)}", f"tokens\t{self.tokens}"}
            return [] if expected <= set(output.splitlines()) else ["wrong counts"]
        heads = _token_heads(output)
        self.digests[command] = hashlib.sha256(repr(heads).encode()).hexdigest()
        if list(map(len, heads)) != list(map(len, self.gold)):
            return ["sentence or token counts differ from the input"]
        if command == "udp":
            self.udp_correct = sum(p == g for ps, gs in zip(heads, self.gold)
                                   for p, g in zip(ps, gs))
        if command == "baseline":
            return [] if all(h.count(0) == 1 for h in heads) else ["not single-rooted"]
        return self._check_trees(command, output)

    def _check_eval(self, output: str) -> list[str]:
        match = re.match(r"UAS: [\d.]+ \((\d+)/(\d+)\)", output)
        if not match or "udp" not in self.first:
            return ["no UAS line"]
        correct, total = map(int, match.groups())
        if (correct, total) != (self.udp_correct, self.tokens):
            return [f"eval reports {correct}/{total}, "
                    f"expected {self.udp_correct}/{self.tokens}"]
        return []

    @staticmethod
    def _check_trees(command: str, output: str) -> list[str]:
        from udparse import DependencyTree, parse_conllu, validate_tree
        from udparse.baselines import forms_tree
        for number, sentence in enumerate(parse_conllu(output), 1):
            heads = {t.index: t.gold_head for t in sentence.tokens}
            try:
                if command in _TREE_MODES:
                    violations = validate_tree(sentence, DependencyTree(heads))
                else:
                    violations = [] if forms_tree(sentence, heads) else ["not a tree"]
            except ValueError as error:  # heads missing or out of range
                violations = [str(error)]
            if violations:
                return [f"sentence {number}: {', '.join(violations)}"]
        return []


# Timed inside the child, from its first statement, so that process spawn
# and interpreter start-up, which the package does not control, stay out.
_SETUP_CHILD = ("import time\n"
                "start = time.perf_counter()\n"
                "import sys, udparse.cli\n"
                "code = udparse.cli.main(sys.argv[1:])\n"
                "print(time.perf_counter() - start)\n"
                "sys.exit(code)")
_RSS_CHILD = ("import resource, sys, udparse.cli\n"
              "code = udparse.cli.main(sys.argv[1:])\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
              "sys.exit(code)")
_SETUP_REPEATS = 7  # at least; one set-up also runs after every round
# A command faster than this repeats within a round, so that the figures of
# cheap commands rest on more samples.
_ROUND_SHARE_S = 0.5
_MAX_REPEATS = 16


def _child(code: str, argv: list[str]) -> tuple[int, float, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        print(f"child udparse {' '.join(argv)} exited {done.returncode}: {done.stderr}",
              file=sys.stderr)
    return done.returncode, wall, done.stdout


def _lower_median(values, key=None):
    return sorted(values, key=key)[(len(values) - 1) // 2]


class Run:
    """One benchmark run of one workload and seed, in a scratch directory."""

    def __init__(self, workload: str, seed: int, work: Path, sentences: int | None = None):
        from udparse.cli import main
        self.main = main
        self.text = corpora.generate(workload, seed, sentences)
        self.corpus = work / "corpus.conllu"
        self.corpus.write_text(self.text, encoding="utf-8")
        self.one = work / "one.conllu"
        shortest = min(self.text.split("\n\n")[:-1], key=lambda block: block.count("\n"))
        self.one.write_text(shortest + "\n\n", encoding="utf-8")
        self.argvs = _argvs(self.corpus, work)
        self.checker = Checker(self.text)
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.context = {"workload": workload, "seed": seed,
                        "environment": _environment(),
                        "corpus": {"sha256": corpora.sha256(self.text),
                                   "sentences": len(self.checker.gold),
                                   "tokens": self.checker.tokens}}
        self._warm()

    def _warm(self) -> None:
        blocks = self.text.split("\n\n")
        warm = self.work / "warm.conllu"
        warm.write_text("\n\n".join(blocks[:20]).rstrip("\n") + "\n\n", encoding="utf-8")
        for argv in _argvs(warm, self.work).values():
            self._record("warm-up", _run_command(self.main, argv)[0], [])

    def _record(self, command: str, code: int, problems: list[str]) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}", *problems]
        if problems:
            self.failed += 1
            self.problems.extend(f"{command}: {p}" for p in problems)

    def run(self, command: str) -> float:
        """Run one command untraced, check its output, return its wall time."""
        code, wall, stdout = _run_command(self.main, self.argvs[command])
        if code == 0:
            output = stdout if command in ("eval", "stats") else (
                self.work / f"{command}.conllu").read_text(encoding="utf-8")
            self._record(command, code, self.checker.check(command, output))
        else:
            self._record(command, code, [])
        return wall

    @staticmethod
    def rounds(seconds: float, step) -> None:
        """Call ``step(command)`` for each command in turn, round after
        round, until ``seconds`` have passed and at least 3 rounds ran."""
        deadline = time.perf_counter() + seconds
        for round_number in itertools.count():
            for command in COMMANDS:
                if round_number >= 3 and time.perf_counter() >= deadline:
                    return
                step(command)

    def _setup(self) -> float:
        """Seconds a fresh interpreter takes to import udparse and parse the
        corpus's shortest sentence."""
        code, _, stdout = _child(_SETUP_CHILD, ["parse", str(self.one), "-o",
                                                str(self.work / "one.out.conllu")])
        self._record("setup", code, [])
        return float(stdout.split()[-1]) if code == 0 else 0.0

    def end_to_end(self, seconds: float) -> dict[str, tuple[float, str]]:
        walls = {command: [] for command in COMMANDS}
        repeats = dict.fromkeys(COMMANDS, 1)
        setup = []

        def step(command):
            for _ in range(repeats[command]):
                walls[command].append(self.run(command))
            share = round(_ROUND_SHARE_S / statistics.median(walls[command]))
            repeats[command] = min(max(share, 1), _MAX_REPEATS)
            if command == COMMANDS[-1]:
                setup.append(self._setup())

        self.rounds(seconds, step)
        # One set-up per round spreads them over the run, so that their
        # median does not rest on a single moment's CPU speed.
        while len(setup) < _SETUP_REPEATS:
            setup.append(self._setup())
        self.context["setup_walls_s"] = setup
        self.context["walls_s"] = walls
        # Throughput over all timed runs, not a median of runs: CPU speed on a
        # shared host can flip between two levels within a run, and a median
        # then jumps to whichever level held the majority of samples.
        metrics = {f"{c.replace('-', '_')}_tok_s": (self.checker.tokens * len(w) / sum(w),
                                                   "tok/s") for c, w in walls.items()}

        rss_out = self.work / "rss.conllu"
        code, _, stdout = _child(_RSS_CHILD, ["parse", str(self.corpus), "-o", str(rss_out)])
        same = code == 0 and rss_out.read_text(encoding="utf-8") == self.checker.first["udp"]
        self._record("peak-rss udp", code, [] if same or code else ["output differs in-process"])
        peak_kb = int(stdout.split()[-1]) if code == 0 else 0

        metrics.update({
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
            "udp_uas": (self.checker.udp_correct / self.checker.tokens, "share"),
            "ok_share": (1 - self.failed / self.attempted, "share"),
        })
        return metrics

    def per_layer(self, seconds: float) -> dict[str, tuple[float, str]]:
        from tracing import Tracer
        tracer = Tracer()
        samples = {command: [] for command in COMMANDS}

        def step(command):
            untraced = self.run(command)
            tracer.reset()
            with tracer.installed():
                traced = self.run(command)
            own, top = tracer.self_times()
            samples[command].append((traced, untraced, own, top, dict(tracer.counts),
                                     tracer.unconverged_share()))

        self.rounds(seconds, step)
        self.context["traced_walls_s"] = {c: [r[0] for r in runs] for c, runs in samples.items()}
        metrics = {}
        for command, runs in samples.items():
            traced, _, own, top, counts, unconverged = _lower_median(runs, key=lambda r: r[0])
            unlisted = set(own) - {layer[:-2] for layer in LAYERS[command]}
            if unlisted:
                self.problems.append(f"{command}: untallied layers {sorted(unlisted)}")
            sentences = counts.get("conllu.sentences", 0) or 1
            calls = counts.get("baselines.forms_tree_calls", 0)
            values = {
                **{f"{layer}_s": duration for layer, duration in own.items()},
                **counts,
                "ranker.unconverged_share": unconverged,
                "baselines.forms_tree_calls": calls / sentences,
                "baselines.well_formed_share":
                    counts.get("baselines.well_formed", 0) / calls if calls else 0.0,
                "cli.self_s": traced - top,
                "cli.trace_overhead": statistics.median(r[0] / r[1] for r in runs) - 1,
            }
            for layer in LAYERS[command]:
                what = layer.rsplit(".", 1)[1]
                metrics[f"{command}.{layer}"] = (float(values.get(layer) or 0),
                                                 _layer_unit(what))
        return metrics

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sentences: int | None = None) -> tuple[dict, dict]:
    """(context, result) of one run; ``sentences`` shrinks the corpus."""
    (ROOT / "bench" / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / "bench" / ".work") as work:
        run = Run(workload, seed, Path(work), sentences)
        metrics = run.per_layer(seconds) if trace else run.end_to_end(seconds)
        if run.problems:
            run.context["problems"] = run.problems[:20]
        run.context["digests"] = run.checker.digests
        return run.context, run.result(metrics)


def _import_package() -> None:
    """Import udparse from this checkout's src/, never from elsewhere."""
    if not (SRC / "udparse" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'udparse'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import udparse
    if Path(udparse.__file__).resolve().parent != SRC / "udparse":
        sys.exit(f"error: imported udparse from {udparse.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: end-to-end metrics, 1: per-layer metrics; default both")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    _import_package()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [args.trace == "1"] if args.trace else [False, True]
    for workload in workloads:
        for trace in traces:
            context, result = run_workload(workload, args.seed, args.seconds, trace)
            print(json.dumps(context))
            if args.workload == "all":
                result = {"workload": workload, "trace": int(trace), **result}
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
