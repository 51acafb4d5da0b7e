"""Self-test of the benchmark on tiny corpora: ``python3 -m pytest bench``."""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import corpora
import run

# sha256 of each full-size corpus at seed 1; a change here changes every
# figure measured on that workload.
SEED_1_SHA256 = {
    "news": "b2a630f6df4c9fecadf4c066e792aa674cb181b2ffc21aa27e4f786c3d4b40ee",
    "long": "fa03cd389f87e36699bdfc8d6a23a41bbdbd6942547900a6f7ccff5f4976ea94",
    "short": "0f3dd38ee04eb5fec67cae21c4b3cd57d7e00e1a3d6e1d6683d0b2478be6b711",
}


def test_benchmark_json_is_the_runner_spec():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.spec()


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_corpus_is_a_function_of_the_seed(workload):
    assert corpora.sha256(corpora.generate(workload, 1)) == SEED_1_SHA256[workload]
    assert corpora.generate(workload, 2, 30) != corpora.generate(workload, 3, 30)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_workload_runs_end_to_end(workload):
    run._import_package()
    spec = run.spec()
    for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        context, result = run.run_workload(workload, 1, 0, trace, sentences=12)
        assert result["correct"], context.get("problems")
        assert result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {metric["name"] for metric in listed}
        for metric in listed:
            measured = result["metrics"][metric["name"]]
            assert measured["unit"] == metric["unit"]
            assert math.isfinite(measured["value"])
        assert set(context["digests"]) == {"udp", "udp-nopr", "baseline", "adjacency", "naive"}
    # Layer self times plus the CLI's own time account for the traced wall.
    for command, walls in context["traced_walls_s"].items():
        accounted = sum(measured["value"] for name, measured in result["metrics"].items()
                        if name.startswith(f"{command}.") and measured["unit"] == "s")
        assert accounted == pytest.approx(run._lower_median(walls), rel=1e-9)


def test_fails_without_the_package():
    """A directory holding only BENCHMARK.json and bench/ has no program."""
    (run.ROOT / "bench" / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / "bench" / ".work") as bare:
        shutil.copytree(run.ROOT / "bench", Path(bare) / "bench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", "news",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
