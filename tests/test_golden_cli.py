"""Byte-for-byte pins of ``udparse parse`` on the bundled corpora.

Each case pins the sha256 of stdout, which holds relation labels, comments,
and range and empty-node lines as well as heads, and the exact stderr text.
``mixed_lengths.conllu`` holds 40 sentences of 1 to 17 tokens whose lengths
repeat out of order, so a parser that groups sentences by length and writes
them back in another order changes its pins.
"""

import hashlib
from pathlib import Path

import pytest

from udparse.cli import main

DATA = Path(__file__).parent / "data"
SAMPLE_PATH = DATA / "sample.conllu"
MIXED_PATH = DATA / "mixed_lengths.conllu"

_BASELINE_LINE = "baseline well-formed trees: 3/3 (100.00)\n"

GOLDEN = {
    "udp": (["--mode", "udp"],
            "398780337a468cfe718b8505548e14b1b392e5c40e5c4ee9cd64e03ff9bc5b94", ""),
    "udp-nopr": (["--mode", "udp-nopr"],
                 "d175e6d632d76ffd1e52dd56b348f6003ab286fe21d5d97139788238ea78be01", ""),
    "baseline": (["--mode", "baseline"],
                 "8deee208a13d8757f1e18cab510576517f34f16ba348ee9595a59b023dbc396e",
                 _BASELINE_LINE),
    "adjacency": (["--mode", "adjacency"],
                  "d09ad035c7ac3d7919551fcb2eec86a85b518dd43ca9cb0942bcafae0c03c4c8", ""),
    "naive": (["--pos", "naive"],
              "57e74343d2f52032954110e80c6a5dce4eb9a4ac229cfe49e8d6b002211e7fb7", ""),
    "oracle-direction": (["--mode", "baseline", "--oracle-direction"],
                         "8deee208a13d8757f1e18cab510576517f34f16ba348ee9595a59b023dbc396e",
                         "oracle backoff direction: right (UAS 88.89)\n" + _BASELINE_LINE),
    # The sample's own bigrams resolve ADP to the left, so the pinned left
    # run matches "udp" and the right run differs from it.
    "adp-left": (["--adp-direction", "left"],
                 "398780337a468cfe718b8505548e14b1b392e5c40e5c4ee9cd64e03ff9bc5b94", ""),
    "adp-right": (["--adp-direction", "right"],
                  "78fc4fd8f5ed9b1b38acc62016498151f099b691e9296627c8fd1729bf12c5b4", ""),
    "rules-file": (["--rules", str(DATA / "repeated.rules")],
                   "8368a4aff1fae666e8dc698befd3540acba3c1793408c267f4d24ee77dfa04dd", ""),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_parse_output_is_byte_identical(case, capsys):
    options, stdout_sha256, stderr = GOLDEN[case]
    assert main(["parse", str(SAMPLE_PATH), *options]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == stdout_sha256, \
        captured.out
    assert captured.err == stderr


MIXED_GOLDEN = {
    "udp": (["--mode", "udp"],
            "b2aca63f41c7e0ed4b799a8eeeee17f267794a57d5b178a9b60bb1c600862bad", ""),
    "udp-nopr": (["--mode", "udp-nopr"],
                 "b8c03f6ad6b109626e94dafc7b5550332cb37eab2025a437041c277d0203344f", ""),
    "naive": (["--pos", "naive"],
              "c961651a4ba9bfc79f9ba801aca9403aafa24a88392c69d4a0ccdd893404a5f0", ""),
    "baseline": (["--mode", "baseline"],
                 "8e1b4258f9b78362352a9243b0a26986b77d844f98713ce978ec97e7e0b2655f",
                 "baseline well-formed trees: 21/40 (52.50)\n"),
    "baseline-left": (["--mode", "baseline", "--backoff-direction", "left"],
                      "bd4a5a8c9535b6bc155286560809fb1f0964622df2669a0968bb259b61ef0e50",
                      "baseline well-formed trees: 34/40 (85.00)\n"),
    "adjacency": (["--mode", "adjacency"],
                  "60eed759075fc3bbb30846afc449dfa969f0001baa71fcee719e8348816a473c", ""),
    "adjacency-left": (["--mode", "adjacency", "--backoff-direction", "left"],
                       "f278b02944f079b5fbcc4127714af1a4fa0a35e673afd8d5dc9cafd9087a6981", ""),
    # Non-default walks.  At teleport 0.3 and weight 2 both modes still give
    # the default trees; weight 0.2 and teleport 0.8 change the udp trees.
    "udp-teleport-weight": (["--mode", "udp", "--teleport", "0.3",
                             "--personalization-weight", "2"],
                            "b2aca63f41c7e0ed4b799a8eeeee17f267794a57d5b178a9b60bb1c600862bad",
                            ""),
    "naive-teleport-weight": (["--pos", "naive", "--teleport", "0.3",
                               "--personalization-weight", "2"],
                              "c961651a4ba9bfc79f9ba801aca9403aafa24a88392c69d4a0ccdd893404a5f0",
                              ""),
    "udp-light-predicate": (["--mode", "udp", "--teleport", "0.3",
                             "--personalization-weight", "0.2"],
                            "18ed394c29f4bfdeaa9b367c898fcef368ff4482d0a28ba2d8655bdbb1c45b7f",
                            ""),
    "udp-high-teleport": (["--mode", "udp", "--teleport", "0.8",
                           "--personalization-weight", "2"],
                          "08e3e8c7a6c6200c304ca2dc36d48a1ac5212b94cbf8a2a21ca12840d31a809c", ""),
}


@pytest.mark.parametrize("case", list(MIXED_GOLDEN))
def test_mixed_lengths_output_is_byte_identical(case, capsys):
    options, stdout_sha256, stderr = MIXED_GOLDEN[case]
    assert main(["parse", str(MIXED_PATH), *options]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == stdout_sha256, \
        captured.out
    assert captured.err == stderr
