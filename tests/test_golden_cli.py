"""Byte-for-byte pins of ``udparse parse`` on the bundled sample.

Each case pins the sha256 of stdout, which holds relation labels, comments,
and range and empty-node lines as well as heads, and the exact stderr text.
"""

import hashlib
from pathlib import Path

import pytest

from udparse.cli import main

SAMPLE_PATH = Path(__file__).parent / "data" / "sample.conllu"

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
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_parse_output_is_byte_identical(case, capsys):
    options, stdout_sha256, stderr = GOLDEN[case]
    assert main(["parse", str(SAMPLE_PATH), *options]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == stdout_sha256, \
        captured.out
    assert captured.err == stderr
