import subprocess
import sys
from pathlib import Path

import pytest

from udparse.cli import main, parse_corpus
from udparse.conllu import parse_conllu
from udparse.rules import Direction

from helpers import (EXAMPLE_FORMS, EXAMPLE_HEADS, EXAMPLE_TAGS,
                     example_conllu, make_sentence)

SAMPLE_PATH = Path(__file__).parent / "data" / "sample.conllu"

# Two prepositional sentences around the example keep the corpus-level
# bigram estimate at adp-nominal 2 vs nominal-adp 1.
CONTEXT_DOC = (
    "1\tWe\t_\tPRON\t_\t_\t_\t_\t_\t_\n"
    "2\twalked\t_\tVERB\t_\t_\t_\t_\t_\t_\n"
    "3\tin\t_\tADP\t_\t_\t_\t_\t_\t_\n"
    "4\tLondon\t_\tPROPN\t_\t_\t_\t_\t_\t_\n"
    "\n"
    "1\tShe\t_\tPRON\t_\t_\t_\t_\t_\t_\n"
    "2\tspoke\t_\tVERB\t_\t_\t_\t_\t_\t_\n"
    "3\tof\t_\tADP\t_\t_\t_\t_\t_\t_\n"
    "4\tpeople\t_\tNOUN\t_\t_\t_\t_\t_\t_\n"
    "\n"
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def heads_of(conllu_text):
    return [[t.gold_head for t in s] for s in parse_conllu(conllu_text)]


class TestParseCommand:
    def test_example_with_context_recovers_reference_tree(self, tmp_path, capsys):
        source = tmp_path / "in.conllu"
        source.write_text(example_conllu() + "\n" + CONTEXT_DOC, encoding="utf-8")
        out = tmp_path / "out.conllu"
        code, _, _ = run(["parse", str(source), "-o", str(out)], capsys)
        assert code == 0
        parsed = heads_of(out.read_text(encoding="utf-8"))
        assert parsed[0] == list(EXAMPLE_HEADS)

    def test_example_alone_estimates_postpositions(self, tmp_path, capsys):
        # The lone sentence contains one nominal-adp bigram and none the
        # other way, so runtime estimation attaches the adposition leftward.
        source = tmp_path / "in.conllu"
        source.write_text(example_conllu(), encoding="utf-8")
        out = tmp_path / "out.conllu"
        code, _, _ = run(["parse", str(source), "-o", str(out)], capsys)
        assert code == 0
        (parsed,) = heads_of(out.read_text(encoding="utf-8"))
        assert parsed == [3, 3, 0, 6, 6, 3, 6, 9, 6]

    def test_forced_adp_direction_right(self, tmp_path, capsys):
        source = tmp_path / "in.conllu"
        source.write_text(example_conllu(), encoding="utf-8")
        out = tmp_path / "out.conllu"
        code, _, _ = run(["parse", str(source), "-o", str(out),
                          "--adp-direction", "right"], capsys)
        assert code == 0
        (parsed,) = heads_of(out.read_text(encoding="utf-8"))
        assert parsed == list(EXAMPLE_HEADS)

    def test_reading_order_mode_differs_from_ranked_mode(self, tmp_path, capsys):
        # Hand-derived from the attachment cascade: with reading-order
        # ranking the ADJ precedes the nouns into the head set, so it
        # attaches to the verb instead of the closer noun.
        source = tmp_path / "in.conllu"
        source.write_text(example_conllu(), encoding="utf-8")
        out = tmp_path / "out.conllu"
        code, _, _ = run(["parse", str(source), "-o", str(out),
                          "--mode", "udp-nopr", "--adp-direction", "right"], capsys)
        assert code == 0
        (parsed,) = heads_of(out.read_text(encoding="utf-8"))
        assert parsed == [3, 3, 0, 6, 3, 3, 9, 9, 6]

    def test_emitted_trees_validate(self, tmp_path, capsys):
        from udparse.baselines import forms_tree
        from udparse.conllu import DependencyTree, validate_tree
        source = tmp_path / "in.conllu"
        source.write_text(SAMPLE_PATH.read_text(encoding="utf-8"), encoding="utf-8")
        for mode in ("udp", "udp-nopr", "adjacency"):
            out = tmp_path / f"{mode}.conllu"
            code, _, _ = run(["parse", str(source), "-o", str(out),
                              "--mode", mode], capsys)
            assert code == 0
            for sentence in parse_conllu(out.read_text(encoding="utf-8")):
                heads = {t.index: t.gold_head for t in sentence}
                if mode == "adjacency":
                    assert forms_tree(sentence, heads)
                else:
                    tree = DependencyTree(heads)
                    assert validate_tree(sentence, tree) == []

    def test_parse_defaults(self):
        from udparse.cli import build_parser
        args = build_parser().parse_args(["parse"])
        assert (args.mode, args.pos, args.adp_direction) == ("udp", "gold-column", "auto")
        assert (args.teleport, args.personalization_weight) == (0.05, 5.0)
        assert args.backoff_direction == "right"

    def test_stdin_stdout_streams(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "udparse", "parse", "--adp-direction", "right"],
            input=example_conllu(), capture_output=True, text=True, timeout=60)
        assert result.returncode == 0
        parsed = heads_of(result.stdout)
        assert parsed[0] == list(EXAMPLE_HEADS)

    def test_adjacency_left_chain(self, tmp_path, capsys):
        source = tmp_path / "in.conllu"
        source.write_text("1\ta\t_\tNOUN\t_\t_\t_\t_\t_\t_\n"
                          "2\tb\t_\tVERB\t_\t_\t_\t_\t_\t_\n"
                          "3\tc\t_\tNOUN\t_\t_\t_\t_\t_\t_\n", encoding="utf-8")
        out = tmp_path / "out.conllu"
        code, _, _ = run(["parse", str(source), "-o", str(out),
                          "--mode", "adjacency", "--backoff-direction", "left"], capsys)
        assert code == 0
        assert heads_of(out.read_text(encoding="utf-8")) == [[0, 1, 2]]

    def test_naive_pos_mode_runs_over_two_tags(self, tmp_path, capsys):
        source = tmp_path / "in.conllu"
        source.write_text(SAMPLE_PATH.read_text(encoding="utf-8"), encoding="utf-8")
        out = tmp_path / "out.conllu"
        code, _, _ = run(["parse", str(source), "-o", str(out), "--pos", "naive"], capsys)
        assert code == 0
        parsed = parse_conllu(out.read_text(encoding="utf-8"))
        tags = {t.upos for s in parsed for t in s}
        assert tags <= {"CONTENT", "FUNCTION"}
        assert all(t.gold_head is not None for s in parsed for t in s)

    def test_baseline_mode_reports_well_formed_rate(self, tmp_path, capsys):
        source = tmp_path / "in.conllu"
        source.write_text(example_conllu(), encoding="utf-8")
        out = tmp_path / "out.conllu"
        code, _, err = run(["parse", str(source), "-o", str(out),
                            "--mode", "baseline"], capsys)
        assert code == 0
        assert "well-formed trees:" in err

    def test_oracle_direction_reports_choice(self, tmp_path, capsys):
        source = tmp_path / "in.conllu"
        source.write_text(SAMPLE_PATH.read_text(encoding="utf-8"), encoding="utf-8")
        out = tmp_path / "out.conllu"
        code, _, err = run(["parse", str(source), "-o", str(out),
                            "--mode", "baseline", "--oracle-direction"], capsys)
        assert code == 0
        assert "oracle backoff direction:" in err

    def test_oracle_direction_requires_baseline_mode(self, tmp_path, capsys):
        source = tmp_path / "in.conllu"
        source.write_text(example_conllu(), encoding="utf-8")
        code, _, err = run(["parse", str(source), "--oracle-direction"], capsys)
        assert code == 1

    def test_custom_rule_file(self, tmp_path, capsys):
        source = tmp_path / "in.conllu"
        source.write_text("1\ta\t_\tNOUN\t_\t_\t_\t_\t_\t_\n"
                          "2\tb\t_\tVERB\t_\t_\t_\t_\t_\t_\n", encoding="utf-8")
        rules = tmp_path / "rules.txt"
        rules.write_text("NOUN NOUN\nVERB NOUN\nDIR PUNCT LEFT\n", encoding="utf-8")
        out = tmp_path / "out.conllu"
        code, _, _ = run(["parse", str(source), "-o", str(out),
                          "--rules", str(rules)], capsys)
        assert code == 0

    def test_identical_runs_produce_identical_bytes(self, tmp_path, capsys):
        source = tmp_path / "in.conllu"
        source.write_text(SAMPLE_PATH.read_text(encoding="utf-8"), encoding="utf-8")
        first = tmp_path / "a.conllu"
        second = tmp_path / "b.conllu"
        assert run(["parse", str(source), "-o", str(first)], capsys)[0] == 0
        assert run(["parse", str(source), "-o", str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_malformed_input_exits_two(self, tmp_path, capsys):
        source = tmp_path / "in.conllu"
        source.write_text("1\ta\tNOUN\n", encoding="utf-8")
        code, _, err = run(["parse", str(source)], capsys)
        assert code == 2
        assert "line 1" in err

    def test_byte_order_mark_input_parses(self, tmp_path, capsys):
        source = tmp_path / "in.conllu"
        source.write_bytes(b"\xef\xbb\xbf" + SAMPLE_PATH.read_bytes())
        code, out, err = run(["parse", str(source)], capsys)
        assert (code, err) == (0, "")
        assert out == run(["parse", str(SAMPLE_PATH)], capsys)[1]

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(["parse", "no-such-file.conllu"], capsys)
        assert code == 2

    def test_unknown_flag_exits_one(self, capsys):
        code, _, _ = run(["parse", "--bogus"], capsys)
        assert code == 1

    def test_bad_teleport_exits_one(self, capsys):
        code, _, _ = run(["parse", "--teleport", "1.5"], capsys)
        assert code == 1


class TestEvalCommand:
    def test_identical_files_print_one_hundred(self, tmp_path, capsys):
        path = tmp_path / "gold.conllu"
        path.write_text(SAMPLE_PATH.read_text(encoding="utf-8"), encoding="utf-8")
        code, out, _ = run(["eval", str(path), str(path)], capsys)
        assert code == 0
        assert "UAS: 100.00" in out

    def test_hand_scored_two_sentence_corpus(self, tmp_path, capsys):
        gold = tmp_path / "gold.conllu"
        gold.write_text(
            "1\ta\t_\tNOUN\t_\t_\t2\t_\t_\t_\n"
            "2\tb\t_\tVERB\t_\t_\t0\t_\t_\t_\n\n"
            "1\tc\t_\tDET\t_\t_\t2\t_\t_\t_\n"
            "2\td\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n", encoding="utf-8")
        pred = tmp_path / "pred.conllu"
        pred.write_text(
            "1\ta\t_\tNOUN\t_\t_\t2\t_\t_\t_\n"
            "2\tb\t_\tVERB\t_\t_\t0\t_\t_\t_\n\n"
            "1\tc\t_\tDET\t_\t_\t0\t_\t_\t_\n"
            "2\td\t_\tNOUN\t_\t_\t1\t_\t_\t_\n\n", encoding="utf-8")
        code, out, _ = run(["eval", str(gold), str(pred)], capsys)
        assert code == 0
        assert "UAS: 50.00 (2/4)" in out

    def test_group_by_prints_domain_rows(self, tmp_path, capsys):
        path = tmp_path / "gold.conllu"
        path.write_text(SAMPLE_PATH.read_text(encoding="utf-8"), encoding="utf-8")
        code, out, _ = run(["eval", str(path), str(path), "--group-by", "genre"], capsys)
        assert code == 0
        assert "Domain UAS (genre):" in out
        assert "news" in out and "wiki" in out
        assert "Domain mean UAS:" in out

    def test_machine_format(self, tmp_path, capsys):
        path = tmp_path / "gold.conllu"
        path.write_text(SAMPLE_PATH.read_text(encoding="utf-8"), encoding="utf-8")
        code, out, _ = run(["eval", str(path), str(path), "--machine"], capsys)
        assert code == 0
        assert "uas\t1.000000" in out.splitlines()

    def test_misaligned_corpora_exit_two(self, tmp_path, capsys):
        gold = tmp_path / "gold.conllu"
        gold.write_text("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n", encoding="utf-8")
        pred = tmp_path / "pred.conllu"
        pred.write_text("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n"
                        "1\tb\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n", encoding="utf-8")
        code, _, err = run(["eval", str(gold), str(pred)], capsys)
        assert code == 2
        assert "sentence count" in err


    def test_gold_head_out_of_range_exits_two(self, tmp_path, capsys):
        path = tmp_path / "gold.conllu"
        path.write_text("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n"
                        "2\tb\t_\tNOUN\t_\t_\t7\t_\t_\t_\n\n", encoding="utf-8")
        code, out, err = run(["eval", str(path), str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "line 2" in err and "head 7" in err


class TestStatsCommand:
    def test_single_bigram_corpus(self, tmp_path, capsys):
        path = tmp_path / "in.conllu"
        path.write_text("1\ta\t_\tNOUN\t_\t_\t_\t_\t_\t_\n"
                        "2\tb\t_\tADP\t_\t_\t_\t_\t_\t_\n"
                        "3\tc\t_\tVERB\t_\t_\t_\t_\t_\t_\n", encoding="utf-8")
        code, out, _ = run(["stats", str(path)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert "adp_nominal\t0" in lines
        assert "nominal_adp\t1" in lines
        assert "adp_direction\tleft" in lines
        assert "sentences\t1" in lines
        assert "tokens\t3" in lines
        assert "upos\tADP\t1" in lines

    def test_empty_file_defaults_right(self, tmp_path, capsys):
        path = tmp_path / "in.conllu"
        path.write_text("", encoding="utf-8")
        code, out, _ = run(["stats", str(path)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert "sentences\t0" in lines
        assert "tokens\t0" in lines
        assert "adp_direction\tright" in lines

    def test_byte_order_mark_is_not_part_of_the_first_id(self, tmp_path, capsys):
        path = tmp_path / "in.conllu"
        path.write_bytes(b"\xef\xbb\xbf1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n")
        code, out, err = run(["stats", str(path)], capsys)
        assert (code, err) == (0, "")
        assert "tokens\t1" in out.splitlines()

    def test_sample_counts_match_reader(self, tmp_path, capsys):
        code, out, _ = run(["stats", str(SAMPLE_PATH)], capsys)
        assert code == 0
        corpus = parse_conllu(SAMPLE_PATH.read_text(encoding="utf-8"))
        token_count = sum(len(s) for s in corpus)
        assert f"sentences\t{len(corpus)}" in out.splitlines()
        assert f"tokens\t{token_count}" in out.splitlines()


class TestLibraryPipeline:
    def test_parse_corpus_returns_new_sentences(self):
        corpus = [make_sentence(EXAMPLE_TAGS, EXAMPLE_FORMS)]
        parsed = parse_corpus(corpus, adp_direction="right")
        assert [t.pred_head for t in parsed[0]] == list(EXAMPLE_HEADS)
        assert all(t.pred_head is None for t in corpus[0])

    def test_parse_corpus_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            parse_corpus([make_sentence(["NOUN"])], mode="bogus")

    def test_backoff_direction_enum(self):
        corpus = [make_sentence(["NOUN", "VERB", "NOUN"])]
        parsed = parse_corpus(corpus, mode="adjacency",
                              backoff_direction=Direction.LEFT)
        assert [t.pred_head for t in parsed[0]] == [0, 1, 2]


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "udparse", "stats", str(SAMPLE_PATH)],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert "sentences\t3" in result.stdout
