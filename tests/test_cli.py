import hashlib
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings

import udparse
from udparse import evaluation
from udparse.baselines import tree_violations
from udparse.cli import main, parse_corpus
from udparse.conllu import Sentence, Token, as_corpus, parse_conllu, read_conllu
from udparse.rules import DEFAULT_POLICY, DEFAULT_RULESET, Direction

from helpers import (EXAMPLE_FORMS, EXAMPLE_HEADS, EXAMPLE_TAGS, decoded,
                     example_conllu, make_sentence)
from test_conllu import valid_conllu

SAMPLE_PATH = Path(__file__).parent / "data" / "sample.conllu"
MIXED_PATH = Path(__file__).parent / "data" / "mixed_lengths.conllu"
# Child interpreters import the package under test from where this one did.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(udparse.__file__).parents[1]), os.environ.get("PYTHONPATH")])))

# The options of every parsing path the CLI has.
PARSE_OPTIONS = (["--mode", "udp"], ["--mode", "udp-nopr"], ["--mode", "baseline"],
                 ["--mode", "adjacency"], ["--pos", "naive"])

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
        from udparse.baselines import DependencyTree, forms_tree, validate_tree
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
            input=example_conllu(), capture_output=True, text=True, timeout=60, env=CHILD_ENV)
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

    def test_adp_direction_replaces_a_rule_file_dir_adp_line(self, tmp_path, capsys):
        # In the ranked modes the ADP direction comes from --adp-direction,
        # which under ``auto`` is the estimate: ``right`` on this file (8
        # ADP-nominal against 7 nominal-ADP bigrams), so a rule file's
        # ``DIR ADP LEFT`` changes nothing, and forcing ``left`` does.
        tables = "".join(f"{head} {dep}\n" for head, dep in DEFAULT_RULESET.pairs) + "".join(
            f"DIR {tag} {direction.name}\n" for tag, direction in DEFAULT_POLICY.directions.items())
        (tmp_path / "default.rules").write_text(tables, encoding="utf-8")
        (tmp_path / "left.rules").write_text(tables + "DIR ADP LEFT\n", encoding="utf-8")

        def parsed(name, *options):
            out = tmp_path / f"{name}.conllu"
            assert run(["parse", str(MIXED_PATH), "-o", str(out), *options], capsys)[0] == 0
            return out.read_bytes()

        default = parsed("default", "--rules", str(tmp_path / "default.rules"))
        assert parsed("auto", "--rules", str(tmp_path / "left.rules")) == default
        assert parsed("left", "--rules", str(tmp_path / "left.rules"),
                      "--adp-direction", "left") != default

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

    def test_gold_head_equal_to_its_own_id_exits_two(self, tmp_path, capsys):
        source = tmp_path / "in.conllu"
        source.write_text("1\ta\t_\tNOUN\t_\t_\t1\t_\t_\t_\n", encoding="utf-8")
        code, out, err = run(["parse", str(source)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: line 1: token 1 is its own head\n"

    def test_byte_order_mark_input_parses(self, tmp_path, capsys):
        source = tmp_path / "in.conllu"
        source.write_bytes(b"\xef\xbb\xbf" + SAMPLE_PATH.read_bytes())
        code, out, err = run(["parse", str(source)], capsys)
        assert (code, err) == (0, "")
        assert out == run(["parse", str(SAMPLE_PATH)], capsys)[1]

    @pytest.mark.parametrize("options", PARSE_OPTIONS)
    def test_empty_file_parses_to_nothing(self, tmp_path, capsys, options):
        path = tmp_path / "in.conllu"
        path.write_text("", encoding="utf-8")
        code, out, _ = run(["parse", str(path), *options], capsys)
        assert (code, out) == (0, "")

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(["parse", "no-such-file.conllu"], capsys)
        assert code == 2

    def test_unknown_flag_exits_one(self, capsys):
        code, _, _ = run(["parse", "--bogus"], capsys)
        assert code == 1

    def test_bad_teleport_exits_one(self, capsys):
        code, _, _ = run(["parse", "--teleport", "1.5"], capsys)
        assert code == 1

    @pytest.mark.parametrize("weight", ["inf", "nan", "0"])
    def test_bad_personalization_weight_exits_one(self, weight, capsys):
        code, _, err = run(["parse", str(SAMPLE_PATH), "--personalization-weight", weight],
                           capsys)
        assert code == 1
        assert "personalization-weight" in err


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

    def test_gold_cycle_is_reported(self, tmp_path, capsys):
        # Tokens 1 and 2 head each other, so neither reaches the root; the
        # sentence is still scored, and the report says so.
        path = tmp_path / "gold.conllu"
        path.write_text("1\ta\t_\tNOUN\t_\t_\t2\t_\t_\t_\n"
                        "2\tb\t_\tNOUN\t_\t_\t1\t_\t_\t_\n\n", encoding="utf-8")
        code, out, _ = run(["eval", str(path), str(path)], capsys)
        assert code == 0
        assert "UAS: 100.00 (2/2)" in out
        assert "Gold sentences not connected to the root: 1" in out
        code, out, _ = run(["eval", str(path), str(path), "--machine"], capsys)
        assert code == 0
        assert "multi_root_gold\t0\nunrooted_gold\t1\n" in out

    def test_group_by_prints_domain_rows(self, tmp_path, capsys):
        path = tmp_path / "gold.conllu"
        path.write_text(SAMPLE_PATH.read_text(encoding="utf-8"), encoding="utf-8")
        code, out, _ = run(["eval", str(path), str(path), "--group-by", "genre"], capsys)
        assert code == 0
        assert "Domain UAS (genre):" in out
        assert "news" in out and "wiki" in out
        assert "Domain mean UAS:" in out

    # Gold is the udp parse of ``mixed_lengths.conllu`` and the prediction
    # its baseline parse; 13 of its 40 sentences carry a ``genre``.
    @pytest.mark.parametrize("options, stdout_sha256", [
        ([], "1a2e30faeaca6b0bcea3b1bf5f5355813cacafa4a4aef87dc0289eac5a5502f2"),
        (["--group-by", "genre"],
         "7ad24fef0cad1b4a34a136b8550c4719c98f3c7219aee270a4eb48ca83fb83ca"),
        (["--machine"], "02d2ca011d4ade951c42d49f9290660807fd54351995cb8d63d1dcc4283d781b"),
        (["--group-by", "genre", "--machine"],
         "d25fa8f45a33286ced5656d1db295f71a1aecab3295c1e68dd1cad1f33b87831")])
    def test_eval_output_is_byte_identical(self, options, stdout_sha256, tmp_path, capsys):
        gold, pred = str(tmp_path / "gold.conllu"), str(tmp_path / "pred.conllu")
        assert main(["parse", str(MIXED_PATH), "-o", gold]) == 0
        assert main(["parse", str(MIXED_PATH), "--mode", "baseline", "-o", pred]) == 0
        capsys.readouterr()
        code, out, _ = run(["eval", gold, pred, *options], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_sha256, out
        if "--group-by" in options and "--machine" not in options:
            assert out.splitlines()[-6:] == [
                "Domain UAS (genre):", "  news          72.73 (24/33)",
                "  unknown       60.23 (106/176)", "  wiki          57.14 (16/28)",
                "Domain mean UAS: 63.37", "Domain std UAS: 6.74"]

    def test_group_by_aligns_once(self, tmp_path, capsys):
        path = str(tmp_path / "gold.conllu")
        assert main(["parse", str(MIXED_PATH), "-o", path]) == 0
        with mock.patch("udparse.evaluation._check_aligned",
                        side_effect=evaluation._check_aligned) as aligned, \
                mock.patch.object(Sentence, "meta", new_callable=mock.PropertyMock) as meta:
            code, _, err = run(["eval", path, path, "--group-by", "genre"], capsys)
        assert code == 0, err
        assert aligned.call_count == 1 and meta.call_count == 0

    def test_machine_format(self, tmp_path, capsys):
        path = tmp_path / "gold.conllu"
        path.write_text(SAMPLE_PATH.read_text(encoding="utf-8"), encoding="utf-8")
        code, out, _ = run(["eval", str(path), str(path), "--machine"], capsys)
        assert code == 0
        assert "uas\t1.000000" in out.splitlines()

    def test_predicted_heads_come_from_column_seven(self, tmp_path, capsys):
        # A parsed file scores its column 7; "_" there is a missing
        # prediction, named by sentence and token.
        gold = tmp_path / "gold.conllu"
        gold.write_text("1\ta\t_\tNOUN\t_\t_\t2\t_\t_\t_\n"
                        "2\tb\t_\tVERB\t_\t_\t0\t_\t_\t_\n\n", encoding="utf-8")
        pred = tmp_path / "pred.conllu"
        pred.write_text("1\ta\t_\tNOUN\t_\t_\t2\t_\t_\t_\n"
                        "2\tb\t_\tVERB\t_\t_\t_\t_\t_\t_\n\n", encoding="utf-8")
        code, out, err = run(["eval", str(gold), str(pred)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: sentence 1, token 2: missing predicted head\n"

    def test_misaligned_corpora_exit_two(self, tmp_path, capsys):
        gold = tmp_path / "gold.conllu"
        gold.write_text("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n", encoding="utf-8")
        pred = tmp_path / "pred.conllu"
        pred.write_text("1\ta\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n"
                        "1\tb\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n", encoding="utf-8")
        code, _, err = run(["eval", str(gold), str(pred)], capsys)
        assert code == 2
        assert "sentence count" in err

    def test_form_differing_in_one_multi_byte_character_exits_two(self, tmp_path, capsys):
        # ``é`` and ``è`` have the same UTF-8 length and differ in one byte.
        gold = tmp_path / "gold.conllu"
        gold.write_text("1\tcafé\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n", encoding="utf-8")
        pred = tmp_path / "pred.conllu"
        pred.write_text("1\tcafè\t_\tNOUN\t_\t_\t0\t_\t_\t_\n\n", encoding="utf-8")
        code, out, err = run(["eval", str(gold), str(pred)], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: sentence 1, token 1: form mismatch "
                       "(gold 'café', predicted 'cafè')\n")


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
        corpus = as_corpus([make_sentence(EXAMPLE_TAGS, EXAMPLE_FORMS)])
        parsed = parse_corpus(corpus, adp_direction="right")
        assert parsed.per_sentence(parsed.predicted) == [list(EXAMPLE_HEADS)]
        assert corpus.predicted is None
        assert parsed[0] == corpus[0]

    def test_parse_corpus_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            parse_corpus([make_sentence(["NOUN"])], mode="bogus")

    @pytest.mark.parametrize("weight", [float("inf"), float("nan")])
    def test_parse_corpus_rejects_non_finite_personalization_weight(self, weight):
        with pytest.raises(ValueError, match="personalization weight"):
            parse_corpus([make_sentence(["NOUN", "VERB"])], personalization_weight=weight)

    # Every mode refuses what the ranked ``udp`` mode refuses, also with
    # the naive tags, whether or not the mode uses the argument.
    BAD_ARGUMENTS = ({"teleport": 5.0}, {"teleport": 0.0},
                     {"personalization_weight": float("nan")},
                     {"personalization_weight": -1.0}, {"adp_direction": "sideways"})

    @pytest.mark.parametrize("mode", ["udp", "udp-nopr", "baseline", "adjacency"])
    @pytest.mark.parametrize("pos_source", ["gold-column", "naive"])
    def test_parse_corpus_rejects_bad_arguments_in_every_mode(self, mode, pos_source):
        corpus = parse_conllu(SAMPLE_PATH.read_text(encoding="utf-8"))
        for bad in self.BAD_ARGUMENTS:
            with pytest.raises(ValueError):
                parse_corpus(corpus, mode=mode, pos_source=pos_source, **bad)

    def test_backoff_direction_enum(self):
        corpus = [make_sentence(["NOUN", "VERB", "NOUN"])]
        parsed = parse_corpus(corpus, mode="adjacency",
                              backoff_direction=Direction.LEFT)
        assert parsed.predicted.tolist() == [0, 1, 2]


# The north star's correctness clause, one check per parsed corpus: every
# corpus that the reader accepts parses to single-rooted, connected, acyclic
# trees whose function words are leaves in the ranked modes and the naive
# scenario, to trees in ``adjacency``, and to one root per sentence in
# ``baseline``, whose neighbor fallback may close a cycle.  The number is how
# many of ``tree_violations``' columns must stay clear.
TREE_CHECKS = (({"mode": "udp"}, 3), ({"mode": "udp-nopr"}, 3), ({"pos_source": "naive"}, 3),
               *(({"mode": mode, "backoff_direction": direction}, checked)
                 for mode, checked in (("adjacency", 2), ("baseline", 1))
                 for direction in (Direction.RIGHT, Direction.LEFT)))


@given(valid_conllu())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_every_readable_corpus_parses_to_trees(text):
    corpus = parse_conllu(text)
    for options, checked in TREE_CHECKS:
        parsed = parse_corpus(corpus, **options)
        flags = tree_violations(parsed.predicted, parsed.offsets, parsed.tags)
        assert not flags[:, :checked].any(), (options, flags.tolist())


class TestNoTokenObjects:
    """The CLI keeps a corpus columnar from reader to writer: no command
    builds a ``Token``."""

    def test_no_command_builds_a_token(self, tmp_path, capsys):
        built = []
        construct = Token.__init__

        def counted(token, *args, **kwargs):
            built.append(args)
            construct(token, *args, **kwargs)

        parsed = str(tmp_path / "parsed.conllu")
        commands = [["parse", str(MIXED_PATH), *options, "-o", parsed]
                    for options in PARSE_OPTIONS]
        commands += [["eval", parsed, parsed], ["stats", str(MIXED_PATH)]]
        with mock.patch.object(Token, "__init__", counted):
            for argv in commands:
                assert main(argv) == 0, capsys.readouterr().err
                assert built == [], argv
            # The count works: reading a sentence's tokens builds them.
            assert len(parse_conllu(MIXED_PATH.read_text(encoding="utf-8"))[0].tokens) == 5
        assert len(built) == 5


class TestNoLineStrings:
    """``parse``, ``eval`` and ``stats`` work on the bytes that they read:
    none decodes a token line, form or comment into a string."""

    @pytest.mark.parametrize("options", PARSE_OPTIONS)
    def test_parse_decodes_no_line(self, options, tmp_path, capsys):
        read = []

        def recorded(source):
            read.append(read_conllu(source))
            return read[-1]

        with mock.patch("udparse.cli.read_conllu", recorded):
            assert main(["parse", str(MIXED_PATH), *options,
                         "-o", str(tmp_path / "parsed.conllu")]) == 0
        assert len(read) == 1
        assert decoded(read[0]) == set()

    def test_eval_and_stats_decode_no_line(self, tmp_path, capsys):
        parsed = str(tmp_path / "parsed.conllu")
        assert main(["parse", str(SAMPLE_PATH), "-o", parsed]) == 0
        read = []

        def recorded(source):
            read.append(read_conllu(source))
            return read[-1]

        with mock.patch("udparse.cli.read_conllu", recorded):
            for argv in (["eval", str(SAMPLE_PATH), parsed], ["stats", str(SAMPLE_PATH)]):
                assert main(argv) == 0, capsys.readouterr().err
        assert len(read) == 3
        assert all(decoded(corpus) == set() for corpus in read)
        # The check works: a corpus's comments are decoded on first use.
        assert read[0].comments[0] and decoded(read[0]) == {"all_lines", "comments"}


# Peak memory without timing: some numpy calls (``np.unique`` among them)
# import ``numpy.ma`` on first use, which costs every command more than a
# megabyte of peak RSS.  A fresh interpreter runs each command and then
# reports whether the module got loaded.
_NO_MASKED_ARRAYS = """
import sys
from udparse.cli import main
mixed, parsed = sys.argv[1:]
for options in (["--mode", "udp"], ["--mode", "udp-nopr"], ["--mode", "baseline"],
                ["--mode", "adjacency"], ["--pos", "naive"]):
    assert main(["parse", mixed, *options, "-o", parsed]) == 0, options
assert main(["eval", parsed, parsed]) == 0
assert main(["stats", mixed]) == 0
print("numpy.ma" in sys.modules)
"""


def test_no_command_imports_masked_arrays(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAYS, str(MIXED_PATH), str(tmp_path / "parsed")],
        capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "udparse", "stats", str(SAMPLE_PATH)],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV)
    assert result.returncode == 0
    assert "sentences\t3" in result.stdout
