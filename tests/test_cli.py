"""CLI surface: outputs, exit codes, determinism, error paths."""

from __future__ import annotations

import json
import time
from fractions import Fraction as F

import pytest

from rankpoly.cli import main
from rankpoly.graphio import (
    MAX_VERTICES,
    GraphFormatError,
    format_fraction,
    load_graph,
    parse_edge_list,
    parse_fraction,
    parse_structured,
)


@pytest.fixture
def k2(tmp_path):
    p = tmp_path / "k2.txt"
    p.write_text("0 1\n")
    return str(p)


@pytest.fixture
def c4(tmp_path):
    p = tmp_path / "c4.txt"
    p.write_text("0 1\n1 2\n2 3\n3 0\n")
    return str(p)


@pytest.fixture
def path8(tmp_path):
    p = tmp_path / "path8.txt"
    p.write_text("".join(f"{i} {i+1}\n" for i in range(7)))
    return str(p)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_r2p_k2(self, capsys, k2):
        code, out, _ = run_cli(capsys, "eval", "r2p", "--graph", k2, "--lambda", "1/2", "--mu", "1")
        assert code == 0
        assert out.splitlines()[0] == "3/2"

    def test_fraction_round_trips(self, capsys, c4):
        # negative fractions need the --flag=value spelling under argparse
        code, out, _ = run_cli(capsys, "eval", "r2p", "--graph", c4, "--lambda", "2/3", "--mu=-1/7")
        assert code == 0
        text = out.splitlines()[0]
        from rankpoly.exact import r2_prime
        from rankpoly.graphs import bipartition_of, cycle_graph
        from fractions import Fraction

        assert parse_fraction(text) == r2_prime(
            bipartition_of(cycle_graph(4)), Fraction(2, 3), Fraction(-1, 7)
        ).value

    def test_tutte(self, capsys, k2):
        code, out, _ = run_cli(capsys, "eval", "tutte", "--graph", k2, "--x", "5", "--y", "9")
        assert code == 0 and out.splitlines()[0] == "5"

    def test_zrc(self, capsys, k2):
        code, out, _ = run_cli(capsys, "eval", "zrc", "--graph", k2, "--q", "2", "--mu", "3")
        assert code == 0 and out.splitlines()[0] == "10"

    def test_missing_params_is_domain_error(self, capsys, k2):
        code, _, err = run_cli(capsys, "eval", "r2p", "--graph", k2)
        assert code == 1 and "r2p needs" in err

    def test_value_past_the_float_range(self, capsys, k2):
        code, out, err = run_cli(capsys, "eval", "r2p", "--graph", k2, "--lambda", "1e400", "--mu", "1")
        assert code == 0 and err == ""
        assert out.splitlines() == [str(10**400 + 1), "~ 1e+400"]


class TestCount:
    def test_bis_c4(self, capsys, c4):
        code, out, _ = run_cli(capsys, "count", "bis", "--graph", c4)
        assert code == 0 and out.splitlines()[0] == "7"

    def test_matchings(self, capsys, c4):
        code, out, _ = run_cli(capsys, "count", "matchings", "--graph", c4)
        assert code == 0 and out.splitlines()[0] == "7"

    def test_pbis_requires_eta(self, capsys, c4):
        code, _, err = run_cli(capsys, "count", "pbis", "--graph", c4)
        assert code == 1 and "eta" in err

    @pytest.mark.parametrize("limit", ["0", "1", "26"])
    def test_is_refuses_max_edges(self, capsys, c4, limit):
        # the branching oracle enumerates vertices, so no edge limit applies
        code, out, err = run_cli(capsys, "count", "is", "--graph", c4, "--max-edges", limit)
        assert code == 1 and out == ""
        assert err == "error: count is enumerates no edge subsets; --max-edges does not apply\n"


class TestLw:
    def test_path8_natural(self, capsys, path8):
        code, out, _ = run_cli(capsys, "lw", "--graph", path8, "--ordering", "natural")
        assert code == 0 and out.strip() == "1"

    def test_optimal_c4(self, capsys, c4):
        code, out, _ = run_cli(capsys, "lw", "--graph", c4, "--optimal")
        assert code == 0 and out.strip() == "2"

    def test_ordering_file(self, capsys, c4, tmp_path):
        f = tmp_path / "ord.txt"
        f.write_text("3 2 1 0\n")
        code, out, _ = run_cli(capsys, "lw", "--graph", c4, "--ordering", f"file:{f}")
        assert code == 0 and out.strip() == "2"

    @pytest.mark.parametrize("cmd", [
        ("lw",),
        ("mix", "--family", "rc", "--q", "2", "--mu", "1"),
    ])
    @pytest.mark.parametrize("text, fragment", [
        ("a b\n", "must hold edge ids only"),
        ("0 1.5 2 3\n", "must hold edge ids only"),
        ("0 1 2\n", "is not a permutation of the edge ids"),
        (None, "cannot read ordering file"),
    ])
    def test_bad_ordering_file_is_one_line(self, capsys, c4, tmp_path, cmd, text, fragment):
        f = tmp_path / "ord.txt"
        if text is not None:
            f.write_text(text)
        code, out, err = run_cli(capsys, cmd[0], "--graph", c4, "--ordering", f"file:{f}", *cmd[1:])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and fragment in err and str(f) in err
        assert "Traceback" not in err and "invalid literal" not in err

    def test_treedec(self, capsys, c4, tmp_path):
        f = tmp_path / "td.json"
        f.write_text(json.dumps({"tree_edges": [[0, 1]], "bags": [[0, 1, 2], [0, 2, 3]]}))
        code, out, _ = run_cli(capsys, "lw", "--graph", c4, "--treedec", str(f))
        assert code == 0 and out.strip().isdigit()

    def test_treedec_tree_edges_are_optional(self, capsys, tmp_path):
        graph = tmp_path / "p4.txt"
        graph.write_text("0 1\n1 2\n2 3\n")
        f = tmp_path / "td.json"
        f.write_text(json.dumps({"bags": [[0, 1, 2, 3]]}))
        code, out, _ = run_cli(capsys, "lw", "--graph", str(graph), "--treedec", str(f))
        assert code == 0 and out.strip() == "1"

    @pytest.mark.parametrize("doc, fragment", [
        ('{"tree_edges": []}', "'bags' list"),
        ('{"bags": 5}', "'bags' list"),
        ("[1, 2]", "'bags' list"),
        ('{"bags": [[0, 1], [1, 2], [2, 3]], "tree_edges": [[0, 1, 2]]}', "[a, b] pair"),
        ('{"bags": [[0, 1, true], [1, 2], [2, 3]], "tree_edges": [[0, 1], [1, 2]]}',
         "must be a JSON integer, got true"),
    ])
    def test_malformed_treedec_is_one_line(self, capsys, tmp_path, doc, fragment):
        graph = tmp_path / "p4.txt"
        graph.write_text("0 1\n1 2\n2 3\n")
        f = tmp_path / "td.json"
        f.write_text(doc)
        code, out, err = run_cli(capsys, "lw", "--graph", str(graph), "--treedec", str(f))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and fragment in err and "Traceback" not in err


class TestSample:
    def test_deterministic_output(self, capsys, c4):
        args = ("sample", "rws", "--graph", c4, "--lambda", "1/2", "--mu", "1",
                "--steps", "300", "--seed", "11", "--thin", "50")
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        code, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_summary_line_is_json(self, capsys, c4):
        code, out, _ = run_cli(
            capsys, "sample", "rc", "--graph", c4, "--q", "2", "--mu", "1",
            "--steps", "100", "--seed", "3",
        )
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        assert set(summary) >= {"acceptance_rate", "final_subset", "final_statistic"}

    def test_sample_lines_are_hex_subsets(self, capsys, c4):
        code, out, _ = run_cli(
            capsys, "sample", "rws", "--graph", c4, "--lambda", "1", "--mu", "1",
            "--steps", "120", "--seed", "5", "--thin", "40",
        )
        lines = out.splitlines()
        assert code == 0 and len(lines) == 4  # 3 samples + summary
        for line in lines[:-1]:
            assert 0 <= int(line, 16) < 16


    @pytest.mark.parametrize("flag", ["--thin", "--burnin"])
    def test_negative_thin_or_burnin_is_one_line(self, capsys, c4, flag):
        code, out, err = run_cli(
            capsys, "sample", "rws", "--graph", c4, "--lambda", "1/2", "--mu", "1",
            "--steps", "100", flag, "-3",
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and f"{flag[2:]} must be nonnegative" in err


class TestMix:
    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "2", "1", "inf", "-inf"])
    def test_eps_outside_the_unit_interval_is_one_line(self, capsys, monkeypatch, c4, eps):
        from rankpoly import mixing

        def no_chain(*args, **kwargs):
            raise AssertionError("the chain was built before eps was checked")

        monkeypatch.setattr(mixing, "ExactChain", no_chain)
        code, out, err = run_cli(
            capsys, "mix", "--graph", c4, "--family", "rc", "--q", "2", "--mu", "1", f"--eps={eps}",
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "eps must lie strictly between 0 and 1" in err

    def test_exact_summary(self, capsys, tmp_path, c4):
        csv = tmp_path / "tv.csv"
        code, out, _ = run_cli(
            capsys, "mix", "--graph", c4, "--family", "rc", "--q", "2",
            "--mu", "1", "--eps", "0.25", "--csv-out", str(csv),
        )
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        assert summary["bound_satisfied"] is True
        assert summary["tau"] >= 1
        header = csv.read_text().splitlines()[0]
        assert header.startswith("step,tv_from_")

    def test_csv_out_with_empirical_is_refused_before_loading(self, capsys, tmp_path):
        csv = tmp_path / "tv.csv"
        code, out, err = run_cli(
            capsys, "mix", "--graph", str(tmp_path / "absent.txt"), "--family", "rws",
            "--lambda", "1/2", "--mu", "1", "--empirical", "2000", "--csv-out", str(csv),
        )
        assert code == 1 and out == "" and not csv.exists()
        assert err == "error: --empirical draws no TV curve; --csv-out needs the exact mode\n"

    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_empirical_below_one_is_refused_before_loading(self, capsys, monkeypatch, tmp_path, steps):
        from rankpoly import mixing

        def forbidden(*args):
            raise AssertionError("built an exact chain for a refused --empirical")

        monkeypatch.setattr(mixing, "ExactChain", forbidden)
        code, out, err = run_cli(
            capsys, "mix", "--graph", str(tmp_path / "absent.txt"), "--family", "rws",
            "--lambda", "1/2", "--mu", "1", "--empirical", steps,
        )
        assert code == 1 and out == ""
        assert err == f"error: --empirical must be at least 1, got {steps}\n"

    def test_start_matrix_limit_is_one_line(self, capsys, tmp_path):
        path17 = tmp_path / "p17.txt"
        path17.write_text("".join(f"{i} {i + 1}\n" for i in range(16)))
        code, out, err = run_cli(
            capsys, "mix", "--graph", str(path17), "--family", "rws", "--lambda", "1/2",
            "--mu", "1", "--starts", "all",
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "start matrix" in err

    def test_empirical_mode(self, capsys, c4):
        code, out, _ = run_cli(
            capsys, "mix", "--graph", c4, "--family", "rws", "--lambda", "1/2",
            "--mu", "1", "--empirical", "20000", "--seed", "1",
        )
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        assert summary["empirical_tv"] < 0.1


class TestReduce:
    def test_tutte_cert(self, capsys, k2):
        code, out, _ = run_cli(
            capsys, "reduce", "tutte", "--graph", k2, "--x", "-3", "--y", "2"
        )
        assert code == 0
        cert = json.loads(out.strip())
        assert cert["value"] == "-3/1"
        assert len(cert["primes"]) == len(cert["residues"]) == len(cert["ks"])

    def test_bis_cert(self, capsys, k2):
        code, out, _ = run_cli(
            capsys, "reduce", "bis", "--graph", k2, "--eta", "7/9"
        )
        assert code == 0
        cert = json.loads(out.strip())
        assert cert["reconstructed"] == 3


    @pytest.mark.parametrize("edges, count", [
        ("0 1\n1 2\n2 3\n3 4\n", 13),  # P5
        ("0 1\n1 2\n2 3\n3 0\n", 7),  # C4
    ])
    def test_bis_cert_past_the_twin_class_budget(self, capsys, tmp_path, edges, count):
        # the blowups at p = 5 and 13 have many twin classes, most of them
        # in the closed-form independent set
        graph = tmp_path / "g.txt"
        graph.write_text(edges)
        code, out, err = run_cli(capsys, "reduce", "bis", "--graph", str(graph), "--eta", "7/9")
        assert code == 0 and err == ""
        cert = json.loads(out.strip())
        assert cert["reconstructed"] == count
        for p, r in zip(cert["primes"], cert["residues"]):
            assert count % p == r
        assert count <= cert["bound"]

    def test_bis_prime_supply_error_names_the_sum(self, capsys, tmp_path):
        # at eta = 7/9, r = 8: only 5 and 13 divide 8^2 + 1^2, and P6 needs
        # a product above 2 * 2^6
        graph = tmp_path / "p6.txt"
        graph.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n")
        code, out, err = run_cli(capsys, "reduce", "bis", "--graph", str(graph), "--eta", "7/9")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "8^2 + 1^2 = 65" in err


class TestErrors:
    @pytest.mark.parametrize("argv", [
        ("eval", "r2p", "--lambda", "1/2", "--mu", "1", "--threads", "1"),
        ("count", "bis", "--threads", "2"),
        ("reduce", "tutte", "--x", "2", "--y", "3", "--threads", "1"),
        ("mix", "--family", "rc", "--q", "2", "--mu", "1", "--exact"),
    ])
    def test_removed_flags_are_usage_errors(self, capsys, c4, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--graph", c4])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (("sample", "rc", "--q", "2", "--lambda", "3", "--mu", "1", "--steps", "10"),
         "rc takes --q or its alias --lambda, not both"),
        (("eval", "zrc", "--q", "2", "--lambda", "3", "--mu", "1"),
         "zrc takes --q or its alias --lambda, not both"),
        (("mix", "--family", "rc", "--q", "2", "--lambda", "3", "--mu", "1"),
         "rc takes --q or its alias --lambda, not both"),
        (("sample", "rws", "--lambda", "1/2", "--q", "3", "--mu", "1", "--steps", "10"),
         "rws takes --lambda, not --q"),
        (("mix", "--family", "rws", "--lambda", "1/2", "--q", "3", "--mu", "1"),
         "rws takes --lambda, not --q"),
        (("eval", "r2", "--lambda", "2", "--q", "5", "--mu", "1"), "r2 takes --lambda, not --q"),
        (("eval", "r2p", "--lambda", "2", "--q", "5", "--mu", "1"), "r2p takes --lambda, not --q"),
    ])
    def test_unused_or_doubled_weight_flag_is_one_line(self, capsys, c4, argv, message):
        code, out, err = run_cli(capsys, *argv, "--graph", c4)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_lambda_is_the_q_alias(self, capsys, k2):
        _, by_q, _ = run_cli(capsys, "eval", "zrc", "--graph", k2, "--q", "3", "--mu", "1")
        _, by_lambda, _ = run_cli(capsys, "eval", "zrc", "--graph", k2, "--lambda", "3", "--mu", "1")
        assert by_q == by_lambda == "12\n~ 12\n"

    def test_unreadable_graph(self, capsys):
        code, _, err = run_cli(capsys, "count", "bis", "--graph", "/nonexistent/x.txt")
        assert code == 1 and "cannot read graph file" in err

    def test_malformed_fraction_usage_error(self, capsys, k2):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "r2p", "--graph", k2, "--lambda", "x/y", "--mu", "1"])
        assert exc.value.code == 2

    def test_limit_exceeded(self, capsys, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("".join(f"0 {i}\n" for i in range(1, 30)))
        code, _, err = run_cli(capsys, "count", "bis", "--graph", str(big))
        assert code == 1 and "limit" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_negative_vertex_count(self, capsys, tmp_path):
        neg = tmp_path / "neg.json"
        neg.write_text('{"n": -3, "edges": []}')
        code, _, err = run_cli(capsys, "eval", "zrc", "--graph", str(neg), "--q", "2", "--mu", "1")
        assert code == 1 and len(err.splitlines()) == 1 and "nonnegative" in err

    def test_nonbipartite_r2p(self, capsys, tmp_path):
        tri = tmp_path / "k3.txt"
        tri.write_text("0 1\n1 2\n2 0\n")
        code, _, err = run_cli(
            capsys, "eval", "r2p", "--graph", str(tri), "--lambda", "1/2", "--mu", "1"
        )
        assert code == 1 and "bipartite" in err


MALFORMED_GRAPHS = [
    {"n": 2, "edges": [[0.5, 1]]},
    {"n": 2, "edges": [[0, 1.0]]},
    {"n": "x", "edges": []},
    {"n": 2.0, "edges": [[0, 1]]},
    {"n": True, "edges": []},
    {"n": 2, "edges": [[1]]},
    {"n": 2, "edges": [[0, 1, 1]]},
    {"n": 2, "edges": {"0": 1}},
    {"n": 2, "edges": [[False, True]]},
    {"n": 2, "edges": [[0, 1]], "U": [0.0], "W": [1]},
    {"n": 2, "edges": [[0, 1]], "U": 0, "W": [1]},
    {"n": 2, "edges": [[0, 1]], "U": [0]},
    {"n": 2, "edges": [[0, 2]]},
    {"n": MAX_VERTICES + 1, "edges": [[0, 1]]},
]


class TestStrictGraphFiles:
    @pytest.mark.parametrize("doc", MALFORMED_GRAPHS, ids=json.dumps)
    def test_malformed_document_is_one_format_error_line(self, capsys, tmp_path, doc):
        with pytest.raises(GraphFormatError):
            parse_structured(json.dumps(doc))
        f = tmp_path / "g.json"
        f.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "eval", "r2p", "--graph", str(f), "--lambda", "1/2", "--mu", "1")
        assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_huge_vertex_count_is_refused_before_building(self, capsys, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"n": 100000000, "edges": [[0, 1]]}')
        began = time.perf_counter()
        code, _, err = run_cli(capsys, "eval", "r2p", "--graph", str(f), "--lambda", "1/2", "--mu", "1")
        assert code == 1 and "exceeds the limit" in err
        assert time.perf_counter() - began < 1.0

    def test_huge_edge_list_id_is_refused(self):
        with pytest.raises(GraphFormatError, match="exceeds the limit"):
            parse_edge_list(f"0 {10**20}\n")

    def test_vertex_limit_is_inclusive(self):
        g, _ = parse_structured(json.dumps({"n": MAX_VERTICES, "edges": []}))
        assert g.n == MAX_VERTICES


class TestGraphIo:
    def test_edge_list_with_names(self):
        g = parse_edge_list("a b\nb c # comment\n\n")
        assert g.n == 3 and g.m == 2
        assert g.labels == ("a", "b", "c")

    def test_edge_list_whitespace_tolerant(self):
        g = parse_edge_list("  0\t 1 \n\n   1    2\r\n# full comment\n 2 3\n")
        assert g.n == 4 and g.m == 3

    def test_edge_list_non_decimal_digit_is_a_name(self):
        # '²' is a digit to str.isdigit, but int() refuses it
        g = parse_edge_list("0 1\n1 \u00b2\n")
        assert g.n == 3 and g.edges == ((0, 1), (1, 2))
        assert g.labels == ("0", "1", "\u00b2")

    def test_edge_list_integer_ids_preserve_gaps(self):
        g = parse_edge_list("0 2\n")
        assert g.n == 3 and g.isolated_count() == 1

    def test_json_with_sides(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]], "U": [0, 2], "W": [1]}))
        g, bip = load_graph(f)
        assert bip is not None and bip.side_w == (1,)

    def test_json_isolated_vertices(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text(json.dumps({"n": 5, "edges": [[0, 1]]}))
        g, _ = load_graph(f)
        assert g.isolated_count() == 3

    def test_format_fraction(self):
        from fractions import Fraction

        assert format_fraction(Fraction(3, 2)) == "3/2"
        assert format_fraction(Fraction(-7)) == "-7"
        assert parse_fraction(format_fraction(Fraction(-22, 7))) == Fraction(-22, 7)

    def test_selftest_quick(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--quick")
        assert code == 0
        report = json.loads(out.splitlines()[-1])
        assert all(report.values())

    def test_selftest_detects_broken_flip(self, capsys, monkeypatch):
        from rankpoly.gf2 import RankProfile

        original = RankProfile.flip_entry

        def corrupted(self, i, j):
            original(self, i, j)
            return self.rank + (1 if (i + j) % 5 == 0 else 0)

        monkeypatch.setattr(RankProfile, "flip_entry", corrupted)
        code, out, _ = run_cli(capsys, "selftest", "--quick")
        assert code == 1
        report = json.loads(out.splitlines()[-1])
        assert report["rank-flip-consistency"] is False

    def test_selftest_detects_broken_probe(self, capsys, monkeypatch):
        from rankpoly.gf2 import RankProfile

        original = RankProfile.delta_if_flip

        def corrupted(self, rows, cols):
            d = original(self, rows, cols)
            return 0 if d < 0 else d

        monkeypatch.setattr(RankProfile, "delta_if_flip", corrupted)
        code, out, _ = run_cli(capsys, "selftest", "--quick")
        assert code == 1
        report = json.loads(out.splitlines()[-1])
        assert report["rank-flip-consistency"] is False

    def test_selftest_detects_broken_rank_walk(self, capsys, monkeypatch):
        from rankpoly import exact

        original = exact.gray_ranks

        def corrupted(*args):
            for subset, r in original(*args):
                yield subset, r - (subset == 1)

        monkeypatch.setattr(exact, "gray_ranks", corrupted)
        code, out, _ = run_cli(capsys, "selftest", "--quick")
        assert code == 1
        report = json.loads(out.splitlines()[-1])
        assert report["structure-routes"] is False

    def test_selftest_detects_broken_chain_rank_table(self, capsys, monkeypatch):
        from rankpoly import mixing

        original = mixing._rank_table

        def corrupted(*args):
            table = original(*args)
            table[-1] -= 1
            return table

        monkeypatch.setattr(mixing, "_rank_table", corrupted)
        code, out, _ = run_cli(capsys, "selftest", "--quick")
        assert code == 1
        report = json.loads(out.splitlines()[-1])
        assert report["detailed-balance"] is False

    def test_selftest_detects_broken_row_dp(self, capsys, monkeypatch):
        from rankpoly import exact

        original = exact._row_space_table

        def corrupted(rows, last):
            table = original(rows, last)
            table[max(table)] += 1
            return table

        monkeypatch.setattr(exact, "_row_space_table", corrupted)
        code, out, _ = run_cli(capsys, "selftest", "--quick")
        assert code == 1
        report = json.loads(out.splitlines()[-1])
        assert report["structure-routes"] is False

    def test_selftest_detects_broken_tree_table(self, capsys, monkeypatch):
        from rankpoly import exact

        original = exact._tree_matching_table

        def corrupted(t):
            table = original(t)
            if t.m >= 3:
                table[(0, 0)] += 1
            return table

        monkeypatch.setattr(exact, "_tree_matching_table", corrupted)
        code, out, _ = run_cli(capsys, "selftest", "--quick")
        assert code == 1
        report = json.loads(out.splitlines()[-1])
        assert report["structure-routes"] is False


class TestMaxEdges:
    @pytest.mark.parametrize("argv", [
        ("eval", "r2p", "--lambda", "1", "--mu", "1"),
        ("eval", "r2", "--lambda", "1", "--mu", "1"),
        ("eval", "zrc", "--q", "2", "--mu", "1"),
        ("eval", "tutte", "--x", "2", "--y", "3"),
        ("count", "bis"),
        ("count", "pbis", "--eta", "1/3"),
        ("count", "matchings"),
        ("count", "perfect-matchings"),
        ("count", "is"),
    ])
    @pytest.mark.parametrize("text", ["0 1\n", "0 1\n1 2\n", '{"n": 2, "edges": []}'])
    def test_negative_is_refused_in_one_line(self, capsys, tmp_path, argv, text):
        p = tmp_path / "g.txt"
        p.write_text(text)
        code, out, err = run_cli(capsys, *argv[:2], "--graph", str(p), *argv[2:], "--max-edges", "-1")
        assert code == 1 and out == ""
        assert err == "error: max_edges must be nonnegative, got -1\n"

    def test_zero_is_a_limit(self, capsys, k2):
        code, _, err = run_cli(capsys, "eval", "r2p", "--graph", k2, "--lambda", "1", "--mu", "1",
                               "--max-edges", "0")
        assert code == 1 and err == "error: 1 edges exceeds enumeration limit 0\n"


def test_value_past_the_integer_string_limit(capsys, k2):
    import sys

    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "eval", "r2p", "--graph", k2, "--lambda", "1e5000", "--mu", "1")
    assert code == 0 and err == ""
    exact_line, approx = out.splitlines()
    assert len(exact_line) == 5001 and exact_line == "1" + "0" * 4999 + "1"
    assert approx == "~ 1e+5000"
    assert format_fraction(F(10**5000 + 1, 3)) == "1" + "0" * 4999 + "1/3"
    assert sys.get_int_max_str_digits() == limit


def test_selftest_detects_purity_without_the_pendant(capsys, monkeypatch):
    from rankpoly import exact

    def without_pendant(ups, root, lam, mu, max_edges=None):
        # every subset counted as root-pure: the pendant table never consulted
        table = exact.bipartite_rank_size_counts(ups, max_edges)
        return F(lam) ** -len(ups.side_u) * exact.evaluate_table(table, F(lam), F(mu)), F(0)

    monkeypatch.setattr(exact, "purity_split_sums", without_pendant)
    code, out, _ = run_cli(capsys, "selftest", "--quick")
    assert code == 1
    report = json.loads(out.splitlines()[-1])
    assert report["gadget-closed-forms"] is False


def test_selftest_detects_broken_incidence_rows(capsys, monkeypatch):
    from rankpoly import exact

    original = exact._incidence_rows

    def corrupted(g):
        # each vertex retires one row before its last edge
        rows, last = original(g)
        return rows, last[1:] + [0]

    monkeypatch.setattr(exact, "_incidence_rows", corrupted)
    code, out, _ = run_cli(capsys, "selftest", "--quick")
    assert code == 1
    report = json.loads(out.splitlines()[-1])
    assert report["structure-routes"] is False


@pytest.mark.parametrize("skip", [0, 1, 2, 3])
def test_selftest_detects_a_fold_that_skips_one_edge(capsys, monkeypatch, skip):
    from rankpoly import mixing, selftest

    original = mixing._fold

    def corrupted(s, sk, e):
        return (s, sk) if e == skip else original(s, sk, e)

    monkeypatch.setattr(mixing, "_fold", corrupted)
    ok, detail = selftest.check_congestion_bounds()
    assert not ok and "path walk" in detail
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    report = json.loads(out.splitlines()[-1])
    assert report["congestion-bounds"] is False


def test_quick_selftest_detects_a_fold_that_skips_one_edge(capsys, monkeypatch):
    from rankpoly import mixing

    original = mixing._fold
    monkeypatch.setattr(mixing, "_fold", lambda s, sk, e: (s, sk) if e == 1 else original(s, sk, e))
    code, out, _ = run_cli(capsys, "selftest", "--quick")
    assert code == 1
    assert json.loads(out.splitlines()[-1])["congestion-bounds"] is False


def test_quick_selftest_detects_block_words_off_by_one(capsys, monkeypatch):
    from rankpoly.rng import SplitMix64

    original = SplitMix64.words

    def shifted(self, k):
        # the block starts one word late, the state ends where it should
        out = original(self, k + 1)[1:]
        self.unread(1)
        return out

    monkeypatch.setattr(SplitMix64, "words", shifted)
    code, out, _ = run_cli(capsys, "selftest", "--quick")
    assert code == 1
    report = json.loads(out.splitlines()[-1])
    assert report["sampler-determinism"] is False
    assert "words(1)" in out


class TestUnreadFlagsRefused:
    """A flag the command would not read is one error line and exit 1."""

    @pytest.mark.parametrize("flag", ["--lambda", "--q", "--mu"])
    def test_tutte_takes_no_weights(self, capsys, k2, flag):
        code, out, err = run_cli(capsys, "eval", "tutte", "--graph", k2, "--x", "2", "--y", "3", flag, "5")
        assert code == 1 and out == ""
        assert err == f"error: tutte does not take {flag}\n"

    @pytest.mark.parametrize("flag", ["--x", "--y"])
    def test_zrc_takes_no_tutte_point(self, capsys, k2, flag):
        code, out, err = run_cli(capsys, "eval", "zrc", "--graph", k2, "--q", "2", "--mu", "1", flag, "5")
        assert code == 1 and out == ""
        assert err == f"error: zrc does not take {flag}\n"

    @pytest.mark.parametrize("poly", ["r2p", "r2"])
    @pytest.mark.parametrize("flag", ["--x", "--y"])
    def test_rank_sums_take_no_tutte_point(self, capsys, k2, poly, flag):
        code, out, err = run_cli(capsys, "eval", poly, "--graph", k2, "--lambda", "2", "--mu", "1", flag, "5")
        assert code == 1 and out == ""
        assert err == f"error: {poly} does not take {flag}\n"

    def test_sample_burnin_without_thin(self, capsys, c4):
        code, out, err = run_cli(
            capsys, "sample", "rws", "--graph", c4, "--lambda", "1/2", "--mu", "1",
            "--steps", "100", "--burnin", "5",
        )
        assert code == 1 and out == ""
        assert err == "error: --burnin only delays recording; it needs --thin\n"

    def test_sample_burnin_with_thin_still_runs(self, capsys, c4):
        code, out, _ = run_cli(
            capsys, "sample", "rws", "--graph", c4, "--lambda", "1/2", "--mu", "1",
            "--steps", "100", "--burnin", "50", "--thin", "10",
        )
        assert code == 0 and json.loads(out.splitlines()[-1])["retained"] == 5

    @pytest.mark.parametrize("what", ["bis", "matchings", "perfect-matchings", "is"])
    def test_count_eta_only_for_pbis(self, capsys, tmp_path, what):
        # a missing graph file: the refusal comes before the graph is read
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(capsys, "count", what, "--graph", missing, "--eta", "1/3")
        assert code == 1 and out == ""
        assert err == f"error: count {what} does not take --eta\n"

    @pytest.mark.parametrize("argv,message", [
        (("count", "pbis"), "pbis needs --eta"),
        (("eval", "r2p", "--mu", "1"), "r2p needs --lambda and --mu"),
        (("eval", "r2", "--lambda", "2"), "r2 needs --lambda and --mu"),
        (("eval", "zrc", "--mu", "1"), "zrc needs --q and --mu"),
        (("eval", "tutte", "--x", "2"), "tutte needs --x and --y"),
    ])
    def test_missing_values_named_before_the_graph_is_read(self, capsys, tmp_path, argv, message):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(capsys, *argv, "--graph", missing)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flag", [
        ("--ordering", "natural"),
        ("--ordering", "dfs"),
        ("--treedec", "td.json"),
        ("--verbose",),
    ])
    def test_lw_optimal_takes_no_ordering_flags(self, capsys, tmp_path, flag):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(capsys, "lw", "--graph", missing, "--optimal", *flag)
        assert code == 1 and out == ""
        assert err == f"error: lw --optimal does not take {flag[0]}\n"

    @pytest.mark.parametrize("spec", ["natural", "dfs"])
    def test_lw_treedec_takes_no_ordering(self, capsys, tmp_path, spec):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(capsys, "lw", "--graph", missing, "--treedec", "td.json", "--ordering", spec)
        assert code == 1 and out == ""
        assert err == "error: lw --treedec does not take --ordering\n"

    def test_mix_seed_without_empirical(self, capsys, c4):
        code, out, err = run_cli(
            capsys, "mix", "--graph", c4, "--family", "rc", "--q", "2", "--mu", "1", "--seed", "99",
        )
        assert code == 1 and out == ""
        assert err == "error: mix without --empirical does not take --seed\n"

    @pytest.mark.parametrize("starts", ["policy", "trio", "all"])
    def test_mix_empirical_with_starts(self, capsys, c4, starts):
        code, out, err = run_cli(
            capsys, "mix", "--graph", c4, "--family", "rc", "--q", "2", "--mu", "1",
            "--empirical", "1000", "--starts", starts,
        )
        assert code == 1 and out == ""
        assert err == "error: mix --empirical does not take --starts\n"

    def test_mix_empirical_seed_defaults_to_zero(self, capsys, c4):
        args = ("mix", "--graph", c4, "--family", "rc", "--q", "2", "--mu", "1", "--empirical", "3000")
        code, implicit, _ = run_cli(capsys, *args)
        assert code == 0
        code, explicit, _ = run_cli(capsys, *args, "--seed", "0")
        assert code == 0 and explicit == implicit
