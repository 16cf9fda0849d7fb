"""CLI dispatch, exit codes, file outputs, and reproducibility."""

import ast
import json
import math
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import cli_env
from misrecon import cli, graphs, schemes
from misrecon.cli import main
from misrecon.graphs import graph_from_text


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_writes_valid_graph_and_reports_degree(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code, stdout, _ = run_cli(
            ["generate", "--family", "thm2", "--n", "9", "--delta", "2",
             "--seed", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        g = graph_from_text(out.read_text())
        assert g.n == 9 and g.delta <= 2
        assert "max_degree" in stdout and "seed=1" in stdout

    def test_degree_zero_graph_is_empty(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code, _, _ = run_cli(
            ["generate", "--family", "random", "--n", "10", "--delta", "0",
             "--seed", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert graph_from_text(out.read_text()).num_edges == 0

    def test_vertex_pairs_over_cap_exit_three(self, capsys):
        # 4.5e8 candidate edges, about 54 GB, used to end in a MemoryError
        start = time.perf_counter()
        code, stdout, err = run_cli(
            ["generate", "--family", "random", "--n", "30000", "--delta", "2", "--seed", "1"],
            capsys,
        )
        assert (code, stdout) == (3, "")
        assert err == "capacity exceeded: 449985000 vertex pairs of n=30000 exceed cap 5000000\n"
        assert time.perf_counter() - start < 1.0

    def test_invalid_parameters_exit_nonzero(self, capsys):
        code, _, err = run_cli(
            ["generate", "--family", "random", "--n", "5", "--delta", "10",
             "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert "error" in err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            code, stdout, _ = run_cli(
                ["generate", "--family", "random", "--n", "20", "--delta", "4",
                 "--density", "0.5", "--seed", "7", "--out", str(out)],
                capsys,
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestReconstruct:
    def test_cff_pipeline_exact_match(self, tmp_path, capsys):
        out = tmp_path / "dec.txt"
        code, stdout, _ = run_cli(
            ["reconstruct", "--n", "8", "--delta", "2", "--family", "random",
             "--seed", "11", "--scheme-kind", "cff", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "exact-match: true" in stdout
        assert out.read_text().rstrip().endswith("unknown 0")

    def test_undersized_scheme_reports_unknowns(self, tmp_path, capsys):
        out = tmp_path / "dec.txt"
        code, stdout, _ = run_cli(
            ["reconstruct", "--n", "12", "--delta", "2", "--seed", "11",
             "--scheme-kind", "randomized", "--c", "0.1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "unknown 0" not in out.read_text()

    def test_corrupted_scheme_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "scheme.txt"
        bad.write_text("this is not a scheme\n")
        code, _, err = run_cli(
            ["reconstruct", "--n", "6", "--delta", "2", "--seed", "1",
             "--scheme", str(bad)],
            capsys,
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "c, message",
        [
            ("inf", "query-count constant must be positive and finite"),
            ("nan", "query-count constant must be positive and finite"),
            ("0", "query-count constant must be positive and finite"),
            # finite, but the query count c * delta^2 * ln n is not
            ("1e308", "parameter too large: cannot convert float infinity to integer"),
        ],
        ids=["inf", "nan", "0", "1e308"],
    )
    def test_bad_query_constant_exits_two(self, c, message, capsys):
        code, stdout, err = run_cli(
            ["reconstruct", "--n", "20", "--delta", "3",
             "--scheme-kind", "randomized", "--c", c, "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert message in err
        assert "Traceback" not in err and not stdout

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--n", "6", "--delta", "0", "--scheme-kind", "cff"], "need delta >= 1"),
            (["--n", "6", "--delta", "0", "--scheme-kind", "randomized"], "need delta >= 1"),
            (["--n", "1", "--delta", "0", "--scheme-kind", "randomized"], "need n >= 2"),
        ],
        ids=["cff-delta", "randomized-delta", "randomized-n"],
    )
    def test_bad_scheme_parameters_exit_two(self, args, message, capsys):
        code, stdout, err = run_cli(["reconstruct", *args, "--seed", "1"], capsys)
        assert (code, err, stdout) == (2, f"error: {message}\n", "")

    def test_vertex_pairs_over_cap_refused_before_generating(self, monkeypatch, capsys):
        # the thm2 sampler is O(n), but decode would ask for a 9.31 GiB n x n Gram
        def refuse(*args):
            raise AssertionError("generated a graph")

        monkeypatch.setattr(cli, "_generate_graph", refuse)
        start = time.perf_counter()
        code, stdout, err = run_cli(
            ["reconstruct", "--n", "50000", "--delta", "1", "--family", "thm2", "--seed", "1",
             "--scheme-kind", "randomized", "--c", "0.01"],
            capsys,
        )
        assert (code, stdout) == (3, "")
        assert err == "capacity exceeded: 1249975000 vertex pairs of n=50000 exceed cap 5000000\n"
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--density", "0.5", "--seed", "1"], "ground size 1039437 exceeds cap 1000000"),
            (["--scheme-kind", "randomized", "--c", "300", "--seed", "1"],
             "random draw of 583750 rows of 2000 bits exceeds cap 1073741824 bits"),
            (["--graph", "missing-graph.txt", "--seed", "1"],
             "ground size 1039437 exceeds cap 1000000"),
        ],
        ids=["cff", "randomized", "cff-graph-file"],
    )
    def test_scheme_cap_refused_before_generating(self, args, message, monkeypatch, capsys):
        # the cff refusal used to come after about 3.8 s of generating the graph
        def refuse(*args):
            raise AssertionError("generated a graph")

        monkeypatch.setattr(cli, "gen_bounded_degree", refuse)
        start = time.perf_counter()
        code, stdout, err = run_cli(["reconstruct", "--n", "2000", "--delta", "16", *args], capsys)
        assert (code, stdout) == (3, "")
        assert err == f"capacity exceeded: {message}\n"
        assert time.perf_counter() - start < 1.0

    def test_transcript_output(self, tmp_path, capsys):
        tr = tmp_path / "tr.jsonl"
        code, _, _ = run_cli(
            ["reconstruct", "--n", "6", "--delta", "1", "--seed", "3",
             "--scheme-kind", "cff", "--transcript-out", str(tr),
             "--out", str(tmp_path / "d.txt")],
            capsys,
        )
        assert code == 0
        first = json.loads(tr.read_text().splitlines()[0])
        assert set(first) == {"query", "answer"}


class TestExperimentDispatch:
    def test_alpha_bound_passes(self, capsys):
        code, stdout, _ = run_cli(
            ["experiment", "alpha-bound", "--w", "2", "--r", "10",
             "--grid", "10000"],
            capsys,
        )
        assert code == 0
        assert "overall: PASS" in stdout

    def test_family_count_pass_and_fail_exit_codes(self, capsys):
        code, stdout, _ = run_cli(
            ["experiment", "family-count", "--n", "9", "--delta", "2"], capsys
        )
        assert code == 0
        assert "exact_count = 28" in stdout
        # delta far above n/3 breaks the chain: binomial bound hits zero
        code, stdout, _ = run_cli(
            ["experiment", "family-count", "--n", "6", "--delta", "5"], capsys
        )
        assert code == 1
        assert "overall: FAIL" in stdout

    def test_exact_t_reports_value(self, capsys):
        code, stdout, _ = run_cli(
            ["experiment", "exact-t", "--n", "6", "--w", "1", "--r", "1"], capsys
        )
        assert code == 0
        assert "measured t = 4" in stdout

    def test_cap_exceeded_exits_three(self, capsys):
        code, _, err = run_cli(
            ["experiment", "profile-count", "--n", "40", "--delta", "8",
             "--queries", "2", "--seed", "1"],
            capsys,
        )
        assert code == 3
        assert "capacity exceeded" in err

    def test_enum_cap_flag_is_unrecognized(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "profile-count", "--n", "12", "--delta", "4",
                  "--queries", "2", "--seed", "1", "--enum-cap", "5"])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --enum-cap 5\n" in capsys.readouterr().err

    def test_cap_environment_variables_change_nothing(self):
        # the capacity limits are module constants: no environment variable
        # is read, so not even a non-integer one ends the run
        argv = [sys.executable, "-m", "misrecon", "experiment", "family-count",
                "--n", "9", "--delta", "2"]
        plain = subprocess.run(argv, capture_output=True, env=cli_env())
        knobs = {f"MISRECON_{name}_CAP": "abc" for name in ("ENUM", "CHECK", "SEARCH", "PAIR")}
        with_knobs = subprocess.run(argv, capture_output=True, env={**cli_env(), **knobs})
        assert plain.returncode == 0, plain.stderr
        assert (with_knobs.returncode, with_knobs.stdout, with_knobs.stderr) == (
            0, plain.stdout, plain.stderr)

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "alpha-bound", "--w", "2"])
        assert exc.value.code == 2
        assert "error: the following arguments are required: --r\n" in capsys.readouterr().err

    def test_missing_seed_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "dq-stats", "--n", "30", "--delta", "6"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["lemma7", "--w", "2", "--r", "1", "--sets", "6", "--ground", "8"],
            ["lemma8", "--w", "2", "--r", "1", "--sets", "6", "--ground", "8"],
            ["dq-stats", "--n", "30", "--delta", "3", "--queries", "5"],
        ],
    )
    def test_zero_trials_exits_two(self, args, capsys):
        code, stdout, err = run_cli(
            ["experiment", *args, "--seed", "1", "--trials", "0"], capsys
        )
        assert code == 2
        assert "need trials >= 1" in err
        assert "Traceback" not in err and not stdout

    def test_duality_zero_delta_exits_two(self, tmp_path, capsys):
        scheme_path = tmp_path / "scheme.txt"
        scheme_path.write_text("4 2\n0 1\n2 3\n")
        code, stdout, err = run_cli(
            ["experiment", "duality", "--delta", "0", "--scheme", str(scheme_path)],
            capsys,
        )
        assert code == 2
        assert "need delta >= 1" in err
        assert "Traceback" not in err and not stdout

    @pytest.mark.parametrize(
        "args, message",
        [
            (["alpha-bound", "--w", "1", "--r", "-1"], "need w, r >= 1"),
            (["alpha-bound", "--w", "0", "--r", "2"], "need w, r >= 1"),
            (["exact-t", "--n", "4", "--w", "-1", "--r", "1"],
             "need w >= 1 and r >= 0"),
            (["exact-t", "--n", "4", "--w", "1", "--r", "-1"],
             "need w >= 1 and r >= 0"),
            (["profile-count", "--n", "9", "--delta", "2", "--queries", "-2",
              "--seed", "5"], "need t >= 0 queries"),
            (["duality", "--n", "6", "--delta", "2", "--queries", "-2",
              "--seed", "4"], "need t >= 0 queries"),
            (["dq-stats", "--n", "30", "--delta", "3", "--queries", "-2",
              "--trials", "5", "--seed", "1"], "need t >= 0 queries"),
            # an empty search or table used to print PASS
            (["exact-t", "--n", "4", "--w", "1", "--r", "1", "--t-max", "-1"],
             "need t_max >= 1"),
            (["exact-t", "--n", "4", "--w", "1", "--r", "1", "--t-max", "0"],
             "need t_max >= 1"),
            (["bound-table", "--n-list", "0", "--delta-list", "1"],
             "no (n, delta) pair satisfies 1 <= delta <= n - 1"),
            (["bound-table", "--n-list", "4,5", "--delta-list", "0,5"],
             "no (n, delta) pair satisfies 1 <= delta <= n - 1"),
            # a random family that cannot exist is refused before any draw
            (["lemma7", "--sets", "5", "--ground", "2", "--w", "1", "--r", "1",
              "--seed", "1"],
             "cannot draw 5 distinct sets: a ground set of 2 has 2^2 subsets"),
            (["lemma7", "--sets", "5", "--ground", "-2", "--w", "1", "--r", "1",
              "--seed", "1"], "need ground size t >= 0, got -2"),
            # named after the scheme, not the dual family built from it
            (["duality", "--n", "0", "--delta", "1", "--queries", "1",
              "--seed", "1"], "need a scheme over n >= 2 vertices, got n = 0"),
            # numbers whose float or C-integer arithmetic overflows
            (["family-count", "--n", "100000", "--delta", "50"], "parameter too large"),
            (["family-count", "--n", str(10**400), "--delta", "2"], "parameter too large"),
            (["bound-table", "--n-list", str(10**400), "--delta-list", "1"],
             "parameter too large"),
            (["dq-stats", "--n", str(10**45), "--delta", "3", "--trials", "2",
              "--seed", "1"], "parameter too large"),
            (["alpha-bound", "--w", str(10**400), "--r", "1", "--grid", "10"],
             "parameter too large"),
            (["lemma7", "--w", "1", "--r", "1", "--seed", "1"],
             "need --family FILE or --sets/--ground for a random family"),
            (["lemma7", "--sets", "4", "--ground", "6", "--density", "1.5", "--w", "1",
              "--r", "1", "--seed", "1"], "density must be in [0, 1]"),
            (["duality", "--n", "6", "--delta", "2", "--queries", "1"],
             "random scheme needs --seed"),
            (["duality", "--delta", "2", "--queries", "1", "--seed", "1"],
             "random scheme needs --n"),
            (["exact-t", "--n", "2", "--w", "2", "--r", "1"], "need w + r <= n"),
            (["alpha-bound", "--w", "1", "--r", "1", "--grid", "1"], "grid_size must be >= 2"),
            (["dq-stats", "--n", "1", "--delta", "3", "--seed", "1"],
             "n too small for the requested delta"),
            (["dq-stats", "--n", "10", "--delta", "3", "--queries", "0", "--seed", "1"],
             "scheme generator produced no queries"),
        ],
    )
    def test_negative_parameter_exits_two(self, args, message, capsys):
        code, stdout, err = run_cli(["experiment", *args], capsys)
        assert code == 2
        assert message in err
        assert "Traceback" not in err and not stdout

    @pytest.mark.parametrize(
        "text, message",
        [
            ("4 1\n-1 2\n", "member -1 outside universe of size 4"),
            ("4 1\n0 4\n", "member 4 outside universe of size 4"),
            ("-3 0\n", "scheme universe size must be >= 0, got -3"),
            # a line past the counted ones used to be dropped without a word
            ("3 1\n0 1\n2\n", "expected 1 member lines, found extra line '2'"),
            ("3 2\n0 1\n", "expected 2 member lines, found 1"),
            ("3 1\n0 x\n", "bad member line: '0 x'"),
        ],
    )
    def test_bad_scheme_file_exits_two(self, text, message, tmp_path, capsys):
        scheme_path = tmp_path / "scheme.txt"
        scheme_path.write_text(text)
        code, stdout, err = run_cli(
            ["experiment", "duality", "--delta", "1", "--scheme", str(scheme_path)],
            capsys,
        )
        assert code == 2
        assert err == f"error: {message}\n" and not stdout

    @pytest.mark.parametrize("name", ["lemma7", "lemma8"])
    @pytest.mark.parametrize("source", ["file", "random"])
    def test_ground_over_cap_is_refused_up_front(self, name, source, tmp_path, capsys):
        # uncapped, the file's header ends in MemoryError and the draw in OverflowError
        size = 10**12
        if source == "file":
            family_path = tmp_path / "family.txt"
            family_path.write_text(f"{size} 2\n0\n1\n")
            flags = ["--family", str(family_path)]
        else:
            flags = ["--sets", "3", "--ground", str(size)]
        start = time.perf_counter()
        code, stdout, err = run_cli(
            ["experiment", name, *flags, "--w", "1", "--r", "1", "--seed", "1"],
            capsys,
        )
        assert code == 3 and not stdout
        assert err == f"capacity exceeded: ground size {size} exceeds cap 1000000\n"
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 2\n0 1\n1\n2\n", "expected 2 member lines, found extra line '2'"),
            ("-1 0\n", "ground size must be >= 0, got -1"),
            ("3 1 4\n0\n", "bad header: '3 1 4'"),
        ],
    )
    def test_bad_family_file_exits_two(self, text, message, tmp_path, capsys):
        family_path = tmp_path / "family.txt"
        family_path.write_text(text)
        code, stdout, err = run_cli(
            ["experiment", "lemma7", "--family", str(family_path), "--w", "1",
             "--r", "1", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert err == f"error: {message}\n" and not stdout

    @pytest.mark.parametrize(
        "text, message",
        [
            # refused on its header: building it would allocate 10^15 masks
            ("1000000000000000 0\n",
             "graph file does not match n=5: its header says 1000000000000000"),
            ("6 0\n", "graph file does not match n=5: its header says 6"),
            ("5 1\n0 x\n", "bad edge line: '0 x'"),
            # its header says 2 edges; read as a set, it would be a one-edge graph
            ("5 2\n0 1\n0 1\n", "repeated edge line: '0 1'"),
            # a star is no graph of maximum degree 1: reading it as one used
            # to print a verdict
            ("5 4\n0 1\n0 2\n0 3\n0 4\n", "graph has maximum degree 4 > --delta 1"),
        ],
    )
    def test_bad_graph_file_exits_two(self, text, message, tmp_path, capsys):
        graph_path = tmp_path / "graph.txt"
        graph_path.write_text(text)
        code, stdout, err = run_cli(
            ["reconstruct", "--n", "5", "--delta", "1", "--seed", "1",
             "--graph", str(graph_path)],
            capsys,
        )
        assert code == 2
        assert err == f"error: {message}\n" and not stdout

    @pytest.mark.parametrize(
        "args, draw",
        [
            (["reconstruct", "--n", "10", "--delta", "3", "--seed", "1",
              "--scheme-kind", "randomized", "--c", "1e300"], "rows of 10 bits"),
            (["experiment", "profile-count", "--n", "8", "--delta", "2", "--seed", "1",
              "--queries", "100000000"], "100000000 rows of 8 bits"),
        ],
    )
    def test_oversized_draw_is_refused_up_front(self, args, draw, capsys):
        # uncapped, the first runs out of memory and the second grows for minutes
        start = time.perf_counter()
        code, stdout, err = run_cli(args, capsys)
        assert code == 3 and not stdout
        assert err.startswith("capacity exceeded: random draw of ")
        assert err.endswith(f"{draw} exceeds cap 1073741824 bits\n")
        assert time.perf_counter() - start < 1.0

    def test_grid_over_cap_is_refused_up_front(self, capsys):
        # uncapped, np.linspace asks for 7.45 GiB
        start = time.perf_counter()
        code, stdout, err = run_cli(
            ["experiment", "alpha-bound", "--w", "2", "--r", "10", "--grid", "1000000000"],
            capsys,
        )
        assert code == 3 and not stdout
        assert err == "capacity exceeded: grid size 1000000000 exceeds cap 1000000\n"
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", ["12", "30", "46"])
    def test_enumeration_over_cap_is_refused_up_front(self, n, capsys):
        # n = 12 has 140,152 matchings, so about 9.8e9 graph pairs; C(46, 2)
        # candidate edges are more than the recursion limit, and n = 30 has
        # 6e17 matchings: all are refused before any graph is built
        start = time.perf_counter()
        code, stdout, err = run_cli(
            ["experiment", "duality", "--n", n, "--delta", "1", "--queries", "3",
             "--seed", "1"],
            capsys,
        )
        assert code == 3
        assert err.startswith("capacity exceeded: at least ")
        assert err.endswith(" graph pairs exceed cap 5000000\n")
        if n == "12":
            # with delta = 1 the graphs are exactly the T(12) matchings
            assert "at least 9821221476 graph pairs" in err
        assert "Traceback" not in err and not stdout
        assert time.perf_counter() - start < 1.0

    def test_pair_cap_is_refused_before_the_draw(self, monkeypatch, capsys):
        # n = 10^7 passes the draw cap: the 16 x 10^7 draw took seconds, only
        # for the matchings to be refused after it
        def refuse(*args):
            raise AssertionError("drew a scheme")

        monkeypatch.setattr(cli, "random_queries", refuse)
        code, stdout, err = run_cli(
            ["experiment", "duality", "--n", "10000000", "--delta", "1", "--queries", "16",
             "--seed", "1"],
            capsys,
        )
        assert code == 3 and not stdout
        assert err == "capacity exceeded: at least 53556442532880 graph pairs exceed cap 5000000\n"

    def test_family_cap_is_refused_before_the_draw(self, monkeypatch, capsys):
        # the 400 x 10^6 draw took 16 s, only for the family to be refused after it
        def refuse(*args):
            raise AssertionError("drew a scheme")

        monkeypatch.setattr(cli, "random_queries", refuse)
        start = time.perf_counter()
        code, stdout, err = run_cli(
            ["experiment", "profile-count", "--n", "1000000", "--delta", "2", "--queries", "400",
             "--seed", "1"],
            capsys,
        )
        assert code == 3 and not stdout
        assert err == "capacity exceeded: family size 499998500001 exceeds cap 1000000\n"
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "args, answers",
        [
            (["profile-count", "--n", "12", "--delta", "4", "--queries", "300"],
             "300 queries x 14400 = 4320000"),
            (["dq-stats", "--n", "10", "--delta", "3", "--queries", "100000", "--trials", "100"],
             "100000 queries x 100 = 10000000"),
        ],
        ids=["profile-count", "dq-stats"],
    )
    def test_answer_cap_is_refused_before_the_draw(self, args, answers, monkeypatch, capsys):
        # uncapped these took 9.2 s and 16.6 s, and the held answers grow without bound
        def refuse(*args):
            raise AssertionError("drew a scheme")

        monkeypatch.setattr(cli, "random_queries", refuse)
        start = time.perf_counter()
        code, stdout, err = run_cli(["experiment", *args, "--seed", "1"], capsys)
        assert (code, stdout) == (3, "")
        assert err == f"capacity exceeded: {answers} answers exceed cap 1000000\n"
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "cap, value, message",
        [
            # 253 graphs of max degree <= 2 on 5 vertices make 31,878 pairs,
            # their 26 matchings only 325: refused after the enumeration
            ("PAIR_CAP", 1000, "31878 graph pairs exceed cap 1000"),
            # 26 matchings pass the up-front check; the recursion stops at the cap
            ("ENUM_CAP", 100, "graph enumeration exceeds cap 100"),
        ],
    )
    def test_duality_enumeration_refusals_exit_three(self, cap, value, message, set_cap, capsys):
        # at the shipped caps, n = 8 and n = 9 reach these refusals in 1.0 s and 4.6 s
        set_cap(schemes if cap == "PAIR_CAP" else graphs, cap, value)
        code, stdout, err = run_cli(
            ["experiment", "duality", "--n", "5", "--delta", "2", "--queries", "1",
             "--seed", "1"],
            capsys,
        )
        assert (code, stdout, err) == (3, "", f"capacity exceeded: {message}\n")

    def test_alpha_bound_peak_keeps_its_precision_past_two_to_the_53(self, capsys):
        # the float form rounded w + r to w and reported -1e-42, e times too large
        code, stdout, _ = run_cli(
            ["experiment", "alpha-bound", "--w", str(10**42), "--r", "1", "--grid", "10",
             "--json"],
            capsys,
        )
        assert code == 0
        deviation = json.loads(stdout)["measured"]["max_deviation"]
        assert math.isclose(deviation, -math.exp(-1) / (10**42 + 1), rel_tol=1e-9)

    @pytest.mark.parametrize("name", list(cli._EXPERIMENTS))
    def test_each_experiment_names_its_missing_flags(self, name, capsys):
        _, _, flags = cli._EXPERIMENTS[name]
        required = [f"--{f}" for f, default in flags.items() if default is cli.REQUIRED]
        if not required:
            return
        with pytest.raises(SystemExit) as exc:
            main(["experiment", name])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.endswith(
            f"error: the following arguments are required: {', '.join(required)}\n"
        )

    def test_unexpected_exception_exits_four(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(cli, "_generate_graph", broken)
        code, stdout, err = run_cli(
            ["generate", "--family", "random", "--n", "4", "--delta", "1",
             "--seed", "1"],
            capsys,
        )
        assert code == cli.EXIT_INTERNAL == 4
        assert err.startswith("internal error:")
        assert "Traceback" in err and "RuntimeError: handler bug" in err
        assert not stdout

    def test_json_output_parses(self, capsys):
        code, stdout, _ = run_cli(
            ["experiment", "lemma7", "--sets", "6", "--ground", "8",
             "--density", "0.5", "--w", "1", "--r", "2", "--trials", "200",
             "--seed", "5", "--json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["passed"] is True

    def test_duality_experiment(self, capsys):
        code, stdout, _ = run_cli(
            ["experiment", "duality", "--n", "6", "--delta", "2",
             "--queries", "6", "--seed", "9"],
            capsys,
        )
        assert code == 0
        assert "overall: PASS" in stdout

    def test_bound_table_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "table.csv"
        code, _, _ = run_cli(
            ["experiment", "bound-table", "--n-list", "6,9", "--delta-list",
             "1,2", "--emit-csv", str(csv_path), "--out", str(tmp_path / "r.txt")],
            capsys,
        )
        assert code == 0
        assert csv_path.read_text().startswith("n,delta,clamped")


# (argv prefix, {flag: default or REQUIRED}) of every row of the CLI table
ROWS = [([name], flags) for name, (_, _, flags) in cli._COMMANDS.items()] + [
    (["experiment", name], flags) for name, (_, _, flags) in cli._EXPERIMENTS.items()
]
ROW_IDS = [" ".join(prefix) for prefix, _ in ROWS]
ROW_FLAGS = dict(zip(ROW_IDS, (flags for _, flags in ROWS)))
ALL_FLAGS = sorted({flag for _, flags in ROWS for flag in flags})


def _row_name(argv):
    return " ".join(argv[:2] if argv[0] == "experiment" else argv[:1])


# (argv of a branch that reads a file or makes a choice, the flag naming it
# or "flag value", and each flag that branch does not read with a value off
# its row default)
UNREAD = [
    (["generate", "--family", "thm2", "--n", "9", "--delta", "2", "--seed", "1"],
     "family thm2", {"density": "0.3"}),
    (["reconstruct", "--family", "thm3", "--n", "12", "--delta", "3", "--seed", "1"],
     "family thm3", {"density": "0.3"}),
    (["reconstruct", "--n", "12", "--delta", "2", "--seed", "1"],
     "scheme-kind cff", {"c": "5", "p": "0.3"}),
    (["reconstruct", "--n", "5", "--delta", "2", "--seed", "1", "--graph", "{graph}"],
     "graph", {"family": "thm3", "density": "0.3"}),
    (["reconstruct", "--n", "5", "--delta", "2", "--seed", "1", "--scheme", "{scheme5}"],
     "scheme", {"scheme-kind": "randomized", "c": "3", "p": "0.2"}),
    *[(["experiment", name, "--family", "{family}", "--w", "1", "--r", "1", "--seed", "1"],
       "family", {"sets": "3", "ground": "99", "density": "0.9"})
      for name in ("lemma7", "lemma8")],
    (["experiment", "duality", "--delta", "1", "--scheme", "{scheme4}"],
     "scheme", {"n": "4", "queries": "3", "p": "0.3", "seed": "1"}),
]
UNREAD_CASES = [
    (argv, given, flag, value)
    for argv, given, values in UNREAD
    for flag, value in values.items()
]
# the branches with an unread flag whose row default can be given: a None
# default, as --density has, cannot
UNREAD_GIVABLE = [
    (argv, given, values) for argv, given, values in UNREAD
    if any(ROW_FLAGS[_row_name(argv)][flag] is not None for flag in values)
]


class TestTable:
    @pytest.mark.parametrize("prefix, flags", ROWS, ids=ROW_IDS)
    def test_help_lists_exactly_the_row_flags(self, prefix, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*prefix, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == {"--help", *(f"--{flag}" for flag in flags)}

    @pytest.mark.parametrize("prefix, flags", ROWS, ids=ROW_IDS)
    def test_flag_from_another_row_exits_two(self, prefix, flags, capsys):
        argv = list(prefix)
        for flag, default in flags.items():
            if default is cli.REQUIRED:
                argv += [f"--{flag}", "random" if flag == "family" else "1"]
        # --n would abbreviate bound-table's --n-list if abbreviations were allowed
        for flag in ALL_FLAGS:
            if flag not in flags:
                with pytest.raises(SystemExit) as exc:
                    main([*argv, f"--{flag}", "1"])
                assert exc.value.code == 2
                assert f"error: unrecognized arguments: --{flag} 1\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--family", "random", "--n", "6", "--delta", "2", "--seed", "1"],
            ["generate", "--family", "thm2", "--n", "6", "--delta", "2", "--seed", "1"],
            ["generate", "--family", "thm3", "--n", "8", "--delta", "3", "--seed", "1"],
            ["reconstruct", "--n", "5", "--delta", "2", "--seed", "1", "--graph", "{graph}",
             "--scheme", "{scheme5}", "--complete-as-nonedge"],
            ["reconstruct", "--n", "8", "--delta", "3", "--family", "thm3", "--seed", "1",
             "--scheme-kind", "randomized", "--p", "0.3", "--policy", "random",
             "--transcript-out", "{out}"],
            ["experiment", "profile-count", "--n", "6", "--delta", "2", "--seed", "1"],
            ["experiment", "dq-stats", "--n", "12", "--delta", "3", "--trials", "5",
             "--seed", "1"],
            ["experiment", "family-count", "--n", "12", "--delta", "4", "--variant", "thm3"],
            ["experiment", "lemma7", "--family", "{family}", "--w", "1", "--r", "1",
             "--trials", "5", "--seed", "1"],
            ["experiment", "lemma7", "--sets", "4", "--ground", "6", "--w", "1", "--r", "1",
             "--trials", "5", "--seed", "1"],
            ["experiment", "lemma8", "--family", "{family}", "--w", "1", "--r", "1",
             "--s", "2", "--trials", "5", "--seed", "1"],
            ["experiment", "lemma8", "--sets", "4", "--ground", "6", "--w", "1", "--r", "1",
             "--trials", "5", "--seed", "1"],
            ["experiment", "alpha-bound", "--w", "1", "--r", "1", "--grid", "11"],
            ["experiment", "duality", "--delta", "1", "--scheme", "{scheme4}"],
            ["experiment", "duality", "--n", "4", "--delta", "1", "--queries", "3",
             "--seed", "1"],
            ["experiment", "exact-t", "--n", "3", "--w", "1", "--r", "1"],
            ["experiment", "bound-table", "--emit-csv", "{out}"],
            ["experiment", "bound-table", "--n-list", "6", "--delta-list", "2", "--json"],
        ],
        ids=lambda argv: " ".join(a for a in argv if not a.startswith("{")),
    )
    def test_every_handler_branch_runs(self, argv, tmp_path, capsys):
        # a handler that read a flag outside its row would end in exit 4
        code, _, err = run_cli(_with_files(argv, tmp_path), capsys)
        assert code in (0, 1), err

    @pytest.mark.parametrize(
        "argv, given, flag, value", UNREAD_CASES, ids=[
            f"{_row_name(argv)} --{given} --{flag}" for argv, given, flag, _ in UNREAD_CASES
        ],
    )
    def test_flag_the_branch_does_not_read_exits_two(
        self, argv, given, flag, value, tmp_path, capsys
    ):
        code, stdout, err = run_cli(
            _with_files([*argv, f"--{flag}", value], tmp_path), capsys
        )
        assert code == 2 and not stdout
        assert err == f"error: --{flag} is not read with --{given}\n"

    @pytest.mark.parametrize(
        "argv, given, values", UNREAD_GIVABLE,
        ids=[f"{_row_name(argv)} --{given}" for argv, given, _ in UNREAD_GIVABLE],
    )
    def test_unread_flag_at_its_row_default_is_accepted(
        self, argv, given, values, tmp_path, capsys
    ):
        defaults = ROW_FLAGS[_row_name(argv)]
        given_defaults = [
            arg for flag in values if defaults[flag] is not None
            for arg in (f"--{flag}", str(defaults[flag]))
        ]
        assert given_defaults
        code, _, err = run_cli(_with_files([*argv, *given_defaults], tmp_path), capsys)
        assert code in (0, 1), err


def _with_files(argv, tmp_path):
    """argv with each {name} replaced by the path of a small input file."""
    files = {
        "graph": "5 2\n0 1\n2 3\n",
        "scheme5": "5 3\n0 1 2\n2 3 4\n0 4\n",
        "scheme4": "4 2\n0 1\n2 3\n",
        "family": "4 4\n0\n1\n2\n3\n",
    }
    paths = {"out": str(tmp_path / "out")}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    return [arg.format(**paths) for arg in argv]


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["profile-count", "--n", "9", "--delta", "2", "--queries", "3"],
            ["dq-stats", "--n", "40", "--delta", "5", "--trials", "200"],
            ["lemma7", "--w", "2", "--r", "1", "--sets", "6", "--ground", "8",
             "--trials", "200"],
            ["lemma8", "--w", "1", "--r", "1", "--s", "2", "--sets", "6",
             "--ground", "6", "--trials", "200"],
        ],
        ids=lambda args: args[0],
    )
    def test_report_bytes_stable_across_threads(self, args, tmp_path, capsys):
        # --threads is accepted for every seeded experiment and changes no byte
        outputs = []
        for threads in ("1", "8", "1"):
            out = tmp_path / f"r{len(outputs)}.txt"
            code, _, _ = run_cli(
                ["experiment", *args, "--seed", "6", "--threads", threads,
                 "--out", str(out)],
                capsys,
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "misrecon", "experiment", "exact-t",
             "--n", "2", "--w", "1", "--r", "1"],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert result.returncode == 0, result.stderr
        assert "measured t = 2" in result.stdout


def _readme_block(section, fence):
    """The first `fence` code block after the README heading `section`."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    after = readme.split(f"## {section}\n", 1)[1]
    return after.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def _readme_cli_lines():
    """The `misrecon ...` commands of the README's CLI code block."""
    joined = _readme_block("CLI", "sh").replace("\\\n", " ")
    return [shlex.split(ln) for ln in joined.splitlines() if ln.startswith("misrecon ")]


class TestReadmeExamples:
    def test_parser_accepts_every_cli_example(self):
        lines = _readme_cli_lines()
        assert lines
        for argv in lines:
            # refuses, by SystemExit, a missing required flag or one outside the row
            cli.build_parser().parse_args(argv[1:])

    def test_one_experiment_line_each_in_table_order(self):
        names = [argv[2] for argv in _readme_cli_lines() if argv[1] == "experiment"]
        assert names == list(cli._EXPERIMENTS)

    def test_library_sketch_runs(self):
        # its asserts check the answers and the exact decode
        exec(compile(_readme_block("Library sketch", "python"), "README.md", "exec"), {})

    def test_cap_table_matches_the_module_constants(self):
        # the table's `module.NAME | 5·10^6` rows against the module-level
        # *_CAP and DRAW_CAP_BITS assignments, read from the source unimported
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+\.\w+)` \| ([\d^·]+) \|", readme, re.M)
        table = {name: math.prod(
            int(base) ** int(exp or 1)
            for base, _, exp in (f.partition("^") for f in value.split("·"))
        ) for name, value in rows}
        src = Path(cli.__file__).parent
        constants = {}
        for path in sorted(src.glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and re.fullmatch(r"[A-Z_]+_CAP|DRAW_CAP_BITS", node.targets[0].id)):
                    value = eval(compile(ast.Expression(node.value), str(path), "eval"), {})
                    constants[f"{path.stem}.{node.targets[0].id}"] = value
        assert len(rows) == len(table)
        assert table == constants
