"""CLI dispatch, exit codes, file outputs, and reproducibility."""

import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import cli_env
from misrecon import cli
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

    @pytest.mark.parametrize("c", ["inf", "nan", "0"])
    def test_bad_query_constant_exits_two(self, c, capsys):
        code, stdout, err = run_cli(
            ["reconstruct", "--n", "20", "--delta", "3",
             "--scheme-kind", "randomized", "--c", c, "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert "query-count constant must be positive and finite" in err
        assert "Traceback" not in err and not stdout

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
            ["experiment", "profile-count", "--n", "12", "--delta", "4",
             "--queries", "2", "--seed", "1", "--enum-cap", "5"],
            capsys,
        )
        assert code == 3
        assert "capacity exceeded" in err

    def test_missing_required_flag_exits_two(self, capsys):
        code, _, err = run_cli(["experiment", "alpha-bound", "--w", "2"], capsys)
        assert code == 2
        assert "--r" in err

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

    @pytest.mark.parametrize("name", list(cli._EXPERIMENTS))
    def test_each_experiment_names_its_missing_flags(self, name, capsys):
        required, _ = cli._EXPERIMENTS[name]
        argv = ["experiment", name]
        if "seed" in required:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"error: experiment {name} requires --seed\n" in err
            argv += ["--seed", "1"]
        defaults = cli.build_parser().parse_args(argv)
        missing = [f for f in required if getattr(defaults, f) is None]
        if not missing:
            return
        code, stdout, err = run_cli(argv, capsys)
        assert code == 2 and not stdout
        flags = ", ".join(f"--{f.replace('_', '-')}" for f in missing)
        assert err == f"error: experiment {name} requires {flags}\n"

    def test_unexpected_exception_exits_four(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(cli, "cmd_generate", broken)
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


def _readme_cli_lines():
    """The `misrecon ...` commands of the README's CLI code block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [shlex.split(ln) for ln in joined.splitlines() if ln.startswith("misrecon ")]


class TestReadmeExamples:
    def test_parser_accepts_every_cli_example(self):
        lines = _readme_cli_lines()
        assert lines
        for argv in lines:
            args = cli.build_parser().parse_args(argv[1:])
            if args.command == "experiment":
                required, _ = cli._EXPERIMENTS[args.name]
                missing = [f for f in required if getattr(args, f) is None]
                assert not missing, (argv, missing)

    def test_one_experiment_line_each_in_table_order(self):
        names = [argv[2] for argv in _readme_cli_lines() if argv[1] == "experiment"]
        assert names == list(cli._EXPERIMENTS)
