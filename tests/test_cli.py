import json

import pytest

from pursuitwidth import cli, parity
from pursuitwidth.cli import (EXIT_CHECK_FAILURE, EXIT_INPUT_ERROR,
                              EXIT_INTERNAL_ERROR, EXIT_PASS,
                              EXIT_RESOURCE_ERROR, SCHEMA, main, suite_lemma2,
                              suite_thm25)
from pursuitwidth.errors import (AdversaryContractError, InvariantViolation,
                                 StrategyHoleError)
from pursuitwidth.strategy import ValidationReport


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def c3(tmp_path):
    path = tmp_path / "c3.edges"
    path.write_text("3\n0 1\n1 2\n2 0\n")
    return str(path)


class TestWidthCommand:
    def test_cycle_width(self, c3, capsys):
        code, rep = run(["width", c3, "--measure", "dw"], capsys)
        assert code == EXIT_PASS
        assert rep["results"]["value"] == 2
        assert rep["schema"] == SCHEMA
        assert c3 in rep["inputs"]

    def test_invisible_width_notes_convention(self, tmp_path, capsys):
        code, rep = run(["generate", "grk", "--r", "1", "--k", "2",
                         "-o", str(tmp_path / "g.edges")], capsys)
        assert code == EXIT_PASS
        code, rep = run(["width", str(tmp_path / "g.edges"), "--measure", "dpw"], capsys)
        assert rep["results"]["value"] == 4
        assert any("plus one" in n for n in rep["notes"])

    def test_single_vertex(self, tmp_path, capsys):
        p = tmp_path / "one.edges"
        p.write_text("1\n")
        code, rep = run(["width", str(p), "--measure", "dw"], capsys)
        assert rep["results"]["value"] == 1

    def test_missing_file_is_input_error(self, capsys):
        code, rep = run(["width", "/nonexistent.edges"], capsys)
        assert code == EXIT_INPUT_ERROR

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.edges"
        p.write_text("3\n9 9\n")
        code, rep = run(["width", str(p)], capsys)
        assert code == EXIT_INPUT_ERROR
        assert "line 2" in rep["error"]

    def test_budget_exhaustion_is_resource_error(self, tmp_path, capsys):
        code, rep = run(["generate", "tree", "--r", "2",
                         "-o", str(tmp_path / "t.edges")], capsys)
        code, rep = run(["width", str(tmp_path / "t.edges"), "--budget", "2"], capsys)
        assert code == EXIT_RESOURCE_ERROR
        assert rep["kind"] == "resource"


class TestGenerateCommand:
    def test_two_tree_size(self, tmp_path, capsys):
        code, rep = run(["generate", "thm7", "--n", "2",
                         "-o", str(tmp_path / "g2.edges")], capsys)
        assert code == EXIT_PASS
        assert rep["results"]["vertices"] == 30

    def test_random_deterministic(self, capsys):
        _, rep_a = run(["generate", "random", "--n", "5", "--p", "0.4",
                        "--seed", "7"], capsys)
        _, rep_b = run(["generate", "random", "--n", "5", "--p", "0.4",
                        "--seed", "7"], capsys)
        assert rep_a["results"]["edge_list"] == rep_b["results"]["edge_list"]

    def test_dot_output(self, tmp_path, capsys):
        dot = tmp_path / "c.dot"
        run(["generate", "cycle", "--n", "3", "-o", str(tmp_path / "c.edges"),
             "--dot", str(dot)], capsys)
        assert dot.read_text().startswith("digraph")


class TestParityCommand:
    @pytest.fixture
    def game(self, tmp_path):
        from pursuitwidth.parity import distinguisher_game, emit_observation, emit_parity_game
        pg, eq = distinguisher_game()
        gp = tmp_path / "g.pg"
        gp.write_text(emit_parity_game(pg))
        op = tmp_path / "g.obs"
        op.write_text(emit_observation(eq))
        return str(gp), str(op)

    def test_solve(self, game, capsys):
        gp, _ = game
        code, rep = run(["parity", gp, "--action", "solve"], capsys)
        assert code == EXIT_PASS
        assert rep["results"]["player0_wins_from_init"] is True

    def test_identity_pipeline_matches_solve(self, game, capsys):
        gp, _ = game
        _, direct = run(["parity", gp, "--action", "solve"], capsys)
        _, piped = run(["parity", gp, "--action", "solve-imperfect"], capsys)
        assert piped["results"]["player0_wins"] == \
            direct["results"]["player0_wins_from_init"]

    def test_merged_flips_winner(self, game, capsys):
        gp, op = game
        _, piped = run(["parity", gp, op, "--action", "solve-imperfect"], capsys)
        assert piped["results"]["player0_wins"] is False

    def test_powerset_emits_wellformed_file(self, game, tmp_path, capsys):
        gp, op = game
        out = tmp_path / "pow.pg"
        code, rep = run(["parity", gp, op, "--action", "powerset",
                         "-o", str(out)], capsys)
        assert code == EXIT_PASS
        from pursuitwidth.parity import parse_parity_game
        kg = parse_parity_game(out.read_text())
        assert kg.n == rep["results"]["knowledge_positions"]


class TestVerifyCommand:
    def test_small_hierarchy_suite(self, capsys):
        code, rep = run(["verify", "hierarchy", "--nmax", "3", "--samples", "5"],
                        capsys)
        assert code == EXIT_PASS
        assert rep["passed"] is True

    def test_thm25_suite(self, capsys):
        code, rep = run(["verify", "thm25"], capsys)
        assert code == EXIT_PASS
        assert rep["results"]["values"]["dpw(T2)"] == 3

    def test_single_graph_trace_artifact(self, c3, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code, rep = run(["verify", "thm10", "--graph", c3, "--r", "2",
                         "--trace-out", str(trace)], capsys)
        assert code == EXIT_PASS
        records = json.loads(trace.read_text())
        assert records and records[0]["mover"] == "robbers"
        _assert_vertex_lists_and_passed_reports(records)

    def test_trace_of_a_splitting_play_writes_memory_entries(self, tmp_path, capsys):
        # two cycles, 0-1-2-4-0 and 0-3-4-0: once cops stand on 0 and 1, the
        # robbers split onto 2 and 3
        graph = tmp_path / "split5.edges"
        graph.write_text("5\n0 1\n0 3\n1 2\n2 4\n3 4\n4 0\n")
        trace = tmp_path / "trace.json"
        code, rep = run(["verify", "thm10", "--graph", str(graph), "--r", "2",
                         "--trace-out", str(trace)], capsys)
        assert code == EXIT_PASS
        records = json.loads(trace.read_text())
        # some omitted set holds two vertices, so its order is pinned too
        assert any(len(entry["O"]) > 1 for rec in records for entry in rec["zeta"]["entries"])
        _assert_vertex_lists_and_passed_reports(records)

    def test_jobs_flag_gives_same_report(self, capsys):
        _, rep_a = run(["verify", "lemma9", "--nmax", "3"], capsys)
        _, rep_b = run(["verify", "lemma9", "--nmax", "3", "--jobs", "2"], capsys)
        a, b = rep_a, rep_b
        for rep in (a, b):
            rep.pop("elapsed_s")
        assert a == b

    @pytest.mark.parametrize("argv", [
        ["verify", "hierarchy", "--nmax", "0", "--samples", "0"],
        ["verify", "thm10", "--nmax", "0", "--samples", "0"],
        ["verify", "lemma9", "--nmax", "0"],
        ["verify", "lemmas58", "--nmax", "1"],  # every graph has dw_2 = 1
        ["verify", "lemma2", "--count", "0"],
    ], ids=lambda argv: argv[1])
    def test_a_suite_over_no_instance_is_an_input_error(self, argv, capsys):
        code, rep = run(argv, capsys)
        assert code == EXIT_INPUT_ERROR and rep["kind"] == "input"
        assert "vacuously" in rep["error"]


    @pytest.mark.parametrize("argv", [["verify", "thm10", "--nmax", "2", "--samples", "0"],
                                      ["verify", "lemma9", "--nmax", "2"]],
                             ids=lambda argv: argv[1])
    def test_trace_out_without_graph_is_an_input_error(self, argv, tmp_path, capsys):
        trace = tmp_path / "y.json"
        code, rep = run(argv + ["--trace-out", str(trace)], capsys)
        assert code == EXIT_INPUT_ERROR and rep["kind"] == "input"
        assert not trace.exists()

    def test_graph_on_a_suite_other_than_thm10_is_an_input_error(self, c3, capsys):
        code, rep = run(["verify", "lemma9", "--nmax", "2", "--graph", c3], capsys)
        assert code == EXIT_INPUT_ERROR and rep["kind"] == "input"
        assert "thm10 only" in rep["error"]


def _assert_vertex_lists_and_passed_reports(records):
    """Every vertex set of a trace (positions, memory entries and histories)
    is a sorted list of ints, and every invariant report passed."""
    def fields(rec):
        yield rec["U"]
        yield rec["R"]
        if rec["mover"] == "cops":
            yield rec["U'"]
        zeta = rec["zeta"]
        histories = [entry["rho"] for entry in zeta["entries"]] + [zeta["rho_s"]]
        for entry in zeta["entries"]:
            yield entry["R"]
            yield entry["O"]
        for pos in (p for rho in histories for p in rho if p["type"] != "initial"):
            yield from (pos[key] for key in pos if key != "type")

    for rec in records:
        for value in fields(rec):
            assert isinstance(value, list) and all(type(v) is int for v in value), value
            assert value == sorted(set(value)), (rec["step"], value)
        if rec["mover"] == "robbers":
            assert rec["invariant_report"]["passed"], rec["step"]
        else:
            assert rec["invariant_report"] is None


def _check(rep, name):
    return next(c for c in rep.checks if c.name == name)


class TestChecksCanFail:
    def test_failed_product_verification_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(parity, "_verify_knowledge_strategy", lambda *a: False)
        rep = suite_lemma2(count=1, pipeline_count=4)
        check = _check(rep, "player0-wins-pass-product-verification")
        assert not check.passed and not rep.passed
        assert check.witness  # the seeds whose wins failed verification
        assert _check(rep, "identity-observations-match-direct-solve").passed

    def test_oversized_knowledge_arena_fails_the_check(self, monkeypatch):
        name = "knowledge-arena-at-most-n-times-2^(r-1)-positions"
        assert _check(suite_lemma2(count=1, pipeline_count=4), name).passed
        monkeypatch.setattr(parity, "knowledge_size_bound", lambda pg, eq: 1)
        rep = suite_lemma2(count=1, pipeline_count=4)
        check = _check(rep, name)
        assert not check.passed and not rep.passed
        assert check.witness  # the seeds whose arenas exceed the bound
        for bad in check.witness:
            assert bad["positions"] > bad["bound"] == 1
        assert _check(rep, "player0-wins-pass-product-verification").passed

    def test_robber_team_lower_bound_needs_a_valid_robber_strategy(self, monkeypatch):
        name = "robber-team-lower-bound-smallest-instance"
        assert _check(suite_thm25(), name).passed
        monkeypatch.setattr(cli, "validate_robber_strategy",
                            lambda *a, **kw: ValidationReport(False, ("captured",), 0))
        check = _check(suite_thm25(), name)
        assert not check.passed
        assert check.witness == {"winner": "robbers", "witness": "('captured',)"}


class TestExitCodes:
    """One case per exit code; an internal error is never a failed check."""

    def test_pass(self, c3, capsys):
        code, rep = run(["width", c3], capsys)
        assert code == EXIT_PASS and "error" not in rep

    def test_check_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "validate_robber_strategy",
                            lambda *a, **kw: ValidationReport(False, ("captured", ()), 0))
        code, rep = run(["verify", "thm25"], capsys)
        assert code == EXIT_CHECK_FAILURE and rep["passed"] is False

    def test_one_robber_measure_with_another_r_is_input_error(self, c3, capsys):
        code, rep = run(["width", c3, "--measure", "dw", "--r", "3"], capsys)
        assert code == EXIT_INPUT_ERROR and rep["kind"] == "input"
        assert "dw_r" in rep["error"]

    def test_input_error(self, capsys):
        code, rep = run(["width", "/nonexistent.edges"], capsys)
        assert code == EXIT_INPUT_ERROR and rep["kind"] == "input"

    def test_resource_error(self, c3, capsys):
        code, rep = run(["width", c3, "--budget", "1"], capsys)
        assert code == EXIT_RESOURCE_ERROR and rep["kind"] == "resource"

    def test_negative_budget_is_input_error(self, c3, capsys):
        code, rep = run(["width", c3, "--budget", "-5"], capsys)
        assert code == EXIT_INPUT_ERROR and rep["kind"] == "input"
        assert "-5" in rep["error"]

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_bad_budget_variable_is_input_error(self, value, c3, monkeypatch, capsys):
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", value)
        code, rep = run(["width", c3], capsys)
        assert code == EXIT_INPUT_ERROR and rep["kind"] == "input"
        assert value in rep["error"]

    @pytest.mark.parametrize("error", [
        InvariantViolation("chain-bound", "3 histories for r=1"),
        AdversaryContractError("illegal robber move"),
        StrategyHoleError("CopTurn(U=[], R=[0])"),
        RecursionError("maximum recursion depth exceeded"),
        MemoryError(),
    ], ids=lambda e: type(e).__name__)
    def test_internal_error(self, error, c3, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "width", broken)
        code, rep = run(["width", c3], capsys)
        assert code == EXIT_INTERNAL_ERROR
        assert rep == {"schema": SCHEMA, "kind": "internal",
                       "error": f"{type(error).__name__}: {error}"}
