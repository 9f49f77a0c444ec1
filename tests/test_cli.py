import dataclasses
import json

import pytest

from pursuitwidth import arena, cli, parity
from pursuitwidth.arena import COPS, ROBBERS, SearchConfig, solve_search
from pursuitwidth.cli import (EXIT_CHECK_FAILURE, EXIT_INPUT_ERROR,
                              EXIT_INTERNAL_ERROR, EXIT_PASS,
                              EXIT_RESOURCE_ERROR, SCHEMA, main, suite_lemma2,
                              suite_thm25)
from pursuitwidth.digraph import Digraph, induced
from pursuitwidth.errors import (AdversaryContractError, InvariantViolation,
                                 StrategyHoleError)
from pursuitwidth.families import two_tree_graph
from pursuitwidth.strategy import ValidationReport, validate_robber_strategy


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
        assert rep["results"]["lower_bound"] is None  # no rung was lost

    def test_reports_each_rung_and_the_lower_bound(self, c3, capsys):
        code, rep = run(["width", c3], capsys)
        assert rep["results"]["rungs"] == [
            {"vertices": 3, "k": 1, "winner": ROBBERS, "classes": 4},
            {"vertices": 3, "k": 2, "winner": COPS, "classes": 2}]
        assert rep["results"]["lower_bound"] == {"k": 1, "vertices": [0, 1, 2]}

    def test_two_tree_3_climbs_to_a_lower_bound_witness_that_holds(self, tmp_path, capsys):
        path = str(tmp_path / "t3.edges")
        run(["generate", "thm7", "--n", "3", "-o", path], capsys)
        code, rep = run(["width", path, "--budget", "2000"], capsys)
        assert code == EXIT_PASS and rep["results"]["value"] == 3
        assert [tuple(rung.values()) for rung in rep["results"]["rungs"]] == [
            (8, 1, ROBBERS, 8), (8, 2, COPS, 14), (16, 2, COPS, 51), (32, 2, ROBBERS, 518),
            (32, 3, COPS, 51), (64, 3, COPS, 99), (128, 3, COPS, 474), (242, 3, COPS, 647)]
        bound = rep["results"]["lower_bound"]
        assert bound["k"] == 2 and len(bound["vertices"]) == 32
        # the robbers' win on the witness, validated on every cop line
        h = induced(two_tree_graph(3)[0], bound["vertices"])
        cfg = SearchConfig(k=2)
        solved = solve_search(h, cfg)
        assert solved.winner == ROBBERS
        assert validate_robber_strategy(h, cfg, solved.robber_strategy).ok

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

    @pytest.mark.parametrize("options,rs", [
        (["--nmax", "2", "--samples", "0"], [2, 3]),  # graphs of at most nmax vertices
        (["--nmax", "0", "--samples", "20"], [2]),    # random 5-vertex graphs only
        (["--graph", "C3", "--r", "2"], [2]),
    ], ids=["small-corpus", "random-corpus", "graph"])
    def test_thm10_report_names_the_r_values_it_checked(self, options, rs, c3, capsys):
        code, rep = run(["verify", "thm10"] + [c3 if a == "C3" else a for a in options], capsys)
        assert code == EXIT_PASS
        assert rep["params"]["r"] == rs

    def test_thm10_with_a_graph_reports_only_the_options_it_reads(self, c3, capsys):
        code, rep = run(["verify", "thm10", "--graph", c3, "--r", "2"], capsys)
        assert code == EXIT_PASS
        assert rep["params"] == {"r": [2]}

    def test_thm10_reports_the_most_robbers_the_adversary_held_per_r(self, c3, capsys):
        # on a cycle the robbers can never split
        code, rep = run(["verify", "thm10", "--graph", c3, "--r", "2"], capsys)
        assert code == EXIT_PASS
        assert rep["results"]["max_robbers"] == {"2": 1}

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

    @pytest.mark.parametrize("argv", [
        ["verify", "lemma9", "--nmax", "3"],
        ["verify", "thm10", "--nmax", "3", "--samples", "10"],
    ], ids=lambda argv: argv[1])
    def test_jobs_flag_gives_same_report(self, argv, capsys):
        _, rep_a = run(argv, capsys)
        _, rep_b = run(argv + ["--jobs", "2"], capsys)
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


_WIDTH, _SOLVE_SEARCH, _SOLVE_INVISIBLE, _EXHAUST, _TRACED_RUN, _SOLVE_IMPERFECT = (
    cli.width, cli.solve_search, cli.solve_invisible, cli.exhaust_prudent_isolating,
    cli.traced_run, parity.solve_imperfect)
_PLAIN_WIDTH, _LADDER = cli._plain_width, cli._ladder


def _raised(measure, by, r=None):
    """`width` with `measure` (at `r` robbers, if given) raised by `by`."""
    def width(g, m, **kw):
        value = _WIDTH(g, m, **kw)
        return value + by if m == measure and r in (None, kw.get("r")) else value
    return width


def _plain_dw_of_one_vertex_raised(g, m, r=1, budget=None):
    """The plain ladder with dw of a one-vertex graph raised by 5."""
    value = _PLAIN_WIDTH(g, m, r, budget)
    return value + 5 if g.n == 1 and m == "dw_r" else value


def _subgraph_ladder_of_twelve_vertices_raised(g, m, r=1, budget=None, plain=False):
    """The subgraph ladder on a 12-vertex graph one too high."""
    value, rungs = _LADDER(g, m, r, budget, plain)
    return (value + 1 if g.n == 12 and not plain else value), rungs


def _replaced(fn, **changes):
    """`fn` with the given fields of its result replaced."""
    return lambda *a, **kw: dataclasses.replace(fn(*a, **kw), **changes)


def _lost(*a, **kw):
    return ValidationReport(False, ("captured",), 0)


def _trace_with_a_failed_report(*a, **kw):
    records = _TRACED_RUN(*a, **kw)
    records[0]["invariant_report"] = {"passed": False}
    return records


def _flipped_imperfect(*a, **kw):
    res = _SOLVE_IMPERFECT(*a, **kw)
    return dataclasses.replace(res, player0_wins=not res.player0_wins)


SEED0 = 735074711  # the first game seed drawn from DEFAULT_SEED
C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])

# one case per suite check not covered above: the check, the suite run (given
# a trace path), the call it makes that is replaced, the stand-in, and the
# witness the check then reports
CAN_FAIL = [
    ("chain-monotone-and-top-equals-invisible",
     lambda out: cli.suite_hierarchy(nmax=1, samples=0), cli, "width", _raised("dpw", 1),
     [{"graph": "sc1-0", "chain": [1], "dpw": 2}]),
    ("width-monotone-under-induced-subgraphs",
     lambda out: cli.suite_hierarchy(nmax=2, samples=0), cli, "_plain_width",
     _plain_dw_of_one_vertex_raised,
     [{"graph": "sc2-0", "deleted": 0, "chain": [6], "dpw": 1},
      {"graph": "sc2-0", "deleted": 1, "chain": [6], "dpw": 1}]),
    ("subgraph-ladder-equals-plain-ladder",
     lambda out: cli.suite_hierarchy(nmax=1, samples=0), cli, "_ladder",
     _subgraph_ladder_of_twelve_vertices_raised,
     [{"graph": "rnd12", "measure": "dw", "r": 1, "subgraph_ladder": 5, "plain_ladder": 4}]),
    ("multi-robber-width-at-most-r-times-width",
     lambda out: cli.suite_thm10(nmax=1, samples=0), cli, "width", _raised("dw_r", 10),
     [{"graph": "sc1-0", "r": 2, "dw_r": 11, "cap": 2},
      {"graph": "sc1-0", "r": 3, "dw_r": 11, "cap": 3}]),
    ("multiplier-beats-exhaustive-prudent-isolating-adversary",
     lambda out: cli.suite_thm10(nmax=1, samples=0), cli, "exhaust_prudent_isolating",
     _replaced(_EXHAUST, ok=False, witness=("escaped",)),
     [{"graph": "sc1-0", "r": 2, "used": 1, "cap": 2, "witness": "('escaped',)"},
      {"graph": "sc1-0", "r": 3, "used": 1, "cap": 3, "witness": "('escaped',)"}]),
    ("symmetric-closure-bound-tw2-at-most-2tw1",
     lambda out: cli.suite_thm10(nmax=1, samples=0), cli, "width", _raised("tw_r", 10, r=2),
     [{"graph": "sc1-0", "tw_2": 11, "cap": 2}]),
    ("trace-invariants",
     lambda out: cli.suite_thm10(graph=C3, r=2, trace_out=out), cli, "traced_run",
     _trace_with_a_failed_report, None),
    ("cleanup-normal-form-and-winning",
     lambda out: cli.suite_lemma9(nmax=1), cli, "validate_cop_strategy", _lost,
     [{"graph": "sc1-0", "problems": [("not-winning", "('captured',)")]}]),
    ("transforms-keep-winning-and-step-conditions",
     lambda out: cli.suite_lemmas58(nmax=2), cli, "validate_robber_strategy", _lost,
     [{"graph": "sc2-0",
       "problems": [("isolating", "('captured',)"), ("prudent", "('captured',)")]}]),
    ("four-cop-sweep-wins-monotonously",
     lambda out: cli.suite_thm7(n=1), cli, "validate_cop_strategy", _lost, "('captured',)"),
    ("restricted-game-lost-by-n-cops-exhaustively",
     lambda out: cli.suite_thm7(n=1), cli, "solve_search",
     _replaced(_SOLVE_SEARCH, winner=COPS), None),
    ("escape-robber-survives-with-invariants",
     lambda out: cli.suite_thm7(n=1), cli, "validate_robber_strategy", _lost,
     "('captured',)"),
    ("exact-widths-of-the-product-family",
     lambda out: suite_thm25(), cli, "width", _raised("dpw", 1),
     {"dpw(T1)": (3, 2), "dpw(T2)": (4, 3), "dpw(G_1^2)": (5, 4)}),
    ("hierarchy-gap-witness",
     lambda out: suite_thm25(), cli, "width", _raised("dw", 1), None),
    ("invisible-game-needs-more-than-r-cops",
     lambda out: suite_thm25(), cli, "solve_invisible",
     _replaced(_SOLVE_INVISIBLE, cops_win=True), None),
    ("clearing-schedules-use-exactly-k(r+1)-cops",
     lambda out: suite_thm25(), cli, "validate_invisible_schedule",
     lambda *a: (False, "cop 0 leaves too early"),
     [{"r": r, "k": k, "peak": k * (r + 1), "cap": k * (r + 1),
       "detail": "cop 0 leaves too early"} for (r, k) in ((1, 1), (2, 1), (1, 2))]),
    ("history-lifting-to-length-6",
     lambda out: suite_lemma2(count=1, pipeline_count=1), parity, "check_history_lifting",
     lambda *a, **kw: False, [SEED0]),
    ("lifted-strategy-wins-with-k-times-2^(r-1)-cops",
     lambda out: suite_lemma2(count=1, pipeline_count=1), cli, "validate_cop_strategy",
     _lost, [{"seed": SEED0, "witness": "('captured',)"}]),
    ("knowledge-arena-width-within-bound",
     lambda out: suite_lemma2(count=1, pipeline_count=1), cli, "width", _raised("dw", 100),
     [{"seed": SEED0, "direct": (102, 4, False)}]),
    ("identity-observations-match-direct-solve",
     lambda out: suite_lemma2(count=1, pipeline_count=1), parity, "solve_imperfect",
     _flipped_imperfect, [SEED0]),
    ("solver-matches-strategy-enumeration-oracle",
     lambda out: suite_lemma2(count=1, pipeline_count=1), parity,
     "solve_by_strategy_enumeration", lambda pg: (set(), set()), [SEED0]),
]


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

    def test_a_ladder_check_where_no_ladder_climbs_fails(self, monkeypatch):
        name = "subgraph-ladder-equals-plain-ladder"
        # every instance then has at most the start size
        monkeypatch.setattr(arena, "LADDER_START", 32)
        rep = cli.suite_hierarchy(nmax=1, samples=0)
        check = _check(rep, name)
        assert not check.passed and not rep.passed
        assert check.witness == "no instance climbed two rungs, so the check is vacuous"

    @pytest.mark.parametrize("run,names", [
        pytest.param(lambda out: cli.suite_hierarchy(nmax=1, samples=0),
                     ["chain-monotone-and-top-equals-invisible",
                      "width-monotone-under-induced-subgraphs",
                      "subgraph-ladder-equals-plain-ladder"], id="hierarchy"),
        pytest.param(lambda out: cli.suite_thm10(graph=C3, r=2, trace_out=out),
                     ["multi-robber-width-at-most-r-times-width",
                      "multiplier-beats-exhaustive-prudent-isolating-adversary",
                      "symmetric-closure-bound-tw2-at-most-2tw1", "trace-invariants"],
                     id="thm10"),
        pytest.param(lambda out: cli.suite_lemma9(nmax=1),
                     ["cleanup-normal-form-and-winning"], id="lemma9"),
        pytest.param(lambda out: cli.suite_lemmas58(nmax=2),
                     ["transforms-keep-winning-and-step-conditions"], id="lemmas58"),
        pytest.param(lambda out: cli.suite_thm7(n=1),
                     ["four-cop-sweep-wins-monotonously",
                      "restricted-game-lost-by-n-cops-exhaustively",
                      "escape-robber-survives-with-invariants"], id="thm7"),
        pytest.param(lambda out: suite_thm25(),
                     ["exact-widths-of-the-product-family", "hierarchy-gap-witness",
                      "invisible-game-needs-more-than-r-cops",
                      "clearing-schedules-use-exactly-k(r+1)-cops",
                      "robber-team-lower-bound-smallest-instance"], id="thm25"),
        pytest.param(lambda out: suite_lemma2(count=1, pipeline_count=1),
                     ["history-lifting-to-length-6",
                      "lifted-strategy-wins-with-k-times-2^(r-1)-cops",
                      "knowledge-arena-width-within-bound",
                      "identity-observations-match-direct-solve",
                      "solver-matches-strategy-enumeration-oracle",
                      "player0-wins-pass-product-verification",
                      "knowledge-arena-at-most-n-times-2^(r-1)-positions"], id="lemma2"),
    ])
    def test_every_suite_reports_its_checks_in_order(self, run, names, tmp_path):
        rep = run(str(tmp_path / "trace.json"))
        assert rep.passed and [c.name for c in rep.checks] == names

    @pytest.mark.parametrize("name,suite,module,attr,stand_in,witness", CAN_FAIL,
                             ids=[case[0] for case in CAN_FAIL])
    def test_each_check_fails_with_its_witness(self, name, suite, module, attr, stand_in,
                                               witness, monkeypatch, tmp_path):
        monkeypatch.setattr(module, attr, stand_in)
        rep = suite(str(tmp_path / "trace.json"))
        check = _check(rep, name)
        assert not check.passed and not rep.passed
        assert check.witness == witness


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

    @pytest.mark.parametrize("argv", [
        ["verify", "thm10", "--nmax", "2", "--samples", "0", "--r", "5"],
        ["verify", "thm25", "--r", "7", "--seed", "3", "--nmax", "9"],
        ["verify", "thm10", "--graph", "C3", "--nmax", "2"],
        ["verify", "thm10", "--graph", "C3", "--samples", "0"],
        ["verify", "thm10", "--graph", "C3", "--seed", "3"],
        ["verify", "lemma9", "--nmax", "2", "--seed", "3"],
        ["verify", "thm7", "--n", "2", "--r", "3"],
        ["verify", "lemma2", "--count", "1", "--samples", "5"],
    ], ids=lambda argv: "-".join(a.strip("-") for a in argv[1:]))
    def test_an_option_the_suite_does_not_read_is_input_error(self, argv, c3, capsys):
        code, rep = run([c3 if a == "C3" else a for a in argv], capsys)
        assert code == EXIT_INPUT_ERROR and rep["kind"] == "input"
        assert "does not read --" in rep["error"]

    @pytest.mark.parametrize("argv,named", [
        (["verify", "hierarchy", "--nmax", "-1", "--samples", "3"], "-1"),
        (["verify", "thm10", "--nmax", "2", "--samples", "-5"], "-5"),
        (["verify", "lemma9", "--nmax", "-2"], "-2"),
        (["generate", "random", "--n", "3", "--p", "-1"], "-1"),
        (["generate", "random", "--n", "3", "--p", "1.5"], "1.5"),
        (["generate", "random", "--n", "3", "--p", "nan"], "nan"),
    ], ids=["hierarchy-nmax", "thm10-samples", "lemma9-nmax", "p-negative", "p-above-one",
            "p-nan"])
    def test_a_size_or_probability_out_of_range_is_input_error(self, argv, named, capsys):
        code, rep = run(argv, capsys)
        assert code == EXIT_INPUT_ERROR and rep["kind"] == "input"
        assert named in rep["error"]

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
        monkeypatch.setattr(cli, "_ladder", broken)
        code, rep = run(["width", c3], capsys)
        assert code == EXIT_INTERNAL_ERROR
        assert rep == {"schema": SCHEMA, "kind": "internal",
                       "error": f"{type(error).__name__}: {error}"}
