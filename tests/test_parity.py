import pytest
from hypothesis import given, strategies as st

from pursuitwidth import parity
from pursuitwidth.arena import SearchConfig, solve_search, width
from pursuitwidth.errors import (InputError, InvariantViolation, PreconditionError,
                                 ResourceError)
from pursuitwidth.parity import (ObservationEquiv, check_history_lifting,
                                 distinguisher_game, emit_observation,
                                 emit_parity_game, gen_random_parity,
                                 lift_cop_strategy, make_parity_game,
                                 parse_observation, parse_parity_game,
                                 powerset_construct, solve_by_strategy_enumeration,
                                 solve_imperfect, validate, zielonka_solve)
from pursuitwidth.strategy import validate_cop_strategy

import oracles


def loop_game(color, owner=0):
    return make_parity_game(1, (owner,), (color,), ("a",), [(0, "a", 0)], 0)


class TestValidate:
    def test_identity_is_fine(self):
        pg, _ = distinguisher_game()
        assert validate(pg, ObservationEquiv.identity(pg.n)) == []

    def test_mixed_colors_flagged(self):
        pg = make_parity_game(2, (0, 0), (0, 1), ("a",),
                              [(0, "a", 1), (1, "a", 0)], 0)
        bad = validate(pg, ObservationEquiv(2, [{0, 1}]))
        assert any("colors" in v for v in bad)

    def test_dead_end_flagged_with_repair_hint(self):
        pg = make_parity_game(2, (0, 0), (0, 0), ("a",), [(0, "a", 1)], 0)
        bad = validate(pg, ObservationEquiv.identity(2))
        assert any("dead end" in v and "self-loop" in v for v in bad)

    def test_generator_output_is_valid(self):
        for seed in range(10):
            pg, eq = gen_random_parity(seed)
            assert validate(pg, eq) == []
            assert eq.max_class_size() <= 2


class TestPowerset:
    def test_identity_gives_reachable_singletons(self):
        pg, _ = distinguisher_game()
        kg = powerset_construct(pg, ObservationEquiv.identity(pg.n))
        assert all(len(s) == 1 for s in kg.sets)
        reachable = set()
        stack = [pg.init]
        while stack:
            v = stack.pop()
            if v in reachable:
                continue
            reachable.add(v)
            stack.extend(pg.post_all(v))
        assert {next(iter(s)) for s in kg.sets} == reachable

    def test_knowledge_sets_respect_class_bound(self):
        for seed in range(20):
            pg, eq = gen_random_parity(seed)
            kg = powerset_construct(pg, eq)
            r = eq.max_class_size()
            assert all(len(s) <= r for s in kg.sets)
            assert kg.game.n <= pg.n * 2 ** (r - 1)

    def test_history_lifting_exhaustive(self):
        for seed in range(25):
            pg, eq = gen_random_parity(seed)
            kg = powerset_construct(pg, eq)
            assert check_history_lifting(kg, pg, max_len=6)

    def test_rejects_invalid_input(self):
        pg = make_parity_game(2, (0, 0), (0, 1), ("a",),
                              [(0, "a", 1), (1, "a", 0)], 0)
        with pytest.raises(PreconditionError):
            powerset_construct(pg, ObservationEquiv(2, [{0, 1}]))

    # knowledge positions are numbered in the order their sets are first
    # met; these literals pin that order, the per-action successors and the
    # initial position
    @pytest.mark.parametrize("game, sets, succ", [
        (distinguisher_game(), [[0], [1, 2], [3]],
         [[[1], [], [2]], [[], [0, 2], [2]], [[], [0, 2], [2]]]),
        (gen_random_parity(43),
         [[0], [2, 3], [0, 1], [1], [2], [3]],
         [[[], [1, 2], [1, 3], [1, 3], [2, 5], [1]],
          [[0, 1], [2], [1, 2], [2, 4], [], [0]]]),
        (gen_random_parity(7),
         [[0], [5], [4], [2], [0, 4], [3, 5], [1, 2], [1], [3]],
         [[[0, 1], [3, 4, 5], [1], [2], [0, 1], [4, 5, 6], [2, 6], [2, 6], [0, 7]],
          [[1, 2, 3], [4, 5], [1], [1, 7], [1, 2, 3], [4, 5, 6], [5, 6], [8], [0, 5, 7]]]),
    ], ids=["distinguisher", "seed43", "seed7"])
    def test_knowledge_numbering_is_pinned(self, game, sets, succ):
        kg = powerset_construct(*game)
        assert [sorted(k) for k in kg.sets] == sets
        assert [[sorted(row[v]) for v in range(kg.game.n)] for row in kg.game.succ] == succ
        assert kg.game.init == 0


class TestZielonka:
    def test_even_self_loop(self):
        res = zielonka_solve(loop_game(0))
        assert res.win0 == {0} and not res.win1

    def test_odd_self_loop(self):
        res = zielonka_solve(loop_game(1, owner=1))
        assert res.win1 == {0} and not res.win0

    def test_matches_enumeration_oracle(self):
        checked = 0
        for seed in range(60):
            pg, _ = gen_random_parity(seed)
            if pg.n > 6:
                continue
            res = zielonka_solve(pg)
            assert (res.win0, res.win1) == solve_by_strategy_enumeration(pg), seed
            checked += 1
        assert checked >= 15

    @pytest.mark.parametrize("p", [0, 1])
    def test_each_players_verification_can_fail(self, p, monkeypatch):
        # player 0 keeps color 2 at position 0 by looping on "a", while "b"
        # leads through 1 into a cycle of least color 1; player 1 keeps color
        # 3 at position 2 by looping, while its other move leads through 3
        # into a cycle of least color 2
        pg = make_parity_game(4, (0, 1, 1, 0), (2, 1, 3, 2), ("a", "b"),
                              [(0, "a", 0), (0, "b", 1), (1, "a", 0),
                               (2, "a", 2), (2, "a", 3), (3, "a", 2)], 0)
        assert zielonka_solve(pg).win0 == {0, 1}
        real = parity._zielonka

        def redirected(ex, nodes):
            win, strat = real(ex, nodes)
            if len(nodes) == ex.size:  # the outermost call
                v = next(v for v in sorted(strat[p]) if v < pg.n and ex.owner[v] == p)
                strat[p][v] = next(w for w in ex.succ[v] if w != strat[p][v])
            return win, strat

        monkeypatch.setattr(parity, "_zielonka", redirected)
        with pytest.raises(InvariantViolation, match=f"zielonka-verify.*player-{p} "):
            zielonka_solve(pg)

    @pytest.mark.parametrize("p", [0, 1])
    def test_verification_reports_a_missing_move(self, p):
        pg, _ = distinguisher_game()
        ex = parity._Expanded(pg)
        win, strat = parity._zielonka(ex, set(range(ex.size)))
        strat[p] = {}
        with pytest.raises(InvariantViolation, match="zielonka violated: no move recorded"):
            parity._verify_regions(pg, ex, win, strat)

    def test_regions_partition(self):
        for seed in range(20):
            pg, _ = gen_random_parity(seed)
            res = zielonka_solve(pg)
            assert res.win0 | res.win1 == frozenset(range(pg.n))
            assert not (res.win0 & res.win1)


@st.composite
def colored_graphs(draw):
    """(nodes, successor function, colors, parity): at most 8 nodes drawn
    from a universe up to 10, colors 0-3, and edges that may leave `nodes`."""
    size = draw(st.integers(1, 10))
    nodes = sorted(draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=8)))
    edges = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                          max_size=3 * len(nodes)))
    color = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    succ = {v: sorted({w for u, w in edges if u == v}) for v in range(size)}
    return nodes, succ.__getitem__, color, draw(st.integers(0, 1))


def blocks(nodes, succ, color, par):
    return [frozenset(b) for b in parity._parity_cycle_blocks(nodes, succ, color, par)]


class TestCycleBlocks:
    @pytest.mark.parametrize("color,edges,par,want", [
        # a lone node of the parity's color without a self-loop holds no cycle
        ((1,), [], 1, []),
        ((1, 2), [(0, 1)], 1, []),
        # a self-loop is a cycle
        ((1,), [(0, 0)], 1, [{0}]),
        ((2, 1), [(0, 1), (1, 1)], 1, [{1}]),
        # the tail 0 -> 1 leaves the loop at 0 and never returns
        ((1, 2), [(0, 0), (0, 1)], 1, [{0}]),
        ((3, 1, 3), [(0, 1), (1, 0), (1, 2), (2, 2)], 1, [{0, 1}, {2}]),
        # the cycle through 0 and 1 has least color 0, so it is even
        ((1, 0), [(0, 1), (1, 0)], 1, []),
        ((1, 0), [(0, 1), (1, 0)], 0, [{0, 1}]),
        ((3, 2, 3), [(0, 1), (1, 2), (2, 0)], 1, []),
    ], ids=["lone-node", "path", "self-loop", "self-loop-after-a-tail", "tail-off-a-loop",
            "tail-to-another-loop", "lower-color-decides-odd", "lower-color-decides-even",
            "lower-color-inside-a-longer-cycle"])
    def test_pinned_cases(self, color, edges, par, want):
        succ = [[w for u, w in edges if u == v] for v in range(len(color))]
        assert blocks(range(len(color)), succ.__getitem__, color, par) == \
            [frozenset(b) for b in want]

    @given(colored_graphs())
    def test_blocks_match_the_closure_oracle(self, case):
        nodes, succ, color, par = case
        want = oracles.parity_cycle_blocks(nodes, succ, color, par)
        got = blocks(nodes, succ, color, par)
        assert sorted(got, key=sorted) == sorted((b for _, b in want), key=sorted)
        assert [min(color[v] for v in b) for b in got] == [c for c, _ in want]

    @given(colored_graphs())
    def test_reachable_cycle_matches_the_closure_oracle(self, case):
        nodes, succ, color, par = case
        start = nodes[:1]
        seen, stack = set(start), list(start)
        while stack:
            for w in succ(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        want = oracles.parity_cycle_blocks(sorted(seen), succ, color, par)
        got = parity._reachable_cycle_with_parity(start, succ, color, par)
        if not want:
            assert got is None
        else:
            assert frozenset(got) in {b for c, b in want if c == want[0][0]}


class TestImperfect:
    def test_identity_matches_direct_solve(self):
        for seed in range(40):
            pg, _ = gen_random_parity(seed)
            direct = zielonka_solve(pg)
            piped = solve_imperfect(pg, ObservationEquiv.identity(pg.n))
            assert piped.player0_wins == (pg.init in direct.win0)

    def test_distinguisher_needs_information(self):
        pg, eq = distinguisher_game()
        assert solve_imperfect(pg, ObservationEquiv.identity(pg.n)).player0_wins
        res = solve_imperfect(pg, eq)
        assert not res.player0_wins
        # both verdicts cross-checked against the brute-force enumeration:
        # the start is winnable with full information ...
        win0, _ = solve_by_strategy_enumeration(pg)
        assert pg.init in win0
        # ... and the knowledge arena itself is a lost game for player 0
        kg = powerset_construct(pg, eq)
        kwin0, _ = solve_by_strategy_enumeration(kg.game)
        assert kg.game.init not in kwin0

    def test_winning_strategy_is_class_based(self):
        pg, _ = distinguisher_game()
        res = solve_imperfect(pg, ObservationEquiv.identity(pg.n))
        assert res.player0_wins
        assert all(isinstance(k, frozenset) for k in res.knowledge_strategy)


class TestKnowledgeChecksCanFail:
    """Each check of the knowledge construction rejects a broken input."""

    def test_product_verification_rejects_a_strategy_that_reaches_the_odd_sink(self):
        # player 0 cannot tell 1 from 2, and "l" at 2 leads to the odd sink 3
        pg, eq = distinguisher_game()
        kg = powerset_construct(pg, eq)
        assert not parity._verify_knowledge_strategy(pg, eq, kg, {frozenset({1, 2}): "l"})

    def test_product_verification_rejects_a_reached_set_without_an_action(self):
        pg, eq = distinguisher_game()
        kg = powerset_construct(pg, eq)
        assert not parity._verify_knowledge_strategy(pg, eq, kg, {})

    def test_product_verification_accepts_a_winning_strategy(self):
        pg, _ = distinguisher_game()
        eq = ObservationEquiv.identity(pg.n)
        kg = powerset_construct(pg, eq)
        sigma = {frozenset({1}): "l", frozenset({2}): "r"}
        assert parity._verify_knowledge_strategy(pg, eq, kg, sigma)

    def test_history_lifting_rejects_a_set_with_a_member_no_history_reaches(self):
        pg, eq = distinguisher_game()
        kg = powerset_construct(pg, eq)
        assert check_history_lifting(kg, pg)
        sets = tuple(frozenset({1, 2, 3}) if K == {1, 2} else K for K in kg.sets)
        assert not check_history_lifting(kg._replace(sets=sets), pg)


class TestPositionBudget:
    """PURSUITWIDTH_BUDGET bounds the knowledge construction and its checks."""

    def test_it_bounds_the_knowledge_construction(self, monkeypatch):
        pg, eq = distinguisher_game()
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", "3")  # the construction expands 3 sets
        assert powerset_construct(pg, eq).game.n == 3
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", "2")
        with pytest.raises(ResourceError, match=r"knowledge construction .* budget \(2\)"):
            powerset_construct(pg, eq)

    @pytest.mark.parametrize("search, run", [
        ("history lifting", lambda pg, eq, kg: check_history_lifting(kg, pg)),
        ("product verification",
         lambda pg, eq, kg: parity._verify_knowledge_strategy(pg, eq, kg, {})),
        ("cycle search", lambda pg, eq, kg: zielonka_solve(pg)),
    ])
    def test_it_bounds_the_checks(self, search, run, monkeypatch):
        pg, eq = distinguisher_game()
        kg = powerset_construct(pg, eq)
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", "0")
        with pytest.raises(ResourceError, match=f"{search} exceeded the budget"):
            run(pg, eq, kg)


    def test_it_bounds_the_strategy_enumeration(self, monkeypatch):
        pg, _ = distinguisher_game()  # two actions at each of two player-0 positions
        want = solve_by_strategy_enumeration(pg)
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", "4")
        assert solve_by_strategy_enumeration(pg) == want
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", "3")
        with pytest.raises(ResourceError, match=r"strategy enumeration exceeded the budget \(3\)"):
            solve_by_strategy_enumeration(pg)


class TestLift:
    def test_identity_single_robber_lift_replays(self):
        pg, _ = distinguisher_game()
        eq = ObservationEquiv.identity(pg.n)
        kg = powerset_construct(pg, eq)
        g = pg.arena_digraph()
        k = width(g, "dw")
        res = solve_search(g, SearchConfig(k=k, r=1))
        lifted = lift_cop_strategy(g, res.cop_strategy, kg)
        rep = validate_cop_strategy(kg.arena_digraph(), SearchConfig(k=k, r=1), lifted)
        assert rep.ok and rep.max_announced <= k

    def test_lift_respects_doubling_bound(self):
        for seed in range(10):
            pg, eq = gen_random_parity(seed)
            g = pg.arena_digraph()
            k = width(g, "dw_r", r=2)
            res = solve_search(g, SearchConfig(k=k, r=2))
            kg = powerset_construct(pg, eq)
            lifted = lift_cop_strategy(g, res.cop_strategy, kg)
            cap = 2 * k
            rep = validate_cop_strategy(kg.arena_digraph(),
                                        SearchConfig(k=cap, r=1), lifted)
            assert rep.ok, (seed, rep.witness)
            assert rep.max_announced <= cap
            assert width(kg.arena_digraph(), "dw") <= cap


class TestFileFormats:
    def test_round_trip(self):
        pg, eq = distinguisher_game()
        text = emit_parity_game(pg)
        pg2 = parse_parity_game(text)
        assert pg2 == pg
        otext = emit_observation(eq)
        eq2 = parse_observation(otext, pg.n)
        assert eq2.classes == eq.classes

    def test_parse_errors_name_lines(self):
        with pytest.raises(InputError, match="line 1"):
            parse_parity_game("nonsense\n")
        with pytest.raises(InputError, match="line 3"):
            parse_parity_game("positions 1 actions a\n0 0 0\nmove 0 b 0\ninit 0\n")
        with pytest.raises(InputError, match="init"):
            parse_parity_game("positions 1 actions a\n0 0 0\nmove 0 a 0\n")
        with pytest.raises(InputError, match="line 3: position 0 declared twice"):
            parse_parity_game("positions 1 actions a\n0 0 0\n0 1 1\nmove 0 a 0\ninit 0\n")
        with pytest.raises(InputError, match="line 6: second init"):
            parse_parity_game("positions 2 actions a\n0 0 0\n1 0 0\nmove 0 a 1\n"
                              "init 0\ninit 1\nmove 1 a 0\n")
        with pytest.raises(InputError, match="line 1: repeated action"):
            parse_parity_game("positions 1 actions a a\n0 0 0\nmove 0 a 0\ninit 0\n")

    def test_game_rejects_repeated_action_labels(self):
        with pytest.raises(InputError, match="repeated action"):
            make_parity_game(1, (0,), (0,), ("a", "a"), [(0, "a", 0)], 0)

    def test_observation_rejects_overlap(self):
        with pytest.raises(InputError):
            ObservationEquiv(3, [{0, 1}, {1, 2}])
