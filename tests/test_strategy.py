import pytest

from pursuitwidth.arena import (COPS, ROBBERS, CopTurn, RobberTurn,
                                SearchConfig, solve_search, width)
from pursuitwidth.digraph import Digraph, reach_excluding
from pursuitwidth.errors import InputError, PreconditionError, StrategyHoleError
from pursuitwidth.families import (cops_topdown_thm7, cycle_digraph,
                                   enumerate_strongly_connected, two_tree_graph)
from pursuitwidth.multiply import exhaust_prudent_isolating, multiply_strategy
from pursuitwidth.parity import (ObservationEquiv, distinguisher_game,
                                 lift_cop_strategy, powerset_construct)
from pursuitwidth.strategy import (COPS_WIN, NON_MONOTONE,
                                   ROBBERS_WIN, History, PositionalCopStrategy,
                                   cleanup_strategy, isolating_transform,
                                   is_isolating_position, is_prudent_move,
                                   playout, prudent_transform,
                                   validate_cop_strategy,
                                   validate_robber_strategy)

single = Digraph(1, [])


class FixedRobber:
    """Places at a vertex, stays while it may, and gives up when announced."""

    def __init__(self, v):
        self.v = v

    def initial_placement(self):
        return 1 << self.v

    def init_memory(self, pos):
        return None

    def respond(self, memory, pos):
        return pos.R & ~pos.Uprime, memory


class TestHistory:
    def test_prefix_relation(self):
        a = History((CopTurn(0, 0b1),))
        b = a.append(RobberTurn(0, 0b10, 0b1))
        assert a.is_strict_prefix_of(b)
        assert not b.is_strict_prefix_of(a)
        assert not a.is_strict_prefix_of(a)

    def test_last(self):
        a = History((CopTurn(0, 0b1),))
        assert a.last() == CopTurn(0, 0b1)


class TestPlayout:
    def test_single_vertex_quick_capture(self):
        f = PositionalCopStrategy({(frozenset(), frozenset({0})): frozenset({0})})
        res = playout(single, SearchConfig(k=1), f, FixedRobber(0), 10)
        assert res.verdict == COPS_WIN
        assert res.steps <= 2

    def test_non_monotone_verdict(self):
        g = cycle_digraph(3)
        f = PositionalCopStrategy({
            (frozenset(), frozenset({0})): frozenset({1}),
            (frozenset({1}), frozenset({0})): frozenset({2}),
        })
        res = playout(g, SearchConfig(k=1), f, FixedRobber(0), 10)
        assert res.verdict == NON_MONOTONE

    def test_strategy_hole_is_reported(self):
        g = cycle_digraph(3)
        f = PositionalCopStrategy({(frozenset(), frozenset({0})): frozenset({1})})
        with pytest.raises(StrategyHoleError):
            playout(g, SearchConfig(k=1), f, FixedRobber(0), 10)

    def test_deterministic_trace(self):
        g = cycle_digraph(3)
        res = solve_search(g, SearchConfig(k=2))
        rob = solve_search(g, SearchConfig(k=1)).robber_strategy
        a = playout(g, SearchConfig(k=2), res.cop_strategy, rob, 100)
        b = playout(g, SearchConfig(k=2), res.cop_strategy, rob, 100)
        assert a.trace == b.trace and a.verdict == b.verdict == COPS_WIN

    def test_solver_robber_beats_every_single_cop_line(self):
        g = cycle_digraph(3)
        rob = solve_search(g, SearchConfig(k=1)).robber_strategy
        assert validate_robber_strategy(g, SearchConfig(k=1), rob).ok

    def test_sample_positional_cop_strategies_lose_on_cycle(self):
        g = cycle_digraph(3)
        rob = solve_search(g, SearchConfig(k=1)).robber_strategy
        stay = PositionalCopStrategy(
            {(frozenset(), frozenset({v})): frozenset({(v + 1) % 3}) for v in range(3)}
            | {(frozenset({u}), frozenset({v})): frozenset({u})
               for u in range(3) for v in range(3) if u != v})
        res = playout(g, SearchConfig(k=1), stay, rob, 200)
        assert res.verdict in (ROBBERS_WIN, NON_MONOTONE)


def _pair_checked(strat):
    """The strategy, with every announce checked to return an (int, memory)
    pair; the list collects the pairs."""
    pairs = []
    announce = strat.announce

    def checked(memory, pos):
        got = announce(memory, pos)
        assert isinstance(got, tuple) and len(got) == 2 and isinstance(got[0], int)
        pairs.append(got)
        return got
    strat.announce = checked
    return strat, pairs


def _shipped_cop_strategies():
    c3 = cycle_digraph(3)
    solved = solve_search(c3, SearchConfig(k=2)).cop_strategy
    pg, _ = distinguisher_game()
    kg = powerset_construct(pg, ObservationEquiv.identity(pg.n))
    base = pg.arena_digraph()
    k = width(base, "dw")
    tree, _ = two_tree_graph(1)
    return {
        "positional": (c3, SearchConfig(k=2), lambda: solved.as_positional()),
        "solver": (c3, SearchConfig(k=2),
                   lambda: solve_search(c3, SearchConfig(k=2)).cop_strategy),
        "two-tree sweep": (tree, SearchConfig(k=4), lambda: cops_topdown_thm7(1)),
        "lifted": (kg.arena_digraph(), SearchConfig(k=k), lambda: lift_cop_strategy(
            base, solve_search(base, SearchConfig(k=k)).cop_strategy, kg)),
        "multiplier": (c3, None, lambda: multiply_strategy(c3, solved.as_positional(), r=2)),
    }


class TestCopStrategyProtocol:
    @pytest.mark.parametrize("name", ["positional", "solver", "two-tree sweep", "lifted",
                                      "multiplier"])
    def test_shipped_strategies_announce_a_pair_and_win(self, name):
        g, cfg, make = _shipped_cop_strategies()[name]
        strat, pairs = _pair_checked(make())
        if cfg is None:
            rep = exhaust_prudent_isolating(g, strat)
        else:
            rep = validate_cop_strategy(g, cfg, strat)
        assert rep.ok, rep.witness
        assert pairs


class TestTransforms:
    def test_single_robber_is_already_isolating(self):
        g = cycle_digraph(3)
        cfg = SearchConfig(k=1, r=1)
        rob = solve_search(g, cfg).robber_strategy
        iso = isolating_transform(g, cfg, rob)
        a = validate_robber_strategy(g, cfg, iso, require_isolating=True)
        assert a.ok

    def test_one_representative_per_component(self):
        g = cycle_digraph(3)
        cfg = SearchConfig(k=1, r=2)
        rob = solve_search(g, cfg).robber_strategy
        iso = isolating_transform(g, cfg, rob)
        R0 = iso.initial_placement()
        # the whole cycle is one component, so one robber suffices at the start
        assert bin(R0).count("1") == 1
        assert is_isolating_position(g, 0, R0)

    def test_transform_requires_winning_input(self):
        g = cycle_digraph(3)
        cfg = SearchConfig(k=2, r=1)  # cops win at two
        rob = solve_search(g, SearchConfig(k=1, r=1)).robber_strategy
        with pytest.raises(PreconditionError):
            isolating_transform(g, cfg, rob)

    def test_two_robbers_beat_one_cop_after_transforms(self):
        g = cycle_digraph(5)
        cfg = SearchConfig(k=1, r=2)
        res = solve_search(g, cfg)
        assert res.winner == ROBBERS
        iso = isolating_transform(g, cfg, res.robber_strategy)
        assert validate_robber_strategy(g, cfg, iso, require_isolating=True).ok
        pru = prudent_transform(g, cfg, res.robber_strategy)
        assert validate_robber_strategy(g, cfg, pru, require_isolating=True,
                                        require_prudent=True).ok

    def test_prudence_distinguishes_threatened_targets(self):
        g = cycle_digraph(3)
        assert is_prudent_move(g, 0b010, 0b001, 0b001)  # staying is prudent
        # vertex 1 stays reachable once the cop lands on 2, so going there is rash
        assert not is_prudent_move(g, 0b100, 0b001, 0b010)
        # vertex 2 is about to be cut off by the cop landing on 1
        assert is_prudent_move(g, 0b010, 0b001, 0b100)


class TestCleanup:
    def test_parked_cop_is_dropped(self):
        g = Digraph(2, [(0, 1)])
        f = PositionalCopStrategy({
            (frozenset(), frozenset({0})): frozenset({0, 1}),
            (frozenset(), frozenset({1})): frozenset({0, 1}),  # 0 is unreachable from 1
        })
        ft = cleanup_strategy(g, f)
        assert ft.lookup(0, 0b10) == 0b10
        assert ft.lookup(0, 0b01) == 0b11
        assert dict(ft.items()) == {(frozenset(), frozenset({1})): frozenset({1}),
                                    (frozenset(), frozenset({0})): frozenset({0, 1})}

    def test_idempotent_on_solver_strategies(self):
        for n in (3, 4):
            for g in list(enumerate_strongly_connected(n))[:6]:
                k = width(g, "dw")
                f = solve_search(g, SearchConfig(k=k)).cop_strategy.as_positional()
                ft = cleanup_strategy(g, f)
                ft2 = cleanup_strategy(g, ft)
                assert ft2.mapping == ft.mapping

    def test_normal_form_contract(self):
        g = cycle_digraph(4)
        k = width(g, "dw")
        f = solve_search(g, SearchConfig(k=k)).cop_strategy.as_positional()
        ft = cleanup_strategy(g, f)
        for (U, R), up in ft.items():
            (v,) = R
            assert up - U, "every move must place a new cop"
            assert (up - U) <= reach_excluding(g, U, {v})
        assert validate_cop_strategy(g, SearchConfig(k=k), ft).ok

    def test_rejects_losing_input(self):
        g = cycle_digraph(3)
        f = PositionalCopStrategy({
            (frozenset(), frozenset({v})): frozenset({(v + 1) % 3}) for v in range(3)
        } | {(frozenset({u}), frozenset({v})): frozenset({u})
             for u in range(3) for v in range(3) if u != v})
        with pytest.raises(PreconditionError):
            cleanup_strategy(g, f)


class TestSerialization:
    def test_round_trip(self):
        g = cycle_digraph(3)
        f = solve_search(g, SearchConfig(k=2)).cop_strategy.as_positional()
        text = f.serialize()
        assert PositionalCopStrategy.parse(text).mapping == f.mapping
        assert "->" in text and ";" in text

    def test_empty_set_spelling(self):
        f = PositionalCopStrategy({(frozenset(), frozenset({0})): frozenset({0})})
        assert f.serialize().startswith("- ; 0 -> 0")

    def test_parse_reads_vertex_sets_into_masks(self):
        f = PositionalCopStrategy.parse("# comment\n\n- ; 0 -> 0,2\n2 ; 1 -> 2,1\n")
        assert f.mapping == {(0, 0b1): 0b101, (0b100, 0b10): 0b110}
        assert f.serialize() == "- ; 0 -> 0,2\n2 ; 1 -> 1,2\n"

    @pytest.mark.parametrize("text,line", [
        ("0 ; 0 -> 0\na ; 0 -> 0", 2),   # not a vertex
        ("-1 ; 0 -> 0", 1),               # no mask holds a negative vertex
        ("- ; 0 -> 0\n\n0 ; 1", 3),       # no arrow
    ], ids=["not-an-integer", "negative", "no-arrow"])
    def test_malformed_lines_are_named(self, text, line):
        with pytest.raises(PreconditionError, match=f"strategy line {line}: "):
            PositionalCopStrategy.parse(text)

    @pytest.mark.parametrize("U,R,Up,name", [
        ((), (-1,), (), "a robber set"),
        ((-1,), (0,), (), "a cop set"),
        ((), (0,), (-1,), "an announcement"),
    ], ids=["robbers", "cops", "announcement"])
    def test_negative_vertices_are_input_errors(self, U, R, Up, name):
        with pytest.raises(InputError, match=f"vertex -1 in {name} out of range"):
            PositionalCopStrategy({(frozenset(U), frozenset(R)): frozenset(Up)})
