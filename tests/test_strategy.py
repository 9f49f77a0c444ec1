from collections import Counter

import pytest

from pursuitwidth import strategy
from pursuitwidth.arena import (COPS, ROBBERS, CopTurn, GraphCache, RobberTurn,
                                SearchConfig, solve_search, width)
from pursuitwidth.cli import random_corpus, small_corpus
from pursuitwidth.digraph import Digraph, reach_excluding
from pursuitwidth.errors import (AdversaryContractError, InputError, PreconditionError,
                                 ResourceError, StrategyHoleError)
from pursuitwidth.families import (TopDownTreeCops, cops_topdown_thm7, cycle_digraph,
                                   enumerate_strongly_connected, two_tree_graph)
from pursuitwidth.multiply import exhaust_prudent_isolating, multiply_strategy
from pursuitwidth.parity import (ObservationEquiv, distinguisher_game,
                                 lift_cop_strategy, powerset_construct)
from pursuitwidth.strategy import (CopStrategy, History, PositionalCopStrategy,
                                   RobberStrategy, cleanup_strategy, isolating_transform,
                                   ValidationReport, prudent_transform,
                                   validate_cop_strategy,
                                   validate_robber_strategy)

import oracles


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


class TestInitialPlacement:
    """A robber strategy's opening placement is held to the rules of its moves."""

    @staticmethod
    def placed(R0):
        rob = RobberStrategy()  # validation rejects or captures before it moves
        rob.initial_placement = lambda: R0
        return rob

    @pytest.mark.parametrize("R0", [0b11, 1 << 7], ids=["two-robbers", "outside-the-graph"])
    def test_validation_rejects_an_illegal_placement(self, R0):
        with pytest.raises(AdversaryContractError, match="illegal initial placement"):
            validate_robber_strategy(cycle_digraph(3), SearchConfig(k=1, r=1), self.placed(R0))

    def test_validation_of_an_empty_placement_is_a_capture(self):
        rep = validate_robber_strategy(cycle_digraph(3), SearchConfig(k=1, r=1), self.placed(0))
        assert not rep.ok and rep.witness[0] == "captured"

    def test_a_placement_that_is_no_mask_is_rejected_before_it_is_read(self):
        # the vertices of a negative int never run out
        g, cfg = cycle_digraph(3), SearchConfig(k=1, r=1)
        with pytest.raises(TypeError, match="nonnegative"):
            validate_robber_strategy(g, cfg, self.placed(-3))


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

    @pytest.mark.parametrize("U,R,Up,name", [
        ((), (-1,), (), "a robber set"),
        ((-1,), (0,), (), "a cop set"),
        ((), (0,), (-1,), "an announcement"),
    ], ids=["robbers", "cops", "announcement"])
    def test_negative_vertices_are_input_errors(self, U, R, Up, name):
        with pytest.raises(InputError, match=f"vertex -1 in {name} out of range"):
            PositionalCopStrategy({(frozenset(U), frozenset(R)): frozenset(Up)})


def _vset(mask):
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def _mask(vertices):
    return sum(1 << v for v in vertices)


def _oracle_validation(g, cfg, strat):
    """`oracles.validate_cop_lines` on the strategy, as (verdict, states,
    max_announced, path), the path's states on masks."""
    def announce(memory, U, R):
        up, memory = strat.announce(memory, CopTurn(_mask(U), _mask(R)))
        return _vset(up), memory

    verdict, states, largest, path = oracles.validate_cop_lines(
        g, cfg.k, cfg.r, lambda R0: strat.init_memory(CopTurn(0, _mask(R0))), announce,
        lambda memory, Up, R: strat.update(memory, CopTurn(_mask(Up), _mask(R))))
    return verdict, states, largest, path and tuple((m, _mask(U), _mask(R))
                                                    for m, U, R in path)


def _report(rep):
    verdict, path = rep.witness or (None, None)
    return verdict, rep.states, rep.max_announced, path


def _failing_variants(f, k):
    """The solver's strategy f with k cops, and four ways to break it: too
    few cops, a hole, cops lifted from a cop set and a cop set held idle."""
    holed = dict(f.mapping)
    holed.popitem()
    return [(k, f.mapping), (k - 1, f.mapping), (k, holed),
            (k, {(U, R): up if not U else 0 for (U, R), up in f.mapping.items()}),
            (k, {(U, R): up if not U else U for (U, R), up in f.mapping.items()})]


class TestEachRobberTurnOnce:
    """Validation explores a robber turn's replies once, yet reports what
    building every reply of every state reports."""

    def test_agrees_with_the_oracle_that_builds_every_reply(self):
        corpus = small_corpus(4) + random_corpus(5, 12, 5150)
        verdicts = Counter()
        for name, g in corpus:
            for r in (1, 2):
                k = next(k for k in range(1, g.n + 1)
                         if solve_search(g, SearchConfig(k=k, r=r)).winner == COPS)
                f = solve_search(g, SearchConfig(k=k, r=r)).cop_strategy.as_positional()
                for kk, mapping in _failing_variants(f, k):
                    cfg = SearchConfig(k=kk, r=r)
                    strat = PositionalCopStrategy.from_masks(mapping)
                    got = _report(validate_cop_strategy(g, cfg, strat))
                    assert got == _oracle_validation(g, cfg, strat), (name, r, kk)
                    verdicts[(got[0] or "ok").split(" (")[0]] += 1
        assert set(verdicts) == {"ok", "announcement too large", "strategy hole",
                                 "non-monotone announcement", "infinite play"}, verdicts

    @pytest.mark.parametrize("name", ["positional", "solver", "two-tree sweep", "lifted"])
    def test_shipped_strategies_agree_with_the_oracle(self, name):
        g, cfg, make = _shipped_cop_strategies()[name]
        assert _report(validate_cop_strategy(g, cfg, make())) == \
            _oracle_validation(g, cfg, make())

    def test_a_turn_is_keyed_by_the_memory_during_the_reply(self):
        # both placements idle into the same turn of the robbers, but one
        # with a memory that the strategy does not cover
        class TwoMemories(CopStrategy):
            def init_memory(self, pos):
                return "A" if pos.R == 0b01 else "B"

            def announce(self, memory, pos):
                if memory in ("A", "B"):
                    return 0, memory + "1"
                if memory == "A1":
                    return 0b11, "done"
                raise StrategyHoleError(pos)

        g, cfg = Digraph(2, [(0, 1), (1, 0)]), SearchConfig(k=2)
        rep = validate_cop_strategy(g, cfg, TwoMemories())
        assert rep.witness == ("strategy hole", (("B", 0, 0b10), ("B1", 0, 0b01)))
        assert _report(rep) == _oracle_validation(g, cfg, TwoMemories())

    def test_a_turn_on_the_current_path_is_replayed_in_full(self):
        # the placement at 0 and the state below it share a robber turn, and
        # only replaying that turn finds the robber idling at 0 for ever
        g = Digraph(3, [(0, 1), (1, 0)])
        f = PositionalCopStrategy.from_masks({(0, 0b001): 0b100, (0, 0b010): 0b100,
                                              (0, 0b100): 0b100, (0b100, 0b001): 0b100,
                                              (0b100, 0b010): 0b100})
        rep = validate_cop_strategy(g, SearchConfig(k=1), f)
        assert rep.witness == ("infinite play", ((None, 0, 0b001), (None, 0b100, 0b001),
                                                 (None, 0b100, 0b001)))
        assert _report(rep) == _oracle_validation(g, SearchConfig(k=1), f)

    def test_the_thm7_sweep_builds_each_turns_replies_once(self):
        class Counted(TopDownTreeCops):
            replies = 0

            def update(self, memory, newpos):
                Counted.replies += 1
                return memory

        g, _ = two_tree_graph(3)
        rep = validate_cop_strategy(g, SearchConfig(k=4), Counted(3))
        assert rep.ok and rep.states == 1706 and rep.max_announced == 4
        # building every reply of every state would make 90,501
        assert Counted.replies <= 2 * rep.states


class TestTransforms:
    def test_solver_robber_beats_every_single_cop_line(self):
        g = cycle_digraph(3)
        rob = solve_search(g, SearchConfig(k=1)).robber_strategy
        assert validate_robber_strategy(g, SearchConfig(k=1), rob).ok

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
        assert GraphCache(g).is_isolating(0, R0)

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
        assert GraphCache(g).is_prudent(0b001, 0b010, 0b001)  # staying is prudent
        # vertex 1 stays reachable once the cop lands on 2, so going there is rash
        assert not GraphCache(g).is_prudent(0b001, 0b100, 0b010)
        # vertex 2 is about to be cut off by the cop landing on 1
        assert GraphCache(g).is_prudent(0b001, 0b010, 0b100)


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
        # a certificate keeps its border cops and adds new ones inside the
        # region, so the solver's strategies are in normal form already
        for n in (3, 4):
            for g in list(enumerate_strongly_connected(n))[:6]:
                k = width(g, "dw")
                f = solve_search(g, SearchConfig(k=k)).cop_strategy.as_positional()
                ft = cleanup_strategy(g, f)
                assert ft.mapping == f.mapping
                ft2 = cleanup_strategy(g, ft)
                assert ft2.mapping == ft.mapping

    def test_parked_cop_and_idle_stretch(self):
        # 0 -> 1 -> 2, and 3 alone.  Against a robber on 0, f parks a cop on
        # 3, which no robber reaches, so pass 1 looks f up at its own cop set
        # {1, 3}, where the cleaned play has {1}; against the robber then on
        # 2, f lifts the cop on 1 and places no cop, an idle move that pass 2
        # folds into f's next placement, on 2
        g = Digraph(4, [(0, 1), (1, 2)])
        f = PositionalCopStrategy.from_masks({
            (0, 0b0001): 0b1010, (0b1010, 0b0001): 0b1011,
            (0b1010, 0b0100): 0b1000, (0b1000, 0b0100): 0b1100,
            (0, 0b0010): 0b0110, (0, 0b0100): 0b0100, (0, 0b1000): 0b1000})
        ft = cleanup_strategy(g, f)
        assert ft.mapping == {(0, 0b0001): 0b0010, (0b0010, 0b0001): 0b0011,
                              (0b0010, 0b0100): 0b0100, (0, 0b0010): 0b0110,
                              (0, 0b0100): 0b0100, (0, 0b1000): 0b1000}
        assert validate_cop_strategy(g, SearchConfig(k=2), ft).ok

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

    def test_the_budget_bounds_the_passes_too(self, monkeypatch):
        g = cycle_digraph(3)
        f = solve_search(g, SearchConfig(k=2)).cop_strategy.as_positional()
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", "4")
        assert cleanup_strategy(g, f).mapping
        # the input's validation runs first, and would stop at budget 1 itself
        monkeypatch.setattr(strategy, "validate_cop_strategy",
                            lambda *args, **kwargs: ValidationReport(True, None, 0))
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", "1")
        with pytest.raises(ResourceError, match=r"cleanup exceeded the budget \(1\)"):
            cleanup_strategy(g, f)
