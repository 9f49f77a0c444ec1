"""The one exhaustive explorer and the subset enumerator it is fed with.

Every exhaustive search (cop- and robber-strategy validation, the
multiplier's adversary, the invisible game, strategy materialization) runs
on `arena.explore`.  These tests pin its contract, show that long plays (and
the solver's deep chains of shrinking regions) need no recursion, and replay
the witness path of every failure verdict.
"""
import sys
from contextlib import contextmanager

import pytest

from pursuitwidth.arena import (COPS, ROBBERS, CopTurn, RobberTurn, SearchConfig,
                                explore, is_monotone_move, solve_search,
                                subset_masks)
from pursuitwidth.digraph import Digraph, reach_mask
from pursuitwidth.errors import ResourceError, StrategyHoleError
from pursuitwidth.families import cycle_digraph
from pursuitwidth.multiply import (MultiplyStrategy,
                                   enumerate_prudent_isolating_moves,
                                   exhaust_prudent_isolating)
from pursuitwidth.strategy import (PositionalCopStrategy, is_isolating_position,
                                   is_prudent_move, validate_cop_strategy,
                                   validate_robber_strategy)


def directed_path(n):
    return Digraph(n, [(i, i + 1) for i in range(n - 1)])


class TestSubsetMasks:
    def test_descending_sizes_go_largest_first(self):
        assert list(subset_masks(0b111, range(2, -1, -1))) == \
            [0b011, 0b101, 0b110, 0b001, 0b010, 0b100, 0]

    def test_ascending_sizes_go_smallest_first(self):
        assert list(subset_masks(0b1010, range(1, 3))) == [0b0010, 0b1000, 0b1010]

    def test_sizes_beyond_the_bits_yield_nothing(self):
        assert list(subset_masks(0b10000, range(3, -1, -1))) == [0b10000, 0]


class TestEngine:
    # states are ints; 9 is a good leaf, 7 is a bad state
    GRAPH = {0: [1, 2], 1: [3, 9], 2: [3], 3: [1]}

    def moves(self, state):
        if state == 9:
            return None
        if state == 7:
            return "bad state"
        return iter(self.GRAPH.get(state, ()))

    def test_cycle_fails_with_the_lasso(self):
        failure, expanded = explore([0], self.moves, 100, "test", cycle="loop")
        assert failure == ("loop", (0, 1, 3, 1))
        assert expanded == 3

    def test_skipped_cycles_and_done_states_are_expanded_once(self):
        failure, expanded = explore([0, 2, 3], self.moves, 100, "test")
        assert failure is None
        assert expanded == 4  # 0, 1, 3, 2; 9 is a leaf and not expanded

    def test_verdicts_at_a_state_and_on_a_move(self):
        self.GRAPH = {0: [1], 1: [7]}
        assert explore([0], self.moves, 100, "test") == (("bad state", (0, 1, 7)), 2)
        self.GRAPH = {0: [1], 1: [9, "bad move"]}
        assert explore([0], self.moves, 100, "test") == (("bad move", (0, 1)), 2)

    def test_budget_bounds_expanded_states(self):
        assert explore([0], self.moves, 4, "test")[1] == 4
        with pytest.raises(ResourceError, match="test exceeded the budget"):
            explore([0], self.moves, 3, "test")


# ---------------------------------------------------------------------------
# No recursion: the stack depth does not grow with the length of a play

def _depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@contextmanager
def recursion_headroom(frames):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class StepForward:
    """One robber that walks forward around a cycle whenever it may."""

    def __init__(self, g):
        self.g = g

    def initial_placement(self):
        return 0b1

    def init_memory(self, pos):
        return None

    def respond(self, memory, pos):
        v = pos.R.bit_length() - 1
        escapes = reach_mask(self.g.out_masks, pos.R, pos.U & pos.Uprime) & ~pos.Uprime
        for w in ((v + 1) % self.g.n, v):
            if escapes >> w & 1:
                return 1 << w, memory
        return 0, memory


def test_cop_validation_of_a_150_move_chase_needs_no_recursion():
    n = 150
    chase = PositionalCopStrategy({(U, frozenset({w})): frozenset({w})
                                   for w in range(n)
                                   for U in [frozenset()] + [frozenset({v}) for v in range(w)]})
    with recursion_headroom(60):
        rep = validate_cop_strategy(directed_path(n), SearchConfig(k=1), chase)
    assert rep.ok and rep.states == 11_325


def test_robber_validation_of_a_100_move_walk_needs_no_recursion():
    g = cycle_digraph(100)
    cfg = SearchConfig(k=1, restrict_to_scc=True)
    with recursion_headroom(60):
        rep = validate_robber_strategy(g, cfg, StepForward(g))
    assert rep.ok and rep.states == 10_000  # every (cop set, robber) with U <= {v}


def test_solving_a_300_vertex_path_is_local_and_needs_no_recursion():
    # a global solve of this game builds 45,150 classes; the local one
    # decides the initial class and one per suffix the cops sweep off
    g = Digraph(300, [(i, i + 1) for i in range(299)] + [(i + 1, i) for i in range(299)])
    with recursion_headroom(60):
        res = solve_search(g, SearchConfig(k=2))
    assert res.winner == COPS and res.arena_size == 299
    with recursion_headroom(60):
        res = solve_search(g, SearchConfig(k=1))
        rep = validate_robber_strategy(g, SearchConfig(k=1), res.robber_strategy)
    assert res.winner == ROBBERS and res.arena_size == 301
    assert rep.ok, rep.witness


# ---------------------------------------------------------------------------
# Witnesses: the verdict, then a replayable path from a root to the failure

def _cop_line(g, cfg, strat, path):
    cmem, U, R = path[0]
    assert U == 0 and 0 < bin(R).count("1") <= cfg.r
    assert cmem == strat.init_memory(CopTurn(0, R))
    for (cmem, U, R), (cmem2, U2, R2) in zip(path, path[1:]):
        up, mid = strat.announce(cmem, CopTurn(U, R))
        assert U2 == up
        escapes = reach_mask(g.out_masks, R, U & U2) & ~U2
        assert R2 and not R2 & ~escapes and bin(R2).count("1") <= cfg.r
        assert cmem2 == strat.update(mid, CopTurn(U2, R2))


def _robber_line(g, cfg, strat, path):
    rmem, U, R = path[0]
    R0 = strat.initial_placement()
    assert (rmem, U, R) == (strat.init_memory(CopTurn(0, R0)), 0, R0)
    for (rmem, U, R), (rmem2, U2, R2) in zip(path, path[1:]):
        rpos = RobberTurn(U, U2, R)
        assert bin(U2).count("1") <= cfg.k and is_monotone_move(g, rpos)
        assert (R2, rmem2) == strat.respond(rmem, rpos)


def _multiplier_line(g, strat, path):
    zeta, U, R = path[0]
    assert U == 0 and bin(R).count("1") == 1
    assert zeta == strat.init_memory(CopTurn(0, R))
    for (zeta, U, R), (zeta2, U2, R2) in zip(path, path[1:]):
        up, mid = strat.announce(zeta, CopTurn(U, R))
        assert U2 == up
        moves = enumerate_prudent_isolating_moves(g, RobberTurn(U, U2, R), strat.r)
        assert R2 in moves
        assert zeta2 == strat.update(mid, CopTurn(U2, R2))


def _cop_case(g, k, mapping, failing):
    cfg = SearchConfig(k=k)
    strat = PositionalCopStrategy(mapping)

    def check(path):
        _cop_line(g, cfg, strat, path)
        failing(g, cfg, strat, path)
    return validate_cop_strategy(g, cfg, strat), check


def _robber_case(g, cfg, strat, failing, **flags):
    def check(path):
        _robber_line(g, cfg, strat, path)
        failing(g, cfg, strat, path)
    return validate_robber_strategy(g, cfg, strat, **flags), check


def _replies(g, cfg, strat, state):
    """(robber position, robber reply) for every monotone announcement at state."""
    rmem, U, R = state
    for up in range(1 << g.n):
        rpos = RobberTurn(U, up, R)
        if bin(up).count("1") <= cfg.k and is_monotone_move(g, rpos):
            yield rpos, strat.respond(rmem, rpos)[0]


class Idle(MultiplyStrategy):
    """A multiplier that never moves a cop, so every play is endless."""

    def announce(self, memory, pos):
        self.last_tag = "idle"
        return 0, memory

    def update(self, memory, newpos):
        return memory


class FirstTwoEscapes(StepForward):
    """Two robbers that move to the two smallest escape vertices."""

    def respond(self, memory, pos):
        escapes = reach_mask(self.g.out_masks, pos.R, pos.U & pos.Uprime) & ~pos.Uprime
        first = escapes & -escapes
        second = escapes & ~first
        return first | (second & -second), memory


class GiveUp(StepForward):
    """One robber that stays put and gives up once a cop lands on it."""

    def respond(self, memory, pos):
        return (pos.R if pos.R & ~pos.Uprime else 0), memory


def _repeats(g, cfg, strat, path):
    assert path[-1] in path[:-1]


def _hole(g, cfg, strat, path):
    cmem, U, R = path[-1]
    with pytest.raises(StrategyHoleError):
        strat.announce(cmem, CopTurn(U, R))


def _too_large(g, cfg, strat, path):
    cmem, U, R = path[-1]
    assert bin(strat.announce(cmem, CopTurn(U, R))[0]).count("1") > cfg.k


def _non_monotone(g, cfg, strat, path):
    cmem, U, R = path[-1]
    up, _ = strat.announce(cmem, CopTurn(U, R))
    assert not is_monotone_move(g, RobberTurn(U, up, R))


def _captured(g, cfg, strat, path):
    assert path[-1][2] == 0


def _imprudent(g, cfg, strat, path):
    assert any(not is_prudent_move(g, rpos.Uprime, rpos.R, Rp)
               for rpos, Rp in _replies(g, cfg, strat, path[-1]))


def _not_isolating(g, cfg, strat, path):
    _, U, R = path[-1]
    assert not is_isolating_position(g, U, R)


def _play_never_ends():
    g = cycle_digraph(3)
    strat = Idle(g, PositionalCopStrategy({}), r=2, k=1)

    def check(path):
        _multiplier_line(g, strat, path)
        _repeats(g, None, strat, path)
    return exhaust_prudent_isolating(g, strat), check


C3 = cycle_digraph(3)
E, S0, S1 = frozenset(), frozenset({0}), frozenset({1})
WITNESS_CASES = {
    "infinite play": lambda: _cop_case(Digraph(1, []), 1, {(E, S0): E}, _repeats),
    "strategy hole": lambda: _cop_case(C3, 1, {(E, S0): S1}, _hole),
    "announcement too large": lambda: _cop_case(
        C3, 1, {(E, S0): S1, (S1, S0): frozenset({1, 2})}, _too_large),
    "non-monotone announcement": lambda: _cop_case(
        C3, 1, {(E, S0): S1, (S1, S0): frozenset({2})}, _non_monotone),
    "captured": lambda: _robber_case(C3, SearchConfig(k=1), GiveUp(C3), _captured),
    "imprudent move": lambda: _robber_case(C3, SearchConfig(k=1), StepForward(C3),
                                           _imprudent, require_prudent=True),
    "not isolating": lambda: _robber_case(
        directed_path(3), SearchConfig(k=1, r=2), FirstTwoEscapes(directed_path(3)),
        _not_isolating, require_isolating=True),
    "play never ends": _play_never_ends,
}


@pytest.mark.parametrize("verdict", sorted(WITNESS_CASES))
def test_witness_is_the_verdict_and_a_replayable_path(verdict):
    report, check = WITNESS_CASES[verdict]()
    assert not report.ok
    got, path = report.witness
    assert got.startswith(verdict)
    assert len(path) >= 2
    check(path)
