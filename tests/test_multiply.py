import pytest

from pursuitwidth.arena import (CopTurn, RobberTurn, SearchConfig, solve_search,
                                width)
from pursuitwidth.digraph import Digraph
from pursuitwidth.errors import (AdversaryContractError, InvariantViolation,
                                 PreconditionError)
from pursuitwidth import multiply
from pursuitwidth.families import cycle_digraph
from pursuitwidth.multiply import (CASE_II_2, HistoryEntry, MemoryZeta,
                                   MultiplyStrategy, _derive, check_invariants,
                                   cop_move_multiply,
                                   enumerate_prudent_isolating_moves,
                                   exhaust_prudent_isolating, init_memory,
                                   multiply_strategy, robber_update_multiply,
                                   traced_run)
from pursuitwidth.strategy import History, PositionalCopStrategy, playout

# a six-vertex pursuit that drives the memory through every update case
ALL_CASES_EDGES = [(0, 2), (0, 3), (0, 5), (1, 0), (2, 0), (2, 1), (2, 5),
                   (3, 4), (4, 1), (4, 3), (5, 0)]
# the two-cop base strategy it is pursued with, pinned so that which cases
# fire does not depend on the certificates the solver happens to pick
# (`multiply_strategy` validates it while normalizing it)
ALL_CASES_BASE = PositionalCopStrategy.parse("""
- ; 0 -> 0,4
- ; 1 -> 0,4
- ; 2 -> 0,4
- ; 3 -> 0,4
- ; 4 -> 0,4
- ; 5 -> 0,4
0,2 ; 1 -> 0,1
0,2 ; 5 -> 0,5
0,4 ; 1 -> 0,1
0,4 ; 2 -> 0,2
0,4 ; 3 -> 3,4
0,4 ; 5 -> 0,5
""")


def base_strategy(g, k):
    res = solve_search(g, SearchConfig(k=k, r=1))
    return res.cop_strategy.as_positional()


class TestInitMemory:
    def test_singleton_start(self):
        g = cycle_digraph(3)
        zeta = init_memory(g, 0b1)
        assert zeta.s == 1
        assert zeta.rho_s.last() == CopTurn(0, 0b1)
        report = check_invariants(g, CopTurn(0, 0b1), zeta)
        assert report.passed

    def test_split_start_rejected(self):
        with pytest.raises(PreconditionError):
            init_memory(cycle_digraph(3), 0b101)

    def test_needs_strong_connectivity(self):
        with pytest.raises(PreconditionError):
            init_memory(Digraph(2, [(0, 1)]), 0b1)

    def test_fresh_state_passes_checker_everywhere(self):
        g = cycle_digraph(4)
        for v in range(4):
            zeta = init_memory(g, 1 << v)
            assert check_invariants(g, CopTurn(0, 1 << v), zeta).passed


class TestCopMove:
    def test_first_move_follows_base_strategy(self):
        g = cycle_digraph(3)
        f = base_strategy(g, 2)
        zeta = init_memory(g, 0b1)
        up, zeta2, tag = cop_move_multiply(g, f, CopTurn(0, 0b1), zeta)
        assert tag == CASE_II_2
        assert up == f.lookup(0, 0b1)

    def test_checker_names_broken_closure(self):
        g = cycle_digraph(3)
        rho1 = History((CopTurn(0, 0b1),
                        RobberTurn(0, 0b100, 0b1)))
        rho2 = History((CopTurn(0, 0b1),
                        RobberTurn(0, 0b100, 0b1),
                        CopTurn(0b100, 0b10)))
        # {0} is not closed once 2 is guarded: 0 still reaches 1
        zeta = MemoryZeta((HistoryEntry(rho1, 0b1, 0b1),), rho2)
        report = check_invariants(g, CopTurn(0b100, 0b11), zeta)
        bad = report.first_violation()
        assert bad is not None and bad.name == "omit-closed"
        assert "1" in bad.witness

    def test_entry_invariants_enforced(self):
        g = cycle_digraph(3)
        f = base_strategy(g, 2)
        rho_bad = History((CopTurn(0, 0b1),
                           RobberTurn(0, 0b100, 0b1)))  # not an f move
        zeta = MemoryZeta((), rho_bad)
        with pytest.raises(InvariantViolation):
            cop_move_multiply(g, f, CopTurn(0, 0b1), zeta)


class TestRobberUpdate:
    def test_stay_after_idle_announcement_keeps_memory(self):
        g = cycle_digraph(3)
        zeta = init_memory(g, 0b1)
        out = robber_update_multiply(g, CopTurn(0, 0b1), 0b1, zeta)
        assert out == zeta

    def test_illegal_move_rejected(self):
        g = cycle_digraph(3)
        f = base_strategy(g, 2)
        zeta = init_memory(g, 0b1)
        pos = CopTurn(0, 0b1)
        up, zmid, _ = cop_move_multiply(g, f, pos, zeta)
        bad = g.full_mask & ~up & ~0b1
        imprudent = bad & -bad
        with pytest.raises(AdversaryContractError):
            robber_update_multiply(g, pos, 0b1 | imprudent, zmid, snapshot=zeta)

    def test_derived_sets_cover_announcement(self):
        g = cycle_digraph(3)
        f = base_strategy(g, 2)
        zeta = init_memory(g, 0b1)
        pos = CopTurn(0, 0b1)
        up, zmid, _ = cop_move_multiply(g, f, pos, zeta)
        d = _derive(zmid)
        assert d.Ucum[d.s] == up
        teams = 0
        for i in range(1, d.s + 1):
            teams |= d.U_[i]
        assert teams == up


class TestMultiplied:
    def test_single_team_replays_the_base_strategy(self):
        g = cycle_digraph(4)
        k = width(g, "dw")
        res = solve_search(g, SearchConfig(k=k, r=1))
        f = res.cop_strategy.as_positional()
        mult = multiply_strategy(g, f, r=1)
        rob = solve_search(g, SearchConfig(k=k - 1, r=1)).robber_strategy
        direct = playout(g, SearchConfig(k=k, r=1), f, rob, 200)
        lifted = playout(g, SearchConfig(k=k, r=1), mult, rob, 200)
        assert direct.trace == lifted.trace

    def test_cycle_two_teams(self):
        g = cycle_digraph(3)
        mult = multiply_strategy(g, base_strategy(g, 2), r=2)
        rep = exhaust_prudent_isolating(g, mult)
        assert rep.ok and rep.max_cops <= 4

    def test_every_memory_case_fires_and_passes(self):
        g = Digraph(6, ALL_CASES_EDGES)
        k = width(g, "dw")
        assert k == 2
        mult = multiply_strategy(g, ALL_CASES_BASE, r=3)
        rep = exhaust_prudent_isolating(g, mult)
        assert rep.ok, rep.witness
        assert rep.max_cops <= 3 * k
        assert set(rep.case_counts) == {"II.2", "II.1a", "II.1b", "II.1c",
                                        "I-empty", "I-nonempty"}

    def test_trace_records_and_rechecks(self):
        g = cycle_digraph(3)
        mult = multiply_strategy(g, base_strategy(g, 2), r=2)
        records = traced_run(g, mult)
        assert records[-1]["R"] == []  # the adversary ends up caught
        for rec in records:
            assert set(rec) == {"step", "mover", "U", "U'", "R", "case_tag",
                                "zeta", "invariant_report"}
            if rec["invariant_report"] is not None:
                assert rec["invariant_report"]["passed"]

    def test_five_vertex_trace_with_splits(self):
        g = Digraph(5, [(0, 4), (1, 3), (2, 0), (2, 1), (2, 3), (2, 4),
                        (3, 0), (3, 1), (4, 0), (4, 2)])
        k = width(g, "dw")
        assert k == 2
        mult = multiply_strategy(g, base_strategy(g, k), r=2)
        records = traced_run(g, mult)
        assert records[-1]["R"] == []
        # the splitting adversary does fork at some point, growing the memory
        assert any(len(rec["R"]) == 2 for rec in records)
        assert any(len(rec["zeta"]["entries"]) >= 1 for rec in records)
        for rec in records:
            if rec["invariant_report"] is not None:
                assert rec["invariant_report"]["passed"]

    def test_sampled_five_vertex_triples(self):
        import random
        from pursuitwidth.digraph import is_strongly_connected
        from pursuitwidth.families import random_digraph
        rng = random.Random(5150)
        done = 0
        while done < 4:
            g = random_digraph(5, 0.35, rng.randrange(10 ** 9))
            if not is_strongly_connected(g):
                continue
            k = width(g, "dw")
            mult = multiply_strategy(g, base_strategy(g, k), r=3)
            rep = exhaust_prudent_isolating(g, mult)
            assert rep.ok, rep.witness
            assert rep.max_cops <= 3 * k
            done += 1

    def test_adversary_moves_are_prudent_and_isolating(self):
        g = cycle_digraph(5)
        pos = RobberTurn(0, 0b1, 0b10100)
        moves = enumerate_prudent_isolating_moves(g, pos, 2)
        from pursuitwidth.strategy import is_isolating_position, is_prudent_move
        assert moves
        for Rp in moves:
            assert is_prudent_move(g, pos.Uprime, pos.R, Rp)
            assert is_isolating_position(g, pos.Uprime, Rp)


class CrossChecked(MultiplyStrategy):
    """Checks every update, which reuses the announced move, against the
    update of a twin that never announces and so recomputes the move."""

    def __init__(self, g, f, r, k):
        super().__init__(g, f, r, k)
        self.twin = MultiplyStrategy(g, f, r, k)
        self.calls = []

    def update(self, memory, pos, announced, newpos):
        out = super().update(memory, pos, announced, newpos)
        assert self.twin.update(memory, pos, announced, newpos) == out
        self.calls.append((memory, pos, announced, newpos))
        return out


def _counting(monkeypatch, name):
    calls = [0]
    original = getattr(multiply, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(multiply, name, counted)
    return calls


class TestSharedWork:
    """The move of `announce` and the derivation of a memory are computed
    once and reused; reuse must never change a result."""

    def test_memories_hash_by_value(self):
        rho = History((CopTurn(0, 0b1), RobberTurn(0, 0b100, 0b1)))
        a = MemoryZeta((HistoryEntry(rho, 0b1, 0b1),), rho.append(CopTurn(0b100, 0b10)))
        b = MemoryZeta((HistoryEntry(History(rho), 1, 1),), rho.append(CopTurn(4, 2)))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != MemoryZeta((), rho)

    def test_update_with_and_without_announce_agree_on_every_line(self, monkeypatch):
        g = Digraph(6, ALL_CASES_EDGES)
        base = multiply_strategy(g, ALL_CASES_BASE, r=3)
        strat = CrossChecked(g, base.f, 3, base.k)
        moves = _counting(monkeypatch, "cop_move_multiply")
        rep = exhaust_prudent_isolating(g, strat)
        assert rep.ok, rep.witness
        assert len(strat.calls) > rep.states
        # one move per announce and per twin update: every update of the
        # strategy itself reused the announced move
        assert moves[0] == rep.states + len(strat.calls)
        # a move announced for another memory at the same position is not reused
        by_pos = {}
        for call in strat.calls:
            by_pos.setdefault(call[1], {}).setdefault(call[0], call)
        pairs = [list(calls.values())[:2] for calls in by_pos.values() if len(calls) > 1]
        assert pairs
        for (memory, pos, *_), other in pairs:
            strat.announce(memory, pos)
            assert strat.update(*other) == strat.twin.update(*other)

    @pytest.mark.parametrize("announced_first", [True, False], ids=["hit", "miss"])
    def test_determinism_is_checked_with_and_without_reuse(self, announced_first):
        g = cycle_digraph(3)
        strat = multiply_strategy(g, base_strategy(g, 2), r=2)
        pos = CopTurn(0, 0b1)
        zeta = strat.init_memory(pos)
        ann = multiply_strategy(g, strat.f, r=2).announce(zeta, pos)
        if announced_first:
            assert strat.announce(zeta, pos) == ann
        assert ann
        with pytest.raises(InvariantViolation) as err:
            strat.update(zeta, pos, 0, CopTurn(0, 0b1))
        assert err.value.name == "determinism"
        (Rp, *_) = enumerate_prudent_isolating_moves(g, RobberTurn(pos.U, ann, pos.R), 2)
        assert isinstance(strat.update(zeta, pos, ann, CopTurn(ann, Rp)), MemoryZeta)

    def test_a_move_announced_at_another_position_is_not_reused(self):
        g = cycle_digraph(3)
        strat = multiply_strategy(g, base_strategy(g, 2), r=2)
        zeta = strat.init_memory(CopTurn(0, 0b1))
        ann = strat.announce(zeta, CopTurn(0, 0b1))
        assert ann
        # from {1}, the pursued robber 0 is gone: the recomputed move is idle
        with pytest.raises(InvariantViolation) as err:
            strat.update(zeta, CopTurn(0, 0b10), ann, CopTurn(ann, 0))
        assert err.value.name == "determinism"

    def test_every_shared_derivation_equals_a_fresh_one(self, monkeypatch):
        derive = multiply._derive
        checked = [0]

        def compared(zeta):
            d = derive(zeta)
            assert vars(d) == vars(multiply._Derivation(zeta))
            assert all(isinstance(v, (int, tuple)) for v in vars(d).values())
            checked[0] += 1
            return d
        monkeypatch.setattr(multiply, "_derive", compared)
        builds = _counting(monkeypatch, "_Derivation")
        g = Digraph(6, ALL_CASES_EDGES)
        rep = exhaust_prudent_isolating(g, multiply_strategy(g, ALL_CASES_BASE, r=3))
        assert rep.ok, rep.witness
        assert len(rep.case_counts) == 6
        # each comparison builds one fresh derivation; fewer than half of the
        # derivations asked for were built by the cache
        assert 0 < builds[0] - checked[0] < checked[0] / 2
