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
                                   enumerate_prudent_isolating_moves,
                                   exhaust_prudent_isolating, multiply_strategy,
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


def multiplied(g, k, r=1):
    """The multiplier over the solver's k-cop strategy on g."""
    return multiply_strategy(g, base_strategy(g, k), r=r)


class TestInitMemory:
    def test_singleton_start(self):
        g = cycle_digraph(3)
        zeta = multiplied(g, 2).init_memory(CopTurn(0, 0b1))
        assert zeta.s == 1
        assert zeta.rho_s.last() == CopTurn(0, 0b1)
        report = check_invariants(g, CopTurn(0, 0b1), zeta)
        assert not any(report.values())

    def test_split_start_rejected(self):
        with pytest.raises(PreconditionError):
            multiplied(cycle_digraph(3), 2).init_memory(CopTurn(0, 0b101))

    def test_needs_strong_connectivity(self):
        g = Digraph(2, [(0, 1)])
        with pytest.raises(PreconditionError, match="strongly connected"):
            MultiplyStrategy(g, PositionalCopStrategy.from_masks({}), 1, 1)

    def test_fresh_state_passes_checker_everywhere(self):
        g = cycle_digraph(4)
        strat = multiplied(g, 2)
        for v in range(4):
            zeta = strat.init_memory(CopTurn(0, 1 << v))
            assert not any(check_invariants(g, CopTurn(0, 1 << v), zeta).values())


class TestCopMove:
    def test_first_move_follows_base_strategy(self):
        g = cycle_digraph(3)
        strat = multiplied(g, 2)
        pos = CopTurn(0, 0b1)
        up, _ = strat.announce(strat.init_memory(pos), pos)
        assert strat.last_tag == CASE_II_2
        assert up == strat.f.lookup(0, 0b1)

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
        name, witness = _first_violation(report)
        assert name == "omit-closed"
        assert "1" in witness

    def test_entry_invariants_enforced(self):
        g = cycle_digraph(3)
        strat = multiplied(g, 2)
        rho_bad = History((CopTurn(0, 0b1),
                           RobberTurn(0, 0b100, 0b1)))  # not an f move
        zeta = MemoryZeta((), rho_bad)
        with pytest.raises(InvariantViolation):
            strat.announce(zeta, CopTurn(0, 0b1))

    def test_a_move_past_r_times_k_cops_raises_cop_bound(self):
        g = cycle_digraph(3)
        f = multiplied(g, 2).f
        strat = MultiplyStrategy(g, f, 1, f.cop_count() - 1)
        with pytest.raises(InvariantViolation) as err:
            exhaust_prudent_isolating(g, strat)
        assert (err.value.name, err.value.witness) == ("cop-bound",
                                                       "2 cops announced, bound is 1")

    def test_a_non_monotone_move_in_the_exhaustion_raises_monotone(self):
        # the base strategy guards the robber's vertex, then moves that cop
        # onward while the robber can still run around the cycle to it
        g = cycle_digraph(3)
        f = PositionalCopStrategy.from_masks({(0, 0b001): 0b001, (0b001, 0b010): 0b010,
                                              (0b001, 0b100): 0b100})
        with pytest.raises(InvariantViolation) as err:
            exhaust_prudent_isolating(g, MultiplyStrategy(g, f, 1, 2))
        assert (err.value.name, err.value.witness) == (
            "monotone", "move abandons {0} while robbers reach it")


class TestRobberUpdate:
    def test_stay_after_idle_announcement_keeps_memory(self):
        g = cycle_digraph(3)
        strat = multiplied(g, 2)
        pos = CopTurn(0, 0b1)
        zeta = strat.init_memory(pos)
        assert strat.update((zeta, pos, zeta), pos) == zeta

    def test_illegal_move_rejected(self):
        # the cops land on 0 and 1, and robber 2 still reaches 3 once they
        # have landed, so a reply onto 3 is imprudent
        g = cycle_digraph(4)
        strat = multiplied(g, 2)
        pos = CopTurn(0, 0b100)
        up, mid = strat.announce(strat.init_memory(pos), pos)
        assert up == 0b11
        with pytest.raises(AdversaryContractError, match="imprudent"):
            strat.update(mid, CopTurn(up, 0b1000))

    def test_derived_sets_cover_announcement(self):
        g = cycle_digraph(3)
        strat = multiplied(g, 2)
        pos = CopTurn(0, 0b1)
        up, (_, _, zmid) = strat.announce(strat.init_memory(pos), pos)
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
        assert rep.max_robbers == 3

    @pytest.mark.parametrize("r", [2, 3])
    def test_the_solvers_own_strategy_meets_at_most_two_robbers(self, r):
        # measured: with the solver's certificate instead of ALL_CASES_BASE
        # the adversary never keeps a third robber alive on this graph
        g = Digraph(6, ALL_CASES_EDGES)
        rep = exhaust_prudent_isolating(g, multiply_strategy(g, base_strategy(g, 2), r=r))
        assert rep.ok, rep.witness
        assert rep.max_robbers == 2

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


def _first_violation(report):
    """(invariant, witness) of the first invariant the report says fails."""
    return next((name, why) for name, why in report.items() if why)


# one memory per invariant that only a hand-built memory breaks: the
# invariant, the cop position (None: TestCheckedOnce's), the changes to
# TestCheckedOnce.memory and the witness
BROKEN_MEMORIES = [
    # the cops stand on 0 alone, not on the teams' 0 and 2
    ("cover", CopTurn(0b1, 0b100000), {}, "teams {0,2} != cops {0}"),
    # the top history ends at the robbers' turn, with robber 1 on the graph
    ("anchor", None, {"tail": (CopTurn(0b101, 0b10), RobberTurn(0b101, 0b1, 0b10))},
     "top history does not end in a cop position"),
    # 0 is outside the cone of history 1's robber 2 under the cops 0 and 4
    ("omit-bounded", None, {"Oset": 0b100001}, "omitted set 1 leaves the cone at {0}"),
    # the same omitted set holds history 1's team cop on 0
    ("omit-closed", None, {"Oset": 0b100001}, "omitted set 1 holds team cops {0}"),
    ("progress", None, {"Oset": 0b100010}, "top robber 1 inside an omitted set"),
    # the top history places no cop, while history 1's cop on 0 blocks robber 1
    ("team-region", None, {"tail": (CopTurn(0, 0b10),)},
     "top robber cone differs under cumulative placements"),
    ("omitted-absorbs", None, {"Oset": 0},
     "robbers of history 1 reach {5} outside omitted sets"),
    # no cop stands, so robber 5 reaches past its team's cops
    ("region-unchanged", CopTurn(0, 0b100000), {},
     "robber 5: region shrinks under later teams"),
]


class TestCheckedOnce:
    """A memory reached on the ALL_CASES_EDGES pursuit, checked by hand: the
    shortcuts that let a check walk only new history steps must still catch
    a bad step wherever it sits."""

    def setup_method(self):
        self.g = Digraph(6, ALL_CASES_EDGES)
        self.strat = multiply_strategy(self.g, ALL_CASES_BASE, r=3)
        self.f = self.strat.f
        self.pos = CopTurn(0b101, 0b100010)

    def memory(self, announced=0b10001, Rset=0b100000, Oset=0b100000,
               tail=(CopTurn(0b101, 0b10),)):
        # robber 0 is pursued to 2; robber 5 stays behind, robber 1 goes on
        rho = History((CopTurn(0, 0b1), RobberTurn(0, announced, 0b1),
                       CopTurn(announced, 0b100), RobberTurn(0b10001, 0b101, 0b100)))
        return MemoryZeta((HistoryEntry(rho, Rset, Oset),), History(rho.positions + tail))

    def test_the_hand_built_memory_passes(self):
        zeta = self.memory()
        assert not any(check_invariants(self.g, self.pos, zeta, f=self.f).values())
        assert zeta.rho_s.checked == (self.f, len(zeta.rho_s))

    def test_a_corrupted_earlier_step_at_a_fresh_position_is_caught(self):
        assert not any(check_invariants(self.g, self.pos, self.memory(), f=self.f).values())
        # the same memory with the first announcement changed in both
        # histories: every set the invariants derive stays the same
        bad = self.memory(announced=0b1001)
        with pytest.raises(InvariantViolation) as err:
            self.strat.announce(bad, self.pos)
        assert err.value.name == "consistent"
        # named by the first history that holds the bad step, as when every
        # history was walked from its start
        assert err.value.witness.endswith(
            ": history 1: announcement [0, 3] differs from base move [0, 4]")

    @pytest.mark.parametrize("bad_history", [1, 2])
    def test_without_the_chain_every_history_is_walked(self, bad_history):
        good, bad = self.memory(), self.memory(announced=0b1001)
        entries, top = (bad.entries, good.rho_s) if bad_history == 1 else (good.entries,
                                                                            bad.rho_s)
        report = check_invariants(self.g, self.pos, MemoryZeta(entries, top), f=self.f)
        assert report["chain"]
        assert report["consistent"].startswith(
            f"history {bad_history}: announcement")

    def test_a_check_against_one_strategy_does_not_pass_another(self):
        zeta = self.memory()
        self.strat.announce(zeta, self.pos)
        other = PositionalCopStrategy.from_masks({**self.f.mapping, (0, 0b1): 0b1001})
        with pytest.raises(InvariantViolation) as err:
            MultiplyStrategy(self.g, other, self.strat.r, self.strat.k).announce(zeta, self.pos)
        assert err.value.witness.endswith(
            ": history 1: announcement [0, 4] differs from base move [0, 3]")

    def test_a_check_at_one_position_does_not_pass_another(self):
        zeta = self.memory()
        self.strat.announce(zeta, self.pos)
        with pytest.raises(InvariantViolation) as err:
            self.strat.announce(zeta, CopTurn(0b101, 0b1010))
        assert err.value.name == "partition"

    @pytest.mark.parametrize("r,witness", [
        (0, "2 histories for r=0"),
        (1, "a full chain must repeat its last placement set"),
    ])
    def test_a_move_past_the_chain_bound_raises(self, r, witness):
        # pursuing robber 1 places cops its history does not share with
        # history 1; a strategy for fewer robbers may not make that memory
        strat = MultiplyStrategy(self.g, self.f, r, self.g.n)
        with pytest.raises(InvariantViolation) as err:
            strat.announce(self.memory(), self.pos)
        assert (err.value.name, err.value.witness) == ("chain-bound", witness)

    def test_the_appended_step_of_a_checked_history_is_walked(self):
        zeta = self.memory()
        assert not any(check_invariants(self.g, self.pos, zeta, f=self.f).values())
        want = self.f.lookup(0b101, 0b10)
        for up, ok in ((want, True), (0b1001, False)):
            longer = MemoryZeta(zeta.entries, zeta.rho_s.append(RobberTurn(0b101, up, 0b10)))
            assert longer.rho_s.checked == zeta.rho_s.checked
            report = check_invariants(self.g, self.pos, longer, f=self.f)
            assert (not report["consistent"]) is ok

    def test_an_attached_robber_needs_a_legal_added_step(self):
        # from 2, with a cop kept on 0 and one landing on 2, a robber can
        # reach 1 and 5 but not 3
        report = check_invariants(self.g, CopTurn(0b101, 0b1010), self.memory(Rset=0b1000),
                                  f=self.f)
        assert "robber move 2->3 illegal" in report["member-consistency"]
        assert not report["consistent"]

    @pytest.mark.parametrize("name,pos,changes,witness", BROKEN_MEMORIES,
                             ids=[case[0] for case in BROKEN_MEMORIES])
    def test_each_invariant_fires_on_a_memory_that_breaks_it(self, name, pos, changes, witness):
        report = check_invariants(self.g, pos or self.pos, self.memory(**changes), f=self.f)
        assert report[name] == witness

    @pytest.mark.parametrize("tail,witness", [
        # the robbers' turn after the top cop position holds another robber
        ((CopTurn(0b101, 0b10), RobberTurn(0b101, 0b11, 0b100000)),
         "RobberTurn(U=[0, 2], U'=[0, 1], R=[5]) does not follow CopTurn(U=[0, 2], R=[1])"),
        # the cop position after the robbers' turn lost the announced cops
        ((CopTurn(0, 0b10),),
         "CopTurn(U=[], R=[1]) does not follow RobberTurn(U=[0, 4], U'=[0, 2], R=[2])"),
    ], ids=["after-a-cop-turn", "after-a-robber-turn"])
    def test_a_step_that_does_not_follow_is_named(self, tail, witness):
        report = check_invariants(self.g, self.pos, self.memory(tail=tail), f=self.f)
        assert report["consistent"] == f"history 2: {witness}"

    def test_a_first_placement_with_cops_is_named(self):
        zeta = MemoryZeta((), History((CopTurn(0b1, 0b10),)))
        report = check_invariants(self.g, CopTurn(0b1, 0b10), zeta, f=self.f)
        assert report["consistent"] == (
            "history 1: first placement must have no cops, got CopTurn(U=[0], R=[1])")

    def test_an_attached_robber_on_a_cop_of_its_team_is_reported(self):
        # robber 0 attached to history 1, whose team holds 0: no robber
        # position can be built for its step, and partition names it
        report = check_invariants(self.g, self.pos, self.memory(Rset=0b100001), f=self.f)
        assert _first_violation(report)[0] == "partition"


class Recorded(MultiplyStrategy):
    """Records every reply it folds in: (memory before the cop move, the
    position it was made from, the next position, the memory it reached)."""

    def __init__(self, g, f, r, k):
        super().__init__(g, f, r, k)
        self.calls = []

    def update(self, memory, newpos):
        out = super().update(memory, newpos)
        zeta, pos, _ = memory
        self.calls.append((zeta, pos, newpos, out))
        return out


def _counting(monkeypatch, name, owner=multiply):
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


class TestSharedWork:
    """The move of `announce` is made once and handed to `update`, and the
    derivation of a memory is computed once and reused; neither may change
    a result."""

    def test_memories_hash_by_value(self):
        rho = History((CopTurn(0, 0b1), RobberTurn(0, 0b100, 0b1)))
        a = MemoryZeta((HistoryEntry(rho, 0b1, 0b1),), rho.append(CopTurn(0b100, 0b10)))
        b = MemoryZeta((HistoryEntry(History(rho), 1, 1),), rho.append(CopTurn(4, 2)))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != MemoryZeta((), rho)

    def _recorded_run(self):
        g = Digraph(6, ALL_CASES_EDGES)
        base = multiply_strategy(g, ALL_CASES_BASE, r=3)
        strat = Recorded(g, base.f, 3, base.k)
        rep = exhaust_prudent_isolating(g, strat)
        assert rep.ok, rep.witness
        assert len(strat.calls) > rep.states
        return g, strat, rep

    def test_exhaustion_makes_one_cop_move_per_expanded_state(self, monkeypatch):
        moves = _counting(monkeypatch, "announce", MultiplyStrategy)
        _, _, rep = self._recorded_run()
        # every reply is folded into the memory the announcement handed over
        assert moves[0] == rep.states

    def test_each_memory_object_is_checked_at_most_once(self, monkeypatch):
        checked = []  # keeps every checked memory alive, so no id is reused
        checked_at = set()
        check = multiply.check_invariants

        def recorded(g, pos, zeta, f=None, cache=None):
            checked.append(zeta)
            checked_at.add((id(zeta), pos, id(f)))
            return check(g, pos, zeta, f=f, cache=cache)
        monkeypatch.setattr(multiply, "check_invariants", recorded)
        announce = MultiplyStrategy.announce
        moves = []

        def passed_before(strat, zeta, pos):
            out = announce(strat, zeta, pos)
            # the cop move starts from a memory checked at this position against f
            assert (id(zeta), pos, id(strat.f)) in checked_at
            moves.append(zeta)
            return out
        monkeypatch.setattr(MultiplyStrategy, "announce", passed_before)
        g = Digraph(6, ALL_CASES_EDGES)
        rep = exhaust_prudent_isolating(g, multiply_strategy(g, ALL_CASES_BASE, r=3))
        assert rep.ok, rep.witness
        assert len(moves) == rep.states
        assert len({id(zeta) for zeta in checked}) == len(checked)

    def test_update_with_and_without_announce_agree_on_every_line(self):
        # a twin replays each recorded (memory, position) with a move of its
        # own and must reach the memory the exhaustion reached
        g, strat, _ = self._recorded_run()
        twin = MultiplyStrategy(g, strat.f, strat.r, strat.k)
        for zeta, pos, newpos, out in strat.calls:
            up, mid = twin.announce(zeta, pos)
            assert up == newpos.U
            assert twin.update(mid, newpos) == out

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
