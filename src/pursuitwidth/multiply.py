"""The strategy multiplier: one-robber cop strategies lifted to r robbers.

A memory state tracks a chain of one-robber play histories, one per robber
team, together with the robbers attached to each history and the placements
that were deliberately omitted because an earlier team's robber could still
reach them.  Positions, robber sets and omitted sets are vertex masks
throughout; a history's positions hold one robber each.  The strategy
object `MultiplyStrategy` makes every memory and bounds it: no memory holds
more than r+1 histories and no move announces more than r*k cops.  It also
checks every documented invariant of the construction at runtime, once per
memory it makes: when the robbers' reply makes it, or on entry to the cop
move for an opening memory and one the reply left unchanged.  A violation
raises with the invariant's name and witness vertices.  The checker shares one
thing with the move and update code: the derivation of an immutable memory
into per-history masks (`_derive`), a pure function of the memory.  Every
reachability condition it evaluates itself.  Vertex lists appear only in
the JSON of `zeta_json` and `traced_run`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .arena import (CopTurn, GraphCache, RobberTurn, effective_budget, explore,
                    subset_masks)
from .digraph import Digraph, bits, is_strongly_connected
from .errors import (AdversaryContractError, InvariantViolation,
                     PreconditionError, StrategyHoleError)
from .strategy import CopStrategy, History, PositionalCopStrategy, cleanup_strategy

CASE_WON = "Won"
CASE_I_EMPTY = "I-empty"
CASE_I_NONEMPTY = "I-nonempty"
CASE_II_1A = "II.1a"
CASE_II_1B = "II.1b"
CASE_II_1C = "II.1c"
CASE_II_2 = "II.2"


@dataclass(frozen=True)
class HistoryEntry:
    """One non-final chain element: a history, its robbers, its omitted set."""
    rho: History
    Rset: int
    Oset: int

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.rho, self.Rset, self.Oset)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class MemoryZeta:
    """The multiplier's memory: entries 1..s-1 plus the longest history;
    `_checked` is (U, R, base strategy) of a check no cop move has used yet."""
    entries: tuple
    rho_s: History

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.entries, self.rho_s)))
        object.__setattr__(self, "_checked", None)

    def __hash__(self):
        return self._hash

    @property
    def s(self) -> int:
        return len(self.entries) + 1

    def rho(self, i: int) -> History:
        """1-indexed history access."""
        if i == self.s:
            return self.rho_s
        return self.entries[i - 1].rho


def _vs(mask: int) -> str:
    return "{" + ",".join(str(v) for v in bits(mask)) + "}"


def _robber(pos) -> int:
    """The one robber of a history position."""
    R = pos.R
    if not R or R & (R - 1):
        raise InvariantViolation("shape", f"a history position holds one robber, got {pos!r}")
    return R.bit_length() - 1


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _last_robber_turn(rho: History):
    last = rho.last()
    if not isinstance(last, RobberTurn):
        raise InvariantViolation("shape", f"history must end in a robber position, got {last!r}")
    return last.U, last.Uprime, _robber(last)


def _last_parts(rho: History):
    """(W, b, ends_in_cop_position, W_preceding_or_0) of a history's last position."""
    last = rho.last()
    if isinstance(last, CopTurn):
        return last.U, _robber(last), True, 0
    if isinstance(last, RobberTurn):
        return last.Uprime, _robber(last), False, last.U
    raise InvariantViolation("shape", f"unexpected last position {last!r}")


class _Derivation:
    """Index-1 tuples of the per-history and cumulative sets, as masks."""

    def __init__(self, zeta: MemoryZeta):
        s = zeta.s
        W, Wm1, b = [0] * (s + 1), [0] * (s + 1), [0] * (s + 1)
        Rset, Oset = [0] * (s + 1), [0] * (s + 1)
        for i, entry in enumerate(zeta.entries, start=1):
            Wm1[i], W[i], b[i] = _last_robber_turn(entry.rho)
            Rset[i] = entry.Rset
            Oset[i] = entry.Oset
        W[s], b[s], ends_cop, Wm1[s] = _last_parts(zeta.rho_s)
        Ocum = [0] * (s + 1)   # O^i over i <= s-1
        for i in range(1, s):
            Ocum[i] = Ocum[i - 1] | Oset[i]
        U_, Ucum, Wcum = [0] * (s + 1), [0] * (s + 1), [0] * (s + 1)
        for i in range(1, s + 1):
            U_[i] = W[i] & ~Ocum[min(i - 1, s - 1)]
            Ucum[i] = Ucum[i - 1] | U_[i]
            Wcum[i] = Wcum[i - 1] | W[i]
        self.s = s
        self.W, self.Wm1, self.b = tuple(W), tuple(Wm1), tuple(b)
        self.Rset, self.Oset = tuple(Rset), tuple(Oset)
        self.ends_cop = (False,) * s + (ends_cop,)
        self.Ocum, self.U_, self.Ucum, self.Wcum = tuple(Ocum), tuple(U_), tuple(Ucum), tuple(Wcum)


@lru_cache(maxsize=8)
def _derive(zeta: MemoryZeta) -> _Derivation:
    """The derivation of a memory, shared read-only by everyone who asks.

    Checking, moving and updating one explored state derive the same few
    memories several times over, so the last few derivations are kept.  A
    derivation is a pure function of its memory, so equal memories may
    share one.
    """
    return _Derivation(zeta)


# ---------------------------------------------------------------------------
# Invariants

INVARIANTS = ("chain", "partition", "cover", "anchor", "omit-closed", "omit-bounded",
              "consistent", "progress", "member-consistency", "team-region", "omitted-absorbs",
              "region-unchanged")


def _step_consistent(cache: GraphCache, f: PositionalCopStrategy, a, b) -> str:
    """Why position b does not follow a by a legal move of a play of f ("" if it does)."""
    if isinstance(a, CopTurn):
        if not isinstance(b, RobberTurn) or b.U != a.U or b.R != a.R:
            return f"{b!r} does not follow {a!r}"
        try:
            want = f.lookup(a.U, a.R)
        except StrategyHoleError:
            return f"base strategy undefined at {a!r}"
        if b.Uprime != want:
            return (f"announcement {list(bits(b.Uprime))} differs from base move "
                    f"{list(bits(want))}")
    else:
        if not isinstance(b, CopTurn) or b.U != a.Uprime:
            return f"{b!r} does not follow {a!r}"
        v0, v1 = _robber(a), _robber(b)
        # not GraphCache.robber_turn: the checker asks reachability itself
        legal = cache.reach(a.R, a.U & a.Uprime) & ~a.Uprime
        if not (legal >> v1) & 1:
            return f"robber move {v0}->{v1} illegal at {a!r}"
    return ""


def _history_consistent(cache: GraphCache, f: PositionalCopStrategy, rho: History, done) -> str:
    """Why the history is not a legal play whose cop moves all follow f ("" if it is).

    Only the steps after its first `done` positions, and after the prefix that
    already passed against f, are walked; a passing history records that it did.
    """
    positions = rho.positions
    key, n = rho.checked or (None, 0)
    done = max(done, n if key is f else 0)
    if done < 2:
        if len(positions) < 2:
            return "history has no placement"
        if not isinstance(positions[1], CopTurn) or positions[1].U:
            return f"first placement must have no cops, got {positions[1]!r}"
        done = 2
    for i in range(done, len(positions)):
        why = _step_consistent(cache, f, positions[i - 1], positions[i])
        if why:
            return why
    rho.checked = (f, len(positions))
    return ""


def check_invariants(g: Digraph, pos: CopTurn, zeta: MemoryZeta,
                     f: Optional[PositionalCopStrategy] = None,
                     cache: Optional[GraphCache] = None) -> dict:
    """Check every invariant of the memory state: `{invariant: witness of its
    first violation, or "" if it holds}`, in INVARIANTS order.

    Evaluates the seven core invariants, the anchoring side condition on the
    longest history, and the derived diagnostics.  It shares the memory's
    derivation into masks (`_derive`) with the move and update code, but
    makes every reachability check itself rather than trusting the sets the
    update code computed.  One pass over the entries evaluates every
    condition, and each invariant reports its first violation.  With `f`,
    `consistent` walks each history only past the prefix that already passed
    against f (`History.checked`) and, once the chain holds, past the history
    before it, so a shared bad step is named by the first history holding it;
    `member-consistency` checks the one step each attached robber adds.
    """
    cache = cache or GraphCache(g)
    reach = cache.reach
    d = _derive(zeta)
    s = d.s
    Rm, Um = pos.R, pos.U
    R_s = Rm & (1 << d.b[s])
    wit = dict.fromkeys(INVARIANTS, "")  # each invariant's first violation, "" if none

    def violated(name, why):
        wit[name] = wit[name] or why

    union = R_s
    for i in range(1, s):
        R_i, O_i, W_i = d.Rset[i], d.Oset[i], d.W[i]
        # chain: the histories strictly extend one another
        if not zeta.rho(i).is_strict_prefix_of(zeta.rho(i + 1)):
            violated("chain", f"history {i} is not a strict prefix of history {i + 1}")
        # partition: the attached robber sets split R
        if R_i & union:
            violated("partition", f"robber sets overlap at {_vs(R_i & union)}")
        union |= R_i
        # omit-closed: omitted sets contain their robbers and absorb reachability
        if R_i & ~O_i:
            violated("omit-closed", f"robbers {_vs(R_i & ~O_i)} outside omitted set {i}")
        elif O_i & W_i:  # reach(O_i, W_i) drops blocked sources: name them
            violated("omit-closed", f"omitted set {i} holds team cops {_vs(O_i & W_i)}")
        elif reach(O_i, W_i) != O_i:
            violated("omit-closed", f"omitted set {i} not closed: reaches "
                                    f"{_vs(reach(O_i, W_i) & ~O_i)}")
        # omit-bounded: omitted sets stay inside their robber's old cone
        if O_i & ~reach(1 << d.b[i], d.Wm1[i]):
            violated("omit-bounded", f"omitted set {i} leaves the cone at "
                                     f"{_vs(O_i & ~reach(1 << d.b[i], d.Wm1[i]))}")
        # progress: no later robber sits inside an earlier omitted set
        if R_i & d.Ocum[i - 1]:
            violated("progress", f"robbers {_vs(R_i & d.Ocum[i - 1])} of history {i} "
                                 f"inside earlier omitted set")
        # diagnostics implied by the invariants.  omitted-absorbs: what the
        # history's robbers reach lies in the omitted sets
        if reach(R_i, d.Ucum[i]) & ~d.Ocum[i]:
            violated("omitted-absorbs", f"robbers of history {i} reach "
                                        f"{_vs(reach(R_i, d.Ucum[i]) & ~d.Ocum[i])} outside "
                                        f"omitted sets")
        last = zeta.rho(i).last()
        for b in bits(R_i):
            # member-consistency: the robber extends its history by a legal move (on a
            # cop of its team it breaks partition, cover or progress); team-region and
            # region-unchanged: its cone is the same under its team, earlier teams, all teams
            step = f is not None and not (W_i >> b) & 1
            why = step and _step_consistent(cache, f, last, CopTurn(W_i, 1 << b))
            if why:
                violated("member-consistency",
                         f"robber {b} not consistent with history {i}: {why}")
            if reach(1 << b, W_i) != reach(1 << b, d.Wcum[i]):
                violated("team-region", f"robber {b}: cone under team {i} differs from cone "
                                        f"under all earlier teams")
            if reach(1 << b, Um) != reach(1 << b, d.Ucum[i]):
                violated("region-unchanged", f"robber {b}: region shrinks under later teams")
    if union != Rm:
        violated("partition", f"attached robbers {_vs(union)} != position robbers {_vs(Rm)}")
    if R_s & d.Ocum[s - 1]:
        violated("progress", f"top robber {d.b[s]} inside an omitted set")
    if reach(1 << d.b[s], d.W[s]) != reach(1 << d.b[s], d.Wcum[s]):
        violated("team-region", "top robber cone differs under cumulative placements")
    # cover: cops on the graph are exactly the union of the teams
    if d.Ucum[s] != Um:
        violated("cover", f"teams {_vs(d.Ucum[s])} != cops {_vs(Um)}")
    # anchor: while the top robber is on the graph, its history awaits a move
    if R_s and not d.ends_cop[s]:
        violated("anchor", "top history does not end in a cop position")
    # consistent: every stored history is a legal play of the base strategy;
    # once the chain holds, each history walks only past the one before it
    if f is None:
        del wit["member-consistency"]
    else:
        done = 0
        for i in range(1, s + 1):
            if why := _history_consistent(cache, f, zeta.rho(i), done):
                violated("consistent", f"history {i}: {why}")
                break
            done = 0 if wit["chain"] else len(zeta.rho(i).positions)
    return wit


# ---------------------------------------------------------------------------
# The multiplier

class MultiplyStrategy(CopStrategy):
    """r*k-cop memory strategy that simulates k-cop play against each robber.

    Its memory is a `MemoryZeta` at cop positions.  During the robbers' reply
    it is `(memory before the move, position, memory after the move)`, which
    `update` needs to fold the reply in and to bound where robbers reattach.
    """

    def __init__(self, g: Digraph, f: PositionalCopStrategy, r: int, k: int):
        if not is_strongly_connected(g):
            raise PreconditionError("the multiplier is defined on strongly connected graphs")
        self.g = g
        self.f = f
        self.r = r
        self.k = k
        self.cache = GraphCache(g)
        self.last_tag = None

    def init_memory(self, pos: CopTurn) -> MemoryZeta:
        """Memory after the robbers' opening placement (a single vertex)."""
        R0 = pos.R
        if not R0 or R0 & (R0 - 1):
            raise PreconditionError(f"unsupported initial split: {list(bits(R0))}")
        return MemoryZeta((), History((CopTurn(0, R0),)))

    def _memory(self, entries: tuple, rho_s: History) -> MemoryZeta:
        """A new memory, held to the chain bound: at most r+1 histories, and a
        full chain repeats its last placement set."""
        zeta = MemoryZeta(entries, rho_s)
        if zeta.s > self.r + 1:
            raise InvariantViolation("chain-bound", f"{zeta.s} histories for r={self.r}")
        if zeta.s == self.r + 1:
            d = _derive(zeta)
            if d.W[zeta.s] != d.W[zeta.s - 1]:
                raise InvariantViolation(
                    "chain-bound", "a full chain must repeat its last placement set")
        return zeta

    def _require_invariants(self, pos: CopTurn, zeta: MemoryZeta, where: str):
        """Raise on the first violated invariant, unless this very memory object
        already passed them all at `pos` against `f`; each check is used once."""
        f = self.f
        if zeta._checked == (pos.U, pos.R, f):
            object.__setattr__(zeta, "_checked", None)
            return
        wit = check_invariants(self.g, pos, zeta, f=f, cache=self.cache)
        for name, why in wit.items():
            if why:
                raise InvariantViolation(name, f"{where}: {why}")
        object.__setattr__(zeta, "_checked", (pos.U, pos.R, f))

    def announce(self, zeta: MemoryZeta, pos: CopTurn):
        """One cop move: returns (announcement, memory during the reply) and
        records the memory case it took in `last_tag`."""
        self._require_invariants(pos, zeta, "on entry to the cop move")
        f, cache = self.f, self.cache
        d = _derive(zeta)
        s = d.s
        Rm, Um = pos.R, pos.U

        if not (Rm >> d.b[s]) & 1 and s == 1:
            # the one pursued robber left the graph: the cops have won
            Uprime, zeta2, tag = Um, zeta, CASE_WON
        elif not (Rm >> d.b[s]) & 1:
            # the pursued top robber left the graph
            Uprime = d.Ucum[s - 1]
            top = zeta.entries[-1]
            if not top.Rset:
                rho_new = top.rho.append(CopTurn(d.W[s - 1], 1 << d.b[s]))
                zeta2 = self._memory(zeta.entries[:-1], rho_new)
                tag = CASE_I_EMPTY
            else:
                b = _lowest(top.Rset)
                rest = top.Rset & ~(1 << b)
                O_t = cache.reach(rest, d.W[s - 1])
                entry = HistoryEntry(top.rho, rest, O_t)
                rho_new = top.rho.append(CopTurn(d.W[s - 1], 1 << b))
                zeta2 = self._memory(zeta.entries[:-1] + (entry,), rho_new)
                tag = CASE_I_NONEMPTY
        else:
            empties = [i for i in range(1, s) if d.Rset[i] == 0]
            if empties:
                i = min(empties)
                rho_i = zeta.rho(i)
                rho_next = zeta.rho(i + 1)
                step = rho_next[len(rho_i)]
                if not isinstance(step, CopTurn) or step.U != d.W[i]:
                    raise InvariantViolation("chain", f"history {i + 1} does not continue "
                                                      f"history {i} with its announced cops")
                b_t = _robber(step)
                if len(rho_next) == len(rho_i) + 1:
                    if i + 1 != s:
                        raise InvariantViolation("shape", "an intermediate history ends in a "
                                                          "cop position")
                    zeta2 = self._memory(zeta.entries[:i - 1] + zeta.entries[i:], zeta.rho_s)
                    Uprime = Um
                    tag = CASE_II_1A
                else:
                    W_t = f.lookup(d.W[i], step.R)
                    Uprime = (W_t & ~d.Ocum[i - 1])
                    for j in range(1, s + 1):
                        if j != i:
                            Uprime |= d.U_[j]
                    O_t = (d.Oset[i] & cache.reach(1 << b_t, d.W[i])) & ~W_t
                    rho_t = rho_i.append(step).append(RobberTurn(d.W[i], W_t, step.R))
                    if rho_t != rho_next:
                        entry = HistoryEntry(rho_t, zeta.entries[i - 1].Rset, O_t)
                        zeta2 = self._memory(zeta.entries[:i - 1] + (entry,) + zeta.entries[i:],
                                             zeta.rho_s)
                        tag = CASE_II_1B
                    else:
                        if i + 1 == s:
                            raise InvariantViolation("shape", "cannot merge into the top history")
                        nxt = zeta.entries[i]
                        merged = HistoryEntry(nxt.rho, nxt.Rset, nxt.Oset | O_t)
                        zeta2 = self._memory(
                            zeta.entries[:i - 1] + (merged,) + zeta.entries[i + 1:], zeta.rho_s)
                        tag = CASE_II_1C
            else:
                if not d.ends_cop[s]:
                    raise InvariantViolation("anchor", "pursuing the top robber but its history "
                                                       "already holds an announcement")
                W_t = f.lookup(d.W[s], 1 << d.b[s])
                Uprime = W_t & ~d.Ocum[s - 1]
                for j in range(1, s):
                    Uprime |= d.U_[j]
                rho_new = zeta.rho_s.append(RobberTurn(d.W[s], W_t, 1 << d.b[s]))
                zeta2 = self._memory(zeta.entries, rho_new)
                tag = CASE_II_2

        spoiled, _ = cache.robber_turn(Um, Uprime, Rm)
        if spoiled:
            raise InvariantViolation("monotone", f"move abandons {_vs(spoiled)} while "
                                                 f"robbers reach it")
        d2 = _derive(zeta2)
        if d2.Ucum[d2.s] != Uprime:
            raise InvariantViolation("cover", f"teams {_vs(d2.Ucum[d2.s])} != announced "
                                              f"{_vs(Uprime)} after the move")
        self.last_tag = tag
        size = bin(Uprime).count("1")
        if size > self.r * self.k:
            raise InvariantViolation("cop-bound", f"{size} cops announced, "
                                                  f"bound is {self.r * self.k}")
        return Uprime, (zeta, pos, zeta2)

    def update(self, memory, newpos: CopTurn) -> MemoryZeta:
        """Fold the robbers' reply into the memory.

        `memory` is what `announce` returned: the memory before the cop move,
        which bounds where robbers may reattach, the position the move was
        made from, and the memory right after the move.  A memory it makes is
        checked here against `f`, so the next cop move need not check it again.
        """
        snapshot, pos_before, zeta = memory
        cache = self.cache
        R, Rp = pos_before.R, newpos.R
        d = _derive(zeta)
        s = d.s
        if Rp == R and d.ends_cop[s]:
            return zeta
        # when the robbers stand still right after a move on the top robber, the
        # pending announcement still has to be folded into the top history
        Uprime = d.Ucum[s]
        _, legal = cache.robber_turn(pos_before.U, Uprime, R)
        if Rp & ~legal:
            raise AdversaryContractError(f"robbers moved to unreachable vertices "
                                         f"{_vs(Rp & ~legal)}")
        if not cache.is_prudent(R, Uprime, Rp):
            raise AdversaryContractError(f"imprudent move: {_vs(Rp & ~R & cache.reach(R, Uprime))} "
                                         f"still reachable once the cops land")
        if not cache.is_isolating(Uprime, Rp):
            raise AdversaryContractError(f"robber set {_vs(Rp)} is not isolating")

        if (Rp & ~R) and not (R >> d.b[s]) & 1:
            raise InvariantViolation("shape", "robbers took fresh vertices although the "
                                              "cops only removed guards")

        # attach every robber to the first omitted set that contains it
        assigned = [0] * (s + 1)
        for b in bits(Rp):
            i = next((j for j in range(1, s) if (d.Oset[j] >> b) & 1), s)
            assigned[i] |= 1 << b

        sd = _derive(snapshot)
        if sd.b[sd.s] == d.b[s]:  # the cop move kept pursuing the same robber
            bound = cache.reach(1 << sd.b[sd.s], sd.W[sd.s])
            if assigned[s] & ~bound:
                raise InvariantViolation(
                    "reattachment", f"robbers {_vs(assigned[s] & ~bound)} attached to the "
                                    f"top history but outside the pursued robber's cone")
        if d.ends_cop[s] and assigned[s] & ~(1 << d.b[s]):
            raise InvariantViolation(
                "top-stability", f"top history rests at a cop position but gained robbers "
                                 f"{_vs(assigned[s] & ~(1 << d.b[s]))}")

        new_entries = tuple(HistoryEntry(e.rho, assigned[i], e.Oset)
                            for i, e in enumerate(zeta.entries, start=1))
        if not d.ends_cop[s] and assigned[s]:
            b = _lowest(assigned[s])
            rest = assigned[s] & ~(1 << b)
            rho_new = zeta.rho_s.append(CopTurn(d.W[s], 1 << b))
            if rest:
                O_t = cache.reach(rest, d.W[s])
                entry = HistoryEntry(zeta.rho_s, rest, O_t)
                zeta2 = self._memory(new_entries + (entry,), rho_new)
            else:
                # nobody else stays attached to the old top history, so the
                # extension replaces it instead of leaving an empty stub behind
                zeta2 = self._memory(new_entries, rho_new)
        else:
            zeta2 = self._memory(new_entries, zeta.rho_s)

        self._require_invariants(CopTurn(Uprime, Rp), zeta2, "after the robbers' move")
        return zeta2


def multiply_strategy(g: Digraph, f: PositionalCopStrategy, r: int,
                      budget: Optional[int] = None) -> MultiplyStrategy:
    """Package the multiplier for r robbers from a one-robber strategy.

    The base strategy is normalized first (every move places a new cop,
    only on robber-reachable vertices); the construction assumes exactly
    that shape, and the normalized strategy's cop count is k.
    """
    if r < 1:
        raise PreconditionError("r must be at least 1")
    f = cleanup_strategy(g, f, budget=budget)
    return MultiplyStrategy(g, f, r, f.cop_count())


# ---------------------------------------------------------------------------
# Adversaries and exhaustive validation

def enumerate_prudent_isolating_moves(g: Digraph, pos: RobberTurn, r: int,
                                      cache: Optional[GraphCache] = None):
    """All legal prudent isolating robber responses, largest sets first.

    Sizes run r..0, so the empty robber set is always a response.  When no
    escape remains it is the only one: the capture, and folding it into the
    memory is how the memory after a capture gets its invariant check.  When
    escapes remain it is the robbers leaving the graph, which ends the play
    in a capture and so cannot help them.
    """
    cache = cache or GraphCache(g)
    up, R = pos.Uprime, pos.R
    _, legal = cache.robber_turn(pos.U, up, R)
    return [Rp for Rp in subset_masks(legal, range(r, -1, -1))
            if cache.is_prudent(R, up, Rp) and cache.is_isolating(up, Rp)]


@dataclass
class AdversarialReport:
    ok: bool
    witness: Optional[object]
    states: int
    max_cops: int
    max_robbers: int
    case_counts: dict


def exhaust_prudent_isolating(g: Digraph, strat: MultiplyStrategy,
                              budget: Optional[int] = None) -> AdversarialReport:
    """Play the multiplier against every prudent isolating robber line.

    Every branch must reach a capture within the budget; any repeat of a
    (memory, cop set, robber set) state would be an infinite play and fails,
    and `MultiplyStrategy.announce` raises `InvariantViolation("monotone")`
    on a non-monotone move.  A failure's witness is its verdict and the path
    of states from a robber placement to the failing one.  `max_cops` and
    `max_robbers` are the most cops announced and robbers held on any
    explored state.
    """
    max_cops = max_robbers = 0
    cases = {}

    def moves(state):
        nonlocal max_cops, max_robbers
        zeta, U, R = state
        max_robbers = max(max_robbers, bin(R).count("1"))
        if R == 0:
            return None
        up, mid = strat.announce(zeta, CopTurn(U, R))
        cases[strat.last_tag] = cases.get(strat.last_tag, 0) + 1
        max_cops = max(max_cops, bin(up).count("1"))
        return ((strat.update(mid, CopTurn(up, Rp)), up, Rp)
                for Rp in enumerate_prudent_isolating_moves(g, RobberTurn(U, up, R), strat.r,
                                                            cache=strat.cache))

    roots = ((strat.init_memory(CopTurn(0, 1 << v)), 0, 1 << v) for v in range(g.n))
    failure, states = explore(roots, moves, effective_budget(budget),
                              "adversarial search", cycle="play never ends")
    return AdversarialReport(failure is None, failure, states, max_cops, max_robbers, cases)


def _vertices(mask: int) -> list:
    """A mask as the sorted vertex list that JSON output carries."""
    return sorted(bits(mask))


def _pos_json(pos):
    if isinstance(pos, CopTurn):
        return {"type": "cop", "U": _vertices(pos.U), "R": _vertices(pos.R)}
    if isinstance(pos, RobberTurn):
        return {"type": "robber", "U": _vertices(pos.U), "U'": _vertices(pos.Uprime),
                "R": _vertices(pos.R)}
    return {"type": "initial"}


def zeta_json(zeta: MemoryZeta):
    return {
        "entries": [{"rho": [_pos_json(p) for p in e.rho],
                     "R": _vertices(e.Rset), "O": _vertices(e.Oset)} for e in zeta.entries],
        "rho_s": [_pos_json(p) for p in zeta.rho_s],
    }


def traced_run(g: Digraph, strat: MultiplyStrategy):
    """One full play against a splitting adversary, as JSON-able records.

    The adversary keeps as many robbers alive as it can; every half-move is
    recorded together with a fresh invariant report.  The record stops at
    10,000 half-moves.
    """
    cache = strat.cache

    def report(pos, zeta):
        wit = check_invariants(g, pos, zeta, f=strat.f, cache=cache)
        return {"passed": not any(wit.values()),
                "items": [{"name": name, "passed": not why, "witness": why}
                          for name, why in wit.items()]}
    records = []
    v0 = 0
    pos = CopTurn(0, 1 << v0)
    zeta = strat.init_memory(pos)
    records.append({"step": 0, "mover": "robbers", "U": [], "U'": None,
                    "R": _vertices(pos.R), "case_tag": None,
                    "zeta": zeta_json(zeta), "invariant_report": report(pos, zeta)})
    step = 0
    while pos.R and step < 10_000:
        step += 1
        ann, mid = strat.announce(zeta, pos)
        tag = strat.last_tag
        rpos = RobberTurn(pos.U, ann, pos.R)
        records.append({"step": step, "mover": "cops", "U": _vertices(pos.U),
                        "U'": _vertices(ann), "R": _vertices(pos.R), "case_tag": tag,
                        "zeta": zeta_json(zeta), "invariant_report": None})
        moves = enumerate_prudent_isolating_moves(g, rpos, strat.r, cache=cache)
        Rp = moves[0] if moves else 0
        newpos = CopTurn(ann, Rp)
        zeta = strat.update(mid, newpos)
        pos = newpos
        step += 1
        records.append({"step": step, "mover": "robbers", "U": _vertices(pos.U),
                        "U'": None, "R": _vertices(pos.R), "case_tag": None,
                        "zeta": zeta_json(zeta), "invariant_report": report(pos, zeta)})
    return records
