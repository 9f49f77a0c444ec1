"""The strategy multiplier: one-robber cop strategies lifted to r robbers.

A memory state tracks a chain of one-robber play histories, one per robber
team, together with the robbers attached to each history and the placements
that were deliberately omitted because an earlier team's robber could still
reach them.  Positions, robber sets and omitted sets are vertex masks
throughout; a history's positions hold one robber each.  Every documented
invariant of the construction is re-checked at runtime; a violation raises
with the invariant's name and witness vertices.  The checker shares one
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
    """The multiplier's memory: entries 1..s-1 plus the longest history."""
    entries: tuple
    rho_s: History

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.entries, self.rho_s)))

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

@dataclass
class CheckItem:
    name: str
    passed: bool
    witness: str = ""


@dataclass
class InvariantReport:
    items: list

    @property
    def passed(self) -> bool:
        return all(it.passed for it in self.items)

    def first_violation(self):
        for it in self.items:
            if not it.passed:
                return it
        return None

    def as_json(self):
        return {"passed": self.passed,
                "items": [{"name": it.name, "passed": it.passed, "witness": it.witness}
                          for it in self.items]}


def _history_consistent(g: Digraph, cache: GraphCache, f: PositionalCopStrategy,
                        rho: History):
    """Is the history a legal play whose cop moves all follow f?"""
    positions = rho.positions
    if len(positions) < 2:
        return False, "history has no placement"
    if not isinstance(positions[1], CopTurn) or positions[1].U:
        return False, f"first placement must have no cops, got {positions[1]!r}"
    for a, b in zip(positions[1:], positions[2:]):
        if isinstance(a, CopTurn):
            if not isinstance(b, RobberTurn) or b.U != a.U or b.R != a.R:
                return False, f"{b!r} does not follow {a!r}"
            try:
                want = f.lookup(a.U, a.R)
            except StrategyHoleError:
                return False, f"base strategy undefined at {a!r}"
            if b.Uprime != want:
                return False, (f"announcement {list(bits(b.Uprime))} differs from base move "
                               f"{list(bits(want))}")
        else:
            if not isinstance(b, CopTurn) or b.U != a.Uprime:
                return False, f"{b!r} does not follow {a!r}"
            v0, v1 = _robber(a), _robber(b)
            # not GraphCache.robber_turn: the checker asks reachability itself
            legal = cache.reach(a.R, a.U & a.Uprime) & ~a.Uprime
            if not (legal >> v1) & 1:
                return False, f"robber move {v0}->{v1} illegal at {a!r}"
    return True, ""


def check_invariants(g: Digraph, pos: CopTurn, zeta: MemoryZeta,
                     f: Optional[PositionalCopStrategy] = None,
                     cache: Optional[GraphCache] = None) -> InvariantReport:
    """Re-check every invariant of the memory state.

    Evaluates the seven core invariants, the anchoring side condition on the
    longest history, and the derived diagnostics.  It shares the memory's
    derivation into masks (`_derive`) with the move and update code, but
    makes every reachability check itself rather than trusting the sets the
    update code computed.
    """
    cache = cache or GraphCache(g)
    items = []
    d = _derive(zeta)
    s = d.s
    Rm, Um = pos.R, pos.U
    R_s = Rm & (1 << d.b[s])

    # chain: the histories strictly extend one another
    ok, wit = True, ""
    for i in range(1, s):
        if not zeta.rho(i).is_strict_prefix_of(zeta.rho(i + 1)):
            ok, wit = False, f"history {i} is not a strict prefix of history {i + 1}"
            break
    items.append(CheckItem("chain", ok, wit))

    # partition: the attached robber sets split R
    union = R_s
    ok, wit = True, ""
    for i in range(1, s):
        if d.Rset[i] & union:
            ok, wit = False, f"robber sets overlap at {_vs(d.Rset[i] & union)}"
            break
        union |= d.Rset[i]
    if ok and union != Rm:
        ok, wit = False, f"attached robbers {_vs(union)} != position robbers {_vs(Rm)}"
    items.append(CheckItem("partition", ok, wit))

    # cover: cops on the graph are exactly the union of the teams
    cover = d.Ucum[s]
    items.append(CheckItem("cover", cover == Um,
                           "" if cover == Um else f"teams {_vs(cover)} != cops {_vs(Um)}"))

    # anchor: while the top robber is on the graph, its history awaits a move
    ok = not ((Rm >> d.b[s]) & 1) or d.ends_cop[s]
    items.append(CheckItem("anchor", ok,
                           "" if ok else "top history does not end in a cop position"))

    # omit-closed: omitted sets contain their robbers and absorb reachability
    ok, wit = True, ""
    for i in range(1, s):
        if d.Rset[i] & ~d.Oset[i]:
            ok, wit = False, f"robbers {_vs(d.Rset[i] & ~d.Oset[i])} outside omitted set {i}"
            break
        closed = cache.reach(d.Oset[i], d.W[i])
        if closed != d.Oset[i]:
            ok, wit = False, f"omitted set {i} not closed: reaches {_vs(closed & ~d.Oset[i])}"
            break
    items.append(CheckItem("omit-closed", ok, wit))

    # omit-bounded: omitted sets stay inside their robber's old cone
    ok, wit = True, ""
    for i in range(1, s):
        cone = cache.reach(1 << d.b[i], d.Wm1[i])
        if d.Oset[i] & ~cone:
            ok, wit = False, f"omitted set {i} leaves the cone at {_vs(d.Oset[i] & ~cone)}"
            break
    items.append(CheckItem("omit-bounded", ok, wit))

    # consistent: every stored history is a legal play of the base strategy
    ok, wit = True, ""
    if f is not None:
        for i in range(1, s + 1):
            good, why = _history_consistent(g, cache, f, zeta.rho(i))
            if not good:
                ok, wit = False, f"history {i}: {why}"
                break
    items.append(CheckItem("consistent", ok, wit))

    # progress: no later robber sits inside an earlier omitted set
    ok, wit = True, ""
    for i in range(2, s):
        if d.Rset[i] & d.Ocum[i - 1]:
            ok, wit = False, f"robbers {_vs(d.Rset[i] & d.Ocum[i - 1])} of history {i} " \
                             f"inside earlier omitted set"
            break
    if ok and R_s and (d.Ocum[s - 1] >> d.b[s]) & 1:
        ok, wit = False, f"top robber {d.b[s]} inside an omitted set"
    items.append(CheckItem("progress", ok, wit))

    # diagnostics implied by the invariants
    if f is not None:
        ok, wit = True, ""
        for i in range(1, s):
            for b in bits(d.Rset[i]):
                ext = zeta.rho(i).append(CopTurn(d.W[i], 1 << b))
                good, why = _history_consistent(g, cache, f, ext)
                if not good:
                    ok, wit = False, f"robber {b} not consistent with history {i}: {why}"
                    break
            if not ok:
                break
        items.append(CheckItem("member-consistency", ok, wit))

    ok, wit = True, ""
    for i in range(1, s):
        for b in bits(d.Rset[i]):
            if cache.reach(1 << b, d.W[i]) != cache.reach(1 << b, d.Wcum[i]):
                ok, wit = False, f"robber {b}: cone under team {i} differs from cone " \
                                 f"under all earlier teams"
                break
        if not ok:
            break
    if ok and cache.reach(1 << d.b[s], d.W[s]) != cache.reach(1 << d.b[s], d.Wcum[s]):
        ok, wit = False, "top robber cone differs under cumulative placements"
    items.append(CheckItem("team-region", ok, wit))

    ok, wit = True, ""
    for i in range(1, s):
        spill = cache.reach(d.Rset[i], d.Ucum[i]) & ~d.Ocum[i]
        if spill:
            ok, wit = False, f"robbers of history {i} reach {_vs(spill)} outside omitted sets"
            break
    items.append(CheckItem("omitted-absorbs", ok, wit))

    ok, wit = True, ""
    for i in range(1, s):
        for b in bits(d.Rset[i]):
            if cache.reach(1 << b, Um) != cache.reach(1 << b, d.Ucum[i]):
                ok, wit = False, f"robber {b}: region shrinks under later teams"
                break
        if not ok:
            break
    items.append(CheckItem("region-unchanged", ok, wit))

    return InvariantReport(items)


def _raise_on_violation(report: InvariantReport, where: str):
    bad = report.first_violation()
    if bad is not None:
        raise InvariantViolation(bad.name, f"{where}: {bad.witness}")


# ---------------------------------------------------------------------------
# Memory initialization and updates

def init_memory(g: Digraph, R0: int) -> MemoryZeta:
    """Memory after the robbers' opening placement (a single vertex)."""
    if not is_strongly_connected(g):
        raise PreconditionError("the multiplier is defined on strongly connected graphs")
    if not R0 or R0 & (R0 - 1):
        raise PreconditionError(f"unsupported initial split: {list(bits(R0))}")
    return MemoryZeta((), History((CopTurn(0, R0),)))


def cop_move_multiply(g: Digraph, f: PositionalCopStrategy, pos: CopTurn,
                      zeta: MemoryZeta, cache: Optional[GraphCache] = None):
    """One cop move: returns (announcement, new memory, case tag)."""
    cache = cache or GraphCache(g)
    _raise_on_violation(check_invariants(g, pos, zeta, f=f, cache=cache),
                        "on entry to the cop move")
    d = _derive(zeta)
    s = d.s
    Rm, Um = pos.R, pos.U

    if not (Rm >> d.b[s]) & 1:
        # the pursued top robber left the graph
        if s == 1:
            return pos.U, zeta, CASE_WON
        Uprime = d.Ucum[s - 1]
        top = zeta.entries[-1]
        if not top.Rset:
            rho_new = top.rho.append(CopTurn(d.W[s - 1], 1 << d.b[s]))
            zeta2 = MemoryZeta(zeta.entries[:-1], rho_new)
            tag = CASE_I_EMPTY
        else:
            b = _lowest(top.Rset)
            rest = top.Rset & ~(1 << b)
            O_t = cache.reach(rest, d.W[s - 1])
            entry = HistoryEntry(top.rho, rest, O_t)
            rho_new = top.rho.append(CopTurn(d.W[s - 1], 1 << b))
            zeta2 = MemoryZeta(zeta.entries[:-1] + (entry,), rho_new)
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
                zeta2 = MemoryZeta(zeta.entries[:i - 1] + zeta.entries[i:], zeta.rho_s)
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
                    zeta2 = MemoryZeta(zeta.entries[:i - 1] + (entry,) + zeta.entries[i:],
                                       zeta.rho_s)
                    tag = CASE_II_1B
                else:
                    if i + 1 == s:
                        raise InvariantViolation("shape", "cannot merge into the top history")
                    nxt = zeta.entries[i]
                    merged = HistoryEntry(nxt.rho, nxt.Rset, nxt.Oset | O_t)
                    zeta2 = MemoryZeta(zeta.entries[:i - 1] + (merged,) + zeta.entries[i + 1:],
                                       zeta.rho_s)
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
            zeta2 = MemoryZeta(zeta.entries, rho_new)
            tag = CASE_II_2

    spoiled, _ = cache.robber_turn(Um, Uprime, Rm)
    if spoiled:
        raise InvariantViolation("monotone", f"move abandons {_vs(spoiled)} while "
                                             f"robbers reach it")
    d2 = _derive(zeta2)
    if tag != CASE_WON and d2.Ucum[d2.s] != Uprime:
        raise InvariantViolation("cover", f"teams {_vs(d2.Ucum[d2.s])} != announced "
                                          f"{_vs(Uprime)} after the move")
    return Uprime, zeta2, tag


def robber_update_multiply(g: Digraph, pos_before: CopTurn, Rp: int,
                           zeta: MemoryZeta, snapshot: MemoryZeta,
                           cache: Optional[GraphCache] = None) -> MemoryZeta:
    """Fold the robbers' move into the memory.

    `pos_before` is the cop position from which the last announcement was
    made; `zeta` is the memory right after the cop move; `snapshot` is the
    memory before the cop move, which bounds where robbers may reattach.
    """
    cache = cache or GraphCache(g)
    R = pos_before.R
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
            zeta2 = MemoryZeta(new_entries + (entry,), rho_new)
        else:
            # nobody else stays attached to the old top history, so the
            # extension replaces it instead of leaving an empty stub behind
            zeta2 = MemoryZeta(new_entries, rho_new)
    else:
        zeta2 = MemoryZeta(new_entries, zeta.rho_s)

    _raise_on_violation(check_invariants(g, CopTurn(Uprime, Rp), zeta2, cache=cache),
                        "after the robbers' move")
    return zeta2


# ---------------------------------------------------------------------------
# The packaged memory strategy

class MultiplyStrategy(CopStrategy):
    """r*k-cop memory strategy that simulates k-cop play against each robber.

    Its memory is a `MemoryZeta` at cop positions.  During the robbers' reply
    it is `(memory before the move, position, memory after the move)`, which
    `update` needs to fold the reply in and to bound where robbers reattach.
    """

    def __init__(self, g: Digraph, f: PositionalCopStrategy, r: int, k: int):
        self.g = g
        self.f = f
        self.r = r
        self.k = k
        self.cache = GraphCache(g)
        self.last_tag = None

    def init_memory(self, pos: CopTurn):
        return init_memory(self.g, pos.R)

    def _chain_bound_ok(self, zeta: MemoryZeta):
        if zeta.s > self.r + 1:
            raise InvariantViolation("chain-bound", f"{zeta.s} histories for r={self.r}")
        if zeta.s == self.r + 1:
            d = _derive(zeta)
            if d.W[zeta.s] != d.W[zeta.s - 1]:
                raise InvariantViolation(
                    "chain-bound", "a full chain must repeat its last placement set")

    def announce(self, memory, pos: CopTurn):
        up, zeta2, tag = cop_move_multiply(self.g, self.f, pos, memory, cache=self.cache)
        self.last_tag = tag
        size = bin(up).count("1")
        if size > self.r * self.k:
            raise InvariantViolation("cop-bound", f"{size} cops announced, "
                                                  f"bound is {self.r * self.k}")
        self._chain_bound_ok(zeta2)
        return up, (memory, pos, zeta2)

    def update(self, memory, newpos: CopTurn):
        zeta, pos, zeta2 = memory
        out = robber_update_multiply(self.g, pos, newpos.R, zeta2, snapshot=zeta,
                                     cache=self.cache)
        self._chain_bound_ok(out)
        return out


def multiply_strategy(g: Digraph, f: PositionalCopStrategy, r: int,
                      budget: Optional[int] = None) -> MultiplyStrategy:
    """Package the multiplier for r robbers from a one-robber strategy.

    The base strategy is normalized first (every move places a new cop,
    only on robber-reachable vertices); the construction assumes exactly
    that shape, and the normalized strategy's cop count is k.
    """
    if not is_strongly_connected(g):
        raise PreconditionError("the multiplier is defined on strongly connected graphs")
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
    case_counts: dict


def exhaust_prudent_isolating(g: Digraph, strat: MultiplyStrategy,
                              budget: Optional[int] = None) -> AdversarialReport:
    """Play the multiplier against every prudent isolating robber line.

    Every branch must reach a monotone capture within the budget; any repeat
    of a (memory, cop set, robber set) state would be an infinite play and
    fails.  A failure's witness is its verdict and the path of states from a
    robber placement to the failing one.
    """
    cache = strat.cache
    max_cops = 0
    cases = {}

    def moves(state):
        nonlocal max_cops
        zeta, U, R = state
        if R == 0:
            return None
        up, mid = strat.announce(zeta, CopTurn(U, R))
        cases[strat.last_tag] = cases.get(strat.last_tag, 0) + 1
        max_cops = max(max_cops, bin(up).count("1"))
        spoiled, _ = cache.robber_turn(U, up, R)
        if spoiled:
            return f"non-monotone announcement abandoning {_vs(spoiled)}"
        return ((strat.update(mid, CopTurn(up, Rp)), up, Rp)
                for Rp in enumerate_prudent_isolating_moves(g, RobberTurn(U, up, R), strat.r,
                                                            cache=cache))

    roots = ((strat.init_memory(CopTurn(0, 1 << v)), 0, 1 << v) for v in range(g.n))
    failure, states = explore(roots, moves, effective_budget(budget),
                              "adversarial search", cycle="play never ends")
    return AdversarialReport(failure is None, failure, states, max_cops, cases)


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
    records = []
    v0 = 0
    pos = CopTurn(0, 1 << v0)
    zeta = strat.init_memory(pos)
    records.append({"step": 0, "mover": "robbers", "U": [], "U'": None,
                    "R": _vertices(pos.R), "case_tag": None,
                    "zeta": zeta_json(zeta),
                    "invariant_report": check_invariants(g, pos, zeta, f=strat.f,
                                                         cache=cache).as_json()})
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
                        "zeta": zeta_json(zeta),
                        "invariant_report": check_invariants(g, pos, zeta, f=strat.f,
                                                             cache=cache).as_json()})
    return records
