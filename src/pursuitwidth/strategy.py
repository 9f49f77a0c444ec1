"""Strategies, exhaustive validation, and the normal-form transforms.

Cop strategies answer cop positions with an announcement and the memory
they hold during the robbers' reply; `update` folds the reply into that
memory, so a move is made once.  Robber strategies choose the initial
placement and answer robber positions.  Positions, announcements and robber
moves are vertex masks; only a positional strategy's constructor and `items()`
take vertex sets.  Validation is exhaustive: the fixed side plays its strategy
while the opponent branches over every legal move, so a green validation is a
proof at the instance's scale.  A robber turn's replies depend on the turn
alone (cop memory, announcement, escape set), and once `explore` has taken
them all each is finished or on the path, so the cop-side explorers take them
once per turn (`arena.replies_once`); verdicts, counts and witnesses stay the
same.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from .arena import (INITIAL, CopTurn, GraphCache, Initial, RobberTurn,
                    SearchConfig, announcement_masks, explore,
                    replies_once, subset_masks)
from .digraph import Digraph, _check_vertices, bits, set_from
from .errors import (AdversaryContractError, InvariantViolation,
                     PreconditionError, StrategyHoleError)


# ---------------------------------------------------------------------------
# Histories

class History:
    """A legal position sequence starting at the initial dummy position.

    `checked` is None or `(key, n)`: the checker named by `key` passed the
    first n positions.  `append` hands it on, as a prefix never changes.
    """

    __slots__ = ("positions", "_hash", "checked")

    def __init__(self, positions: Iterable):
        positions = tuple(positions)
        if not positions or not isinstance(positions[0], Initial):
            positions = (INITIAL,) + positions
        self.positions = positions
        self._hash = hash(positions)
        self.checked = None

    def last(self):
        return self.positions[-1]

    def append(self, pos) -> "History":
        longer = History(self.positions + (pos,))
        longer.checked = self.checked
        return longer

    def is_strict_prefix_of(self, other: "History") -> bool:
        return (len(self.positions) < len(other.positions)
                and other.positions[:len(self.positions)] == self.positions)

    def __len__(self):
        return len(self.positions)

    def __iter__(self):
        return iter(self.positions)

    def __getitem__(self, i):
        return self.positions[i]

    def __eq__(self, other):
        return isinstance(other, History) and self.positions == other.positions

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"History({len(self.positions)} positions, last={self.positions[-1]!r})"


# ---------------------------------------------------------------------------
# Strategy interfaces

class CopStrategy:
    """A cop strategy whose memory changes at the cop move and at the reply.

    `announce(memory, pos)` returns `(announcement, memory during the
    robbers' reply)`, and `update(memory, newpos)` folds the reply that led
    to `newpos` into that memory.  Callers pass `update` the memory that
    `announce` returned, so no move is ever computed twice.
    """

    def init_memory(self, pos: CopTurn):
        return None

    def announce(self, memory, pos: CopTurn):
        """Return (announcement, memory during the robbers' reply)."""
        raise NotImplementedError

    def update(self, memory, newpos: CopTurn):
        """Return the memory at the next cop position `newpos`."""
        return memory


class RobberStrategy:
    def initial_placement(self) -> int:
        raise NotImplementedError

    def init_memory(self, pos: CopTurn):
        return None

    def respond(self, memory, pos: RobberTurn):
        """Return (new robber set, new memory)."""
        raise NotImplementedError


class PositionalCopStrategy(CopStrategy):
    """A finite map from cop positions to announcements.

    Built from vertex sets, `{(U, R): U'}`, and `items()` gives them back as
    frozensets; `mapping` holds the same map on masks, which is what the
    strategy looks up.
    """

    def __init__(self, mapping):
        self.mapping = {}
        for (u, r), up in dict(mapping).items():
            key = _check_vertices(u, "a cop set"), _check_vertices(r, "a robber set")
            self.mapping[key] = _check_vertices(up, "an announcement")

    @classmethod
    def from_masks(cls, mapping) -> "PositionalCopStrategy":
        strat = cls({})
        strat.mapping = dict(mapping)
        return strat

    def lookup(self, U: int, R: int) -> int:
        got = self.mapping.get((U, R))
        if got is None:
            raise StrategyHoleError(CopTurn(U, R))
        return got

    def announce(self, memory, pos: CopTurn):
        return self.lookup(pos.U, pos.R), memory

    def cop_count(self) -> int:
        return max((m.bit_count() for (u, _), up in self.mapping.items() for m in (u, up)),
                   default=0)

    def items(self):
        return [((set_from(u), set_from(r)), set_from(up))
                for (u, r), up in self.mapping.items()]


class SolverCopStrategy(CopStrategy):
    """Winning cop strategy backed by the solver's certificates (positional),
    looked up by `GraphCache.class_key`: cops off the region's border are released."""
    cache = cached_property(lambda self: GraphCache(self.g))  # built on first use

    def __init__(self, g: Digraph, cfg: SearchConfig, cert):
        self.g = g
        self.cfg = cfg
        self.cert = cert

    def announce(self, memory, pos: CopTurn):
        reg = self.cache.reach(pos.R, pos.U)
        got = self.cert.get(self.cache.class_key(pos.U, reg))
        if got is None:
            raise StrategyHoleError(pos)
        return got, memory

    def as_positional(self) -> PositionalCopStrategy:
        """Materialize the map over every position reachable under the strategy."""
        cache = self.cache
        robber_sets = range(1, self.cfg.r + 1)
        mapping, done = {}, set()

        def moves(state):
            U, R = state
            up = mapping[state] = self.announce(None, CopTurn(U, R))[0]
            _, escapes = cache.robber_turn(U, up, R)
            return replies_once(done, (up, escapes),
                                ((up, Rp) for Rp in subset_masks(escapes, robber_sets)))

        explore(((0, R) for R in subset_masks(self.g.full_mask, robber_sets)), moves,
                "strategy materialization")
        return PositionalCopStrategy.from_masks(mapping)


class SolverRobberStrategy(RobberStrategy):
    """Winning robber strategy that stays inside the classes the solver
    decided lost, as `GraphCache.class_key`s, so cops parked off a region's
    border do not change its value.  Undecided classes are not lost."""
    cache = cached_property(lambda self: GraphCache(self.g))  # built on first use

    def __init__(self, g: Digraph, cfg: SearchConfig, lost):
        self.g = g
        self.cfg = cfg
        self.lost = lost

    def initial_placement(self) -> int:
        for R in subset_masks(self.g.full_mask, range(1, self.cfg.r + 1)):
            if self.cache.class_key(0, self.cache.reach(R, 0)) in self.lost:
                return R
        raise StrategyHoleError(INITIAL)

    def respond(self, memory, pos: RobberTurn):
        up = pos.Uprime
        _, escapes = self.cache.robber_turn(pos.U, up, pos.R)
        fallback = 0
        for Rp in subset_masks(escapes, range(1, self.cfg.r + 1)):
            fallback = fallback or Rp
            if self.cache.class_key(up, self.cache.reach(Rp, up)) in self.lost:
                return Rp, memory
        # cornered: no escape class is lost (or there is none at all)
        return fallback, memory


# ---------------------------------------------------------------------------
# Exhaustive validation

class ValidationReport(NamedTuple):
    ok: bool
    witness: Optional[tuple]
    states: int
    max_announced: int = 0

    def __bool__(self):
        return self.ok


def validate_cop_strategy(g: Digraph, cfg: SearchConfig,
                          strat: CopStrategy) -> ValidationReport:
    """Play the cop strategy against every robber line; require monotone wins.

    A state is (cop memory, cop set, robber set); a failure's witness is its
    verdict and the path of states from a robber placement to the failing one.
    """
    cache = GraphCache(g)
    robber_sets = range(1, cfg.r + 1)
    max_ann, done = 0, set()

    def moves(state):
        nonlocal max_ann
        cmem, U, R = state
        try:
            up, cmem = strat.announce(cmem, CopTurn(U, R))
        except StrategyHoleError:
            return "strategy hole"
        size = up.bit_count()
        if size > cfg.k:
            return f"announcement too large ({size} > {cfg.k})"
        max_ann = max(max_ann, size)
        abandoned, escapes = cache.robber_turn(U, up, R)
        if abandoned:
            return "non-monotone announcement"
        return replies_once(done, (cmem, up, escapes),
                            ((strat.update(cmem, CopTurn(up, Rp)), up, Rp)
                             for Rp in subset_masks(escapes, robber_sets)))

    roots = ((strat.init_memory(CopTurn(0, R0)), 0, R0)
             for R0 in subset_masks(g.full_mask, robber_sets))
    failure, states = explore(roots, moves, "cop-strategy validation", cycle="infinite play")
    return ValidationReport(failure is None, failure, states, max_ann)


def validate_robber_strategy(g: Digraph, cfg: SearchConfig, strat: RobberStrategy,
                             require_isolating: bool = False,
                             require_prudent: bool = False) -> ValidationReport:
    """Play the robber strategy against every cop line; require survival.

    The optional flags additionally check the isolation condition at every
    reached cop position and the prudence condition at every robber move.
    Cycles are infinite plays, which robbers win.  A state is (robber memory,
    cop set, robber set), and a failure's witness is as for cop strategies.
    """
    cache = GraphCache(g)

    def moves(state):
        rmem, U, R = state
        if R == 0:
            return "captured"
        if require_isolating and not cache.is_isolating(U, R):
            return "not isolating"
        return replies(rmem, U, R)

    def replies(rmem, U, R):
        for up in announcement_masks(cache, cfg, U, R):
            abandoned, escapes = cache.robber_turn(U, up, R)
            if abandoned:
                continue  # non-monotone announcements lose outright
            rpos = RobberTurn(U, up, R)
            Rp, rmem2 = strat.respond(rmem, rpos)
            if Rp & ~escapes or Rp.bit_count() > cfg.r:
                raise AdversaryContractError(
                    f"robber strategy made an illegal move at {rpos!r}: {list(bits(Rp))}")
            if require_prudent and not cache.is_prudent(R, up, Rp):
                yield "imprudent move"
            yield rmem2, up, Rp

    pos = CopTurn(0, strat.initial_placement())
    if pos.R & ~g.full_mask or pos.R.bit_count() > cfg.r:
        raise AdversaryContractError(
            f"robber strategy made an illegal initial placement: {list(bits(pos.R))}")
    root = (strat.init_memory(pos), 0, pos.R)
    failure, states = explore([root], moves, "robber-strategy validation")
    return ValidationReport(failure is None, failure, states)


# ---------------------------------------------------------------------------
# Robber normal forms

def antichain_reps(cache: GraphCache, up: int, R: int) -> int:
    """One smallest member per source component of R, which avoids up;
    pairwise unreachable.

    A member is kept iff every other member that reaches it is reached back
    and is larger: it is the smallest of its strongly connected component,
    and no member of another component reaches it.  So together the kept
    members reach everything R reaches.
    """
    regions = [(v, cache.reach(1 << v, up)) for v in bits(R)]
    out = 0
    for v, rv in regions:
        if all(w > v and rv >> w & 1 for w, rw in regions if w != v and rw >> v & 1):
            out |= 1 << v
    return out


class _MirrorRobberStrategy(RobberStrategy):
    """Shared plumbing for the normal-form transforms: the transformed robbers
    shadow a play of the original strategy and normalize each of its moves."""

    def __init__(self, g: Digraph, cfg: SearchConfig, inner: RobberStrategy):
        self.g = g
        self.cfg = cfg
        self.inner = inner
        self.cache = GraphCache(g)

    def initial_placement(self) -> int:
        return antichain_reps(self.cache, 0, self.inner.initial_placement())

    def init_memory(self, pos: CopTurn):
        R0 = self.inner.initial_placement()
        return (self.inner.init_memory(CopTurn(0, R0)), R0)

    def _mirror_move(self, memory, pos: RobberTurn):
        inner_mem, Rm = memory
        return self.inner.respond(inner_mem, RobberTurn(pos.U, pos.Uprime, Rm))


class IsolatingRobberStrategy(_MirrorRobberStrategy):
    """Keeps one robber per source component of the shadowed robber set."""

    def respond(self, memory, pos: RobberTurn):
        Rp, inner_mem2 = self._mirror_move(memory, pos)
        return antichain_reps(self.cache, pos.Uprime, Rp), (inner_mem2, Rp)


class PrudentRobberStrategy(_MirrorRobberStrategy):
    """Moves a robber only onto vertices the landing cops are about to cut off.

    Every source component of the shadowed target set must stay covered:
    by a robber that can simply stay put if one still reaches it, otherwise
    by a fresh representative, which is then provably unreachable from the
    standing robbers and hence a prudent move.  A final antichain reduction
    keeps the output isolating as well.
    """

    def respond(self, memory, pos: RobberTurn):
        Rp, inner_mem2 = self._mirror_move(memory, pos)
        cache = self.cache
        up = pos.Uprime
        cur = pos.R
        stay = cur & ~up
        chosen = 0
        for v in bits(antichain_reps(cache, up, Rp)):  # a source component's least member
            chosen |= 1 << next((s for s in bits(stay) if cache.reach(1 << s, up) >> v & 1), v)
        picked = antichain_reps(cache, up, chosen)
        if not cache.is_prudent(cur, up, picked):
            raise InvariantViolation("prudence", f"fresh robbers {list(bits(picked & ~cur))} "
                                                 f"still reachable at {pos!r}")
        return picked, (inner_mem2, Rp)


def isolating_transform(g: Digraph, cfg: SearchConfig,
                        robber_strategy: RobberStrategy) -> RobberStrategy:
    """Turn a winning robber strategy into an isolating winning one."""
    rep = validate_robber_strategy(g, cfg, robber_strategy)
    if not rep.ok:
        raise PreconditionError(f"input robber strategy is not winning: {rep.witness}")
    return IsolatingRobberStrategy(g, cfg, robber_strategy)


def prudent_transform(g: Digraph, cfg: SearchConfig,
                      robber_strategy: RobberStrategy) -> RobberStrategy:
    """Turn a winning robber strategy into a prudent (and isolating) one."""
    rep = validate_robber_strategy(g, cfg, robber_strategy)
    if not rep.ok:
        raise PreconditionError(f"input robber strategy is not winning: {rep.witness}")
    return PrudentRobberStrategy(g, cfg, robber_strategy)


# ---------------------------------------------------------------------------
# Cop-strategy cleanup

def _useful_subset(cache: GraphCache, standing: int, announced: int, v: int) -> int:
    """Drop newly placed cops outside the robber's cone; keep standing ones.

    In a monotone play the cone of paths avoiding the standing cops equals
    the cone during the move, so a new cop outside it can never block the
    robber and dropping it changes nothing the robber can see.
    """
    cone = cache.reach(1 << v, standing)
    return (announced & standing) | (announced & cone)


def cleanup_strategy(g: Digraph, f: PositionalCopStrategy) -> PositionalCopStrategy:
    """Normalize a positional monotone winning one-robber cop strategy.

    The input is validated first with its own cop count.  The output never
    announces a cop on a vertex the robber cannot reach and always places at
    least one new cop, with every new cop inside the robber's current cone.
    Idle stretches of the input are compressed by following its own play
    with the robber parked.
    """
    rep = validate_cop_strategy(g, SearchConfig(k=f.cop_count(), r=1), f)
    if not rep.ok:
        raise PreconditionError(f"input cop strategy is not monotone winning: {rep.witness}")
    cache = GraphCache(g)
    # Each pass hands `explore` a state once, when it is first generated, and
    # the last generated first: the order of a worklist.  Pass 1 fixes a
    # state's witness when it is generated, so that order is its output's.
    roots = [(0, v) for v in range(g.n)]

    # Pass 1: drop useless placements, carrying a witness position of f.
    fhat = {}
    witness = dict.fromkeys(roots, 0)

    def drop_useless(state):
        U, v = state
        w = witness[state]
        ann = f.lookup(w, 1 << v)
        A = _useful_subset(cache, U, ann, v)
        if cache.reach(1 << v, w) != cache.reach(1 << v, U):
            raise InvariantViolation(
                "cleanup-cone", f"robber cone differs from the uncleaned play at "
                                f"(U={sorted(bits(U))}, v={v})")
        fhat[state] = A
        _, escapes = cache.robber_turn(U, A, 1 << v)
        new = [key for v2 in bits(escapes) if (key := (A, v2)) not in witness]
        witness.update(dict.fromkeys(new, ann))
        return reversed(new)

    explore(roots[::-1], drop_useless, "cleanup")

    # Pass 2: compress stretches that add no cop outside the current set.
    ftilde = {}
    generated = set(roots)

    def compress(state):
        U, v = state
        sigma = U
        seen_sigma = {sigma}
        while True:
            a = fhat[(sigma, v)]
            if a & ~U:
                break
            sigma = a
            if sigma in seen_sigma:
                raise PreconditionError("input strategy idles forever against a "
                                        f"parked robber at (U={sorted(bits(U))}, v={v})")
            seen_sigma.add(sigma)
        outside = a & ~U & ~cache.reach(1 << v, U)
        if outside:
            raise InvariantViolation(
                "cleanup-normal-form",
                f"new cops {sorted(bits(outside))} are outside "
                f"the robber cone at (U={sorted(bits(U))}, v={v})")
        ftilde[U, 1 << v] = a
        _, escapes = cache.robber_turn(U, a, 1 << v)
        new = [key for v2 in bits(escapes) if (key := (a, v2)) not in generated]
        generated.update(new)
        return reversed(new)

    explore(roots[::-1], compress, "cleanup")
    return PositionalCopStrategy.from_masks(ftilde)
