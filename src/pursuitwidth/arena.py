"""Search-game arenas and exact solvers.

The visible game: k cops announce their next placement, r robbers relocate
along cop-free paths.  Cops win a play when it stays monotone (no announced
move abandons a vertex some robber can still reach through the cops that
remain) and the robbers run out of vertices.  The invisible variant is
directed vertex separation: a one-player search over contaminated sets.

The visible solver collapses robber sets to their reachability region: two
positions with the same cop set whose robber sets reach exactly the same
vertices have identical futures, and as regions only shrink, so do two
whose cop sets agree on the region's border.  Over those classes (border
cops, region) it evaluates the game locally, depth first from the initial
classes: a class is won at its first candidate announcement whose robber
turn leads only into won classes, and that announcement is its certificate.
Every non-idle announcement shrinks the region, so the classes form a DAG
and no fixpoint is needed; the idle one is never generated.  A region is
closed under successors outside its cop set, so no candidate needs a
search, and the paths of a robber turn that avoid the announced cops stay
inside its escape set, so its regions are searched for there, one SCC at a
time as the turn reads them; each forward search also yields the region's
out-set, hence its border.  A successor class decided before is read in place.
So is one whose size forces its value: with k cops on its border it is lost,
as each candidate keeps them and adds one; outside the SCC-restricted game,
with room for a cop on each vertex of its region it is won by capture.

One new cop at a time: if U | X wins the robber turn of class (U, reg), so
does U | {x} for x in X: its robbers take u1, at most r regions of reg - x
bordered by B1 within U | {x}, and B1 | (X & u1), at most k cops, leaves
successor classes of U | X's turn (or u1 is one).  So candidates skip cops
refuted alone, but not in the SCC-restricted game: X & u1 may miss the SCC.

The move rule and the robber normal forms live in `GraphCache` alone: the
region of v avoiding U is `reach(1 << v, U)`, and v's strongly connected
component one backward search inside that region.  No whole-graph region
table is built.  Three places restate the rule on purpose: the solver's
pruned class game, which the validators check; the multiplier's checker,
which evaluates every reachability condition itself; and
`validate_invisible_schedule`, which plays the invisible game.

`width` climbs k along growing induced subgraphs for every measure, so a
lost k is mostly proved on a small prefix of the graph (see `_ladder`).

Positions (`CopTurn`, `RobberTurn`) are named tuples of vertex masks, so they
hash and compare in C; their constructors, `_make` and `_replace` check them.
"""
from __future__ import annotations

import itertools
import os
from collections import namedtuple
from typing import Iterable, NamedTuple, Optional

from .digraph import (Digraph, _check_vertices, bits, induced, out_of,
                      reach_mask, set_from, symmetric_closure)
from .errors import ConfigError, InvariantViolation, PreconditionError, ResourceError

DEFAULT_POSITION_BUDGET = 10_000_000


def effective_budget() -> int:
    """The position budget: PURSUITWIDTH_BUDGET, or 10^7 when it is unset or
    empty.  Every search reads its bound here, as no function takes one."""
    budget = os.environ.get("PURSUITWIDTH_BUDGET") or DEFAULT_POSITION_BUDGET
    if not str(budget).isdecimal():
        raise ConfigError(f"the position budget must be a nonnegative integer, not {budget!r}")
    return int(budget)


# ---------------------------------------------------------------------------
# Positions

class Initial:
    """The dummy first position; robbers place themselves from here."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<initial>"


INITIAL = Initial()


def _check_masks(**masks):
    """Raise for a position whose vertex sets are not masks (nonnegative
    ints) or whose cops and robbers overlap; the constructors test inline."""
    for name, m in masks.items():
        if type(m) is not int or m < 0:
            raise TypeError(f"{name} must be a vertex mask (a nonnegative int), not {m!r}")
    if masks["U"] & masks["R"]:
        raise ConfigError(f"cop and robber sets overlap: {list(bits(masks['U'] & masks['R']))}")


class _Checked:
    """Mixin for a checked named tuple: `_make`, and so `_replace`, build
    through the class, whose `__new__` checks the fields."""
    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class CopTurn(_Checked, namedtuple("CopTurn", "U R")):
    __slots__ = ()

    def __new__(cls, U, R):
        if not (type(U) is type(R) is int and U | R >= 0) or U & R:
            _check_masks(U=U, R=R)
        return tuple.__new__(cls, (U, R))

    def __repr__(self):
        return f"CopTurn(U={list(bits(self.U))}, R={list(bits(self.R))})"


class RobberTurn(_Checked, namedtuple("RobberTurn", "U Uprime R")):
    __slots__ = ()

    def __new__(cls, U, Uprime, R):
        if not (type(U) is type(Uprime) is type(R) is int and U | Uprime | R >= 0) or U & R:
            _check_masks(U=U, Uprime=Uprime, R=R)
        return tuple.__new__(cls, (U, Uprime, R))

    def __repr__(self):
        return (f"RobberTurn(U={list(bits(self.U))}, U'={list(bits(self.Uprime))}, "
                f"R={list(bits(self.R))})")


class SearchConfig(_Checked, namedtuple("SearchConfig", "k r restrict_to_scc")):
    """Game parameters: cop count, robber count, SCC restriction."""
    __slots__ = ()

    def __new__(cls, k, r=1, restrict_to_scc=False):
        if k < 0:
            raise ConfigError("k must be nonnegative")
        if r < 1:
            raise ConfigError("r must be at least 1")
        if restrict_to_scc and r != 1:
            raise ConfigError("the SCC-restricted game is defined for a single robber")
        return tuple.__new__(cls, (k, r, restrict_to_scc))


COPS = "cops"
ROBBERS = "robbers"


class SolveResult(NamedTuple):
    winner: str
    cop_strategy: Optional[object]
    robber_strategy: Optional[object]
    arena_size: int


# ---------------------------------------------------------------------------
# The move rule on one graph

class GraphCache:
    """The visible game's move rule on one graph, with a memo of the regions
    it searched; each strategy, checker and transform owns its own."""

    def __init__(self, g: Digraph):
        self.n = g.n
        self.out, self.inn = g.out_masks, g.in_masks
        self._reach = {}

    def reach(self, sources: int, blocked: int) -> int:
        key = (sources, blocked)
        got = self._reach.get(key)
        if got is None:
            got = reach_mask(self.out, sources, blocked)
            self._reach[key] = got
        return got

    def component(self, U: int, v: int) -> int:
        """The strongly connected component of v in the graph minus U: the
        vertices of v's region that reach v back (0 when v is in U)."""
        return reach_mask(self.inn, 1 << v, ~self.reach(1 << v, U))

    def robber_turn(self, U: int, up: int, R: int):
        """Cops at U announce up; robbers at R run along paths that avoid the
        kept cops U & up.  Returns (abandoned, escapes): the released cops they
        reach, 0 iff the move is monotone, and where they may land."""
        rb = self.reach(R, U & up)
        return U & ~up & rb, rb & ~up

    def reached(self, U: int, R: int) -> dict:
        """Per robber v of R: the other robbers it reaches once the cops U stand."""
        return {v: self.reach(1 << v, U) & R & ~(1 << v) for v in bits(R)}

    def is_isolating(self, U: int, R: int) -> bool:
        """No robber of R can reach another once the cops U stand."""
        return not any(self.reached(U, R).values())

    def prudent(self, R: int, up: int) -> int:
        """Where robbers at R may land prudently: R and what up cuts off from R."""
        return R | ~self.reach(R, up)

    def is_prudent(self, R: int, up: int, Rp: int) -> bool:
        """Robbers move from R to Rp only onto vertices that up cuts off from R."""
        return not Rp & ~self.prudent(R, up)

    def class_key(self, U: int, reg: int):
        """The solver's class of cop set U against robber region reg: the
        cops on reg's border (the cops reg has an edge into), and reg."""
        return U & out_of(self.out, reg), reg


def subset_masks(mask: int, sizes):
    """Subsets of `mask`: each size of `sizes` in turn, within a size in
    combination order of its vertices.  Pass a descending range for largest
    first (announcements), an ascending one for smallest first (robbers)."""
    singles = []
    while mask:  # [1 << v for v in bits(mask)]
        b = mask & -mask
        singles.append(b)
        mask ^= b
    for t in sizes:
        for comb in itertools.combinations(singles, t):
            yield sum(comb)  # the bits are disjoint, so the sum is their union


def explore(roots, moves, what: str, cycle: Optional[str] = None):
    """Depth-first search over every line of play, with an explicit stack.

    `moves(state)` returns None at a good leaf, a verdict string at a bad
    state, or an iterator of successor states that may also yield a verdict
    string for a bad move.  A state whose successors were all explored is
    done and is never expanded again; a state met again on the current path
    fails with `cycle`, or is skipped when `cycle` is None.  Returns
    `(failure, expanded)`: failure is None or `(verdict, path)`, where path
    runs from a root to the failing state, and expanded counts the states
    whose successors were explored, which `effective_budget()` bounds.
    """
    limit = effective_budget()
    # state -> True while it is on the current path, False once done; one
    # dict rather than two sets, so an expanded state is hashed three times
    seen = {}
    path = []
    frames = [iter(roots)]  # frames[i + 1] yields the successors of path[i]
    expanded = 0
    while frames:
        for state in frames[-1]:
            if isinstance(state, str):
                return (state, tuple(path)), expanded
            on_path = seen.get(state)
            if on_path is not None:
                if on_path and cycle is not None:
                    return (cycle, (*path, state)), expanded
                continue
            got = moves(state)
            if got is None:
                continue
            path.append(state)
            if isinstance(got, str):
                return (got, tuple(path)), expanded
            expanded += 1
            if expanded > limit:
                raise ResourceError(f"{what} exceeded the budget ({limit})", budget=limit)
            seen[state] = True
            frames.append(got)
            break
        else:
            frames.pop()
            if path:
                seen[path.pop()] = False
    return None, expanded


def replies_once(done: set, turn, replies):
    """Yield `replies`, unless `explore` took every reply of an equal robber
    `turn` before; `turn` goes into `done` only once they are all taken, so a
    turn still on the current path is replayed in full (see `strategy`)."""
    if turn not in done:
        yield from replies
        done.add(turn)


# ---------------------------------------------------------------------------
# Move relations (exhaustive; the solver uses a pruned equivalent internally)

def announcement_masks(cache: GraphCache, cfg: SearchConfig, U: int, R: int):
    """Every announcement from cop set U against robbers R, as masks.

    Unrestricted: any set of at most k vertices, largest first.
    SCC-restricted: standing cops may stay anywhere, but newly placed cops
    must land inside the robber's current strongly connected component of
    the cop-deleted graph.  These come by the standing cops kept, most
    first, and for each kept set by the new cops, most first, so sizes can
    rise again (2, 1, 2 on the bidirected 4-cycle with U = {0} and k = 2).
    """
    if not cfg.restrict_to_scc:
        yield from subset_masks((1 << cache.n) - 1, range(cfg.k, -1, -1))
        return
    comp = cache.component(U, R.bit_length() - 1)
    for B in subset_masks(U, range(cfg.k, -1, -1)):
        for X in subset_masks(comp, range(cfg.k - B.bit_count(), -1, -1)):
            yield B | X


# ---------------------------------------------------------------------------
# Visible-game solver

class _SearchSolver:
    """Local depth-first AND-OR evaluation of the cop-winnable classes.

    A class is (border cops U, robber region reg): reg is closed under
    successors outside U and has an edge into every cop of U.  In monotone
    play regions never grow, so other cops never block anything again: a
    position with cop set W has the value of its `GraphCache.class_key`.
    Candidate announcements keep every cop of U (releasing one would be
    non-monotone, and such announcements lose outright) and add new cops X
    inside reg; any other announcement is dominated by one of these.

    The idle announcement (X empty) leads back to the class itself and is
    never generated; every candidate leaves strictly smaller regions, so the
    classes form a DAG and a depth-first AND-OR pass decides them without a
    fixpoint (Liu & Smolka, ICALP 1998).  A class is won at its first
    candidate whose robber turn (Up, escapes) has every successor class won,
    and that announcement is its certificate.  `_turn` evaluates every robber
    turn, the initial placement (cops Up = 0) included: it is lost at its
    first lost successor, so the pass stops at the first lost initial class.
    A successor's border comes with its region from the forward search of
    `_escape_unions`, and a successor already in `value` is read there, or
    decided there when forced: (B, u) is lost if k - |B| < 1, as no candidate
    fits, and outside the SCC-restricted game won if k - |B| >= |u|, as its
    first candidate B | u captures (no x of u is dropped below: each B | {x}
    wins by the lemma).  Only other classes go to the trampoline in `run`.

    A candidate holding a cop x whose turn U | {x} is lost loses too, as
    after U | {x} the cops could add the rest of X later (module docstring),
    so `_candidates` drops such x and certificates stay the same.  Not in the
    SCC-restricted game, where those later cops may miss the robber's SCC.
    """

    def __init__(self, g: Digraph, cfg: SearchConfig):
        self.k = cfg.k
        self.r = cfg.r
        self.restricted = cfg.restrict_to_scc
        self.out, self.inn, self.full = g.out_masks, g.in_masks, g.full_mask
        self.budget = effective_budget()
        self.turns = {}  # robber turn (Up, escapes) -> whether the cops win it
        self.value = {}  # decided class -> its certificate, or 0 when lost
        self.stack = []  # the trampoline: (class, generator deciding it)

    def _candidates(self, U: int, reg: int):
        """The new cops X of the announcements U | X, aggressive placements
        first, X = 0 (idle) excluded.

        Every cop of U is on the border of `reg`, which is closed under
        successors outside U: the announcement U | X keeps them all and
        leaves the robbers' cone at exactly `reg`.
        """
        # the pruned class rule, apart from GraphCache: the validators check it
        allowed = reg
        room = self.k - U.bit_count()
        if self.restricted:  # new cops only in the component of reg's root
            root = next(v for v in bits(reg) if reach_mask(self.out, 1 << v, U) == reg)
            allowed = reach_mask(self.inn, 1 << root, ~reg)  # GraphCache.component(U, root)
        elif room >= 2:  # drop every cop whose single placement is lost
            m = reg
            while m:  # for each bit b of bits(reg)
                b = m & -m
                if self.turns.get((U | b, reg ^ b)) is False:
                    allowed ^= b
                m ^= b
        return subset_masks(allowed, range(room, 0, -1))

    def _escape_unions(self, escapes: int):
        """Yield a robber turn's replies as (union, out-set) pairs, lazily: each
        region of the escape vertices, one SCC at a time, then the distinct
        unions of 2..r of them in combination order over the regions as found.

        Exact without a whole-graph table: the class region is closed under
        successors outside U, and U is inside the announcement Up, so every
        path from an escape vertex that avoids Up stays inside `escapes`.  A region is a forward
        search there, which ORs the successor masks it visits, and its SCC a
        backward one inside the region (Fleischer, Hendrickson & Pinar 2000),
        run only when the next region is asked for: a turn refuted by its
        first successor searches nothing more.  A union of nested regions is
        the larger one, already yielded.
        """
        # robber replies by region, apart from GraphCache: the validators check them
        out, regs, left = self.out, [], escapes
        while left:
            v = left & -left
            region = frontier = v
            out_set = 0
            while frontier:  # reach_mask(out, v, ~escapes), with out_of(out, region)
                nxt = 0
                while frontier:
                    b = frontier & -frontier
                    nxt |= out[b.bit_length() - 1]
                    frontier ^= b
                out_set |= nxt
                frontier = nxt & escapes & ~region
                region |= frontier
            yield region, out_set
            regs.append((region, out_set))
            left &= ~reach_mask(self.inn, v, ~region)
        seen = {reg for reg, _ in regs}
        for t in range(2, min(self.r, len(regs)) + 1):
            for comb in itertools.combinations(regs, t):
                u = o = 0
                for reg, out_set in comb:
                    u, o = u | reg, o | out_set
                if u not in seen:
                    seen.add(u)
                    yield u, o

    def _turn(self, Up: int, unions):
        """Yield the undecided successor classes of the robber turn whose
        (region, out-set) unions are `unions`, against cops Up, until one is
        lost, each sent back as its certificate or 0; return whether none was.
        A class whose size forces its value is decided here instead."""
        value, k = self.value, self.k
        for u, out_set in unions:
            B = Up & out_set
            key = (B, u)  # GraphCache.class_key(Up, u)
            got = value.get(key)
            if got is None:
                if len(value) + len(self.stack) > self.budget:
                    raise ResourceError(f"arena exceeded the position budget ({self.budget})",
                                        budget=self.budget, context=f"k={k}, r={self.r}")
                room = k - B.bit_count()
                if room < 1:  # no cop to add
                    got = value[key] = 0
                elif room >= u.bit_count() and not self.restricted:  # capture
                    got = value[key] = B | u
                else:
                    got = yield key
            if not got:
                return False
        return True

    def _decide(self, U: int, reg: int):
        """Yield the successor classes that deciding (U, reg) needs and that
        are not yet decided, each sent back as its certificate or 0 when it is
        lost; return the certificate, or 0 when (U, reg) is lost."""
        turns = self.turns
        for X in self._candidates(U, reg):
            Up, escapes = U | X, reg & ~X
            won = escapes == 0 or turns.get((Up, escapes))  # no escape: capture
            if won is None:
                won = turns[Up, escapes] = yield from self._turn(Up, self._escape_unions(escapes))
            if won:
                return Up
        return 0

    def run(self):
        """Returns (cops win, {decided class: its certificate, or 0 when lost}).

        A trampoline, not recursion: one generator per class being decided,
        on a stack as deep as the longest chain of shrinking regions.
        """
        value, stack = self.value, self.stack
        stack.append((None, self._turn(0, self._escape_unions(self.full))))
        answer = None
        while True:
            key, gen = stack[-1]
            try:
                need = gen.send(answer)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value, value
                value[key] = answer = done.value
                continue
            stack.append((need, self._decide(*need)))
            answer = None


def solve_search(g: Digraph, cfg: SearchConfig) -> SolveResult:
    """Solve the visible game exactly from the initial position."""
    if g.n == 0:
        raise PreconditionError("cannot play on the empty graph")
    cops_win, value = _SearchSolver(g, cfg).run()
    from .strategy import SolverCopStrategy, SolverRobberStrategy
    if cops_win:
        return SolveResult(COPS, SolverCopStrategy(g, cfg, value), None, len(value))
    return SolveResult(ROBBERS, None, SolverRobberStrategy(g, cfg, value), len(value))


# ---------------------------------------------------------------------------
# Invisible-robber game (directed path-width, cop-count convention)

class InvisibleResult(NamedTuple):
    cops_win: bool
    schedule: Optional[list]
    states: int


def solve_invisible(g: Digraph, k: int) -> InvisibleResult:
    """Can k cops monotonously clear the graph against an invisible robber?

    Monotone clearing is directed vertex separation (Yang & Cao, DAM 2008;
    Barat, Graphs and Combinatorics 2006): a state is the contaminated set
    S, and a move clears one x of S by announcing x and the border
    dS = out_of(S) & ~S, so it needs |dS| < k.  This is exact for the game
    over (cop set U, S) with any announcement of at most k vertices: S is
    closed under successors outside U, so dS is inside U; dropping a cop of
    dS recontaminates, keeping dS leaves exactly S contaminated, and a cop
    off dS never blocks again (the argument behind `GraphCache.class_key`);
    and several placements at once split into single ones that need no more
    cops, as d(S - {x}) is inside dS | {x}.  The path to the empty set is
    the schedule; `states` counts the expanded sets, every reachable one
    when k loses, and the budget bounds it.
    """
    if k < 0:
        raise ConfigError("k must be nonnegative")
    if g.n == 0:
        raise PreconditionError("cannot play on the empty graph")
    out = g.out_masks

    def moves(S):
        if S == 0:
            return "cleared"
        reached, after, m = 0, [], S
        while m:  # out_of(out, S), and S - {x} for each x of bits(S)
            b = m & -m
            reached |= out[b.bit_length() - 1]
            after.append(S ^ b)
            m ^= b
        if (reached & ~S).bit_count() >= k:
            return ()
        return iter(after)

    cleared, states = explore([g.full_mask], moves, f"invisible search with k={k}")
    if cleared is None:
        return InvisibleResult(False, None, states)
    path = cleared[1]
    return InvisibleResult(True, [set_from((out_of(out, S) & ~S) | (S & ~Sp))
                                  for S, Sp in zip(path, path[1:])], states)


def validate_invisible_schedule(g: Digraph, k: int, schedule: Iterable) -> tuple:
    """Replay a placement schedule through the monotone-clearing rules.

    Returns (ok, detail).  The schedule clears iff the contaminated set hits
    empty with no recontamination and no placement exceeding k cops.
    """
    if k < 0:
        raise ConfigError("k must be nonnegative")
    S = g.full_mask
    U = 0
    # not GraphCache.robber_turn: this is the invisible game's rule
    for step, placement in enumerate(schedule):
        Up = _check_vertices(placement, f"the placement of step {step}", g.n)
        if Up.bit_count() > k:
            return False, f"step {step}: placement uses more than {k} cops"
        rb = reach_mask(g.out_masks, S, U & Up)
        if (U & ~Up) & rb:
            return False, f"step {step}: recontamination through an abandoned cop"
        S = rb & ~Up
        U = Up
        if S == 0:
            return True, f"cleared after {step + 1} placements"
    return (S == 0), ("cleared" if S == 0 else f"contamination left: {sorted(bits(S))}")


# ---------------------------------------------------------------------------
# Width measures

_MEASURES = ("dw", "dw_r", "tw", "tw_r", "dpw")

# the subgraph ladder starts on this many vertices; a graph no larger takes the plain ladder
LADDER_START = 8


def width(g: Digraph, measure: str, r: int = 1) -> int:
    """Minimum cop count for the requested measure, by ascending search.

    dw / dw_r: visible game on g with 1 / r robbers.  tw / tw_r: the same on
    the symmetric closure, where tw is the classical tree-width tw_1 - 1.
    dpw: invisible game on g (cop count, i.e. classical value plus one).
    dw, tw and dpw take only r = 1.  Each measure climbs the ladder along
    induced subgraphs (see `_ladder`); the budget bounds each solve.
    """
    return _ladder(g, measure, r)[0]


def _search_order(g: Digraph) -> list:
    """A maximum cardinality search over the symmetric closure (Tarjan &
    Yannakakis, SIAM J. Comput. 1984): the next vertex has the most
    neighbours already ordered, then the highest degree, then the lowest
    number.  So every prefix is a dense core grown from a vertex of highest
    degree, connected when the graph is."""
    adj = [(o | i) & ~(1 << v) for v, (o, i) in enumerate(zip(g.out_masks, g.in_masks))]
    degree = [a.bit_count() for a in adj]
    weight = [0] * g.n
    left = set(range(g.n))
    order = []
    while left:
        v = max(left, key=lambda u: (weight[u], degree[u], -u))
        left.remove(v)
        order.append(v)
        for w in bits(adj[v]):
            weight[w] += 1
    return order


def lower_bound(rungs) -> Optional[dict]:
    """The last lost rung as {"k", "vertices"}, or None: g needs more than k cops."""
    lost = [(vs, k) for vs, k, winner, _ in rungs if winner == ROBBERS]
    return None if not lost else {"k": lost[-1][1], "vertices": sorted(lost[-1][0])}


def _rung(h: Digraph, measure: str, k: int, r: int) -> tuple:
    """One solve of the ladder: (whether k cops win, the classes it decided
    or, for dpw, the contaminated sets it expanded).  The solve's strategy
    is dropped here, so it holds no cache while the next rung is solved."""
    if measure == "dpw":
        res = solve_invisible(h, k)
        return res.cops_win, res.states
    res = solve_search(h, SearchConfig(k=k, r=r))
    return res.winner == COPS, res.arena_size


def _ladder(g: Digraph, measure: str, r: int = 1, plain: bool = False):
    """`width`'s ascending search, as (value, rungs).

    Each rung is one solve, (vertices, k, winner, classes): the vertices of g
    it was played on, the cop count, the winner and the classes it decided
    (the contaminated sets it expanded, for dpw).  The plain ladder tries
    k = 1, 2, ... on g, as does a graph of at most LADDER_START vertices.
    Otherwise every measure gallops along the prefixes of one `_search_order`
    from LADDER_START vertices on, with a step of 1: a lost rung raises k on
    its prefix and resets the step to 1, a won one adds the step (capped at
    g) and doubles it, until g is won.  That is exact because the measures
    are monotone under induced subgraphs H: a monotone cop strategy or
    clearing of g, restricted to H, is one on H with no more cops, since
    every path in H is a path in g (Barat 2006).  So k cops that lose on H
    lose on g.  A ResourceError carries the finished rungs' `lower_bound`;
    a rung lost with k >= h.n cops is a solver fault, an InvariantViolation.
    """
    if r < 1:
        raise ConfigError("r must be at least 1")
    if measure not in _MEASURES:
        raise ConfigError(f"unknown measure {measure!r}; pick one of {_MEASURES}")
    if r != 1 and measure in ("dw", "tw", "dpw"):
        use = "tw_r" if measure == "tw" else "dw_r"
        raise ConfigError(f"measure {measure!r} has one robber; use {use!r} for r={r}")
    if g.n == 0:
        raise PreconditionError("width of the empty graph is undefined")
    if measure in ("tw", "tw_r"):
        base, rungs = _ladder(symmetric_closure(g), "dw_r" if measure == "tw_r" else "dw",
                              r, plain)
        return (base - 1 if measure == "tw" else base), rungs
    order, m = ((range(g.n), g.n) if plain or g.n <= LADDER_START
                else (_search_order(g), LADDER_START))
    rungs, k, step = [], 1, 1
    while True:
        vs = order[:m]
        h = g if m == g.n else induced(g, vs)
        while True:
            try:
                won, classes = _rung(h, measure, k, r)
            except ResourceError as e:
                on, context = ("", f"k={k}") if h is g else (
                    f" on an induced subgraph of {h.n} vertices", f"k={k}, vertices={h.n}")
                raise ResourceError(f"{e} while testing k={k}{on}", budget=e.budget,
                                    context=context, lower_bound=lower_bound(rungs)) from None
            rungs.append((vs, k, COPS if won else ROBBERS, classes))
            if won:
                break
            if k >= h.n:  # h.n cops announce the whole region, or clear a vertex at a time
                raise InvariantViolation("ladder", f"{k} cops lost on {h.n} vertices")
            k, step = k + 1, 1
        if m == g.n:
            return k, rungs
        m, step = min(m + step, g.n), 2 * step
