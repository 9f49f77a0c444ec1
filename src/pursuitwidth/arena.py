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
and no fixpoint is needed.  A region is closed under successors outside its
cop set, so no candidate needs a search, and the paths of a robber turn
that avoid the announced cops stay inside its escape set, so its regions
are searched for there, not in the whole graph.

The move rule and the robber normal forms live in `GraphCache` alone, and
every region and component it answers comes from its reach memo: the region
of v avoiding U is `reach(1 << v, U)`, and v's strongly connected component
one backward search inside that region.  No whole-graph region table is
built.  Three places restate the rule on purpose: the solver's pruned class
game, which the validators check; the multiplier's checker, which evaluates
every reachability condition itself; and `validate_invisible_schedule`,
which plays the invisible game.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Optional

from .digraph import (Digraph, _check_vertices, bits, induced, out_of,
                      reach_mask, set_from, symmetric_closure)
from .errors import ConfigError, PreconditionError, ResourceError

DEFAULT_POSITION_BUDGET = 10_000_000


def effective_budget(budget: Optional[int]) -> int:
    if budget is None:
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


def _check_masks(pos, names):
    """Raise for a position whose vertex sets are not masks (nonnegative
    ints) or whose cops and robbers overlap; the constructors test inline."""
    for name in names:
        m = getattr(pos, name)
        if type(m) is not int or m < 0:
            raise TypeError(f"{name} must be a vertex mask (a nonnegative int), not {m!r}")
    if pos.U & pos.R:
        raise ConfigError(f"cop and robber sets overlap: {list(bits(pos.U & pos.R))}")


@dataclass(frozen=True)
class CopTurn:
    U: int
    R: int

    def __post_init__(self):
        U, R = self.U, self.R
        if not (type(U) is type(R) is int and U | R >= 0) or U & R:
            _check_masks(self, ("U", "R"))

    def __repr__(self):
        return f"CopTurn(U={list(bits(self.U))}, R={list(bits(self.R))})"


@dataclass(frozen=True)
class RobberTurn:
    U: int
    Uprime: int
    R: int

    def __post_init__(self):
        U, Up, R = self.U, self.Uprime, self.R
        if not (type(U) is type(Up) is type(R) is int and U | Up | R >= 0) or U & R:
            _check_masks(self, ("U", "Uprime", "R"))

    def __repr__(self):
        return (f"RobberTurn(U={list(bits(self.U))}, U'={list(bits(self.Uprime))}, "
                f"R={list(bits(self.R))})")


@dataclass(frozen=True)
class SearchConfig:
    """Game parameters: cop count, robber count, SCC restriction."""
    k: int
    r: int = 1
    restrict_to_scc: bool = False

    def __post_init__(self):
        if self.k < 0:
            raise ConfigError("k must be nonnegative")
        if self.r < 1:
            raise ConfigError("r must be at least 1")
        if self.restrict_to_scc and self.r != 1:
            raise ConfigError("the SCC-restricted game is defined for a single robber")


COPS = "cops"
ROBBERS = "robbers"


@dataclass
class SolveResult:
    winner: str
    cop_strategy: Optional[object]
    robber_strategy: Optional[object]
    arena_size: int


# ---------------------------------------------------------------------------
# Shared per-graph caches

class GraphCache:
    """The visible game's move rule, on reach and border caches reused
    across solves on one graph."""

    def __init__(self, g: Digraph):
        self.n = g.n
        self.out, self.inn = g.out_masks, g.in_masks
        self._reach = {}
        self._border = {}

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

    def is_isolating(self, U: int, R: int) -> bool:
        """No robber of R can reach another once the cops U stand."""
        return not any(self.reach(1 << v, U) & R & ~(1 << v) for v in bits(R))

    def is_prudent(self, R: int, up: int, Rp: int) -> bool:
        """Robbers move from R to Rp only onto vertices that up cuts off from R."""
        return (Rp & ~R) & self.reach(R, up) == 0

    def class_key(self, U: int, reg: int):
        """The solver's class of cop set U against robber region reg: the
        cops on reg's border (the cops reg has an edge into), and reg."""
        border = self._border.get(reg)
        if border is None:
            border = self._border[reg] = out_of(self.out, reg)
        return U & border, reg


def subset_masks(mask: int, sizes):
    """Subsets of `mask`: each size of `sizes` in turn, within a size in
    combination order of its vertices.  Pass a descending range for largest
    first (announcements), an ascending one for smallest first (robbers)."""
    bitlist = list(bits(mask))
    for t in sizes:
        for comb in itertools.combinations(bitlist, t):
            m = 0
            for b in comb:
                m |= 1 << b
            yield m


def explore(roots, moves, limit: int, what: str, cycle: Optional[str] = None):
    """Depth-first search over every line of play, with an explicit stack.

    `moves(state)` returns None at a good leaf, a verdict string at a bad
    state, or an iterator of successor states that may also yield a verdict
    string for a bad move.  A state whose successors were all explored is
    done and is never expanded again; a state met again on the current path
    fails with `cycle`, or is skipped when `cycle` is None.  Returns
    `(failure, expanded)`: failure is None or `(verdict, path)`, where path
    runs from a root to the failing state, and expanded counts the states
    whose successors were explored, which `limit` bounds.
    """
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
        for X in subset_masks(comp, range(cfg.k - bin(B).count("1"), -1, -1)):
            yield B | X


def is_monotone_move(g: Digraph, pos: RobberTurn) -> bool:
    """No abandoned cop vertex is reachable by a robber through the kept cops."""
    return not GraphCache(g).robber_turn(pos.U, pos.Uprime, pos.R)[0]


def _region_unions(regs, r: int):
    """Distinct unions of 1..r of the regions `regs`, in combination order."""
    # robber replies by region, apart from GraphCache: the validators check them
    return list(dict.fromkeys(reduce(or_, comb)
                              for t in range(1, min(r, len(regs)) + 1)
                              for comb in itertools.combinations(regs, t)))


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

    The idle candidate (X empty) leads back to the class itself and is
    skipped; every other one leaves strictly smaller regions, so the classes
    form a DAG and a depth-first AND-OR pass decides them without a fixpoint
    (Liu & Smolka, ICALP 1998).  A class is won at its first candidate whose
    robber turn (Up, escapes) has every successor class won, and that
    announcement is its certificate; a memoised robber turn is lost at its
    first lost successor, and the pass stops at the first lost initial class.
    """

    def __init__(self, g: Digraph, cfg: SearchConfig, budget: int,
                 cache: Optional[GraphCache] = None):
        self.k = cfg.k
        self.r = cfg.r
        self.restricted = cfg.restrict_to_scc
        self.cache = cache or GraphCache(g)
        self.out, self.inn, self.full = g.out_masks, g.in_masks, g.full_mask
        self.budget = budget
        self.turns = {}  # robber turn (Up, escapes) -> whether the cops win it

    def _initial_classes(self):
        regions = self._escape_regions(0, self.full)
        return [(0, u) for u in sorted(_region_unions(regions, self.r))]

    def _candidates(self, U: int, reg: int):
        """Yield (announcement, escape set) pairs, aggressive placements first.

        Every cop of U is on the border of `reg`, which is closed under
        successors outside U: the announcement U | X keeps them all and
        leaves the robbers' cone at exactly `reg`.
        """
        # the pruned class rule, apart from GraphCache: the validators check it
        allowed = reg
        if self.restricted:  # new cops only in the component of reg's root
            root = next(v for v in bits(reg) if self.cache.reach(1 << v, U) == reg)
            allowed = self.cache.component(U, root)
        room = self.k - bin(U).count("1")  # below 0 no subset is yielded
        for X in subset_masks(allowed, range(room, -1, -1)):
            yield U | X, reg & ~X

    def _escape_regions(self, Up: int, escapes: int):
        """Sorted distinct regions of the escape vertices, one SCC at a time.

        Exact without a whole-graph table: the class region is closed under
        successors outside U, and U is inside Up, so every path from an escape
        vertex that avoids Up stays inside `escapes`.  A region is a forward
        search there, its SCC a backward one inside the region (Fleischer,
        Hendrickson & Pinar 2000).
        """
        regs, left = set(), escapes
        while left:
            v = left & -left
            region = reach_mask(self.out, v, ~escapes)
            regs.add(region)
            left &= ~reach_mask(self.inn, v, ~region)
        return sorted(regs)

    def _cops_win(self):
        """Yield the initial classes until one is lost; return whether none was."""
        for key in self._initial_classes():
            if not (yield key):
                return False
        return True

    def _decide(self, U: int, reg: int):
        """Yield the successor classes that deciding (U, reg) needs, each sent
        back as won or not; return the certificate, or None when it is lost."""
        for Up, escapes in self._candidates(U, reg):
            if Up == U:
                continue  # idle
            won = escapes == 0 or self.turns.get((Up, escapes))  # no escape: capture
            if won is None:
                won = True
                for u in _region_unions(self._escape_regions(Up, escapes), self.r):
                    if not (yield self.cache.class_key(Up, u)):
                        won = False
                        break
                self.turns[Up, escapes] = won
            if won:
                return Up
        return None

    def run(self):
        """Returns (cops win, {won class: certificate}, {lost class}).

        A trampoline, not recursion: one generator per class being decided,
        on a stack as deep as the longest chain of shrinking regions.
        """
        value = {}  # decided class -> its certificate, or None when lost
        stack = [(None, self._cops_win())]
        answer = None
        while True:
            key, gen = stack[-1]
            try:
                need = gen.send(answer)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    won = {c: up for c, up in value.items() if up is not None}
                    return done.value, won, value.keys() - won.keys()
                value[key] = done.value
                answer = done.value is not None
                continue
            if need in value:
                answer = value[need] is not None
                continue
            if len(value) + len(stack) > self.budget:
                raise ResourceError(f"arena exceeded the position budget ({self.budget})",
                                    budget=self.budget, context=f"k={self.k}, r={self.r}")
            stack.append((need, self._decide(*need)))
            answer = None


def solve_search(g: Digraph, cfg: SearchConfig, budget: Optional[int] = None,
                 cache: Optional[GraphCache] = None) -> SolveResult:
    """Solve the visible game exactly from the initial position."""
    if g.n == 0:
        raise PreconditionError("cannot play on the empty graph")
    solver = _SearchSolver(g, cfg, effective_budget(budget), cache)
    cops_win, won, lost = solver.run()
    size = len(won) + len(lost)
    from .strategy import SolverCopStrategy, SolverRobberStrategy
    if cops_win:
        return SolveResult(COPS, SolverCopStrategy(g, cfg, solver.cache, won), None, size)
    return SolveResult(ROBBERS, None, SolverRobberStrategy(g, cfg, solver.cache, lost), size)


# ---------------------------------------------------------------------------
# Invisible-robber game (directed path-width, cop-count convention)

@dataclass
class InvisibleResult:
    cops_win: bool
    schedule: Optional[list]
    states: int


def solve_invisible(g: Digraph, k: int, budget: Optional[int] = None) -> InvisibleResult:
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
        if bin(out_of(out, S) & ~S).count("1") >= k:
            return ()
        return (S & ~(1 << x) for x in bits(S))

    cleared, states = explore([g.full_mask], moves, effective_budget(budget),
                              f"invisible search with k={k}")
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
        if bin(Up).count("1") > k:
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

# the subgraph ladder's first rung has this many vertices, and each next one
# twice as many; a graph no larger takes the plain ladder
LADDER_START = 8


def width(g: Digraph, measure: str, r: int = 1, budget: Optional[int] = None) -> int:
    """Minimum cop count for the requested measure, by ascending search.

    dw / dw_r: visible game on g with 1 / r robbers.  tw / tw_r: the same on
    the symmetric closure, where tw is the classical tree-width tw_1 - 1.
    dpw: invisible game on g (cop count, i.e. classical value plus one).
    dw, tw and dpw take only r = 1.  The visible measures climb the ladder
    along induced subgraphs (see `_ladder`); the budget bounds each solve.
    """
    return _ladder(g, measure, r, budget)[0]


def _search_order(g: Digraph, size: int) -> list:
    """The first `size` vertices of a maximum cardinality search over the
    symmetric closure (Tarjan & Yannakakis, SIAM J. Comput. 1984): the next
    vertex has the most neighbours already ordered, then the highest degree,
    then the lowest number.  So every prefix is a dense core grown from a
    vertex of highest degree, connected when the graph is."""
    adj = [(o | i) & ~(1 << v) for v, (o, i) in enumerate(zip(g.out_masks, g.in_masks))]
    degree = [bin(a).count("1") for a in adj]
    weight = [0] * g.n
    left = set(range(g.n))
    order = []
    while len(order) < size:
        v = max(left, key=lambda u: (weight[u], degree[u], -u))
        left.remove(v)
        order.append(v)
        for w in bits(adj[v]):
            weight[w] += 1
    return order


def _chain(g: Digraph) -> list:
    """The vertex sets of the ladder's rungs: the search order's prefixes of
    LADDER_START, twice as many, ... vertices below g.n, then all of g."""
    sizes = []
    while LADDER_START << len(sizes) < g.n:
        sizes.append(LADDER_START << len(sizes))
    if not sizes:
        return [range(g.n)]
    order = _search_order(g, sizes[-1])
    return [order[:m] for m in sizes] + [range(g.n)]


def _rung(h: Digraph, measure: str, k: int, r: int, budget: Optional[int],
          cache: Optional[GraphCache]) -> tuple:
    """One solve of the ladder: (whether k cops win, the classes it decided
    or, for dpw, the contaminated sets it expanded).  The solve's strategy
    is dropped here, so it holds no cache while the next rung is solved."""
    if measure == "dpw":
        res = solve_invisible(h, k, budget=budget)
        return res.cops_win, res.states
    res = solve_search(h, SearchConfig(k=k, r=r), budget=budget, cache=cache)
    return res.winner == COPS, res.arena_size


def _ladder(g: Digraph, measure: str, r: int = 1, budget: Optional[int] = None,
            plain: bool = False):
    """`width`'s ascending search, as (value, rungs).

    Each rung is one solve, (vertices, k, winner, classes): the vertices of g
    it was played on, the cop count, the winner and the classes it decided
    (the contaminated sets it expanded, for dpw).  The plain ladder tries
    k = 1, 2, ... on g.  Otherwise the visible measures climb `_chain(g)`:
    on each induced subgraph H the search starts at the last k it reached,
    and the last subgraph is g.  That is exact because the measures are
    monotone under induced subgraphs: a monotone cop strategy on g,
    restricted to H, is one on H with no more cops, since every path in H is
    a path in g.  So k cops that lose on H lose on g.  dpw, and graphs of at
    most LADDER_START vertices, take the plain ladder.
    """
    if measure not in _MEASURES:
        raise ConfigError(f"unknown measure {measure!r}; pick one of {_MEASURES}")
    if r != 1 and measure in ("dw", "tw", "dpw"):
        use = "tw_r" if measure == "tw" else "dw_r"
        raise ConfigError(f"measure {measure!r} has one robber; use {use!r} for r={r}")
    if g.n == 0:
        raise PreconditionError("width of the empty graph is undefined")
    if measure in ("tw", "tw_r"):
        base, rungs = _ladder(symmetric_closure(g), "dw_r" if measure == "tw_r" else "dw",
                              r, budget, plain)
        return (base - 1 if measure == "tw" else base), rungs
    rungs = []
    k = 1
    for vs in [range(g.n)] if plain or measure == "dpw" else _chain(g):
        h = g if len(vs) == g.n else induced(g, vs)
        cache = None if measure == "dpw" else GraphCache(h)
        while True:
            try:
                won, classes = _rung(h, measure, k, r, budget, cache)
            except ResourceError as e:
                on, context = ("", f"k={k}") if h is g else (
                    f" on an induced subgraph of {h.n} vertices", f"k={k}, vertices={h.n}")
                raise ResourceError(f"{e} while testing k={k}{on}", budget=e.budget,
                                    context=context) from None
            rungs.append((vs, k, COPS if won else ROBBERS, classes))
            if won:
                break
            k += 1
    return k, rungs
