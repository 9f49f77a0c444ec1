"""Parity games with actions, observation classes, and knowledge arenas.

Player 0 picks actions; the opponent resolves which edge of the chosen
action is taken.  An observation partition merges positions player 0 cannot
tell apart, and the knowledge construction turns such a game into a
perfect-information one whose positions are the sets of positions player 0
considers possible.  Cop strategies for the multi-robber game on the
underlying arena lift to the knowledge arena by occupying every knowledge
set that meets an occupied vertex.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .arena import CopTurn, GraphCache
from .digraph import Digraph, _check_vertices, bits, scc_masks
from .errors import InputError, InvariantViolation, PreconditionError
from .strategy import CopStrategy

Position = int


@dataclass(frozen=True)
class ParityGame:
    n: int
    owner: tuple
    color: tuple
    actions: tuple
    succ: tuple          # succ[action_index][v] -> frozenset of targets
    init: int

    def __post_init__(self):
        if not (0 <= self.init < self.n):
            raise InputError(f"initial position {self.init} out of range")
        if len(self.owner) != self.n or len(self.color) != self.n:
            raise InputError("owner and color must cover every position")
        if any(c < 0 for c in self.color):
            raise InputError("colors must be nonnegative")

    def post_all(self, v: int) -> frozenset:
        out = set()
        for ai in range(len(self.actions)):
            out |= self.succ[ai][v]
        return frozenset(out)

    def arena_digraph(self) -> Digraph:
        edges = set()
        for ai in range(len(self.actions)):
            for v in range(self.n):
                for w in self.succ[ai][v]:
                    edges.add((v, w))
        return Digraph(self.n, edges)


def make_parity_game(n, owner, color, actions, moves, init) -> ParityGame:
    """Build from a move list of (u, action_label, v) triples."""
    actions = tuple(actions)
    aidx = {a: i for i, a in enumerate(actions)}
    succ = [[set() for _ in range(n)] for _ in actions]
    for (u, a, v) in moves:
        if a not in aidx:
            raise InputError(f"unknown action {a!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"move ({u}, {a}, {v}) out of range")
        succ[aidx[a]][u].add(v)
    return ParityGame(n, tuple(owner), tuple(color), actions,
                      tuple(tuple(frozenset(s) for s in row) for row in succ), init)


class ObservationEquiv:
    """Partition of positions into observation classes."""

    def __init__(self, n: int, classes):
        seen = set()
        cl = []
        for c in classes:
            c = frozenset(c)
            if not c:
                continue
            for v in c:
                if not (0 <= v < n):
                    raise InputError(f"class member {v} out of range")
                if v in seen:
                    raise InputError(f"position {v} appears in two classes")
                seen.add(v)
            cl.append(c)
        for v in range(n):
            if v not in seen:
                cl.append(frozenset({v}))
        cl.sort(key=lambda c: min(c))
        self.n = n
        self.classes = tuple(cl)
        self._class_of = [None] * n
        for c in self.classes:
            for v in c:
                self._class_of[v] = c

    def class_of(self, v: int) -> frozenset:
        return self._class_of[v]

    def max_class_size(self) -> int:
        return max(len(c) for c in self.classes)

    @classmethod
    def identity(cls, n: int) -> "ObservationEquiv":
        return cls(n, [])


def validate(pg: ParityGame, eq: ObservationEquiv):
    """Check observable colors, owner homogeneity, and dead-end freedom."""
    violations = []
    if eq.n != pg.n:
        violations.append(f"partition covers {eq.n} positions, game has {pg.n}")
        return violations
    for c in eq.classes:
        colors = {pg.color[v] for v in c}
        if len(colors) > 1:
            violations.append(f"class {sorted(c)} mixes colors {sorted(colors)}")
        owners = {pg.owner[v] for v in c}
        if len(owners) > 1:
            violations.append(f"class {sorted(c)} mixes owners {sorted(owners)}")
    for v in range(pg.n):
        if not pg.post_all(v):
            violations.append(f"position {v} is a dead end; add a self-loop of a "
                              f"losing color to repair")
    return violations


# ---------------------------------------------------------------------------
# Knowledge construction

@dataclass
class KnowledgeGame:
    game: ParityGame
    sets: tuple            # knowledge set per position of `game`
    index: dict            # frozenset -> position

    def arena_digraph(self) -> Digraph:
        return self.game.arena_digraph()


def powerset_construct(pg: ParityGame, eq: ObservationEquiv) -> KnowledgeGame:
    """Knowledge arena: sets of positions player 0 considers possible.

    Player-0 knowledge advances per chosen action and splits by observation
    class; after an opponent move only the class is observed, so the update
    unions over all actions before splitting.
    """
    bad = validate(pg, eq)
    if bad:
        raise PreconditionError("; ".join(bad))
    init_k = frozenset({pg.init})
    sets = []
    index = {}
    edges = {ai: [] for ai in range(len(pg.actions))}

    def intern(k: frozenset) -> int:
        got = index.get(k)
        if got is None:
            got = len(sets)
            index[k] = got
            sets.append(k)
        return got

    work = [intern(init_k)]
    done = set()
    while work:
        ki = work.pop()
        if ki in done:
            continue
        done.add(ki)
        K = sets[ki]
        who = pg.owner[next(iter(K))]
        if who == 0:
            for ai in range(len(pg.actions)):
                post = set()
                for v in K:
                    post |= pg.succ[ai][v]
                for c in eq.classes:
                    piece = frozenset(post & c)
                    if piece:
                        ti = intern(piece)
                        edges[ai].append((ki, ti))
                        if ti not in done:
                            work.append(ti)
        else:
            post_by_action = []
            union = set()
            for ai in range(len(pg.actions)):
                p = set()
                for v in K:
                    p |= pg.succ[ai][v]
                post_by_action.append(p)
                union |= p
            for c in eq.classes:
                piece = frozenset(union & c)
                if not piece:
                    continue
                ti = intern(piece)
                if ti not in done:
                    work.append(ti)
                for ai in range(len(pg.actions)):
                    if piece & post_by_action[ai]:
                        edges[ai].append((ki, ti))
    m = len(sets)
    owner = tuple(pg.owner[next(iter(K))] for K in sets)
    color = tuple(pg.color[next(iter(K))] for K in sets)
    succ = tuple(tuple(frozenset(t for (s, t) in edges[ai] if s == kj)
                       for kj in range(m))
                 for ai in range(len(pg.actions)))
    game = ParityGame(m, owner, color, pg.actions, succ, index[init_k])
    return KnowledgeGame(game, tuple(sets), index)


def knowledge_size_bound(pg: ParityGame, eq: ObservationEquiv) -> int:
    """n * 2^(r-1) positions, r the largest observation class: a knowledge
    set is a nonempty subset of one class, and a class of size c has
    2^c - 1 <= c * 2^(c-1) of them."""
    r = eq.max_class_size()
    return pg.n * (2 ** (r - 1))


# ---------------------------------------------------------------------------
# Zielonka over the expanded graph

@dataclass
class ParityResult:
    win0: frozenset
    win1: frozenset
    strategy0: dict        # player-0 position -> action label
    strategy1: dict        # (position or (position, action)) -> target position


class _Expanded:
    """Standard two-player graph: action picks become intermediate nodes."""

    def __init__(self, pg: ParityGame):
        self.pg = pg
        n = pg.n
        self.owner = list(pg.owner)
        self.color = list(pg.color)
        self.succ = [[] for _ in range(n)]
        self.inter = {}
        self.inter_info = []
        for v in range(n):
            if pg.owner[v] == 0:
                for ai in range(len(pg.actions)):
                    if pg.succ[ai][v]:
                        node = n + len(self.inter_info)
                        self.inter[(v, ai)] = node
                        self.inter_info.append((v, ai))
                        self.owner.append(1)
                        self.color.append(pg.color[v])
                        self.succ.append(sorted(pg.succ[ai][v]))
                        self.succ[v].append(node)
            else:
                self.succ[v] = sorted(pg.post_all(v))
        self.size = len(self.owner)
        self.pred = [[] for _ in range(self.size)]
        for v in range(self.size):
            for w in self.succ[v]:
                self.pred[w].append(v)


def attract(pred, owner, player, target, count):
    """Backward attractor of `target` for `player`, breadth first.

    Zielonka's predecessor-counter attractor (TCS 200, 1998), linear in the
    edges.  `pred[w]` lists the predecessors of w, `owner[v]` moves at v, and
    `count[v]` (consumed) is how many successors of v must be attracted
    before v is: 1 for a node of `player`, its successors in the game for an
    opponent's node, 0 in `target` or outside the game.  Returns the nodes in
    attraction order and, for `player`'s attracted nodes outside `target`,
    the successor they were attracted through: a fastest way into `target`.
    """
    order = list(target)
    strat = {}
    for w in order:  # `order` grows while it is read: it is the FIFO queue
        for v in pred[w]:
            c = count[v]
            if c:
                count[v] = c - 1
                if c == 1:
                    if owner[v] == player:
                        strat[v] = w
                    order.append(v)
    return order, strat


def _counts(ex: _Expanded, nodes: set, target: set, player: int) -> list:
    """`attract` counters for the subgame on `nodes`."""
    count = [0] * ex.size
    for v in nodes - target:
        count[v] = 1 if ex.owner[v] == player else sum(w in nodes for w in ex.succ[v])
    return count


def _zielonka(ex: _Expanded, nodes: set):
    if not nodes:
        return set(), set(), {}, {}
    d = min(ex.color[v] for v in nodes)  # the least color decides, so peel it
    p = d % 2
    Z = {v for v in nodes if ex.color[v] == d}
    A, sA = attract(ex.pred, ex.owner, p, Z, _counts(ex, nodes, Z, p))
    A = set(A)
    w0, w1, s0, s1 = _zielonka(ex, nodes - A)
    wp, sp = (w0, s0) if p == 0 else (w1, s1)
    wq, sq = (w1, s1) if p == 0 else (w0, s0)
    if not wq:
        sp = dict(sp)
        sp.update(sA)
        for v in Z:
            if ex.owner[v] == p and v not in sp:
                sp[v] = next(w for w in ex.succ[v] if w in nodes)
        if p == 0:
            return set(nodes), set(), sp, {}
        return set(), set(nodes), {}, sp
    B, sB = attract(ex.pred, ex.owner, 1 - p, wq, _counts(ex, nodes, wq, 1 - p))
    B = set(B)
    w0b, w1b, s0b, s1b = _zielonka(ex, nodes - B)
    sq_full = dict(sq)
    sq_full.update(sB)
    if p == 0:
        sq_full.update(s1b)
        return w0b, w1b | B, s0b, sq_full
    sq_full.update(s0b)
    return w0b | B, w1b, sq_full, s1b


def _parity_cycle_blocks(nodes, succ_map, color, parity):
    """Blocks of nodes that hold a cycle whose least color has the given parity.

    For each such color c present, in ascending order, yields every cyclic
    SCC of the subgraph on the nodes of color at least c that contains a node
    of color c.  Every node of a yielded block lies on such a cycle.
    """
    for c in sorted({color[v] for v in nodes if color[v] % 2 == parity}):
        sub = [v for v in nodes if color[v] >= c]
        idx = {v: i for i, v in enumerate(sub)}
        out = [0] * len(sub)
        for v in sub:
            for w in succ_map(v):
                i = idx.get(w)
                if i is not None:
                    out[idx[v]] |= 1 << i
        comps, _ = scc_masks(out, len(sub))
        for cm in comps:
            block = [sub[i] for i in bits(cm)]
            cyclic = len(block) > 1 or any((out[idx[v]] >> idx[v]) & 1 for v in block)
            if cyclic and any(color[v] == c for v in block):
                yield block


def _reachable_cycle_with_parity(start, succ_map, color, parity) -> Optional[list]:
    """A reachable cycle whose least color has the given parity, if any."""
    seen = set()
    stack = list(start)
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(succ_map(v))
    return next(_parity_cycle_blocks(sorted(seen), succ_map, color, parity), None)


def zielonka_solve(pg: ParityGame) -> ParityResult:
    """Winning regions and both players' positional strategies, verified."""
    for v in range(pg.n):
        if not pg.post_all(v):
            raise PreconditionError(f"position {v} is a dead end")
    ex = _Expanded(pg)
    w0, w1, s0, s1 = _zielonka(ex, set(range(ex.size)))
    strategy0 = {}
    for v in range(pg.n):
        if pg.owner[v] == 0 and v in w0:
            node = s0.get(v)
            if node is None:
                raise InvariantViolation("zielonka", f"no move recorded at {v}")
            _, ai = ex.inter_info[node - pg.n]
            strategy0[v] = pg.actions[ai]
    strategy1 = {}
    for v in range(pg.n):
        if pg.owner[v] == 1 and v in w1:
            strategy1[v] = s1[v]
    for (v, ai), node in ex.inter.items():
        if node in w1:
            strategy1[(v, pg.actions[ai])] = s1[node]
    _verify_regions(pg, ex, w0, w1, s0, s1)
    return ParityResult(frozenset(v for v in w0 if v < pg.n),
                        frozenset(v for v in w1 if v < pg.n),
                        strategy0, strategy1)


def _verify_regions(pg, ex, w0, w1, s0, s1):
    def succ0(v):
        if ex.owner[v] == 0:
            return [s0[v]]
        return ex.succ[v]

    bad = _reachable_cycle_with_parity([v for v in w0 if v < pg.n], succ0, ex.color, 1)
    if bad is not None:
        raise InvariantViolation("zielonka-verify",
                                 f"player-0 strategy admits an odd cycle {bad}")

    def succ1(v):
        if ex.owner[v] == 1:
            return [s1[v]]
        return ex.succ[v]

    bad = _reachable_cycle_with_parity([v for v in w1 if v < pg.n], succ1, ex.color, 0)
    if bad is not None:
        raise InvariantViolation("zielonka-verify",
                                 f"player-1 strategy admits an even cycle {bad}")


# ---------------------------------------------------------------------------
# Lifting cop strategies to the knowledge arena

class LiftedCopStrategy(CopStrategy):
    """Occupy every knowledge set that meets a vertex the base cops occupy.

    The memory is the base game's cop set; the shadowed multi-robber play
    treats the robber's knowledge set as the robber team.  During the
    robbers' reply it is (base cop set, base announcement, old team).
    """

    def __init__(self, g: Digraph, f_r: CopStrategy, kg: KnowledgeGame):
        self.g = g
        self.f_r = f_r
        self.kg = kg
        self.cache = GraphCache(g)
        # knowledge position -> base vertices
        self.teams = [_check_vertices(K, "a knowledge set", g.n) for K in kg.sets]

    def init_memory(self, pos: CopTurn):
        return 0

    def _team(self, R: int) -> int:
        """The base robber team of the one robber on knowledge position R."""
        return self.teams[R.bit_length() - 1]

    def announce(self, memory, pos: CopTurn):
        team = self._team(pos.R)
        Up = self.f_r.announce(None, CopTurn(memory, team))[0]
        out = 0
        for i, t in enumerate(self.teams):
            if t & Up:
                out |= 1 << i
        return out, (memory, Up, team)

    def update(self, memory, newpos):
        U, Up, old_team = memory
        if not newpos.R:
            return U
        new_team = self._team(newpos.R)
        _, escapes = self.cache.robber_turn(U, Up, old_team)
        if new_team & ~escapes:
            raise InvariantViolation(
                "lift-translation",
                f"knowledge move {sorted(bits(old_team))} -> {sorted(bits(new_team))} "
                f"does not translate to a legal robber-team move")
        return Up


def lift_cop_strategy(g: Digraph, f_r: CopStrategy, kg: KnowledgeGame) -> LiftedCopStrategy:
    return LiftedCopStrategy(g, f_r, kg)


# ---------------------------------------------------------------------------
# The full pipeline

@dataclass
class ImperfectResult:
    player0_wins: bool
    knowledge_strategy: Optional[dict]
    knowledge_game: KnowledgeGame
    verified: bool


def solve_imperfect(pg: ParityGame, eq: ObservationEquiv) -> ImperfectResult:
    """Solve the knowledge arena; verify extracted wins back in the game."""
    kg = powerset_construct(pg, eq)
    res = zielonka_solve(kg.game)
    init_idx = kg.index[frozenset({pg.init})]
    if init_idx not in res.win0:
        return ImperfectResult(False, None, kg, True)
    sigma = {kg.sets[v]: a for v, a in res.strategy0.items()}
    verified = _verify_knowledge_strategy(pg, eq, kg, sigma)
    if not verified:
        raise InvariantViolation("imperfect-witness",
                                 "extracted knowledge strategy fails in the base game")
    return ImperfectResult(True, sigma, kg, verified)


def _verify_knowledge_strategy(pg, eq, kg, sigma) -> bool:
    """Product of the game with the knowledge automaton; opponent resolves all."""
    aidx = {a: i for i, a in enumerate(pg.actions)}
    start = (pg.init, frozenset({pg.init}))
    nodes = {start}
    succ = {}
    work = [start]
    while work:
        state = work.pop()
        if state in succ:
            continue
        v, K = state
        outs = []
        if pg.owner[v] == 0:
            a = sigma.get(K)
            if a is None:
                return False
            ai = aidx[a]
            post = set()
            for u in K:
                post |= pg.succ[ai][u]
            for w in pg.succ[ai][v]:
                K2 = frozenset(post & eq.class_of(w))
                outs.append((w, K2))
        else:
            union = set()
            for bi in range(len(pg.actions)):
                for u in K:
                    union |= pg.succ[bi][u]
            for bi in range(len(pg.actions)):
                for w in pg.succ[bi][v]:
                    K2 = frozenset(union & eq.class_of(w))
                    outs.append((w, K2))
        succ[state] = outs
        for t in outs:
            if t not in succ:
                work.append(t)
    order = sorted(succ)
    idx = {s: i for i, s in enumerate(order)}
    color = [pg.color[s[0]] for s in order]
    bad = _reachable_cycle_with_parity(
        [idx[start]], lambda i: [idx[t] for t in succ[order[i]]], color, 1)
    return bad is None


# ---------------------------------------------------------------------------
# Independent checks

def check_history_lifting(kg: KnowledgeGame, pg: ParityGame, max_len: int = 6) -> bool:
    """Every bounded knowledge-arena history lifts to member histories.

    Walks every path from the initial knowledge up to the given length while
    carrying, for the current knowledge set, the members that end a base-game
    history threading through all earlier sets; the lift exists iff that
    carrier never loses a member.  Works from the raw edge relations only.
    """
    base_succ = [set() for _ in range(pg.n)]
    for ai in range(len(pg.actions)):
        for v in range(pg.n):
            base_succ[v] |= pg.succ[ai][v]
    ksucc = [set() for _ in range(kg.game.n)]
    for ai in range(len(kg.game.actions)):
        for v in range(kg.game.n):
            ksucc[v] |= kg.game.succ[ai][v]
    start = kg.game.init
    seen = set()
    stack = [(start, frozenset({pg.init}), max_len)]
    while stack:
        node, carrier, left = stack.pop()
        if carrier != kg.sets[node]:
            return False
        if left == 0:
            continue
        key = (node, carrier, left)
        if key in seen:
            continue
        seen.add(key)
        for nxt in ksucc[node]:
            carrier2 = frozenset(w for w in kg.sets[nxt]
                                 if any(w in base_succ[u] for u in carrier))
            stack.append((nxt, carrier2, left - 1))
    return True


def solve_by_strategy_enumeration(pg: ParityGame):
    """Brute-force winning regions: try every positional action map.

    Player 0 wins from a position iff some action map leaves the opponent,
    who resolves everything else, no reachable cycle whose least color is
    odd.  Positional maps suffice, so the union over all maps is exact.
    """
    v0 = [v for v in range(pg.n) if pg.owner[v] == 0]
    choices = []
    for v in v0:
        opts = [ai for ai in range(len(pg.actions)) if pg.succ[ai][v]]
        choices.append(opts)
    win0 = set()
    for pick in itertools.product(*choices) if v0 else [()]:
        sigma = dict(zip(v0, pick))

        def succ_of(v):
            if pg.owner[v] == 0:
                return sorted(pg.succ[sigma[v]][v])
            return sorted(pg.post_all(v))

        # positions that can reach a cycle whose least color is odd
        bad_core = set()
        for block in _parity_cycle_blocks(range(pg.n), succ_of, pg.color, 1):
            bad_core.update(block)
        pred = [[] for _ in range(pg.n)]
        for v in range(pg.n):
            for w in succ_of(v):
                pred[w].append(v)
        bad = set(bad_core)
        queue = list(bad_core)
        while queue:
            w = queue.pop()
            for v in pred[w]:
                if v not in bad:
                    bad.add(v)
                    queue.append(v)
        win0.update(v for v in range(pg.n) if v not in bad)
    return frozenset(win0), frozenset(v for v in range(pg.n) if v not in win0)


# ---------------------------------------------------------------------------
# File formats

def parse_parity_game(text: str) -> ParityGame:
    n = None
    actions = None
    decl = {}
    moves = []
    init = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "positions" or "actions" not in parts:
                raise InputError(f"line {lineno}: expected 'positions <n> actions <labels>'")
            ai = parts.index("actions")
            try:
                n = int(parts[1])
            except (ValueError, IndexError):
                raise InputError(f"line {lineno}: bad position count") from None
            actions = tuple(parts[ai + 1:])
            if not actions:
                raise InputError(f"line {lineno}: at least one action is required")
            continue
        if parts[0] == "move":
            if len(parts) != 4:
                raise InputError(f"line {lineno}: expected 'move <u> <action> <v>'")
            try:
                u, v = int(parts[1]), int(parts[3])
            except ValueError:
                raise InputError(f"line {lineno}: bad move endpoints") from None
            if parts[2] not in actions:
                raise InputError(f"line {lineno}: unknown action {parts[2]!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"line {lineno}: move out of range")
            moves.append((u, parts[2], v))
        elif parts[0] == "init":
            try:
                init = int(parts[1])
            except (ValueError, IndexError):
                raise InputError(f"line {lineno}: bad init") from None
        else:
            if len(parts) != 3:
                raise InputError(f"line {lineno}: expected '<id> <color> <owner>'")
            try:
                vid, col, own = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise InputError(f"line {lineno}: bad position line") from None
            if not 0 <= vid < n:
                raise InputError(f"line {lineno}: position {vid} out of range")
            if own not in (0, 1):
                raise InputError(f"line {lineno}: owner must be 0 or 1")
            decl[vid] = (col, own)
    if n is None:
        raise InputError("missing header")
    if init is None:
        raise InputError("missing init line")
    missing = [v for v in range(n) if v not in decl]
    if missing:
        raise InputError(f"positions without declaration: {missing}")
    owner = tuple(decl[v][1] for v in range(n))
    color = tuple(decl[v][0] for v in range(n))
    return make_parity_game(n, owner, color, actions, moves, init)


def emit_parity_game(pg: ParityGame) -> str:
    lines = [f"positions {pg.n} actions {' '.join(pg.actions)}"]
    for v in range(pg.n):
        lines.append(f"{v} {pg.color[v]} {pg.owner[v]}")
    for ai, a in enumerate(pg.actions):
        for v in range(pg.n):
            for w in sorted(pg.succ[ai][v]):
                lines.append(f"move {v} {a} {w}")
    lines.append(f"init {pg.init}")
    return "\n".join(lines) + "\n"


def parse_observation(text: str, n: int) -> ObservationEquiv:
    classes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            members = [int(t) for t in line.split()]
        except ValueError:
            raise InputError(f"line {lineno}: class members must be integers") from None
        classes.append(members)
    return ObservationEquiv(n, classes)


def emit_observation(eq: ObservationEquiv) -> str:
    lines = [" ".join(str(v) for v in sorted(c))
             for c in eq.classes if len(c) > 1]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Instance generators

def gen_random_parity(seed):
    """Seeded random game on 4-8 positions with two actions, three colours
    and one or more observable, owner-homogeneous 2-classes."""
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    owner = [rng.randint(0, 1) for _ in range(n)]
    color = [rng.randrange(3) for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    npairs = rng.randint(1, n // 2)
    classes = []
    for i in range(npairs):
        a, b = order[2 * i], order[2 * i + 1]
        owner[b] = owner[a]
        color[b] = color[a]
        classes.append({a, b})
    actions = ("a", "b")
    p = rng.choice([0.25, 0.35])
    moves = []
    degree = [0] * n
    for a in actions:
        for u in range(n):
            for v in range(n):
                if rng.random() < p:
                    moves.append((u, a, v))
                    degree[u] += 1
    for u in range(n):
        if degree[u] == 0:
            moves.append((u, actions[rng.randrange(len(actions))], rng.randrange(n)))
    pg = make_parity_game(n, owner, color, actions, moves, 0)
    return pg, ObservationEquiv(n, classes)


def distinguisher_game():
    """Four positions where only perfect information saves player 0.

    From the start the opponent secretly moves to one of two merged
    positions that need opposite actions to avoid the odd sink.
    """
    moves = [
        (0, "u", 1), (0, "u", 2),
        (1, "l", 0), (1, "r", 3),
        (2, "l", 3), (2, "r", 0),
        (3, "u", 3), (3, "l", 3), (3, "r", 3),
    ]
    pg = make_parity_game(4, (1, 0, 0, 1), (0, 0, 0, 1), ("u", "l", "r"), moves, 0)
    eq = ObservationEquiv(4, [{1, 2}])
    return pg, eq
