"""Rewriting, derivation strategies and truncated value trees.

`redexes`/`step` work on immutable terms.  `derive` and `value_tree`
rewrite one private mutable copy of the start term in place.  A step runs
the rule's compiled template, which moves or copies argument nodes and sets
each new node's flags as it builds it.  Each node knows whether it is a
redex and whether its subtree holds one, so walks skip settled regions, a
redex is innermost when none of its children holds one, and a rewrite
updates the flags above it only as far as they flip.

`derive` takes its redexes from these flags, by one walk that carries each
redex's position and the chain of redexes above it; each round after the
first comes from the last round's contracta.  A position is kept as a link
`(index, parent link)` to the position it extends, the root being None, as
in Huet's zipper: a redex that sinks one level costs one link, and the
position tuple is built only when someone reads it.  The trace keeps
the chosen redexes and the final term only; the intermediate terms are
rebuilt with `step` when asked for.  The value-tree evaluator also gives
each node a visibility mark, and subtrees that can never reach the
requested output depth are left unexpanded.  The template sets a new
node's mark from what compilation fixed and the redex's mark; only
arguments whose mark changes are walked again.

A value-tree run whose round state repeats skips whole periods up to the
step budget; its tree, `exhausted`, `steps_used` and term size are those of
running every step.  The state is keyed by the term and the scheduler's
worklist, or, while every round is local, by the worklist's own subterms
alone.  A round is local when each rewrite in it fires an invisible redex
by a plain rule (one that only moves its arguments) and the rewritten node
still holds a redex, so it reads nothing outside those subterms.  An IO
chain that grows under a non-terminal, as in `H x = H (H x)`, then repeats
while its term grows, and each skipped period adds its growth to the
counted size without building it.  `derive` runs every step, since its
trace lists each one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cache
from typing import Callable, Optional

from .core import (
    GROUND,
    NONTERMINAL,
    TERMINAL,
    VARIABLE,
    BOT,
    HorsError,
    PartialTree,
    Position,
    Symbol,
    Term,
    instantiate,
    subterm_at,
    replace_at,
    term_to_str,
)
from .scheme import Scheme

UNRESTRICTED = "unrestricted"
OI = "oi"
IO = "io"

_POLICIES = (UNRESTRICTED, OI, IO)


class NotARedex(HorsError):
    """The addressed subterm cannot be rewritten."""


class PolicyViolation(HorsError):
    """A chooser picked a redex the active policy forbids."""


# A position as a link to the one it extends: `(index, parent link)`, with
# None for the root.  Links are shared, so a redex one level below another
# costs one link.
_Link = Optional[tuple]


class RedexInfo:
    """A rewritable subterm with its evaluation-policy classification.

    `is_oi`: no redex strictly above it; `is_io`: no redex inside any of its
    arguments.  Immutable, and compared, hashed and printed by these four
    fields, as a frozen dataclass would be.  One built by `derive` or
    `redexes` holds the link of its position instead (`_link`) and builds
    the tuple on first read.
    """

    __slots__ = ("_link", "_position", "nonterminal", "is_oi", "is_io")
    __match_args__ = ("position", "nonterminal", "is_oi", "is_io")

    def __init__(self, position: Position, nonterminal: Symbol, is_oi: bool, is_io: bool):
        _set = object.__setattr__
        _set(self, "_position", position)
        _set(self, "nonterminal", nonterminal)
        _set(self, "is_oi", is_oi)
        _set(self, "is_io", is_io)

    @property
    def position(self) -> Position:
        try:
            return self._position
        except AttributeError:  # built from a link: read for the first time
            parts = []
            link = self._link
            while link is not None:
                parts.append(link[0])
                link = link[1]
            parts.reverse()
            position = tuple(parts)
            object.__setattr__(self, "_position", position)
            return position

    def _fields(self) -> tuple:
        return (self.position, self.nonterminal, self.is_oi, self.is_io)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"RedexInfo(position={self.position!r}, nonterminal={self.nonterminal!r}, "
            f"is_oi={self.is_oi!r}, is_io={self.is_io!r})"
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (RedexInfo, self._fields())

    def allowed(self, policy: str) -> bool:
        if policy == OI:
            return self.is_oi
        if policy == IO:
            return self.is_io
        return True


def _linked_info(link: _Link, nonterminal: Symbol, is_oi: bool, is_io: bool) -> RedexInfo:
    """A RedexInfo at the position of `link`, whose tuple is not built."""
    info = object.__new__(RedexInfo)
    _set = object.__setattr__
    _set(info, "_link", link)
    _set(info, "nonterminal", nonterminal)
    _set(info, "is_oi", is_oi)
    _set(info, "is_io", is_io)
    return info


@dataclass(frozen=True)
class EvalBudget:
    """Bounds for derivations: rewrite steps, term size, output depth."""

    max_steps: int = 10_000
    max_term_size: int = 100_000
    depth: int = 5

    def __post_init__(self) -> None:
        if self.max_steps < 1 or self.max_term_size < 1 or self.depth < 1:
            raise ValueError("budget components must be strictly positive")


@dataclass
class DerivationTrace:
    """A derivation: its start term, the redex chosen at each step, the
    final term (the start term when no step was taken) and whether a budget
    ran out.

    No intermediate term is kept.  `steps`, the (term before, chosen redex,
    term after) triples, and `terms`, the start term and every result, are
    rebuilt with `step` on first use; `len(trace.steps)` rebuilds nothing.
    """

    scheme: Scheme
    start: Term
    chosen: list[RedexInfo]
    final: Term
    exhausted_budget: bool
    _replayed: list[tuple[Term, RedexInfo, Term]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def steps(self) -> "_Steps":
        return _Steps(self)

    @property
    def terms(self) -> list[Term]:
        return [self.start] + [after for _, _, after in self._replay()]

    def _replay(self) -> list[tuple[Term, RedexInfo, Term]]:
        if self._replayed is None:
            out, term = [], self.start
            for info in self.chosen:
                after = step(self.scheme, term, info.position)
                out.append((term, info, after))
                term = after
            self._replayed = out
        return self._replayed


class _Steps(Sequence):
    """`DerivationTrace.steps`: a read-only list whose length is known
    before any step is replayed."""

    __slots__ = ("_trace",)

    def __init__(self, trace: DerivationTrace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.chosen)

    def __getitem__(self, i):
        return self._trace._replay()[i]

    def __iter__(self):
        return iter(self._trace._replay())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, _Steps)):
            return self._trace._replay() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self._trace._replay())


@dataclass(frozen=True)
class ValueTreeResult:
    tree: PartialTree
    exhausted: bool
    steps_used: int


def _is_redex_head(g: Scheme, head: Symbol, nargs: int) -> bool:
    """Whether `head` applied to `nargs` arguments can be rewritten: a
    non-terminal with a rule, applied to one argument per parameter (so
    fully applied and ground).  The one redex predicate of `step`,
    `derive` and the fast evaluator; `_from_term` inlines it."""
    if head.kind != NONTERMINAL:
        return False
    rule = g.rules.get(head.name)
    return rule is not None and nargs == len(rule.params)


# ---------------------------------------------------------------------------
# Mutable terms, rewritten in place by `derive` and the fast evaluator.


# Visibility marks (`vis`), kept by the evaluator:
#   >= 0  on an all-terminal path from the root, shallower than the horizon
#   -1    below a non-terminal head somewhere: invisible until that resolves
#   -2    on an all-terminal path at or beyond the horizon: permanently
#         irrelevant for the requested prefix, never scanned or rewritten

_INVIS = -1
_BEYOND = -2


class _MNode:
    """A node of a mutable term.  `redex`: the node can be rewritten; `hot`:
    it or some node below it can; `vis`: its visibility mark, which only the
    evaluator keeps.  `_instantiate` and `_cool` keep the flags and parent
    links current, and `derive` and the evaluator both read them."""

    __slots__ = ("sym", "kids", "parent", "redex", "hot", "vis", "stamp")

    def __init__(
        self, sym: Symbol, kids: list["_MNode"], redex=False, hot=False, vis: int | None = _INVIS
    ):
        self.sym = sym
        self.kids = kids
        self.parent: _MNode | None = None
        self.redex = redex
        self.hot = hot
        self.vis = vis
        self.stamp = -1
        for k in kids:
            k.parent = self


def _deep_copy(node: _MNode) -> tuple[_MNode, int]:
    """A copy of node's subtree, flags and marks included, and its number
    of nodes."""
    done: dict[int, _MNode] = {}
    stack: list[tuple[_MNode, bool]] = [(node, False)]
    while stack:
        n, expanded = stack.pop()
        if not expanded:
            stack.append((n, True))
            for k in n.kids:
                stack.append((k, False))
            continue
        done[id(n)] = _MNode(n.sym, [done[id(k)] for k in n.kids], n.redex, n.hot, n.vis)
    return done[id(node)], len(done)


def _mark(node: _MNode, vis: int, horizon: int) -> None:
    """Give `node` the mark `vis` and bring the marks below it in line with
    it, entering only the nodes whose mark changes."""
    node.vis = vis
    stack = [node]
    while stack:
        n = stack.pop()
        v = n.vis
        if v < 0 or n.sym.kind != TERMINAL:
            cv = _BEYOND if v == _BEYOND else _INVIS
        else:
            cv = v + 1 if v + 1 < horizon else _BEYOND
        for k in n.kids:
            if k.vis != cv:
                k.vis = cv
                stack.append(k)


def _subtree_size(node: _MNode) -> int:
    count = 0
    stack = [node]
    while stack:
        n = stack.pop()
        count += 1
        stack.extend(n.kids)
    return count


def _to_term(node: _MNode) -> Term:
    """The immutable term of a mutable one, built bottom-up with an
    explicit stack."""
    done: list[Term] = []  # built terms, children before parents
    stack: list[tuple[_MNode, bool]] = [(node, False)]
    while stack:
        n, expanded = stack.pop()
        if expanded:
            cut = len(done) - len(n.kids)
            done[cut:] = [Term(n.sym, done[cut:])]
            continue
        stack.append((n, True))
        for k in reversed(n.kids):
            stack.append((k, False))
    return done[0]


# ---------------------------------------------------------------------------
# Rule templates: a rule body compiled once, instantiated by one loop.


class _Template:
    """A rule body compiled to postfix operations, run by `_instantiate`.

    A non-parameter head is `(False, symbol, child count, redex, hot, off)`;
    its `hot` flag is None when a parameter below decides it.  A parameter
    head is `(True, parameter index, extra-argument count, copy, None,
    off)`: the argument moves to the first occurrence in pre-order and is
    copied for later ones.  `off` places a head for the evaluator's marks:
    `d` at depth d on an all-terminal path from the body root, `~k` below a
    non-terminal head first met at depth k, None below a parameter head.
    `root` is the body root's operation, run into the redex node, and `ops`
    are the others.  `nsym` counts the new nodes and `unused` lists the
    parameters that do not occur.  `plain`: the root is no parameter and
    each parameter occurs once with no extra arguments, so a rewrite only
    moves its arguments and never reads them.
    """

    __slots__ = ("ops", "root", "nsym", "unused", "plain")

    def __init__(self, g: Scheme, params: Sequence[Symbol], body: Term):
        index = {p.name: k for k, p in enumerate(params)}
        ops: list[tuple] = []
        seen: set[int] = set()
        hots: list[bool | None] = []  # the emitted operations' hot flags
        # (False, term, off) to visit, or (True, operation) to emit once the
        # children are.
        todo: list[tuple] = [(False, body, 0)]
        while todo:
            entry = todo.pop()
            if entry[0]:
                _, param, a, n, flag, off = entry
                kids = hots[len(hots) - n :]
                del hots[len(hots) - n :]
                # Set by a static redex, clear without one; None: decided
                # at run time, by the kids that hold a parameter.
                hot = None if param else flag or True in kids or (None if None in kids else False)
                hots.append(hot)
                ops.append((param, a, n, flag, hot, off))
                continue
            _, t, off = entry
            n = len(t.args)
            k = index.get(t.head.name) if t.head.kind == VARIABLE else None
            if k is not None:
                todo.append((True, True, k, n, k in seen, off))
                seen.add(k)
                below = None
            else:
                todo.append((True, False, t.head, n, _is_redex_head(g, t.head, n), off))
                below = off
                if off is not None and off >= 0:
                    below = off + 1 if t.head.kind == TERMINAL else ~off
            for j in range(n, 0, -1):
                todo.append((False, t.args[j - 1], below))
        *self.ops, self.root = ops
        self.nsym = sum(1 for op in ops if not op[0])
        self.unused = tuple(k for k in range(len(params)) if k not in seen)
        self.plain = not (self.root[0] or self.unused) and not any(
            param and (n or copy) for param, _, n, copy, _, _ in self.ops
        )


def _templates(g: Scheme) -> Callable[[str], _Template]:
    """The template of each rule by name, compiled on its first use."""
    return cache(lambda name: _Template(g, g.rules[name].params, g.rules[name].body))


def _instantiate(g: Scheme, tpl: _Template, node: _MNode, horizon: int | None = None) -> int:
    """Rewrite the redex `node` in place by running its rule's template and
    return the change in the term's size.  `node` stays where it is, with
    the body root's symbol and kids.  Every node below it gets current
    `redex` and `hot` flags; the nodes above are left to `_cool`.

    Given the evaluator's `horizon`, each new node's mark follows from the
    redex's mark and the operation's `off`.  The arguments were invisible
    below the redex, so only parameter heads whose mark differs are walked.
    `room`: the levels below the redex shallower than the horizon, None
    when every new node is invisible."""
    args = node.kids
    stack: list[_MNode] = []
    delta = tpl.nsym - 1  # the redex node goes
    mark = node.vis
    room = None if horizon is None or mark < 0 else horizon - mark
    for param, a, n, flag, hot, off in tpl.ops:
        if room is None:
            vis = _INVIS
        elif off is None:
            vis = None  # set by the walk from the parameter head above
        elif off >= 0:
            vis = mark + off if off < room else _BEYOND
        else:
            vis = _INVIS if ~off < room else _BEYOND
        if param:
            m = args[a]
            if flag:
                m, copied = _deep_copy(m)
                delta += copied
            if n:  # a partial application, completed by the body's arguments
                kids = m.kids + stack[-n:]
                del stack[-n:]
                redex = _is_redex_head(g, m.sym, len(kids))
                hot = redex or any(k.hot for k in kids)
                m = _MNode(m.sym, kids, redex, hot, vis if room is None else None)
            if vis is not None and m.vis != vis:
                _mark(m, vis, horizon)  # type: ignore[arg-type]
        else:
            kids = stack[len(stack) - n :]
            del stack[len(stack) - n :]
            m = _MNode(a, kids, flag, any(k.hot for k in kids) if hot is None else hot, vis)
        stack.append(m)
    for k in tpl.unused:
        delta -= _subtree_size(args[k]) if args[k].kids else 1
    param, a, _, flag, hot, _ = tpl.root
    if param:  # the argument moves to the root, completed by the rest
        m = args[a]
        a, stack = m.sym, m.kids + stack
        flag = _is_redex_head(g, a, len(stack))
        hot = flag or any(k.hot for k in stack)
    elif hot is None:
        hot = any(k.hot for k in stack)
    node.sym, node.kids, node.redex, node.hot = a, stack, flag, hot
    for k in stack:
        k.parent = node
    if param and room is not None:
        _mark(node, mark, horizon)  # type: ignore[arg-type]
    return delta


def _cool(node: _MNode) -> None:
    """Clear `hot` above `node`, a rewritten redex that no longer holds one,
    only as far as it flips; each check reads one node's kids."""
    p = node.parent
    while p is not None and not p.redex and not any(k.hot for k in p.kids):
        p.hot = False
        p = p.parent


def _from_term(g: Scheme, t: Term) -> _MNode:
    """A flagged mutable copy of t, one node per position (a subterm that t
    shares gets a node at each), built bottom-up with an explicit stack."""
    rules = g.rules
    order: list[Term] = []  # pre-order, mirrored: later arguments first
    stack = [t]
    while stack:
        s = stack.pop()
        order.append(s)
        stack.extend(s.args)
    done: list[_MNode] = []  # built nodes, each node's kids in order
    for s in reversed(order):
        head, n = s.head, len(s.args)
        # `_is_redex_head`, inlined: this loop runs once per node of every
        # term `redexes` is asked about.
        rule = rules.get(head.name) if head.kind == NONTERMINAL else None
        redex = rule is not None and n == len(rule.params)
        if n:
            kids = done[len(done) - n :]
            del done[len(done) - n :]
            done.append(_MNode(head, kids, redex, redex or any(k.hot for k in kids)))
        else:
            done.append(_MNode(head, [], redex, redex))
    return done[0]


# ---------------------------------------------------------------------------
# Redexes and derivations.

# The redexes above a node, innermost first: `(node, link of its position,
# chain above it)`, or None when no redex lies above.
_Chain = Optional[tuple]
# A redex found by `_eligible`: its node, its RedexInfo and its chain.
_Found = tuple[_MNode, RedexInfo, _Chain]


def _eligible(
    top: _MNode, policy: str, base: _Link = None, above: _Chain = None
) -> list[_Found]:
    """The redexes at or below `top` the policy allows, in document order:
    under `oi` each redex met stops the walk, under `io` only redexes with
    no hot kid count.  `top` sits at the position linked by `base`, below
    the chain `above`.  Only hot nodes are entered.  The walk extends
    `base` by one link per level it descends, and each redex returned holds
    the link of its position, so positions share their common prefixes and
    no tuple is built."""
    out: list[_Found] = []
    stack = [(top, base, above)] if top.hot else []
    while stack:
        n, link, chain = stack.pop()
        kids = n.kids
        if n.redex:
            io = not any(k.hot for k in kids)
            if io or policy != IO:
                out.append((n, _linked_info(link, n.sym, chain is None, io), chain))
            if policy == OI:
                continue
            chain = (n, link, chain)
        for i in range(len(kids), 0, -1):
            if kids[i - 1].hot:
                stack.append((kids[i - 1], (i, link), chain))
    return out


def redexes(g: Scheme, t: Term) -> list[RedexInfo]:
    """All redexes of a ground term in document order, with OI/IO flags."""
    return [info for _, info, _ in _eligible(_from_term(g, t), UNRESTRICTED)]


def step(g: Scheme, t: Term, position: Position) -> Term:
    """One rewrite at `position`, which must address a redex."""
    sub = subterm_at(t, position)
    if not _is_redex_head(g, sub.head, len(sub.args)):
        raise NotARedex(
            f"{term_to_str(sub)} at {'.'.join(map(str, position)) or 'root'} "
            f"is not a redex"
        )
    return replace_at(t, position, _contractum(g, sub))


def _contractum(g: Scheme, redex: Term) -> Term:
    rule = g.rules[redex.head.name]
    return instantiate(rule.body, {p.name: a for p, a in zip(rule.params, redex.args)})


Chooser = Callable[[Term, list[RedexInfo]], Optional[RedexInfo]]


def derive(
    g: Scheme,
    t0: Term,
    policy: str = UNRESTRICTED,
    budget: EvalBudget = EvalBudget(),
    chooser: Chooser | None = None,
) -> DerivationTrace:
    """A maximal derivation from t0 under the policy, within the budget.

    The default chooser is the fair scheduler: it snapshots the eligible
    redexes of the current term and rewrites them left to right before
    re-snapshotting (outermost ones under `oi`/`unrestricted`, innermost
    under `io`).  A custom chooser may return None to stop early, and must
    return one of the eligible `RedexInfo`s it is handed.

    The term is rewritten in place, and the node flags that each step keeps
    current give the redexes: a snapshot walks only the nodes that hold a
    redex, so a step costs about the body and its copied arguments, not the
    whole term.  Each round after the first comes from the last round's
    contracta: the eligible redexes inside each, or, under `io`, the redex
    just above one whose last inner redex is gone.  A custom chooser is handed
    the current term and a fresh snapshot at every step; only then does the
    derivation keep an immutable term.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if t0.type != GROUND:
        raise NotARedex("derivations start from ground terms")
    top = _from_term(g, t0)
    template = _templates(g)
    size = t0.size
    chosen: list[RedexInfo] = []
    exhausted = False
    term = t0
    # Under `unrestricted` the fair sweep schedules the outermost redexes,
    # which attains the value tree.
    sweep = OI if policy == UNRESTRICTED else policy
    queue: list[_Found] = []
    # The next round: the eligible redexes this round's steps made.  Under
    # `oi` they all lie in the contracta, since only terminal nodes, which
    # never change, sit above an outermost redex.
    following: list[_Found] | None = None
    while True:
        if size > budget.max_term_size:
            exhausted = True
            break
        if chooser is None:
            if not queue:
                # The queued redexes are pairwise disjoint (none lies below
                # another), so rewriting one leaves the others in place with
                # the same flags and chains: a round needs no new snapshot.
                queue = _eligible(top, sweep) if following is None else following
                following = []
                queue.reverse()
                if not queue:
                    break
            if len(chosen) >= budget.max_steps:
                exhausted = True
                break
            node, info, chain = queue.pop()
        else:
            candidates = _eligible(top, policy)
            if not candidates:
                break
            if len(chosen) >= budget.max_steps:
                exhausted = True
                break
            pick = chooser(term, [info for _, info, _ in candidates])
            if pick is None:
                break
            found = {f[1].position: f for f in candidates}.get(pick.position)
            if found is None or found[1] != pick:
                raise PolicyViolation(
                    f"chooser picked {pick}, which is not an eligible {policy} redex"
                )
            node, info, chain = found
            term = step(g, term, info.position)
        size += _instantiate(g, template(node.sym.name), node)
        if not node.hot:
            _cool(node)
        chosen.append(info)
        if following is not None:
            if node.hot:
                following += _eligible(node, sweep, info._link, chain)
            elif chain is not None and not any(k.hot for k in chain[0].kids):
                up, link, rest = chain
                following.append((up, _linked_info(link, up.sym, rest is None, True), rest))
    return DerivationTrace(g, t0, chosen, _to_term(top), exhausted)


# ---------------------------------------------------------------------------
# Fast evaluator for value trees.


class _Evaluator:
    def __init__(self, g: Scheme, start: Term, budget: EvalBudget):
        self.g = g
        self.budget = budget
        self.depth = budget.depth
        self.steps_used = 0
        self.exhausted = False
        self.template = _templates(g)
        self.root = _from_term(g, start)
        self.size = start.size
        _mark(self.root, 0 if self.depth >= 1 else _BEYOND, self.depth)
        # The repeat search of `_sample`.  Over the whole round state:
        # samples taken, the save point's (size, worklist length), and the
        # first key that matched it with the step count it was built at.
        self.samples = 0
        self.saved: tuple[int, int] | None = None
        self.key: list | None = None
        self.key_steps = 0
        # Over the worklist's subterms: whether every round since the last
        # sample was local, the local samples since the last other one, and
        # the stored key with the step count and size it was built at.
        self.local = True
        self.local_samples = 0
        self.local_saved: tuple[list, int, int] = ([], 0, 0)
        # Size counted for skipped periods but never built: the term holds
        # `size - unbuilt` nodes.
        self.unbuilt = 0

    # -- rewriting ----------------------------------------------------

    def _fire(self, node: _MNode) -> None:
        """Rewrite the redex at `node` in place (one step), and clear
        `local` unless the rewrite reads nothing outside node's subterm."""
        tpl = self.template(node.sym.name)
        if self.local and (node.vis != _INVIS or not tpl.plain):
            self.local = False
        self.size += _instantiate(self.g, tpl, node, self.depth)
        if not node.hot:
            _cool(node)
            self.local = False
        self.steps_used += 1
        if self.size > self.budget.max_term_size:
            self.exhausted = True

    # -- repeated round states ------------------------------------------

    def _sample(self, current: list[_MNode]) -> int:
        """Look for a round state seen before, at the end of a round whose
        next worklist is `current`, and return the step count at which to
        sample again.

        Two keys describe a state.  When every round since the last sample
        was local, the key is the worklist's own subterms (`_local_key`).
        A round is local when each rewrite in it fires an invisible redex
        by a plain template and leaves the redex hot, and no death walk
        runs: it reads nothing outside the worklist's subterms, whose cold
        parts it only moves, and its worklist is its contracta.  So the
        local key fixes every later round, and those stay local.  Any
        other sample keys the whole term and worklist (`_state_key`): the
        flags and marks follow from the term, and stamps matter only
        within a round.

        As in Brent's cycle finder (BIT 1980), each search keeps a save
        point at every power-of-two sample.  A local sample stores its key
        there and the later ones compare against it; the next one is due
        after about a key's length of steps.  A whole-state save point
        records only the size and the worklist length; a later sample that
        agrees on both builds its key, the first one stores it and the
        later ones compare against it; the next one is due after about a
        term size of steps.  Either way a key costs about one entry per
        step taken.  A sample that is not local also restarts the local
        search.  A match means the run repeats every P steps from here,
        and `_skip` counts whole periods without running them.  The search
        then ends.
        """
        never = self.budget.max_steps + 1
        if self.local:
            key = self._local_key(current)
            self.local_samples += 1
            saved, steps, size = self.local_saved
            if self.local_samples & (self.local_samples - 1) == 0:
                self.local_saved = key, self.steps_used, self.size
            elif key == saved:
                self._skip(self.steps_used - steps, self.size - size)
                return never
            return self.steps_used + len(key)
        self.local, self.local_samples = True, 0
        self.samples += 1
        shape = (self.size, len(current))
        if self.samples & (self.samples - 1) == 0:
            self.saved, self.key = shape, None
        elif shape == self.saved:
            key = self._state_key(current)
            if key is not None:
                if self.key is None:
                    self.key, self.key_steps = key, self.steps_used
                elif key == self.key:
                    self._skip(self.steps_used - self.key_steps, 0)
                    return never
        return self.steps_used + self.size

    def _skip(self, period: int, growth: int) -> None:
        """Count k whole periods of `period` steps, each of which grows the
        term by `growth` nodes that no later step reads, without running
        them.  k stops at the step budget and, for a growing term, at the
        size cap: sizes never fall along a period, so the steps left, fewer
        than one period or up to the cap, run as usual and stop where
        running every step would.  A period of 0 skips nothing."""
        if period:
            k = (self.budget.max_steps - self.steps_used) // period
            if growth:
                k = min(k, (self.budget.max_term_size - self.size) // growth)
            self.steps_used += k * period
            self.size += k * growth
            self.unbuilt += k * growth

    def _local_key(self, current: list[_MNode]) -> list:
        """The worklist's subterms as one flat list: for each worklist node
        a separator, then the symbol and child count of each hot node in
        pre-order, with one cold marker (-1, never a child count) for each
        cold subtree, which is not entered."""
        key: list = []
        append = key.append
        for w in current:
            append(None)
            stack = [w]
            while stack:
                n = stack.pop()
                if n.hot:
                    append(n.sym)
                    append(len(n.kids))
                    stack += n.kids[::-1]
                else:
                    append(-1)
        return key

    def _state_key(self, current: list[_MNode]) -> list | None:
        """The round state as one flat list: the symbol and child count of
        each node in pre-order, then each worklist node's pre-order index.
        None when some worklist node is no longer in the term."""
        where = {id(n): -1 for n in current}
        key: list = []
        append = key.append
        stack = [self.root]
        index = 0
        while stack:
            n = stack.pop()
            if id(n) in where:
                where[id(n)] = index
            append(n.sym)
            append(len(n.kids))
            stack += n.kids[::-1]
            index += 1
        for n in current:
            if where[id(n)] < 0:
                return None
            append(where[id(n)])
        return key

    # -- fair outermost (value tree of unrestricted/OI derivations) ----

    def run_outermost(self) -> None:
        # A round rewrites every visible outermost redex.  Their ancestors
        # are terminal nodes, which never change, so the next round's
        # outermost redexes all lie in this round's contracta: it starts
        # from the rewritten nodes, in the same document order.
        current = [self.root]
        due = 0  # the step count of the next `_sample`
        while current:
            fired: list[_MNode] = []
            for w in current:
                stack = [w]
                while stack:
                    n = stack.pop()
                    if n.vis == _BEYOND:
                        continue
                    if n.redex:
                        if self.steps_used >= self.budget.max_steps:
                            self.exhausted = True
                            return
                        self._fire(n)
                        fired.append(n)
                        if self.exhausted:
                            return
                        continue
                    if n.sym.kind == TERMINAL:
                        for k in reversed(n.kids):
                            stack.append(k)
                    # non-terminal head, not a redex: frozen forever, skip
            current = fired
            if self.steps_used >= due:
                due = self._sample(current)

    # -- fair parallel-innermost (IO value tree) ------------------------

    def _death_walk(self, node: _MNode, out: list[_MNode], round_no: int) -> None:
        self.local = False
        p = node.parent
        while p is not None and not p.redex:
            p = p.parent
        if p is not None and p.vis != _BEYOND and p.stamp != round_no:
            if not any(k.hot for k in p.kids):
                p.stamp = round_no
                out.append(p)

    def run_innermost(self) -> None:
        # A redex is innermost when none of its kids is hot.
        current = [self.root]
        round_no = 0
        due = 0  # the step count of the next `_sample`
        while current:
            round_no += 1
            nxt: list[_MNode] = []
            for w in current:
                if w.hot:
                    stack = [w]
                    while stack:
                        n = stack.pop()
                        if not n.hot or n.vis == _BEYOND:
                            continue
                        if n.redex and not any(k.hot for k in n.kids):
                            if self.steps_used >= self.budget.max_steps:
                                self.exhausted = True
                                return
                            self._fire(n)
                            if self.exhausted:
                                return
                            if n.stamp != round_no:
                                n.stamp = round_no
                                nxt.append(n)
                            continue
                        for k in reversed(n.kids):
                            stack.append(k)
                if not w.hot:
                    self._death_walk(w, nxt, round_no)
            current = nxt
            if self.steps_used >= due:
                due = self._sample(current)

    # -- output ---------------------------------------------------------

    def extract(self) -> PartialTree:
        """The prefix, built bottom-up with an explicit stack: the requested
        depth may exceed the recursion limit."""
        done: list[PartialTree] = []
        stack: list[tuple[_MNode, int, bool]] = [(self.root, self.depth, False)]
        while stack:
            node, depth, expanded = stack.pop()
            if expanded:
                cut = len(done) - len(node.kids)
                done[cut:] = [PartialTree(node.sym, tuple(done[cut:]))]
            elif depth <= 0 or node.sym.kind != TERMINAL:
                done.append(BOT)
            else:
                stack.append((node, depth, True))
                for k in reversed(node.kids):
                    stack.append((k, depth - 1, False))
        return done[0]


def value_tree_report(
    g: Scheme,
    policy: str = UNRESTRICTED,
    budget: EvalBudget = EvalBudget(),
    start: Term | None = None,
) -> ValueTreeResult:
    """Depth-truncated value-tree prefix plus budget accounting.

    The result is always a lower bound of the true value tree: unresolved
    non-terminals and everything below the requested depth come out as
    bottom.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    start_term = start if start is not None else g.start_term()
    if start_term.type != GROUND:
        raise NotARedex("value trees are computed from ground start terms")
    ev = _Evaluator(g, start_term, budget)
    if policy == IO:
        ev.run_innermost()
    else:
        ev.run_outermost()
    return ValueTreeResult(ev.extract(), ev.exhausted, ev.steps_used)


def value_tree(
    g: Scheme,
    policy: str = UNRESTRICTED,
    budget: EvalBudget = EvalBudget(),
) -> PartialTree:
    """The depth-truncated prefix of the value tree under the given policy."""
    return value_tree_report(g, policy, budget).tree
