"""Rewriting, derivation strategies and truncated value trees.

`redexes`/`step` work on immutable terms.  `derive` rewrites one private
mutable copy of its start term in place and keeps the redexes of the
current term in a tree, each pointing at its node: a step runs the rule's
compiled template, which moves or copies argument nodes, and the fair sweep
under `io` takes each round's innermost redexes from the last round's
contracta.  The trace keeps the chosen redexes and the final term only; the
intermediate terms are rebuilt with `step` when asked for.  `value_tree`
runs the fair schedulers on the same mutable representation and the same
templates: each node knows whether its subtree holds a redex, so sweeps
skip settled regions, a redex is innermost when none of its children holds
one, and a rewrite updates the flags above it only as far as they flip.
Each node also carries a visibility mark, and subtrees that can never reach
the requested output depth are left unexpanded.  The template sets a new
node's flags and mark as it builds it, from what compilation fixed and the
redex's mark; only arguments whose mark changes are walked again.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class RedexInfo:
    """A rewritable subterm with its evaluation-policy classification.

    `is_oi`: no redex strictly above it; `is_io`: no redex inside any of its
    arguments.
    """

    position: Position
    nonterminal: Symbol
    is_oi: bool
    is_io: bool

    def allowed(self, policy: str) -> bool:
        if policy == OI:
            return self.is_oi
        if policy == IO:
            return self.is_io
        return True


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
        steps = self._replay()
        return [self.start] + [after for _, _, after in steps] if steps else []

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
    fully applied and ground).  The one redex predicate of `redexes`,
    `step`, `derive` and the fast evaluator."""
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
    it or some node below it can; `vis`: its visibility mark.  The evaluator
    keeps these current; `derive` does not read them."""

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


def _deep_copy(node: _MNode) -> tuple[_MNode, dict[int, _MNode]]:
    """A copy of node's subtree, flags and marks included, and the copy of
    every node in it by the original's id."""
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
    return done[id(node)], done


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

    A non-parameter head is `(False, symbol, child count, redex, hot, off,
    slot)`; its `hot` flag is None when a parameter below decides it.  A
    parameter head is `(True, parameter index, extra-argument count, copy,
    None, off, slot)`: the argument moves to the first occurrence in
    pre-order and is copied for later ones.  `off` places a head for the
    evaluator's marks: `d` at depth d on an all-terminal path from the body
    root, `~k` below a non-terminal head first met at depth k, None below a
    parameter head.  `root` is the body root's operation, run into the
    redex node, and `ops` are the others.  `nsym` counts the new nodes and
    `unused` lists the parameters that do not occur.

    `items`, for `_rewrite`, are the static redexes and the parameter
    occurrences in document order; `slot` is an operation's index among
    them, or -1.  An item is `(parent, rel, shift, param, opens)`: the slot
    of the nearest item above that may be a redex (-1: none), the position
    relative to it, whose first index skips the kids of argument `shift`
    when that item is a parameter (-1: not), the parameter index (-1 for a
    static redex) and whether the item may be a redex itself.
    """

    __slots__ = ("ops", "root", "nsym", "unused", "items")

    def __init__(self, g: Scheme, params: Sequence[Symbol], body: Term):
        index = {p.name: k for k, p in enumerate(params)}
        ops: list[tuple] = []
        self.items: list[tuple[int, Position, int, int, bool]] = []
        seen: set[int] = set()
        hots: list[bool | None] = []  # the emitted operations' hot flags
        # (False, term, parent item, path from it as a linked list, shift,
        # off) to visit, or (True, operation) to emit once the children are.
        todo: list[tuple] = [(False, body, -1, None, -1, 0)]
        while todo:
            entry = todo.pop()
            if entry[0]:
                _, param, a, n, flag, off, slot = entry
                kids = hots[len(hots) - n :]
                del hots[len(hots) - n :]
                # Set by a static redex, clear without one; None: decided
                # at run time, by the kids that hold a parameter.
                hot = None if param else flag or True in kids or (None if None in kids else False)
                hots.append(hot)
                ops.append((param, a, n, flag, hot, off, slot))
                continue
            _, t, parent, link, shift, off = entry
            n = len(t.args)
            k = index.get(t.head.name) if t.head.kind == VARIABLE else None
            redex = k is None and _is_redex_head(g, t.head, n)
            slot = -1
            if k is not None or redex:
                rel: list[int] = []
                while link is not None:  # the children's paths start here
                    j, link = link
                    rel.append(j)
                slot, param = len(self.items), -1 if redex else k
                self.items.append((parent, tuple(reversed(rel)), shift, param, redex or n > 0))
                parent, shift = slot, param
            if k is not None:
                todo.append((True, True, k, n, k in seen, off, slot))
                seen.add(k)
                below = None
            else:
                todo.append((True, False, t.head, n, redex, off, slot))
                below = off
                if off is not None and off >= 0:
                    below = off + 1 if t.head.kind == TERMINAL else ~off
            for j in range(n, 0, -1):
                todo.append((False, t.args[j - 1], parent, (j, link), shift, below))
        *self.ops, self.root = ops
        self.nsym = sum(1 for op in ops if not op[0])
        self.unused = tuple(k for k in range(len(params)) if k not in seen)


def _templates(g: Scheme) -> Callable[[str], _Template]:
    """The template of each rule by name, compiled on its first use."""
    return cache(lambda name: _Template(g, g.rules[name].params, g.rules[name].body))


def _instantiate(
    g: Scheme, tpl: _Template, node: _MNode, rec: list | None = None, horizon: int | None = None
) -> tuple[_MNode, int]:
    """Rewrite the redex `node` in place by running its rule's template.
    Returns the node whose place `node` took (the argument moved to the
    body root, or else `node`) and the change in the term's size.  `rec`,
    if given, receives each item's node by slot, a parameter's with the
    node map of its copy (None when the argument itself moved).

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
    for param, a, n, flag, hot, off, slot in tpl.ops:
        if room is None:
            vis = _INVIS
        elif off is None:
            vis = None  # set by the walk from the parameter head above
        elif off >= 0:
            vis = mark + off if off < room else _BEYOND
        else:
            vis = _INVIS if ~off < room else _BEYOND
        nodes = None
        if param:
            m = args[a]
            if flag:
                m, nodes = _deep_copy(m)
                delta += len(nodes)
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
        if rec is not None and slot >= 0:
            rec[slot] = (m, nodes)
        stack.append(m)
    for k in tpl.unused:
        delta -= _subtree_size(args[k]) if args[k].kids else 1
    param, a, _, flag, hot, _, slot = tpl.root
    inst = node
    if param:  # the argument moves to the root, completed by the rest
        inst = args[a]
        a, stack = inst.sym, inst.kids + stack
        flag = _is_redex_head(g, a, len(stack))
        hot = flag or any(k.hot for k in stack)
    elif hot is None:
        hot = any(k.hot for k in stack)
    node.sym, node.kids, node.redex, node.hot = a, stack, flag, hot
    for k in stack:
        k.parent = node
    if rec is not None and slot >= 0:
        rec[slot] = (node, None)
    if param and room is not None:
        _mark(node, mark, horizon)  # type: ignore[arg-type]
    return inst, delta


def _from_term(g: Scheme, t: Term) -> _MNode:
    """A classified mutable copy of t, one node per position (a subterm
    that t shares gets a node at each): t's instance as a template without
    parameters."""
    node = _MNode(t.head, [])
    _instantiate(g, _Template(g, (), t), node)
    return node


# ---------------------------------------------------------------------------
# Redexes and derivations.


class _Redex:
    """A node of the tree of a term's redexes.  `node` is the redex in the
    mutable term, if there is one, and `up` the nearest redex above it, or
    the root for outermost ones.  `rel` is the position relative to `up`'s;
    `kids` are the redexes directly below, in document order.  So a redex is
    OI when `up` is the root and IO when it has no kids, and moving a
    subterm re-bases its top redexes only.
    """

    __slots__ = ("rel", "head", "node", "up", "kids")

    def __init__(
        self, rel: Position, head: Symbol | None, node: _MNode | None, up: "_Redex | None"
    ):
        self.rel = rel
        self.head = head
        self.node = node
        self.up = up
        self.kids: list[_Redex] = []

    def copy(self, nodes: dict[int, _MNode]) -> "_Redex":
        """This subtree for a copy of its term: `nodes` maps each original
        node's id to its copy, as `_deep_copy` returns it."""
        top = _Redex(self.rel, self.head, nodes[id(self.node)], self.up)
        stack = [(self, top)]
        while stack:
            src, dst = stack.pop()
            for k in src.kids:
                c = _Redex(k.rel, k.head, nodes[id(k.node)], dst)
                dst.kids.append(c)
                stack.append((k, c))
        return top


def _redex_tree(g: Scheme, t: Term, m: _MNode | None = None) -> _Redex:
    """The root of t's redex tree.  Subtrees without a redex are not
    entered, so positions are built only on the paths to redexes.  `m`, a
    mutable copy of t, gives each redex its node."""
    contains: dict[int, bool] = {}
    post: list[tuple[Term, bool]] = [(t, False)]
    while post:
        node, expanded = post.pop()
        if expanded:
            own = _is_redex_head(g, node.head, len(node.args))
            contains[id(node)] = own or any(contains[id(a)] for a in node.args)
            continue
        post.append((node, True))
        for a in node.args:
            post.append((a, False))

    root = _Redex((), None, None, None)
    pre: list[tuple[Term, _MNode | None, _Redex, Position]] = (
        [(t, m, root, ())] if contains[id(t)] else []
    )
    while pre:
        node, mnode, above, rel = pre.pop()
        if _is_redex_head(g, node.head, len(node.args)):
            r = _Redex(rel, node.head, mnode, above)
            above.kids.append(r)
            above, rel = r, ()
        for i in range(len(node.args), 0, -1):
            if contains[id(node.args[i - 1])]:
                kid = None if mnode is None else mnode.kids[i - 1]
                pre.append((node.args[i - 1], kid, above, rel + (i,)))
    return root


# A redex found in the tree: itself, with its position and flags.
_Found = tuple[_Redex, RedexInfo]


def _eligible(root: _Redex, policy: str) -> list[_Found]:
    """The redexes the policy allows, in document order.  Positions are put
    together only for these: the walk carries the path as a linked list."""
    if policy == OI:
        return [(r, RedexInfo(r.rel, r.head, True, not r.kids)) for r in root.kids]
    out: list[_Found] = []
    stack: list[tuple[_Redex, tuple]] = [(r, (r.rel, None)) for r in reversed(root.kids)]
    while stack:
        r, path = stack.pop()
        if policy == UNRESTRICTED or not r.kids:
            parts, link = [], path
            while link is not None:
                parts.append(link[0])
                link = link[1]
            pos = tuple(i for rel in reversed(parts) for i in rel)
            out.append((r, RedexInfo(pos, r.head, r.up is root, not r.kids)))
        for k in reversed(r.kids):
            stack.append((k, (k.rel, path)))
    return out


def redexes(g: Scheme, t: Term) -> list[RedexInfo]:
    """All redexes of a ground term in document order, with OI/IO flags."""
    return [info for _, info in _eligible(_redex_tree(g, t), UNRESTRICTED)]


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


def _rewrite(g: Scheme, tpl: _Template, r: _Redex) -> tuple[list[_Redex], int]:
    """Rewrite the redex r in place, in the mutable term and in the redex
    tree.  Returns the redexes that took r's place among its parent's kids,
    and the change in the term's size.

    A step runs the rule's compiled template, which moves each argument
    node into the contractum at its first use and deep-copies it for later
    ones.  The redexes inside an argument go with it, as whole subtrees,
    copied and re-pointed along with a copy.  The template's items, in
    document order, give the other redexes: the static ones, and a
    parameter completed by extra arguments when its head makes a redex.
    Nothing else in the term or in the tree changes.
    """
    node = r.node
    args = node.kids
    moved: list[list[tuple[_Redex, Position]]] = [[] for _ in args]
    for kid in r.kids:
        moved[kid.rel[0] - 1].append((kid, kid.rel[1:]))
    rec: list = [None] * len(tpl.items)
    inst, delta = _instantiate(g, tpl, node, rec)
    top: list[_Redex] = []
    # Per item: the redex its descendants go below, its kid list, and the
    # descendants' base position relative to that redex.
    below: list[tuple[_Redex, list[_Redex], Position]] = []
    for i, (parent, rel, shift, k, opens) in enumerate(tpl.items):
        up, into, at = (r.up, top, r.rel) if parent < 0 else below[parent]
        if shift >= 0:
            rel = (rel[0] + len(args[shift].kids),) + rel[1:]
        at += rel
        m, nodes = rec[i]
        if opens and m.redex:
            new = _Redex(at, m.sym, m, up)
            into.append(new)
            up, into, at = new, new.kids, ()
        below.append((up, into, at))
        for kid, rest in moved[k] if k >= 0 else ():
            if nodes is not None:
                kid = kid.copy(nodes)
            kid.rel = at + rest
            kid.up = up
            into.append(kid)
    if top and top[0].node is inst:  # a redex at the contractum's root
        top[0].node = node
    siblings = r.up.kids
    i = bisect_left(siblings, r.rel, key=lambda x: x.rel)
    siblings[i : i + 1] = top
    return top, delta


def _innermost_after(
    root: _Redex, r: _Redex, pos: Position, new: list[_Redex], out: list[_Found]
) -> None:
    """Append to `out`, in document order, the innermost redexes that
    rewriting the innermost redex r at `pos` made, `new` being the redexes
    that took its place: the leaves of their subtrees, or r's parent if it
    lost its last child redex.  Nothing outside the contractum is walked."""
    base = pos[: len(pos) - len(r.rel)]  # the position of r's parent
    stack = [(x, base + x.rel) for x in reversed(new)]
    while stack:
        x, p = stack.pop()
        if x.kids:
            stack.extend((kid, p + kid.rel) for kid in reversed(x.kids))
        else:
            out.append((x, RedexInfo(p, x.head, x.up is root, True)))
    up = r.up
    if up is not root and not up.kids:
        out.append((up, RedexInfo(base, up.head, up.up is root, True)))


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
    pick from the eligible list.

    The term is rewritten in place and its redexes are kept in a tree that
    each step updates from the rule's template alone, so a step costs about
    the body and its copied arguments, not the whole term.  Under `io` each
    round after the first comes from the last round's contracta.  Only a
    custom chooser, which is handed the current term, makes the derivation
    keep an immutable one.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if t0.type != GROUND:
        raise NotARedex("derivations start from ground terms")
    top = _from_term(g, t0)
    root = _redex_tree(g, t0, top)
    template = _templates(g)
    size = t0.size
    chosen: list[RedexInfo] = []
    exhausted = False
    term = t0
    # Under `unrestricted` the fair sweep schedules the outermost redexes,
    # which attains the value tree.
    sweep = OI if policy == UNRESTRICTED else policy
    queue: list[_Found] = []
    # Under `io`, the next round: the innermost redexes this round made.
    following: list[_Found] | None = None
    while True:
        if size > budget.max_term_size:
            exhausted = True
            break
        if chooser is None:
            if not queue:
                # The queued redexes are pairwise disjoint (none lies below
                # another), so rewriting one leaves the others in place with
                # the same flags: a round needs no new snapshot.
                queue = _eligible(root, sweep) if following is None else following
                if sweep == IO:
                    following = []
                queue.reverse()
                if not queue:
                    break
            if len(chosen) >= budget.max_steps:
                exhausted = True
                break
            r, info = queue.pop()
        else:
            candidates = _eligible(root, policy)
            if not candidates:
                break
            if len(chosen) >= budget.max_steps:
                exhausted = True
                break
            pick = chooser(term, [info for _, info in candidates])
            if pick is None:
                break
            at = {info.position: r for r, info in candidates}
            if pick.position not in at:
                raise PolicyViolation(
                    f"chooser picked {pick.position} which is not an "
                    f"eligible {policy} redex"
                )
            r, info = at[pick.position], pick
            term = step(g, term, info.position)
        new, delta = _rewrite(g, template(r.head.name), r)
        size += delta
        chosen.append(info)
        if following is not None:
            _innermost_after(root, r, info.position, new, following)
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

    # -- rewriting ----------------------------------------------------

    def _fire(self, node: _MNode) -> None:
        """Rewrite the redex at `node` in place (one step)."""
        _, delta = _instantiate(self.g, self.template(node.sym.name), node, None, self.depth)
        self.size += delta
        # The node was a redex, so it was hot.  If it cooled, clear `hot`
        # upwards only as far as it flips; each check reads one node's kids.
        if not node.hot:
            p = node.parent
            while p is not None and not p.redex and not any(k.hot for k in p.kids):
                p.hot = False
                p = p.parent
        self.steps_used += 1
        if self.size > self.budget.max_term_size:
            self.exhausted = True

    # -- fair outermost (value tree of unrestricted/OI derivations) ----

    def run_outermost(self) -> None:
        # A round rewrites every visible outermost redex.  Their ancestors
        # are terminal nodes, which never change, so the next round's
        # outermost redexes all lie in this round's contracta: it starts
        # from the rewritten nodes, in the same document order.
        current = [self.root]
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

    # -- fair parallel-innermost (IO value tree) ------------------------

    def _death_walk(self, node: _MNode, out: list[_MNode], round_no: int) -> None:
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
