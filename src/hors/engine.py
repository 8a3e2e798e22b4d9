"""Rewriting, derivation strategies and truncated value trees.

`redexes`/`step`/`derive` work on immutable terms and produce inspectable
traces; `derive` keeps the current term's redexes in document order and
reclassifies only the rewritten subterm after each step.  `value_tree` runs
the fair schedulers on a private mutable representation: each node knows
whether its subtree holds a redex, so sweeps skip settled regions, a redex
is innermost when none of its children holds one, and a rewrite updates the
flags above it only as far as they flip.  Subtrees that can never reach the
requested output depth are left unexpanded.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
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
    """Steps of a derivation: (term before, chosen redex, term after)."""

    steps: list[tuple[Term, RedexInfo, Term]]
    exhausted_budget: bool

    @property
    def terms(self) -> list[Term]:
        if not self.steps:
            return []
        return [self.steps[0][0]] + [after for _, _, after in self.steps]

    @property
    def final(self) -> Term | None:
        return self.steps[-1][2] if self.steps else None


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


class _Redex:
    """A node of the tree of a term's redexes, whose parent is the nearest
    redex above it, or the root for outermost ones.  `rel` is the position
    relative to the parent's; `kids` are the redexes directly below, in
    document order.  So a redex is OI when its parent is the root and IO
    when it has no kids, and moving a subterm re-bases its top redexes only.
    """

    __slots__ = ("rel", "head", "kids")

    def __init__(self, rel: Position, head: Symbol | None):
        self.rel = rel
        self.head = head
        self.kids: list[_Redex] = []

    def copy(self) -> "_Redex":
        top = _Redex(self.rel, self.head)
        stack = [(self, top)]
        while stack:
            src, dst = stack.pop()
            for k in src.kids:
                c = _Redex(k.rel, k.head)
                dst.kids.append(c)
                stack.append((k, c))
        return top


def _redex_tree(g: Scheme, t: Term) -> _Redex:
    """The root of t's redex tree.  Subtrees without a redex are not
    entered, so positions are built only on the paths to redexes."""
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

    root = _Redex((), None)
    pre: list[tuple[Term, _Redex, Position]] = [(t, root, ())] if contains[id(t)] else []
    while pre:
        node, above, rel = pre.pop()
        if _is_redex_head(g, node.head, len(node.args)):
            r = _Redex(rel, node.head)
            above.kids.append(r)
            above, rel = r, ()
        for i in range(len(node.args), 0, -1):
            if contains[id(node.args[i - 1])]:
                pre.append((node.args[i - 1], above, rel + (i,)))
    return root


# A redex found in the tree: (its parent, itself, its position and flags).
_Found = tuple[_Redex, _Redex, RedexInfo]


def _eligible(root: _Redex, policy: str) -> list[_Found]:
    """The redexes the policy allows, in document order.  Positions are put
    together only for these: the walk carries the path as a linked list."""
    if policy == OI:
        return [(root, r, RedexInfo(r.rel, r.head, True, not r.kids)) for r in root.kids]
    out: list[_Found] = []
    stack: list[tuple[_Redex, _Redex, tuple]] = [
        (root, r, (r.rel, None)) for r in reversed(root.kids)
    ]
    while stack:
        parent, r, path = stack.pop()
        if policy == UNRESTRICTED or not r.kids:
            parts, link = [], path
            while link is not None:
                parts.append(link[0])
                link = link[1]
            pos = tuple(i for rel in reversed(parts) for i in rel)
            out.append((parent, r, RedexInfo(pos, r.head, parent is root, not r.kids)))
        for k in reversed(r.kids):
            stack.append((r, k, (k.rel, path)))
    return out


def redexes(g: Scheme, t: Term) -> list[RedexInfo]:
    """All redexes of a ground term in document order, with OI/IO flags."""
    return [info for _, _, info in _eligible(_redex_tree(g, t), UNRESTRICTED)]


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


def _rewrite(g: Scheme, t: Term, found: _Found) -> Term:
    """Rewrite t at the redex `found` and update the redex tree in place.

    Only the rule body is walked.  The redexes inside each argument move,
    as whole subtrees, to wherever the body places that argument (copied
    when it is placed more than once); nothing else in the tree changes.
    """
    parent, r, info = found
    sub = subterm_at(t, info.position)
    rule = g.rules[sub.head.name]
    index = {p.name: k for k, p in enumerate(rule.params)}
    moved: list[list[tuple[_Redex, Position]]] = [[] for _ in rule.params]
    for k in r.kids:
        moved[k.rel[0] - 1].append((k, k.rel[1:]))
    placed = [False] * len(rule.params)

    def place(k: int, into: list[_Redex], at: Position) -> None:
        for kid, rest in moved[k]:
            kid = kid.copy() if placed[k] else kid
            kid.rel = at + rest
            into.append(kid)
        placed[k] = True

    def walk(bt: Term, into: list[_Redex], at: Position) -> None:
        """Add the redexes of bt's instance, at `at` below `into`'s owner."""
        head, skip, k = bt.head, 0, None
        if head.kind == VARIABLE and head.name in index:
            k = index[head.name]
            if not bt.args:  # the argument itself, a redex or not
                place(k, into, at)
                return
            # a partial application, completed by the body's arguments
            head, skip = sub.args[k].head, len(sub.args[k].args)
        if _is_redex_head(g, head, skip + len(bt.args)):
            new = _Redex(at, head)
            into.append(new)
            into, at = new.kids, ()
        if k is not None:
            place(k, into, at)
        for j, a in enumerate(bt.args, skip + 1):
            walk(a, into, at + (j,))

    top: list[_Redex] = []
    walk(rule.body, top, r.rel)
    i = bisect_left(parent.kids, r.rel, key=lambda k: k.rel)
    parent.kids[i : i + 1] = top
    return replace_at(t, info.position, _contractum(g, sub))


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

    The current term's redexes are kept in a tree that each step updates
    from the rule body alone, so a step costs about the body and the path
    to the redex, not the whole term.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if t0.type != GROUND:
        raise NotARedex("derivations start from ground terms")
    steps: list[tuple[Term, RedexInfo, Term]] = []
    exhausted = False
    term = t0
    root = _redex_tree(g, t0)
    # Under `unrestricted` the fair sweep schedules the outermost redexes,
    # which attains the value tree.
    sweep = OI if policy == UNRESTRICTED else policy
    queue: list[_Found] = []
    while True:
        if term.size > budget.max_term_size:
            exhausted = True
            break
        if chooser is None:
            if not queue:
                # The queued redexes are pairwise disjoint (none lies below
                # another), so rewriting one leaves the others in place with
                # the same flags: a round needs no new snapshot.
                queue = _eligible(root, sweep)
                queue.reverse()
                if not queue:
                    break
            if len(steps) >= budget.max_steps:
                exhausted = True
                break
            found = queue.pop()
            chosen = found[2]
        else:
            candidates = _eligible(root, policy)
            if not candidates:
                break
            if len(steps) >= budget.max_steps:
                exhausted = True
                break
            chosen = chooser(term, [info for _, _, info in candidates])
            if chosen is None:
                break
            at = {info.position: (p, r, info) for p, r, info in candidates}
            if chosen.position not in at:
                raise PolicyViolation(
                    f"chooser picked {chosen.position} which is not an "
                    f"eligible {policy} redex"
                )
            found = at[chosen.position]
        after = _rewrite(g, term, found)
        steps.append((term, chosen, after))
        term = after
    return DerivationTrace(steps, exhausted)


# ---------------------------------------------------------------------------
# Fast evaluator for value trees.
#
# Visibility marks (`vis`):
#   >= 0  on an all-terminal path from the root, shallower than the horizon
#   -1    below a non-terminal head somewhere: invisible until that resolves
#   -2    on an all-terminal path at or beyond the horizon: permanently
#         irrelevant for the requested prefix, never scanned or rewritten

_INVIS = -1
_BEYOND = -2


class _MNode:
    """A node of the evaluator's mutable term.  `redex`: the node can be
    rewritten; `hot`: it or some node below it can."""

    __slots__ = ("sym", "kids", "parent", "redex", "hot", "vis", "stamp")

    def __init__(self, sym: Symbol, kids: list["_MNode"]):
        self.sym = sym
        self.kids = kids
        self.parent: _MNode | None = None
        self.redex = False
        self.hot = False
        self.vis: int | None = None
        self.stamp = -1
        for k in kids:
            k.parent = self


@dataclass(frozen=True)
class _CompiledRule:
    params: tuple[str, ...]
    body: Term
    uses: dict[str, int]


class _Evaluator:
    def __init__(self, g: Scheme, start: Term, budget: EvalBudget):
        self.g = g
        self.budget = budget
        self.depth = budget.depth
        self.steps_used = 0
        self.exhausted = False
        self.rules: dict[str, _CompiledRule] = {}
        for name, rule in g.rules.items():
            uses: dict[str, int] = {p.name: 0 for p in rule.params}
            stack = [rule.body]
            while stack:
                node = stack.pop()
                if node.head.kind == VARIABLE and node.head.name in uses:
                    uses[node.head.name] += 1
                stack.extend(node.args)
            self.rules[name] = _CompiledRule(
                tuple(p.name for p in rule.params), rule.body, uses
            )
        self.root = self._from_term(start)
        self.size = start.size
        self._assign_vis(self.root, 0 if self.depth >= 1 else _BEYOND)

    # -- construction -------------------------------------------------

    def _classify(self, m: _MNode) -> None:
        m.redex = _is_redex_head(self.g, m.sym, len(m.kids))
        m.hot = m.redex or any(k.hot for k in m.kids)

    def _from_term(self, t: Term) -> _MNode:
        done: dict[int, _MNode] = {}
        stack: list[tuple[Term, bool]] = [(t, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                stack.append((node, True))
                for a in node.args:
                    stack.append((a, False))
                continue
            m = _MNode(node.head, [done[id(a)] for a in node.args])
            self._classify(m)
            done[id(node)] = m
        return done[id(t)]

    def _child_vis(self, node: _MNode) -> int:
        if node.vis == _BEYOND:
            return _BEYOND
        if node.vis == _INVIS or node.sym.kind != TERMINAL:
            return _INVIS
        nxt = node.vis + 1
        return nxt if nxt <= self.depth - 1 else _BEYOND

    def _assign_vis(self, node: _MNode, vis: int) -> None:
        node.vis = vis
        stack = [node]
        while stack:
            n = stack.pop()
            cv = self._child_vis(n)
            for k in n.kids:
                if k.vis != cv:
                    k.vis = cv
                    stack.append(k)

    # -- rewriting ----------------------------------------------------

    def _deep_copy(self, node: _MNode) -> tuple[_MNode, int]:
        done: dict[int, _MNode] = {}
        count = 0
        stack: list[tuple[_MNode, bool]] = [(node, False)]
        while stack:
            n, expanded = stack.pop()
            if not expanded:
                stack.append((n, True))
                for k in n.kids:
                    stack.append((k, False))
                continue
            m = _MNode(n.sym, [done[id(k)] for k in n.kids])
            m.redex = n.redex
            m.hot = n.hot
            m.vis = n.vis
            done[id(n)] = m
            count += 1
        return done[id(node)], count

    def _subtree_size(self, node: _MNode) -> int:
        count = 0
        stack = [node]
        while stack:
            n = stack.pop()
            count += 1
            stack.extend(n.kids)
        return count

    def _fire(self, node: _MNode) -> None:
        """Rewrite the redex at `node` in place (one step)."""
        rule = self.rules[node.sym.name]
        argmap = dict(zip(rule.params, node.kids))
        moved: set[str] = set()
        delta_size = 0

        def build(bt: Term) -> _MNode:
            nonlocal delta_size
            head = bt.head
            if head.kind == VARIABLE and head.name in argmap:
                base = argmap[head.name]
                if head.name in moved:
                    base, copied = self._deep_copy(base)
                    delta_size += copied
                else:
                    moved.add(head.name)
                if not bt.args:
                    return base
                kids = base.kids + [build(a) for a in bt.args]
                m = _MNode(base.sym, kids)
            else:
                m = _MNode(head, [build(a) for a in bt.args])
                delta_size += 1
            self._classify(m)
            return m

        inst = build(rule.body)
        for name, n in rule.uses.items():
            if n == 0:
                delta_size -= self._subtree_size(argmap[name])
        self.size += delta_size - 1

        node.sym = inst.sym
        node.kids = inst.kids
        for k in node.kids:
            k.parent = node
        node.redex = inst.redex
        node.hot = inst.hot
        # The node was a redex, so it was hot.  If it cooled, clear `hot`
        # upwards only as far as it flips; each check reads one node's kids.
        if not node.hot:
            p = node.parent
            while p is not None and not p.redex and not any(k.hot for k in p.kids):
                p.hot = False
                p = p.parent
        self._assign_vis(node, node.vis)  # type: ignore[arg-type]
        self.steps_used += 1
        if self.size > self.budget.max_term_size:
            self.exhausted = True

    def _budget_left(self) -> bool:
        if self.steps_used >= self.budget.max_steps:
            self.exhausted = True
        return not self.exhausted

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
                        if not self._budget_left():
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

    @staticmethod
    def _innermost(n: _MNode) -> bool:
        return n.redex and not any(k.hot for k in n.kids)

    def _death_walk(self, node: _MNode, out: list[_MNode], round_no: int) -> None:
        p = node.parent
        while p is not None and not p.redex:
            p = p.parent
        if (
            p is not None
            and self._innermost(p)
            and p.vis != _BEYOND
            and p.stamp != round_no
        ):
            p.stamp = round_no
            out.append(p)

    def run_innermost(self) -> None:
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
                        if self._innermost(n):
                            if not self._budget_left():
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
