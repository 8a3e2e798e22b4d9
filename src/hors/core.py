"""Simple types, applicative terms and finite partial trees.

Terms are immutable and well-typed by construction: the `Term` constructor
re-checks every application, so later stages (the rewriting engine, the
transformations) can assume well-typedness throughout.  Terms reachable by
rewriting can get very deep, so every operation that walks a term of
unbounded depth is written with an explicit stack instead of recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence


class HorsError(Exception):
    """Base class for all errors raised by this package."""


class ArityOrTypeMismatch(HorsError):
    """An application does not fit the declared type of its head.

    `position` localizes the offending argument (1-based path from the term
    being constructed, possibly partial).
    """

    def __init__(self, message: str, position: tuple[int, ...] = ()):
        super().__init__(message)
        self.position = position


class InvalidPosition(HorsError):
    """A position does not address a subterm."""


class IncompatibleLabels(HorsError):
    """Trees disagree on a non-bottom label; no upper bound exists."""

    def __init__(self, message: str, path: tuple[int, ...] = ()):
        super().__init__(message)
        self.path = path


# ---------------------------------------------------------------------------
# Types


class SimpleType:
    """Base class: either the ground type `o` or an arrow type."""

    __slots__ = ()


@dataclass(frozen=True)
class Ground(SimpleType):
    __slots__ = ()

    def __repr__(self) -> str:
        return "o"


@dataclass(frozen=True)
class Arrow(SimpleType):
    argument: SimpleType
    result: SimpleType

    def __repr__(self) -> str:
        return type_to_str(self)


GROUND = Ground()


def arrow(*types: SimpleType) -> SimpleType:
    """Right-associative arrow builder: arrow(a, b, c) is a -> b -> c."""
    if not types:
        raise ValueError("arrow() needs at least one type")
    result = types[-1]
    for argument in reversed(types[:-1]):
        result = Arrow(argument, result)
    return result


def arity(t: SimpleType) -> int:
    """Number of arguments k when t is written t1 -> ... -> tk -> o."""
    k = 0
    while isinstance(t, Arrow):
        k += 1
        t = t.result
    return k


def order(t: SimpleType) -> int:
    """order(o) = 0, order(a -> b) = max(order(a) + 1, order(b))."""
    if isinstance(t, Ground):
        return 0
    return max(order(t.argument) + 1, order(t.result))


def argument_types(t: SimpleType) -> tuple[SimpleType, ...]:
    out = []
    while isinstance(t, Arrow):
        out.append(t.argument)
        t = t.result
    return tuple(out)


def type_to_str(t: SimpleType) -> str:
    if isinstance(t, Ground):
        return "o"
    left = type_to_str(t.argument)
    if isinstance(t.argument, Arrow):
        left = f"({left})"
    return f"{left} -> {type_to_str(t.result)}"


# ---------------------------------------------------------------------------
# Symbols

TERMINAL = "terminal"
NONTERMINAL = "nonterminal"
VARIABLE = "variable"

_KINDS = (TERMINAL, NONTERMINAL, VARIABLE)


@dataclass(frozen=True)
class Symbol:
    """A typed symbol: terminal, non-terminal or variable."""

    name: str
    kind: str
    type: SimpleType

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if not self.name:
            raise ValueError("symbol name must be non-empty")
        if self.kind == TERMINAL and order(self.type) > 1:
            raise ArityOrTypeMismatch(
                f"terminal {self.name} has order {order(self.type)} > 1"
            )

    def __repr__(self) -> str:
        return f"{self.name}:{type_to_str(self.type)}"


def terminal(name: str, type: SimpleType = GROUND) -> Symbol:
    return Symbol(name, TERMINAL, type)


def nonterminal(name: str, type: SimpleType = GROUND) -> Symbol:
    return Symbol(name, NONTERMINAL, type)


def variable(name: str, type: SimpleType = GROUND) -> Symbol:
    return Symbol(name, VARIABLE, type)


# ---------------------------------------------------------------------------
# Terms

Position = tuple[int, ...]


class Term:
    """An applicative term `head t1 ... tk`, well-typed by construction.

    `type` and `size` are computed once at construction; children already
    carry theirs, so building a term bottom-up stays linear overall.
    """

    __slots__ = ("head", "args", "type", "size", "_hash")

    def __init__(self, head: Symbol, args: Sequence["Term"] = ()):
        args = tuple(args)
        remaining = head.type
        size = 1
        for i, arg in enumerate(args):
            if not isinstance(remaining, Arrow):
                raise ArityOrTypeMismatch(
                    f"{head.name} applied to {len(args)} arguments but has "
                    f"arity {arity(head.type)}",
                    position=(i + 1,),
                )
            want = remaining.argument
            if arg.type is not want and arg.type != want:
                raise ArityOrTypeMismatch(
                    f"argument {i + 1} of {head.name} has type "
                    f"{type_to_str(arg.type)}, expected {type_to_str(want)}",
                    position=(i + 1,),
                )
            size += arg.size
            remaining = remaining.result
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "type", remaining)
        object.__setattr__(self, "size", size)
        # Equal terms have equal heads, so the head's name suffices; it is
        # much cheaper to hash than the symbol with its type.
        object.__setattr__(self, "_hash", hash((head.name, args)))

    @staticmethod
    def _trusted(head: Symbol, args: tuple["Term", ...], type: SimpleType, size: int) -> "Term":
        """`head` applied to `args`, of type `type` with `size` nodes.  The
        caller has already checked every argument against `head`'s type, so
        the constructor's checks are skipped; the slots are set through
        their descriptors, which bypasses the immutability guard."""
        t = _new_term(Term)
        _set_head(t, head)
        _set_args(t, args)
        _set_type(t, type)
        _set_size(t, size)
        _set_hash(t, hash((head.name, args)))
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Term is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        # Iterative comparison: terms can be deeper than the recursion limit.
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a._hash != b._hash or a.head != b.head or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
        return True

    def __str__(self) -> str:
        return term_to_str(self)

    def __repr__(self) -> str:
        return f"Term({term_to_str(self)})"


_new_term = object.__new__
_set_head = Term.head.__set__
_set_args = Term.args.__set__
_set_type = Term.type.__set__
_set_size = Term.size.__set__
_set_hash = Term._hash.__set__


def term_to_str(t: Term) -> str:
    """Render in applicative notation, parenthesizing compound arguments."""
    out: list[str] = []
    stack: list[object] = [(t, False)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, parens = item  # type: ignore[misc]
        if not node.args:
            out.append(node.head.name)
            continue
        if parens:
            out.append("(")
        out.append(node.head.name)
        if parens:
            stack.append(")")
        for arg in reversed(node.args):
            stack.append((arg, bool(arg.args)))
            stack.append(" ")
    return "".join(out)


def type_of(t: Term) -> SimpleType:
    """The unique type of a term (cached at construction)."""
    return t.type


def subterm_at(t: Term, position: Position) -> Term:
    for i in position:
        if i < 1 or i > len(t.args):
            raise InvalidPosition(f"no argument {i} at {term_to_str(t)}")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, position: Position, s: Term) -> Term:
    """Replace the subterm at `position` by `s` (same type required)."""
    spine = [t]
    for i in position:
        if i < 1 or i > len(spine[-1].args):
            raise InvalidPosition(f"no argument {i} at {term_to_str(spine[-1])}")
        spine.append(spine[-1].args[i - 1])
    if s.type != spine[-1].type:
        raise ArityOrTypeMismatch(
            f"replacement has type {type_to_str(s.type)}, expected "
            f"{type_to_str(spine[-1].type)}",
            position=tuple(position),
        )
    # Every rebuilt node keeps its argument types, so no re-check is needed.
    result = s
    for node, i in zip(reversed(spine[:-1]), reversed(position)):
        args = node.args[: i - 1] + (result,) + node.args[i:]
        size = node.size - node.args[i - 1].size + result.size
        result = Term._trusted(node.head, args, node.type, size)
    return result


def positions(t: Term) -> Iterator[Position]:
    """All positions of t in document order (preorder, args left to right)."""
    stack: list[tuple[Term, Position]] = [(t, ())]
    while stack:
        node, p = stack.pop()
        yield p
        for i in range(len(node.args), 0, -1):
            stack.append((node.args[i - 1], p + (i,)))


def instantiate(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneously substitute variables by name.

    A variable occurring at the head of an application is replaced by its
    image applied to the (substituted) arguments.  Iterative so that deep
    terms are safe.
    """
    if not mapping:
        return t
    # Post-order rebuild with an explicit stack.
    done: dict[int, Term] = {}
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            new_args = tuple(done[id(a)] for a in node.args)
            head = node.head
            if head.kind == VARIABLE and head.name in mapping:
                image = mapping[head.name]
                if image.type != head.type:
                    raise ArityOrTypeMismatch(
                        f"cannot substitute {term_to_str(image)} : "
                        f"{type_to_str(image.type)} for {head.name} : "
                        f"{type_to_str(head.type)}"
                    )
                if not new_args:
                    done[id(node)] = image
                else:
                    done[id(node)] = Term(image.head, image.args + new_args)
            elif new_args == node.args:
                done[id(node)] = node
            else:
                done[id(node)] = Term(head, new_args)
            continue
        stack.append((node, True))
        for arg in node.args:
            stack.append((arg, False))
    return done[id(t)]


# ---------------------------------------------------------------------------
# Partial trees


@dataclass(frozen=True)
class PartialTree:
    """A finite ranked tree over terminals plus bottom leaves.

    `label` is None for bottom.  Non-bottom nodes carry exactly arity(label)
    children, so every value is a well-formed tree prefix.  As for `Term`,
    the hash is computed once at construction and equality is iterative:
    prefixes can be deeper than the recursion limit.
    """

    label: Symbol | None
    children: tuple["PartialTree", ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.label is None:
            if self.children:
                raise ValueError("bottom has no children")
        else:
            if self.label.kind != TERMINAL:
                raise ValueError(f"tree label {self.label.name} is not a terminal")
            want = arity(self.label.type)
            if len(self.children) != want:
                raise ValueError(
                    f"node {self.label.name} has {len(self.children)} children, "
                    f"expected {want}"
                )
        # The children's hashes are cached already, so this does not recurse.
        name = None if self.label is None else self.label.name
        object.__setattr__(self, "_hash", hash((name, self.children)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PartialTree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a._hash != b._hash or a.label != b.label or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __str__(self) -> str:
        return tree_to_str(self)


BOT = PartialTree(None)


def tree_to_str(t: PartialTree) -> str:
    """Compact applicative rendering, `⊥` for bottom."""
    out: list[str] = []
    stack: list[object] = [(t, False)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, parens = item  # type: ignore[misc]
        if node.label is None:
            out.append("⊥")
            continue
        if parens:
            out.append("(")
            stack.append(")")
        out.append(node.label.name)
        for child in reversed(node.children):
            stack.append((child, bool(child.children)))
            stack.append(" ")
    return "".join(out)


def bottom_transform(t: Term) -> PartialTree:
    """Erase unfinished work: non-terminal-headed subterms become bottom.

    Terminal-headed nodes are kept with transformed children.  The input must
    be a ground term over terminals and non-terminals only.
    """
    if t.type != GROUND:
        raise ArityOrTypeMismatch(
            f"bottom_transform needs a ground term, got {type_to_str(t.type)}"
        )
    done: dict[int, PartialTree] = {}
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            done[id(node)] = PartialTree(
                node.head, tuple(done[id(a)] for a in node.args)
            )
            continue
        if node.head.kind == VARIABLE:
            raise ArityOrTypeMismatch(
                f"bottom_transform over open term: variable {node.head.name}"
            )
        if node.head.kind == NONTERMINAL:
            done[id(node)] = BOT
            continue
        stack.append((node, True))
        for arg in node.args:
            stack.append((arg, False))
    return done[id(t)]


def tree_leq(t1: PartialTree, t2: PartialTree) -> bool:
    """The prefix order: bottom below everything, labels componentwise."""
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        if a.label is None:
            continue
        if b.label is None or a.label != b.label:
            return False
        stack.extend(zip(a.children, b.children))
    return True


def tree_lub(trees: Sequence[PartialTree]) -> PartialTree:
    """Least upper bound of compatible trees.

    Raises IncompatibleLabels (with the offending path) when two inputs carry
    distinct non-bottom labels at the same node.
    """
    if not trees:
        raise ValueError("tree_lub of no trees")
    result = trees[0]
    for other in trees[1:]:
        result = _merge(result, other)
    return result


def _merge(a: PartialTree, b: PartialTree) -> PartialTree:
    done: list[PartialTree] = []  # merged subtrees, children before parents
    path: list[int] = []  # the position of the pair being visited
    # (x, y, depth, child index); index -1 rebuilds x from merged children.
    stack: list[tuple] = [(a, b, 0, 0)]
    while stack:
        x, y, depth, i = stack.pop()
        if i < 0:
            n = len(x.children)
            children = tuple(done[len(done) - n :])
            del done[len(done) - n :]
            done.append(PartialTree(x.label, children))
            continue
        del path[max(depth - 1, 0) :]
        if depth:
            path.append(i)
        if x.label is None:
            done.append(y)
        elif y.label is None:
            done.append(x)
        elif x.label != y.label:
            raise IncompatibleLabels(
                f"labels {x.label.name} and {y.label.name} disagree at path "
                f"{'.'.join(map(str, path)) or 'root'}",
                path=tuple(path),
            )
        else:
            stack.append((x, None, depth, -1))
            for j in range(len(x.children), 0, -1):
                stack.append((x.children[j - 1], y.children[j - 1], depth + 1, j))
    return done[0]


def truncate(t: PartialTree, depth: int) -> PartialTree:
    """Keep `depth` levels of nodes; everything below becomes bottom."""
    done: list[PartialTree] = []  # truncated subtrees, children before parents
    # (node, levels left); levels -1 rebuilds the node from truncated children.
    stack: list[tuple[PartialTree, int]] = [(t, max(depth, 0))]
    while stack:
        node, d = stack.pop()
        if d < 0:
            n = len(node.children)
            children = tuple(done[len(done) - n :])
            del done[len(done) - n :]
            done.append(PartialTree(node.label, children))
        elif d == 0 or node.label is None:
            done.append(BOT)
        else:
            stack.append((node, -1))
            stack.extend((c, d - 1) for c in reversed(node.children))
    return done[0]
