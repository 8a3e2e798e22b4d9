"""Intersection-style divergence analysis over the two states q_bot, q_inf.

An atomic mapping refines a simple type: over the ground type the atoms are
the states themselves (`q_bot`: the IO value tree is bottom; `q_inf`: the
term contains a redex all of whose IO evaluations are infinite), and over an
arrow type they are `q_inf` plus arrows from conjunctions of argument atoms
to result atoms.  A conjunctive mapping is a finite set of atoms.

Judgements  env |- t |> atom  are derived by six rules:

  (Set)  t matches a conjunction iff it matches every member
  (At)   a bound symbol matches each atom of its environment entry
  (Sig)  a terminal matches s1 -> .. -> si -> q_inf for i up to its arity
         when some sj is exactly the singleton {q_inf}
  (App)  t1 t2 matches th if t1 matches s -> th and t2 matches s
  (ArrI) any arrow-typed term matches {q_inf} -> q_inf
  (InfI) t1 t2 matches q_inf if t1 does

`judge` implements these literally as a goal-directed search over `Atom` and
`Conj` objects and is the slow, independent route; `sem_apply` is the
object-level application it is checked against.

`Analysis` computes the greatest environment closed under the rules
(descending fixpoint from the full assignment) and evaluates term semantics
bottom-up, on int bitmasks.  Each type's atoms are numbered in the canonical
order `enum_atoms` fixes (see `Layout`): over `o`, q_bot is bit 0 and q_inf
bit 1; over `s -> t`, q_inf is bit 0 and the arrow atom `c -> r` is bit
`1 + conj_index(c) * |A(t)| + index(r)`, where `conj_index` is the position
of `c` in `enum_conj(s)`.  A conjunction is the mask of its atoms, so the
full assignment is `(1 << |A(t)|) - 1` and nothing is enumerated to build
it.  Application tabulates a function mask once, against every argument
mask (`Layout.results`), and is then one list lookup.  Masks are decoded
to `Conj` only at the output boundary (`Analysis.env`,
`Analysis.semantics`), once per distinct (type, mask).

Terms are evaluated by compiled programs, not by walking them.  `_Compiler`
turns a term, in one loop, into a flat postfix list of mask operations
over its free variables: a terminal's constant mask, a non-terminal's
entry, a parameter, or one `Layout.results` lookup.  Operations that read
no parameter are split from those that do.  The fixpoint runs a rule's
parameter-free operations once per iteration and the others once per tuple
of argument conjunctions; a body root that reads no parameter sets the bits
of every chain at once.  A rule runs again only when a non-terminal its
body names dropped in the previous iteration.  The chain masks of the
argument clauses and of a terminal are products of per-argument masks
(`_inf_chains`), so no chain is enumerated for them.

Feasibility is decided by arithmetic before anything is enumerated:
`|A(o)| = 2` and `|A(s -> t)| = 1 + 2^|A(s)| * |A(t)|` (`atom_count`).  An
argument type with more than MAX_ENUM_ATOMS atoms is refused, and so is a
non-terminal type with more than MAX_ENTRY_ATOMS atoms.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    NONTERMINAL,
    TERMINAL,
    VARIABLE,
    Arrow,
    Ground,
    HorsError,
    SimpleType,
    Symbol,
    Term,
    arity,
    type_to_str,
)
from .scheme import Scheme

# Refuse to enumerate conjunction lattices beyond this many atoms (2^n sets).
MAX_ENUM_ATOMS = 16
# Refuse a non-terminal type beyond this many atoms: its entry is one bit per
# atom, and each fixpoint iteration runs the parameter-dependent operations
# of its rule once per tuple of argument conjunctions.
MAX_ENTRY_ATOMS = 1 << 20


class AnalysisInfeasible(HorsError):
    """The enumeration the analysis needs is too large to materialize."""


class UnboundSymbol(HorsError):
    """A term mentions a symbol the environment does not cover."""


# ---------------------------------------------------------------------------
# Atoms and conjunctions


class Atom:
    """Base class of atomic mappings."""

    __slots__ = ()

    def key(self) -> tuple:
        raise NotImplementedError


class QBot(Atom):
    __slots__ = ()

    def key(self) -> tuple:
        return (0,)

    def __repr__(self) -> str:
        return "q⊥"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QBot)

    def __hash__(self) -> int:
        return hash("q_bot")


class QInf(Atom):
    __slots__ = ()

    def key(self) -> tuple:
        return (1,)

    def __repr__(self) -> str:
        return "q∞"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QInf)

    def __hash__(self) -> int:
        return hash("q_inf")


Q_BOT = QBot()
Q_INF = QInf()


class ArrowMap(Atom):
    __slots__ = ("argument", "result", "_key", "_hash")

    def __init__(self, argument: "Conj", result: Atom):
        self.argument = argument
        self.result = result
        self._key = (2, argument.key(), result.key())
        self._hash = hash(self._key)

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ArrowMap) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.argument!r}→{self.result!r}"


class Conj:
    """A canonical finite set of atoms (duplicate-free, sorted)."""

    __slots__ = ("atoms", "_key", "_keyset", "_hash")

    def __init__(self, atoms: Iterable[Atom] = ()):
        unique = {a.key(): a for a in atoms}
        ordered = tuple(unique[k] for k in sorted(unique))
        self.atoms = ordered
        # Shorter conjunctions first, then lexicographic: this puts the
        # ground conjunctions in the order {}, {q⊥}, {q∞}, {q⊥,q∞}.
        self._key = (len(ordered), tuple(a.key() for a in ordered))
        self._keyset = frozenset(unique)
        self._hash = hash(self._key)

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Conj) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __contains__(self, atom: Atom) -> bool:
        return atom.key() in self._keyset

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def issubset(self, other: "Conj") -> bool:
        return self._keyset <= other._keyset

    def union(self, other: "Conj") -> "Conj":
        return Conj(self.atoms + other.atoms)

    def __repr__(self) -> str:
        return "∧{" + ",".join(repr(a) for a in self.atoms) + "}"


def conj(*atoms: Atom) -> Conj:
    return Conj(atoms)


CONJ_INF = conj(Q_INF)
ARROW_INF = ArrowMap(CONJ_INF, Q_INF)  # the always-true arrow atom


# ---------------------------------------------------------------------------
# Counting and enumeration


@lru_cache(maxsize=None)
def atom_count(t: SimpleType) -> int:
    """|A(t)| in closed form: 2 for `o`, 1 + 2^|A(s)| * |A(r)| for s -> r.

    Raises AnalysisInfeasible exactly where `enum_atoms(t)` would, with the
    same message: at the first argument type, in enumeration order, whose
    conjunctions are too many to enumerate.
    """
    if isinstance(t, Ground):
        return 2
    return 1 + (1 << enumerable_width(t.argument)) * atom_count(t.result)


def enumerable_width(t: SimpleType) -> int:
    """|A(t)|, refused when its 2^|A(t)| conjunctions are not enumerable."""
    n = atom_count(t)
    if n > MAX_ENUM_ATOMS:
        raise AnalysisInfeasible(
            f"type {type_to_str(t)} has {n} atoms; enumerating its "
            f"2^{n} conjunctions is not feasible"
        )
    return n


@lru_cache(maxsize=None)
def enum_atoms(t: SimpleType) -> tuple[Atom, ...]:
    """All atoms of a type, in canonical order."""
    if isinstance(t, Ground):
        atoms: list[Atom] = [Q_BOT, Q_INF]
    else:
        atoms = [Q_INF]
        for c in enum_conj(t.argument):
            for res in enum_atoms(t.result):
                atoms.append(ArrowMap(c, res))
    return tuple(sorted(atoms, key=lambda a: a.key()))


@lru_cache(maxsize=None)
def enum_conj(t: SimpleType) -> tuple[Conj, ...]:
    """All conjunctions over a type, in canonical order (2^#atoms of them)."""
    enumerable_width(t)
    atoms = enum_atoms(t)
    out = []
    for r in range(len(atoms) + 1):
        for subset in itertools.combinations(atoms, r):
            out.append(Conj(subset))
    return tuple(sorted(out, key=lambda c: c.key()))


@lru_cache(maxsize=None)
def conj_masks(t: SimpleType) -> tuple[int, ...]:
    """The masks of `enum_conj(t)`, in the same order.

    Canonical order is by size, then lexicographic in atom order, which is
    exactly the order `itertools.combinations` yields index subsets in.
    """
    n = enumerable_width(t)
    return tuple(
        sum(1 << i for i in subset)
        for r in range(n + 1)
        for subset in itertools.combinations(range(n), r)
    )


# ---------------------------------------------------------------------------
# Bit layouts


def _mask_of(bits: Iterable[int], n: int) -> int:
    """The mask with the given bit indices set, built in one pass."""
    buf = bytearray((n + 7) >> 3)
    for b in bits:
        buf[b >> 3] |= 1 << (b & 7)
    return int.from_bytes(buf, "little")


def _bit_indices(mask: int) -> list[int]:
    digits = bin(mask)[:1:-1]  # least significant digit first
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


class Layout:
    """The bit layout of one type's atoms, in `enum_atoms` order.

    `n` atoms; q_inf at index `inf_at`, so `inf` is its bit; `arrow_inf`
    the bit of the always-true atom {q_inf} -> q_inf (0 over `o`).  An
    arrow layout also holds its argument's layout and conjunction masks
    (`conjs`, in `enum_conj` order) and its result's layout.
    """

    __slots__ = (
        "type", "n", "inf_at", "inf", "arrow_inf", "argument", "result", "conjs",
        "_conj_index", "_decoded",
    )

    def __init__(self, t: SimpleType):
        self.type = t
        self.n = atom_count(t)
        self._decoded: dict[int, Conj] = {}
        if isinstance(t, Ground):
            self.inf_at, self.inf = 1, 0b10
            self.arrow_inf = 0
            self.argument = self.result = None
            self.conjs: tuple[int, ...] = ()
            self._conj_index: dict[int, int] = {}
            return
        self.inf_at, self.inf = 0, 0b1
        self.argument = layout(t.argument)
        self.result = layout(t.result)
        self.conjs = conj_masks(t.argument)
        self._conj_index = {m: i for i, m in enumerate(self.conjs)}
        inf_conj = self._conj_index[self.argument.inf]
        self.arrow_inf = 1 << self.arrow_bit(inf_conj, self.result.inf_at)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def arrow_bit(self, conj_index: int, result_bit: int) -> int:
        """The index of the arrow atom (conjs[conj_index]) -> (result atom)."""
        return 1 + conj_index * self.result.n + result_bit

    def has_bot(self, mask: int) -> bool:
        """Whether q_bot is in a mask of this type (only `o` has it)."""
        return self.result is None and bool(mask & 1)

    # -- the output boundary ------------------------------------------------

    def atom(self, i: int) -> Atom:
        if self.result is None:
            return (Q_BOT, Q_INF)[i]
        if i == 0:
            return Q_INF
        ci, ri = divmod(i - 1, self.result.n)
        return ArrowMap(self.argument.decode(self.conjs[ci]), self.result.atom(ri))

    def decode(self, mask: int) -> Conj:
        hit = self._decoded.get(mask)
        if hit is None:
            hit = Conj(self.atom(i) for i in _bit_indices(mask))
            self._decoded[mask] = hit
        return hit

    def index(self, a: Atom) -> int:
        if isinstance(a, QInf):
            return self.inf_at
        if self.result is None and isinstance(a, QBot):
            return 0
        if self.result is not None and isinstance(a, ArrowMap):
            ci = self._conj_index[self.argument.encode(a.argument)]
            return self.arrow_bit(ci, self.result.index(a.result))
        raise ValueError(f"{a!r} is not an atom of type {type_to_str(self.type)}")

    def encode(self, c: Conj) -> int:
        return _mask_of((self.index(a) for a in c), self.n)

    # -- application --------------------------------------------------------

    def results(self, fun: int) -> list[int]:
        """A function mask of this arrow type applied to every argument mask
        at once: entry `arg` is the result for argument `arg`.

        Each arrow atom c -> r of `fun` puts r at entry `c`; (InfI) and
        (ArrI) put their atoms at entry 0 (the empty conjunction).  A
        superset sum then gives every argument the results of all the
        conjunctions it contains, `n * 2^(n-1)` ORs for n argument atoms.
        """
        res = self.result
        size = 1 << self.argument.n
        out = [0] * size
        out[0] = res.arrow_inf | (res.inf if fun & 1 else 0)
        rest, width, full = fun >> 1, res.n, res.full
        for need in self.conjs:
            if not rest:
                break
            out[need] |= rest & full
            rest >>= width
        bit = 1
        while bit < size:
            for low in range(0, size, bit << 1):
                for a in range(low + bit, low + (bit << 1)):
                    out[a] |= out[a ^ bit]
            bit <<= 1
        return out


@lru_cache(maxsize=None)
def layout(t: SimpleType) -> Layout:
    """The layout of a type; raises AnalysisInfeasible where `enum_atoms`
    would."""
    return Layout(t)


# ---------------------------------------------------------------------------
# Environments


class Env:
    """A finite mapping from symbol names to conjunctive mappings."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[str, Conj] | None = None):
        self.entries: dict[str, Conj] = dict(entries or {})

    def get(self, name: str) -> Conj | None:
        return self.entries.get(name)

    def extended(self, more: Mapping[str, Conj]) -> "Env":
        """Extension: new names are added, existing entries are conjoined."""
        out = dict(self.entries)
        for name, c in more.items():
            out[name] = out[name].union(c) if name in out else c
        return Env(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Env) and self.entries == other.entries

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k} ▷ {v!r}" for k, v in self.entries.items())
        return f"Env({inner})"


# ---------------------------------------------------------------------------
# Goal-directed judgement (the slow, literal route)


def _matches_sigma_rule(sym: Symbol, atom: Atom) -> bool:
    sigmas = []
    cur = atom
    while isinstance(cur, ArrowMap):
        sigmas.append(cur.argument)
        cur = cur.result
    if not isinstance(cur, QInf) or not sigmas:
        return False
    if len(sigmas) > arity(sym.type):
        return False
    return any(s == CONJ_INF for s in sigmas)


def judge(env: Env, t: Term, goal: Atom | Conj) -> bool:
    """Whether  env |- t |> goal  is derivable from the six rules.

    Application goals enumerate candidate argument conjunctions, so this is
    only feasible when every argument type in `t` has a small atom set; it is
    the independent oracle against which the compositional semantics is
    tested.
    """
    memo: dict[tuple[Term, Atom], bool] = {}

    def atom_goal(term: Term, atom: Atom) -> bool:
        key = (term, atom)
        cached = memo.get(key)
        if cached is not None:
            return cached
        memo[key] = False  # terms shrink on recursion; this is belt and braces
        result = _derive(term, atom)
        memo[key] = result
        return result

    def _derive(term: Term, atom: Atom) -> bool:
        # (ArrI)
        if isinstance(term.type, Arrow) and atom == ARROW_INF:
            return True
        if not term.args:
            sym = term.head
            entry = env.get(sym.name)
            if entry is not None and atom in entry:  # (At)
                return True
            if sym.kind == TERMINAL and _matches_sigma_rule(sym, atom):  # (Sig)
                return True
            return False
        fun = Term(term.head, term.args[:-1])
        arg = term.args[-1]
        # (InfI)
        if isinstance(atom, QInf) and atom_goal(fun, Q_INF):
            return True
        # (App)
        for sigma in enum_conj(arg.type):
            if atom_goal(fun, ArrowMap(sigma, atom)) and all(
                atom_goal(arg, a) for a in sigma
            ):
                return True
        return False

    if isinstance(goal, Conj):  # (Set)
        return all(atom_goal(t, a) for a in goal)
    return atom_goal(t, goal)


def sem_apply(fun: Conj, arg: Conj, result_type: SimpleType) -> Conj:
    """Semantics of an application from the semantics of its parts, on
    objects: the reference the mask application is tested against.

    Collects (App) results for every arrow atom whose argument conjunction
    the argument satisfies, propagates bare q_inf (InfI), and closes under
    the always-true arrow atom when the result is of arrow type (ArrI).
    """
    out: list[Atom] = []
    for atom in fun:
        if isinstance(atom, QInf):
            out.append(Q_INF)
        elif isinstance(atom, ArrowMap) and atom.argument.issubset(arg):
            out.append(atom.result)
    if isinstance(result_type, Arrow):
        out.append(ARROW_INF)
    return Conj(out)


# ---------------------------------------------------------------------------
# Compositional semantics on masks (the fast route)


def _inf_chains(t: SimpleType, exact: bool) -> Iterator[tuple[int, bool]]:
    """For 1 <= i <= arity, the mask of every chain s1 -> .. -> si -> q_inf
    of type t where some sj holds q_inf (is exactly {q_inf} when `exact`),
    and whether i is the arity.

    A chain's index is the sum of one head per argument, 1 + sj's position
    times the atom count of the type left after j arguments, and distinct
    chains have distinct indices.  So multiplying the masks of each
    argument's heads adds their exponents without a carry: the product is
    the mask of all the chains, and a product over the heads whose sj lacks
    q_inf is the mask of the chains to leave out.
    """
    lay = layout(t)
    k = arity(t)
    every = none = 1
    for i in range(1, k + 1):
        heads = [1 + j * lay.result.n for j in range(len(lay.conjs))]
        inf = lay.argument.inf
        every *= _mask_of(heads, lay.n)
        none *= _mask_of(
            (h for h, c in zip(heads, lay.conjs) if (c != inf if exact else not c & inf)),
            lay.n,
        )
        lay = lay.result
        tail = 1 if i == k else 0  # q_inf's index in the type left after i
        yield (every - none) << tail, i == k


@lru_cache(maxsize=None)
def _terminal_mask(t: SimpleType) -> int:
    """(Sig) for a terminal of type t, closed under (ArrI)."""
    out = layout(t).arrow_inf
    for mask, _ in _inf_chains(t, exact=True):
        out |= mask
    return out


def _row(tab: dict[int, list[int]], lay: Layout, fun: int) -> list[int]:
    """`lay.results(fun)`, tabled in `tab`: application is a pure function
    of its operands, so one analysis shares its tables across all terms."""
    row = tab.get(fun)
    if row is None:
        row = tab[fun] = lay.results(fun)
    return row


def _run(ops: list[tuple], vals: list[int]) -> None:
    """Run bound dynamic operations (`_Program.bind`) on a value list."""
    for row, tab, lay, f, a, o in ops:
        vals[o] = (row or _row(tab, lay, vals[f]))[vals[a]]


class _Program:
    """A term compiled to a flat postfix list of mask operations.

    Each operation writes one slot of a value list.  Slots 0..k-1 hold the
    variables `params`, each closed under (ArrI) by the caller; the other
    slots hold a terminal's constant mask (set in `init`), a non-terminal's
    entry closed under (ArrI) (`loads`), or one application: a
    `Layout.results` row of the function's slot, indexed by the argument's
    slot.  A subterm that occurs more than once, as one object, and a symbol
    that occurs more than once get one slot.  Applications that read no
    parameter are `static`; they run once per environment (`fill`).  The
    `dynamic` ones run once per binding of the parameters.
    """

    __slots__ = ("params", "init", "loads", "static", "dynamic", "root", "root_static")

    def fill(self, masks: Mapping[str, int]) -> list[int]:
        """A value list with every parameter-free slot evaluated under the
        non-terminal entries `masks`; the parameter slots hold 0."""
        vals = self.init[:]
        for slot, name, inf in self.loads:
            entry = masks.get(name)
            if entry is None:
                raise UnboundSymbol(f"{NONTERMINAL} {name} is not in the environment")
            vals[slot] = entry | inf
        for tab, lay, f, a, o in self.static:
            vals[o] = _row(tab, lay, vals[f])[vals[a]]
        return vals

    def bind(self, vals: list[int]) -> list[tuple]:
        """The dynamic operations as (row, table, layout, f, a, o): `row` is
        the function's results when the function reads no parameter, looked
        up once in `vals` (from `fill`), and None (looked up per run)
        otherwise."""
        return [
            (_row(tab, lay, vals[f]) if fixed else None, tab, lay, f, a, o)
            for tab, lay, f, a, o, fixed in self.dynamic
        ]


class _Compiler:
    """Compiles terms for one analysis, and holds what its programs share:
    the application tables (`Layout.results` of each function mask met, per
    layout) and each symbol's layout and (Sig) mask."""

    def __init__(self):
        self.tables: dict[Layout, dict[int, list[int]]] = {}
        # name -> (symbol, layout of its type, terminal mask or None)
        self.symbols: dict[str, tuple[Symbol, Layout, int | None]] = {}

    def symbol(self, sym: Symbol) -> tuple[Layout, int | None]:
        hit = self.symbols.get(sym.name)
        if hit is None or hit[0] is not sym:
            fixed = _terminal_mask(sym.type) if sym.kind == TERMINAL else None
            hit = self.symbols[sym.name] = (sym, layout(sym.type), fixed)
        return hit[1], hit[2]

    def compile(self, t: Term, params: Sequence[Symbol]) -> _Program:
        """Compile t over the variables `params` with one loop and an
        explicit stack, so a term of any depth compiles.

        Symbols are resolved in the pre-order of t, so an infeasible type
        is refused where a recursive walk would first meet it.
        """
        slot_of = {p.name: i for i, p in enumerate(params)}
        vals = [0] * len(params)
        moves = [True] * len(params)  # whether a slot reads a parameter
        loads: list[tuple[int, str, int]] = []
        static: list[tuple] = []
        dynamic: list[tuple] = []
        heads: dict[int, tuple[int, Layout]] = {}  # id(symbol) -> (slot, layout)
        slots: dict[int, int] = {}  # id(subterm) -> slot
        stack: list[tuple[Term, bool]] = [(t, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in slots:
                continue
            if not ready:
                sym = node.head
                if id(sym) not in heads:
                    lay, fixed = self.symbol(sym)
                    if sym.kind == VARIABLE:
                        slot = slot_of.get(sym.name)
                        if slot is None:
                            raise UnboundSymbol(f"{sym.kind} {sym.name} is not in the environment")
                    else:
                        slot = len(vals)
                        moves.append(False)
                        vals.append(0 if fixed is None else fixed)
                        if fixed is None:
                            loads.append((slot, sym.name, lay.arrow_inf))
                    heads[id(sym)] = (slot, lay)
                stack.append((node, True))
                stack.extend((a, False) for a in reversed(node.args))
                continue
            cur, lay = heads[id(node.head)]
            for a in node.args:
                arg = slots[id(a)]
                out = len(vals)
                vals.append(0)
                tab = self.tables.setdefault(lay, {})
                if moves[cur] or moves[arg]:
                    dynamic.append((tab, lay, cur, arg, out, not moves[cur]))
                    moves.append(True)
                else:
                    static.append((tab, lay, cur, arg, out))
                    moves.append(False)
                cur, lay = out, lay.result
            slots[id(node)] = cur
        prog = _Program()
        prog.params, prog.init, prog.loads = params, vals, loads
        prog.static, prog.dynamic = static, dynamic
        prog.root = slots[id(t)]
        prog.root_static = not moves[prog.root]
        return prog


# ---------------------------------------------------------------------------
# The rule operator and its greatest fixpoint


def _require_rules(g: Scheme) -> None:
    for name in g.nonterminals:
        if name not in g.rules:
            raise AnalysisInfeasible(
                f"non-terminal {name} has no rule; the analysis is defined "
                f"for fully ruled schemes only"
            )


@lru_cache(maxsize=None)
def _argument_clauses(t: SimpleType) -> int:
    """The atoms every rule of a t-typed non-terminal gets whatever its body:
      (ii)  s1 -> .. -> si -> q_inf  (i <= k) when some sj contains q_inf,
      (iii) s1 -> .. -> sk -> q_bot  when some sj contains q_inf."""
    out = 0
    for mask, full in _inf_chains(t, exact=False):
        out |= mask  # (ii)
        if full:
            out |= mask >> 1  # (iii): q_bot sits just below q_inf in `o`
    return out


class _RuleProgram:
    """One rule F x1..xk -> e compiled for the rule operator.

    For each chain s1 -> .. -> sk of F's type the new entry collects
      (i)   s1 -> .. -> sk -> q      when e matches q under xi |> si,
    plus the clauses of `_argument_clauses`.  The body's ground mask holds
    q_bot at bit 0 and q_inf at bit 1, as the chain's index and the next.
    `values` lists, per parameter, its conjunction masks closed under
    (ArrI), and `offsets` every chain's index, in the product order of the
    values.  A body whose root reads no parameter has one value for every
    chain, so `chains` holds the mask of all chain indices instead.  `reads`
    names the non-terminals the body mentions.
    """

    def __init__(self, g: Scheme, name: str, compiler: _Compiler):
        rule, t = g.rules[name], g.nonterminals[name].type
        self.name = name
        self.program = compiler.compile(rule.body, rule.params)
        self.reads = {name for _, name, _ in self.program.loads}
        self.n = layout(t).n
        self.clauses = _argument_clauses(t)
        static = self.program.root_static
        self.values: list[list[int]] = []
        chains, offsets, lay = 1, [0], layout(t)
        for _ in rule.params:
            heads = [1 + i * lay.result.n for i in range(len(lay.conjs))]
            if static:
                chains *= _mask_of(heads, lay.n)  # as in `_inf_chains`
            else:
                self.values.append([c | lay.argument.arrow_inf for c in lay.conjs])
                offsets = [o + h for o in offsets for h in heads]
            lay = lay.result
        self.chains, self.offsets = (chains, None) if static else (None, offsets)

    def entry(self, masks: Mapping[str, int]) -> int:
        """The rule's new entry under the non-terminal entries `masks`."""
        prog = self.program
        vals = prog.fill(masks)
        if self.offsets is None:
            body = vals[prog.root]
            return (
                self.clauses
                | (self.chains if body & 1 else 0)
                | (self.chains << 1 if body & 2 else 0)
            )
        ops, root, k = prog.bind(vals), prog.root, len(self.values)
        bits = []
        for tup, off in zip(itertools.product(*self.values), self.offsets):
            vals[:k] = tup
            _run(ops, vals)
            body = vals[root]
            if body & 1:
                bits.append(off)
            if body & 2:
                bits.append(off + 1)
        return _mask_of(bits, self.n) | self.clauses


def step_F(g: Scheme, env: Env) -> Env:
    """One application of the rule operator to an object environment: the
    clauses of `_RuleProgram` and `_argument_clauses`."""
    _require_rules(g)
    layouts = {name: layout(f.type) for name, f in g.nonterminals.items()}
    masks = {name: layouts[name].encode(c) for name, c in env.entries.items()}
    compiler = _Compiler()
    return Env({
        name: layouts[name].decode(_RuleProgram(g, name, compiler).entry(masks))
        for name in g.nonterminals
    })


class Analysis:
    """Fixpoint analysis of one scheme plus memoized term semantics.

    Feasibility is checked before anything is compiled: every non-terminal
    needs a rule, every argument type at most MAX_ENUM_ATOMS atoms, and every
    non-terminal type at most MAX_ENTRY_ATOMS.
    `masks` holds the fixpoint; `env` decodes it.

    The fixpoint is Kleene iteration from the full assignment, on compiled
    rules (`_RuleProgram`).  A rule runs again only when a non-terminal its
    body names dropped in the previous iteration; otherwise its entry
    cannot change.  The compiled rules and their chain lists live for the
    fixpoint; the programs `semantics_mask` compiles and the application
    tables live as long as the analysis.

    Not safe to share across threads: the memo tables are unsynchronized.
    """

    def __init__(self, g: Scheme):
        self.scheme = g
        _require_rules(g)
        bound = 0
        for name, f in g.nonterminals.items():
            n = atom_count(f.type)
            if n > MAX_ENTRY_ATOMS:
                raise AnalysisInfeasible(
                    f"non-terminal {name} : {type_to_str(f.type)} has {n} atoms; "
                    f"an entry of more than {MAX_ENTRY_ATOMS} atoms is not feasible"
                )
            bound += n
        limit = bound + 1
        masks = {name: layout(f.type).full for name, f in g.nonterminals.items()}
        self._compiler = _Compiler()
        rules = [_RuleProgram(g, name, self._compiler) for name in g.nonterminals]
        iterations = 0
        dropped: set[str] | None = None  # None: the first step runs every rule
        while True:
            nxt = dict(masks)
            changed: set[str] = set()
            for rule in rules:
                if dropped is not None and rule.reads.isdisjoint(dropped):
                    continue
                new, old = rule.entry(masks), masks[rule.name]
                if new & ~old:
                    raise AssertionError(
                        f"rule operator grew the entry of {rule.name}; "
                        f"iteration is not descending"
                    )
                if new != old:
                    nxt[rule.name] = new
                    changed.add(rule.name)
            if not changed:
                break
            masks, dropped = nxt, changed
            iterations += 1
            if iterations > limit:
                raise AnalysisInfeasible(
                    f"fixpoint not reached within {limit} iterations"
                )
        self.masks = masks
        self.iterations = iterations
        self.atom_bound = bound
        self._env: Env | None = None
        # term -> (program, its `fill` under the fixpoint, its bound operations)
        self._programs: dict[Term, tuple[_Program, list[int], list[tuple]]] = {}
        self._memo: dict[tuple[Term, tuple[int, ...]], int] = {}

    @property
    def env(self) -> Env:
        """The fixpoint as `Conj` objects, decoded on first use."""
        if self._env is None:
            self._env = Env({
                name: layout(self.scheme.nonterminals[name].type).decode(m)
                for name, m in self.masks.items()
            })
        return self._env

    def apply(self, lay: Layout, fun: int, arg: int) -> int:
        """Mask application of a `lay`-typed function to an argument."""
        return _row(self._compiler.tables.setdefault(lay, {}), lay, fun)[arg]

    def semantics_mask(self, t: Term, venv: Mapping[str, int] | None = None) -> int:
        """The mask of all atoms derivable for t under the fixpoint
        environment extended with `venv` (masks) for its free variables.

        t is compiled once (`_Compiler.compile`), and its parameter-free
        part is evaluated once, for the life of the analysis."""
        venv = venv or {}
        hit = self._programs.get(t)
        if hit is None:
            params = tuple(_free_variables(t).values())
            bound = _bound(params, venv)
            prog = self._compiler.compile(t, params)
            vals = prog.fill(self.masks)
            hit = self._programs[t] = (prog, vals, prog.bind(vals))
        else:
            bound = _bound(hit[0].params, venv)
        prog, fixed, ops = hit
        key = (t, bound)
        cached = self._memo.get(key)
        if cached is None:
            if prog.root_static:
                cached = fixed[prog.root]
            else:
                vals = fixed[:]
                vals[: len(bound)] = [
                    m | layout(p.type).arrow_inf for p, m in zip(prog.params, bound)
                ]
                _run(ops, vals)
                cached = vals[prog.root]
            self._memo[key] = cached
        return cached

    def semantics(self, t: Term, venv: Mapping[str, Conj] | None = None) -> Conj:
        """`semantics_mask` on `Conj` objects."""
        venv = venv or {}
        masks = {
            n: layout(sym.type).encode(venv[n])
            for n, sym in _free_variables(t).items()
            if n in venv
        }
        return layout(t.type).decode(self.semantics_mask(t, masks))


def _bound(params: Sequence[Symbol], venv: Mapping[str, int]) -> tuple[int, ...]:
    """The masks `venv` binds the variables `params` to."""
    missing = [p.name for p in params if p.name not in venv]
    if missing:
        raise UnboundSymbol(f"term has unbound variables: {', '.join(sorted(missing))}")
    return tuple(venv[p.name] for p in params)


def _free_variables(t: Term) -> dict[str, Symbol]:
    out: dict[str, Symbol] = {}
    stack = [t]
    while stack:
        node = stack.pop()
        if node.head.kind == VARIABLE:
            out[node.head.name] = node.head
        stack.extend(node.args)
    return out
