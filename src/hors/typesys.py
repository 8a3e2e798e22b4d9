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

Feasibility is decided by arithmetic before anything is enumerated:
`|A(o)| = 2` and `|A(s -> t)| = 1 + 2^|A(s)| * |A(t)|` (`atom_count`).  An
argument type with more than MAX_ENUM_ATOMS atoms is refused, and so is a
non-terminal type with more than MAX_ENTRY_ATOMS atoms.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .core import (
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
# atom, and its fixpoint walks every tuple of argument conjunctions.
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


EMPTY = Conj()
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

    def chains(self, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
        """Every tuple of conjunctions for the first k arguments, in the
        product order of `enum_conj`, with the index of its chain: the atom
        c1 -> .. -> ck -> a sits at that index plus a's index in the type
        left after k arguments."""
        if k == 0:
            yield (), 0
            return
        res_n = self.result.n
        for ci, c in enumerate(self.conjs):
            head = 1 + ci * res_n
            for rest, off in self.result.chains(k - 1):
                yield (c,) + rest, head + off


@lru_cache(maxsize=None)
def layout(t: SimpleType) -> Layout:
    """The layout of a type; raises AnalysisInfeasible where `enum_atoms`
    would."""
    return Layout(t)


def _argument_layouts(lay: Layout, k: int) -> list[Layout]:
    out = []
    for _ in range(k):
        out.append(lay.argument)
        lay = lay.result
    return out


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
    """The index of every chain s1 -> .. -> si -> q_inf of type t, with
    1 <= i <= arity, where some sj holds q_inf (is exactly {q_inf} when
    `exact`), and whether the chain takes every argument."""
    lay = layout(t)
    k = arity(t)
    args = _argument_layouts(lay, k)
    for i in range(1, k + 1):
        tail = 1 if i == k else 0  # q_inf's index in the type left after i
        for masks, off in lay.chains(i):
            if any((m == a.inf) if exact else (m & a.inf) for m, a in zip(masks, args)):
                yield off + tail, i == k


@lru_cache(maxsize=None)
def _terminal_mask(t: SimpleType) -> int:
    """(Sig) for a terminal of type t, closed under (ArrI)."""
    lay = layout(t)
    return _mask_of((b for b, _ in _inf_chains(t, exact=True)), lay.n) | lay.arrow_inf


class _SemWalker:
    """Bottom-up semantics over one environment of non-terminal masks.

    `tables` maps (layout, function mask) to the function's results for
    every argument (`Layout.results`).  Application is a pure function of
    its operands, so one analysis shares the table across all its walkers.
    """

    def __init__(self, env: Mapping[str, int], tables: dict | None = None):
        self.env = env
        self.tables: dict[tuple[Layout, int], list[int]] = {} if tables is None else tables
        # name -> (symbol, layout of its type, terminal mask or None)
        self.symbols: dict[str, tuple[Symbol, Layout, int | None]] = {}

    def symbol(self, sym: Symbol, venv: Mapping[str, int] | None) -> tuple[int, Layout]:
        """The semantics of a symbol with its layout: the (Sig) atoms of a
        terminal, or the symbol's entry closed under (ArrI)."""
        hit = self.symbols.get(sym.name)
        if hit is None or hit[0] is not sym:
            fixed = _terminal_mask(sym.type) if sym.kind == TERMINAL else None
            hit = self.symbols[sym.name] = (sym, layout(sym.type), fixed)
        _, lay, fixed = hit
        if fixed is not None:
            return fixed, lay
        if venv is not None and sym.name in venv:
            entry = venv[sym.name]
        else:
            entry = self.env.get(sym.name)
            if entry is None:
                raise UnboundSymbol(f"{sym.kind} {sym.name} is not in the environment")
        return entry | lay.arrow_inf, lay

    def apply(self, lay: Layout, fun: int, arg: int) -> int:
        """The semantics of an application of a `lay`-typed function."""
        key = (lay, fun)
        results = self.tables.get(key)
        if results is None:
            results = self.tables[key] = lay.results(fun)
        return results[arg]

    def walk(
        self,
        t: Term,
        venv: Mapping[str, int] | None = None,
        memo: dict[int, int] | None = None,
    ) -> int:
        if memo is None:
            memo = {}
        cached = memo.get(id(t))
        if cached is not None:
            return cached
        sem, lay = self.symbol(t.head, venv)
        for a in t.args:
            sem = self.apply(lay, sem, self.walk(a, venv, memo))
            lay = lay.result
        memo[id(t)] = sem
        return sem


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
    bits = []
    for b, full in _inf_chains(t, exact=False):
        bits.append(b)  # (ii)
        if full:
            bits.append(b - 1)  # (iii): q_bot sits just below q_inf in `o`
    return _mask_of(bits, layout(t).n)


def _step_masks(g: Scheme, walker: _SemWalker) -> dict[str, int]:
    """One application of the rule operator to the walker's environment.

    For each rule F x1..xk -> e the new entry collects
      (i)   s1 -> .. -> sk -> q      when e matches q under xi |> si,
    and the clauses of `_argument_clauses`.  The body's ground mask holds
    q_bot at bit 0 and q_inf at bit 1, as the chain's index and the next.
    """
    out: dict[str, int] = {}
    for name, f in g.nonterminals.items():
        rule = g.rules[name]
        lay = layout(f.type)
        params = [p.name for p in rule.params]
        bits = []
        for masks, off in lay.chains(len(params)):
            body = walker.walk(rule.body, dict(zip(params, masks)))
            if body & 1:
                bits.append(off)
            if body & 2:
                bits.append(off + 1)
        out[name] = _mask_of(bits, lay.n) | _argument_clauses(f.type)
    return out


def step_F(g: Scheme, env: Env) -> Env:
    """One application of the rule operator to an object environment: the
    clauses of `_step_masks` and `_argument_clauses`."""
    _require_rules(g)
    layouts = {name: layout(f.type) for name, f in g.nonterminals.items()}
    masks = {name: layouts[name].encode(c) for name, c in env.entries.items()}
    out = _step_masks(g, _SemWalker(masks))
    return Env({name: layouts[name].decode(m) for name, m in out.items()})


class Analysis:
    """Fixpoint analysis of one scheme plus memoized term semantics.

    Feasibility is checked before anything is enumerated: every non-terminal
    needs a rule, every argument type at most MAX_ENUM_ATOMS atoms, and every
    non-terminal type at most MAX_ENTRY_ATOMS.
    `masks` holds the fixpoint; `env` decodes it.

    Not safe to share across threads: the memo table is unsynchronized.
    """

    def __init__(self, g: Scheme, max_iterations: int | None = None):
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
        limit = max_iterations if max_iterations is not None else bound + 1
        tables: dict = {}
        masks = {name: layout(f.type).full for name, f in g.nonterminals.items()}
        iterations = 0
        while True:
            nxt = _step_masks(g, _SemWalker(masks, tables))
            for name, m in masks.items():
                if nxt[name] & ~m:
                    raise AssertionError(
                        f"rule operator grew the entry of {name}; "
                        f"iteration is not descending"
                    )
            if nxt == masks:
                break
            masks = nxt
            iterations += 1
            if iterations > limit:
                raise AnalysisInfeasible(
                    f"fixpoint not reached within {limit} iterations"
                )
        self.masks = masks
        self.iterations = iterations
        self.atom_bound = bound
        self._env: Env | None = None
        self._memo: dict[tuple[Term, tuple[tuple[str, int], ...]], int] = {}
        self._walker = _SemWalker(masks, tables)

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
        return self._walker.apply(lay, fun, arg)

    def semantics_mask(self, t: Term, venv: Mapping[str, int] | None = None) -> int:
        """The mask of all atoms derivable for t under the fixpoint
        environment extended with `venv` (masks) for its free variables."""
        venv = venv or {}
        free = _free_variables(t)
        missing = free.keys() - venv.keys()
        if missing:
            raise UnboundSymbol(
                f"term has unbound variables: {', '.join(sorted(missing))}"
            )
        bound = {n: venv[n] for n in free}
        key = (t, tuple(sorted(bound.items())))
        cached = self._memo.get(key)
        if cached is None:
            cached = self._memo[key] = self._walker.walk(t, bound, {})
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


def _free_variables(t: Term) -> dict[str, Symbol]:
    out: dict[str, Symbol] = {}
    stack = [t]
    while stack:
        node = stack.pop()
        if node.head.kind == VARIABLE:
            out[node.head.name] = node.head
        stack.extend(node.args)
    return out
