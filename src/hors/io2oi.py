"""Force unrestricted evaluation to agree with innermost evaluation.

Every non-terminal and variable is split into one copy per tuple of
argument-semantics annotations, and every application is rewritten so the
head learns the analysis result of its argument while the argument is
duplicated once per possible annotation of its own future arguments.  The
labeled scheme G' (`label_scheme`) behaves exactly like the source under IO.
The self-correcting step then redirects every rule whose annotated head is
judged bottom-producing to a fresh `Void` non-terminal (with rule
`Void -> Void`), after which even unrestricted derivations compute the IO
value tree.  The order of G' is that of the source; its size is not.

Only the copies reachable from the start can affect the value tree, and
most copies are not, so `self_correct_report` builds the corrected G'' on
demand: a worklist from the start symbol's copy judges and emits each copy it
reaches, and never builds or judges the others.  The annotated symbol tables
(`Labeling`) name and build a copy on its first lookup, so a call pays only
for the copies it uses; names are those of the full construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

from .core import (
    GROUND,
    NONTERMINAL,
    TERMINAL,
    VARIABLE,
    Arrow,
    SimpleType,
    Symbol,
    Term,
    argument_types,
    type_to_str,
)
from .scheme import (
    Rule,
    Scheme,
    _heads,
    fresh_name,
    reachable_nonterminals,  # noqa: F401  (kept importable: perfbench traces hors.io2oi.reachable_nonterminals)
)
from .typesys import (
    Analysis,
    Conj,
    Layout,
    conj_masks,
    enum_conj,
    enumerable_width,
    layout,
    sem_apply,  # noqa: F401  (kept importable: perfbench traces hors.io2oi.sem_apply)
)


def nbvar(t: SimpleType) -> int:
    """How many annotation tuples the arguments of a type admit."""
    n = 1
    for arg in argument_types(t):
        n <<= enumerable_width(arg)
    return n


@lru_cache(maxsize=None)
def sigma_tuples(t: SimpleType) -> tuple[tuple[Conj, ...], ...]:
    """All annotation tuples for a type, in canonical order, as `Conj`s."""
    spaces = [enum_conj(arg) for arg in argument_types(t)]
    return tuple(itertools.product(*spaces))


@lru_cache(maxsize=None)
def mask_tuples(t: SimpleType) -> tuple[tuple[int, ...], ...]:
    """`sigma_tuples` as masks, in the same order: what labeling keys on."""
    spaces = [conj_masks(arg) for arg in argument_types(t)]
    return tuple(itertools.product(*spaces))


@lru_cache(maxsize=None)
def _conj_index(t: SimpleType) -> dict[int, int]:
    """Each conjunction mask of a type to its place in `conj_masks`."""
    return {m: i for i, m in enumerate(conj_masks(t))}


def tuple_index(t: SimpleType, tup: tuple[int, ...]) -> int:
    """The index of an annotation tuple in `mask_tuples(t)`, found without
    building them: they are a product, so the index is mixed-radix.  Raises
    KeyError for a tuple that is not among them."""
    args = argument_types(t)
    if len(tup) != len(args):
        raise KeyError(tup)
    idx = 0
    for arg, mask in zip(args, tup):
        idx = (idx << enumerable_width(arg)) | _conj_index(arg)[mask]
    return idx


def index_tuple(t: SimpleType, idx: int) -> tuple[int, ...]:
    """`mask_tuples(t)[idx]`, found without building them."""
    out = []
    for arg in reversed(argument_types(t)):
        width = enumerable_width(arg)
        out.append(conj_masks(arg)[idx & ((1 << width) - 1)])
        idx >>= width
    return tuple(reversed(out))


@lru_cache(maxsize=None)
def plus_type(t: SimpleType) -> SimpleType:
    """Duplicate each argument type once per annotation tuple it admits.

    The order of the type is unchanged.
    """
    args = argument_types(t)
    out: SimpleType = GROUND
    for arg in reversed(args):
        dup = plus_type(arg)
        for _ in range(nbvar(arg)):
            out = Arrow(dup, out)
    return out


@dataclass(frozen=True)
class AnnotatedSymbol:
    """An annotated copy of a base symbol; the base is always recoverable.

    The annotation holds one conjunction mask per argument of the base.
    """

    symbol: Symbol
    base: Symbol
    annotation: tuple[int, ...]


class _Copies(dict):
    """A table that builds a missing entry on its first lookup."""

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        return self.fill(key)


class Labeling:
    """Annotated symbol tables for one scheme plus its analysis.

    `nt_ann` and `var_ann` map (base name, annotation tuple) to an annotated
    copy, and `ann_of` maps a copy's name back to its base and annotation.
    The copy of `X` is named `X` for the empty annotation and `X#idx`
    otherwise, `idx` being the tuple's index in `mask_tuples`, primed by
    `fresh_name` against the terminals and every copy registered before it.
    When no source name holds `#` and no name is declared twice, no two of
    these names can meet and no prime is ever added: each copy is then named
    and built on its first lookup, so a call pays only for the copies it
    uses.  Otherwise every copy is registered at once, in declaration and
    tuple order, by the same routine.
    """

    def __init__(self, g: Scheme, analysis: Analysis | None = None):
        self.analysis = analysis if analysis is not None else Analysis(g)
        self._g = g
        self.nt_ann = _Copies(lambda key: self._fill(g.nonterminals[key[0]], key[1]).symbol)
        self.var_ann = _Copies(lambda key: self._fill(g.variables[key[0]], key[1]).symbol)
        self.ann_of = _Copies(self._by_name)
        self._taken: set[str] | None = None
        names = [*g.terminals, *g.nonterminals, *g.variables]
        if len(set(names)) < len(names) or any("#" in n for n in names):
            self._taken = set(g.terminals)
            for sym in (*g.nonterminals.values(), *g.variables.values()):
                plus = plus_type(sym.type)
                for idx, tup in enumerate(mask_tuples(sym.type)):
                    self._fill(sym, tup, idx, plus)

    def _fill(
        self,
        sym: Symbol,
        tup: tuple[int, ...],
        idx: int | None = None,
        plus: SimpleType | None = None,
    ) -> AnnotatedSymbol:
        """Name, build and register the copy of a base symbol for a tuple.
        `idx` and `plus` are the tuple's index and the copies' type, when
        the caller already has them."""
        if idx is None:
            idx = tuple_index(sym.type, tup)
        if plus is None:
            plus = plus_type(sym.type)
        name = f"{sym.name}#{idx}" if tup else sym.name
        if self._taken is not None:
            name = fresh_name(name, self._taken)
            self._taken.add(name)
        annotated = Symbol(name, sym.kind, plus)
        table = self.nt_ann if sym.kind == NONTERMINAL else self.var_ann
        table[(sym.name, tup)] = annotated
        info = self.ann_of[name] = AnnotatedSymbol(annotated, sym, tup)
        return info

    def _by_name(self, name: str) -> AnnotatedSymbol:
        """The copy a name denotes, when the tables fill on demand."""
        base, _, digits = name.partition("#")
        sym = self._g.nonterminals.get(base) or self._g.variables.get(base)
        idx = int(digits) if digits.isdecimal() else 0
        if (
            self._taken is None
            and sym is not None
            and idx < nbvar(sym.type)
            and name == (base if sym.type == GROUND else f"{base}#{idx}")
        ):
            return self._fill(sym, index_tuple(sym.type, idx), idx)
        raise KeyError(name)

    def copies(self, sym: Symbol) -> list[Symbol]:
        """Every annotated copy of a base symbol, in tuple order."""
        table = self.nt_ann if sym.kind == NONTERMINAL else self.var_ann
        return [table[(sym.name, tup)] for tup in mask_tuples(sym.type)]

    def fresh(self, base: str) -> str:
        """`base`, primed until no terminal and no copy has that name.
        `base` holds no `#`, so only the copies of ground symbols, named as
        their bases, can take it when the tables fill on demand."""
        if self._taken is not None:
            return fresh_name(base, self._taken)
        g = self._g
        ground = [s.name for s in (*g.nonterminals.values(), *g.variables.values()) if s.type == GROUND]
        return fresh_name(base, {*g.terminals, *ground})

    def plus_term(
        self, t: Term, venv: dict[str, int], annotation: tuple[int, ...]
    ) -> Term:
        """The annotated, duplicated image of a term.

        Terminals stay themselves; a non-terminal or variable head becomes
        the copy annotated with the semantics of its arguments followed by
        `annotation`; each argument is duplicated once per annotation tuple
        of its type.  The copies of an argument differ only in their head,
        so they share the images of its own arguments.  One loop with an
        explicit stack builds them, so a term of any depth is labeled.
        """
        semantics = self.analysis.semantics_mask
        # id(subterm) -> (semantics of its arguments, images of its arguments)
        done: dict[int, tuple[tuple[int, ...], tuple[Term, ...]]] = {}

        def image(node: Term, ann: tuple[int, ...]) -> Term:
            sems, kids = done[id(node)]
            head = node.head
            if head.kind != TERMINAL:
                table = self.nt_ann if head.kind == NONTERMINAL else self.var_ann
                head = table[(head.name, sems + ann)]
            return Term(head, kids)

        stack: list[tuple[Term, bool]] = [(t, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in done:
                continue
            if not ready:
                stack.append((node, True))
                stack.extend((a, False) for a in node.args)
                continue
            sems = () if node.head.kind == TERMINAL else tuple(
                semantics(a, venv) for a in node.args
            )
            done[id(node)] = sems, tuple(
                image(a, tup) for a in node.args for tup in mask_tuples(a.type)
            )
        return image(t, annotation)

    def params(self, base_rule: Rule) -> tuple[Symbol, ...]:
        """The parameters of every copy of a rule: each base parameter once
        per annotation tuple of its type."""
        return tuple(
            self.var_ann[(p.name, tup)] for p in base_rule.params for tup in mask_tuples(p.type)
        )

    def rule(self, base_rule: Rule, annotation: tuple[int, ...]) -> Rule:
        """The labeled rule of the copy of a base rule for one annotation."""
        annotated = self.nt_ann[(base_rule.lhs.name, annotation)]
        venv = {p.name: m for p, m in zip(base_rule.params, annotation)}
        return Rule(annotated, self.params(base_rule), self.plus_term(base_rule.body, venv, ()))


def label_scheme(g: Scheme, analysis: Analysis | None = None) -> Scheme:
    """The labeled scheme G': one rule per non-terminal and annotation tuple.

    It behaves like the source under IO.  It is built eagerly, every copy
    whether reachable or not; `self_correct_report` builds only the live ones.
    """
    lab = Labeling(g, analysis)
    rules: dict[str, Rule] = {}
    for base_rule in g.rules.values():
        for tup in mask_tuples(base_rule.lhs.type):
            rule = lab.rule(base_rule, tup)
            rules[rule.lhs.name] = rule
    return Scheme(
        terminals=dict(g.terminals),
        nonterminals={s.name: s for f in g.nonterminals.values() for s in lab.copies(f)},
        variables={s.name: s for v in g.variables.values() for s in lab.copies(v)},
        rules=rules,
        start=lab.nt_ann[(g.start.name, ())],
    )


@dataclass(frozen=True)
class CorrectionReport:
    """Size accounting for the labeling/correction pipeline."""

    base_rules: int
    labeled_rules: int  # rules of the full labeling G'
    voided_rules: tuple[str, ...]  # emitted rules redirected to Void
    nbvar_table: tuple[tuple[str, int], ...]  # rendered type -> width
    unreachable_count: int  # annotated copies (and Void) not emitted
    _unreachable: Callable[[], tuple[str, ...]] = field(repr=False, compare=False)

    @property
    def voided_count(self) -> int:
        return len(self.voided_rules)

    @cached_property
    def unreachable(self) -> tuple[str, ...]:
        """The names of the copies (and Void) not emitted, in declaration
        and tuple order; named on first read, which may be many."""
        return self._unreachable()


def self_correct_report(
    g: Scheme, analysis: Analysis | None = None
) -> tuple[Scheme, CorrectionReport]:
    """The self-corrected scheme G'' of a source scheme, live part only.

    A worklist starts from the start symbol's copy.  Each annotated copy it
    reaches rewrites to `Void` when the analysis judges its annotated head
    bottom-producing, and to its labeled body otherwise; the annotated
    non-terminals of that body are reached in turn.  The result is the
    reachable part of the fully labeled and corrected scheme: names, the
    order of non-terminals (Void last) and the variable declarations, every
    copy of every variable, are those of G'.  Only the reached copies and the
    variable copies are named and built.
    """
    lab = Labeling(g, analysis)
    analysis = lab.analysis
    void = Symbol(lab.fresh("Void"), NONTERMINAL, GROUND)

    # Annotation tuples share prefixes, so partial applications are cached:
    # (base name, annotation prefix) -> (mask, layout of the type left).
    partial: dict[tuple[str, tuple[int, ...]], tuple[int, Layout]] = {}

    def applied(base: Symbol, annotation: tuple[int, ...]) -> tuple[int, Layout]:
        key = (base.name, annotation)
        hit = partial.get(key)
        if hit is None:
            if annotation:
                sem, lay = applied(base, annotation[:-1])
                hit = analysis.apply(lay, sem, annotation[-1]), lay.result
            else:
                hit = analysis.semantics_mask(Term(base)), layout(base.type)
            partial[key] = hit
        return hit

    start = lab.nt_ann[(g.start.name, ())]
    reached = {start.name: start}
    work = [start]
    built: dict[str, Rule] = {}
    voided: set[str] = set()
    while work:
        annotated = work.pop()
        if annotated is void:
            built[void.name] = Rule(void, (), Term(void))
            continue
        info = lab.ann_of[annotated.name]
        base_rule = g.rules.get(info.base.name)
        if base_rule is None:
            continue
        sem, lay = applied(info.base, info.annotation)
        if lay.has_bot(sem):
            rule = Rule(annotated, lab.params(base_rule), Term(void))
            voided.add(annotated.name)
        else:
            rule = lab.rule(base_rule, info.annotation)
        built[annotated.name] = rule
        for head in _heads(rule.body):
            if head.kind == NONTERMINAL and head.name not in reached:
                reached[head.name] = head
                work.append(head)

    # The reached copies in the order of G': by declaration, then by tuple.
    declared = {name: i for i, name in enumerate(g.nonterminals)}

    def place(sym: Symbol) -> tuple[int, int]:
        info = lab.ann_of[sym.name]
        return declared[info.base.name], tuple_index(info.base.type, info.annotation)

    live = sorted((s for s in reached.values() if s is not void), key=place)
    nonterminals = {s.name: s for s in (*live, void) if s.name in reached}
    corrected = Scheme(
        terminals=dict(g.terminals),
        nonterminals=nonterminals,
        variables={s.name: s for v in g.variables.values() for s in lab.copies(v)},
        rules={n: built[n] for n in nonterminals if n in built},
        start=start,
    )

    def unreachable() -> tuple[str, ...]:
        copies = [s for f in g.nonterminals.values() for s in lab.copies(f)]
        return tuple(s.name for s in (*copies, void) if s.name not in reached)

    seen_types: dict[str, int] = {}
    for f in g.nonterminals.values():
        for ty in argument_types(f.type):
            seen_types.setdefault(type_to_str(ty), nbvar(ty))
    report = CorrectionReport(
        base_rules=len(g.rules),
        labeled_rules=sum(nbvar(r.lhs.type) for r in g.rules.values()),
        voided_rules=tuple(n for n in nonterminals if n in voided),
        nbvar_table=tuple(sorted(seen_types.items())),
        unreachable_count=sum(nbvar(f.type) for f in g.nonterminals.values()) + 1 - len(reached),
        _unreachable=unreachable,
    )
    return corrected, report
