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
(`Labeling`) stay eager, so names are those of the full construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

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


class Labeling:
    """Annotated symbol tables for one scheme plus its analysis."""

    def __init__(self, g: Scheme, analysis: Analysis | None = None):
        self.analysis = analysis if analysis is not None else Analysis(g)
        taken = set(g.terminals)
        self.nt_ann: dict[tuple[str, tuple[int, ...]], Symbol] = {}
        self.var_ann: dict[tuple[str, tuple[int, ...]], Symbol] = {}
        self.ann_of: dict[str, AnnotatedSymbol] = {}

        def register(
            table: dict, sym: Symbol, kind: str
        ) -> None:
            plus = plus_type(sym.type)
            for idx, tup in enumerate(mask_tuples(sym.type)):
                name = sym.name if not tup else f"{sym.name}#{idx}"
                name = fresh_name(name, taken)
                taken.add(name)
                annotated = Symbol(name, kind, plus)
                table[(sym.name, tup)] = annotated
                self.ann_of[name] = AnnotatedSymbol(annotated, sym, tup)

        for sym in g.nonterminals.values():
            register(self.nt_ann, sym, NONTERMINAL)
        for sym in g.variables.values():
            register(self.var_ann, sym, VARIABLE)

    def plus_term(
        self, t: Term, venv: dict[str, int], annotation: tuple[int, ...]
    ) -> Term:
        """The annotated, duplicated image of a term.

        Terminals stay themselves; a non-terminal or variable head becomes
        the copy annotated with the semantics of its arguments followed by
        `annotation`; each argument is duplicated once per annotation tuple
        of its type.
        """
        head = t.head
        if head.kind != TERMINAL:
            semantics = self.analysis.semantics_mask
            full = tuple(semantics(a, venv) for a in t.args) + annotation
            table = self.nt_ann if head.kind == NONTERMINAL else self.var_ann
            head = table[(head.name, full)]
        return Term(head, tuple(
            self.plus_term(a, venv, tup) for a in t.args for tup in mask_tuples(a.type)
        ))

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
        nonterminals={s.name: s for s in lab.nt_ann.values()},
        variables={s.name: s for s in lab.var_ann.values()},
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
    unreachable: tuple[str, ...]  # annotated copies (and Void) not emitted

    @property
    def voided_count(self) -> int:
        return len(self.voided_rules)


def self_correct_report(
    g: Scheme, analysis: Analysis | None = None
) -> tuple[Scheme, CorrectionReport]:
    """The self-corrected scheme G'' of a source scheme, live part only.

    A worklist starts from the start symbol's copy.  Each annotated copy it
    reaches rewrites to `Void` when the analysis judges its annotated head
    bottom-producing, and to its labeled body otherwise; the annotated
    non-terminals of that body are reached in turn.  The result is the
    reachable part of the fully labeled and corrected scheme.  The symbol
    tables stay eager, so names and variable declarations are those of G'.
    """
    lab = Labeling(g, analysis)
    analysis = lab.analysis
    void = Symbol(fresh_name("Void", set(g.terminals) | set(lab.ann_of)), NONTERMINAL, GROUND)

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
    reached = {start.name}
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
                reached.add(head.name)
                work.append(head)

    copies = [*lab.nt_ann.values(), void]
    nonterminals = {s.name: s for s in copies if s.name in reached}
    corrected = Scheme(
        terminals=dict(g.terminals),
        nonterminals=nonterminals,
        variables={s.name: s for s in lab.var_ann.values()},
        rules={n: built[n] for n in nonterminals if n in built},
        start=start,
    )

    seen_types: dict[str, int] = {}
    for f in g.nonterminals.values():
        for ty in argument_types(f.type):
            seen_types.setdefault(type_to_str(ty), nbvar(ty))
    report = CorrectionReport(
        base_rules=len(g.rules),
        labeled_rules=sum(nbvar(r.lhs.type) for r in g.rules.values()),
        voided_rules=tuple(n for n in nonterminals if n in voided),
        nbvar_table=tuple(sorted(seen_types.items())),
        unreachable=tuple(s.name for s in copies if s.name not in reached),
    )
    return corrected, report
