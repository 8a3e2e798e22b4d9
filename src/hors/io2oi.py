"""Force unrestricted evaluation to agree with innermost evaluation.

Every non-terminal and variable is split into one copy per tuple of
argument-semantics annotations, and every application is rewritten so the
head learns the analysis result of its argument while the argument is
duplicated once per possible annotation of its own future arguments.  The
labeled scheme behaves exactly like the source under IO.  The self-correcting
step then redirects every rule whose annotated head is judged bottom-producing
to a fresh `Void` non-terminal (with rule `Void -> Void`), after which even
unrestricted derivations compute the IO value tree.  The order of the scheme
is preserved; its size is not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .core import (
    GROUND,
    NONTERMINAL,
    TERMINAL,
    VARIABLE,
    Arrow,
    HorsError,
    SimpleType,
    Symbol,
    Term,
    argument_types,
    type_to_str,
)
from .scheme import Rule, Scheme, fresh_name, reachable_nonterminals
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
        self.base = g
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


@dataclass(eq=False)
class LabeledScheme(Scheme):
    """The labeled scheme, carrying the analysis that produced it."""

    labeling: Labeling = field(default=None)  # type: ignore[assignment]

    @property
    def base(self) -> Scheme:
        return self.labeling.base

    @property
    def analysis(self) -> Analysis:
        return self.labeling.analysis


def label_scheme(g: Scheme, analysis: Analysis | None = None) -> LabeledScheme:
    """Annotate and duplicate: one rule per non-terminal and annotation tuple."""
    lab = Labeling(g, analysis)

    variables = {s.name: s for s in lab.var_ann.values()}
    nonterminals: dict[str, Symbol] = {}
    rules: dict[str, Rule] = {}

    for f in g.nonterminals.values():
        base_rule = g.rules.get(f.name)
        param_types = argument_types(f.type)
        for tup in mask_tuples(f.type):
            annotated = lab.nt_ann[(f.name, tup)]
            nonterminals[annotated.name] = annotated
            if base_rule is None:
                continue
            params: list[Symbol] = []
            for p, ty in zip(base_rule.params, param_types):
                for ptup in mask_tuples(ty):
                    params.append(lab.var_ann[(p.name, ptup)])
            venv = {p.name: s for p, s in zip(base_rule.params, tup)}
            body = lab.plus_term(base_rule.body, venv, ())
            rules[annotated.name] = Rule(annotated, tuple(params), body)

    start = lab.nt_ann[(g.start.name, ())]
    return LabeledScheme(
        terminals=dict(g.terminals),
        nonterminals=nonterminals,
        variables=variables,
        rules=rules,
        start=start,
        labeling=lab,
    )


@dataclass(frozen=True)
class CorrectionReport:
    """Size accounting for the labeling/correction pipeline."""

    base_rules: int
    labeled_rules: int
    voided_rules: tuple[str, ...]
    nbvar_table: tuple[tuple[str, int], ...]  # rendered type -> width
    unreachable: tuple[str, ...]  # dead annotated copies, prunable

    @property
    def voided_count(self) -> int:
        return len(self.voided_rules)


def self_correct(gprime: LabeledScheme) -> Scheme:
    """Redirect every bottom-producing annotated rule to Void."""
    corrected, _ = self_correct_report(gprime)
    return corrected


class NotLabeled(HorsError):
    """self_correct needs the scheme produced by label_scheme."""


def self_correct_report(gprime: LabeledScheme) -> tuple[Scheme, CorrectionReport]:
    lab = getattr(gprime, "labeling", None)
    if lab is None:
        raise NotLabeled(
            "self_correct needs the labeled scheme produced by label_scheme"
        )
    analysis = lab.analysis

    taken = gprime.all_names()
    void = Symbol(fresh_name("Void", taken), NONTERMINAL, GROUND)

    nonterminals = dict(gprime.nonterminals)
    nonterminals[void.name] = void
    rules: dict[str, Rule] = {}
    voided: list[str] = []

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

    for name, rule in gprime.rules.items():
        info = lab.ann_of[name]
        sem, lay = applied(info.base, info.annotation)
        if lay.has_bot(sem):
            rules[name] = Rule(rule.lhs, rule.params, Term(void))
            voided.append(name)
        else:
            rules[name] = rule
    rules[void.name] = Rule(void, (), Term(void))

    corrected = Scheme(
        terminals=dict(gprime.terminals),
        nonterminals=nonterminals,
        variables=dict(gprime.variables),
        rules=rules,
        start=gprime.start,
    )

    seen_types: dict[str, int] = {}
    for f in lab.base.nonterminals.values():
        for ty in argument_types(f.type):
            seen_types.setdefault(type_to_str(ty), nbvar(ty))
    live = reachable_nonterminals(corrected)
    report = CorrectionReport(
        base_rules=len(lab.base.rules),
        labeled_rules=len(gprime.rules),
        voided_rules=tuple(voided),
        nbvar_table=tuple(sorted(seen_types.items())),
        unreachable=tuple(n for n in corrected.nonterminals if n not in live),
    )
    return corrected, report


def correct_scheme(g: Scheme, analysis: Analysis | None = None) -> Scheme:
    """Label then self-correct in one step."""
    return self_correct(label_scheme(g, analysis))
