"""Shared fixtures: the example schemes, a deterministic scheme
generator for corpus-based properties, and slow oracle helpers."""

from __future__ import annotations

import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import settings

from hors import (
    EvalBudget,
    Scheme,
    Symbol,
    Term,
    derive,
    parse,
    step,
)
from hors.core import (
    Arrow,
    GROUND,
    NONTERMINAL,
    arity,
    arrow,
    bottom_transform,
    nonterminal,
    terminal,
    truncate,
    variable,
)
from hors.engine import DerivationTrace, RedexInfo
from hors.io2oi import Labeling
from hors.scheme import Rule, fresh_name, reachable_nonterminals
from hors.typesys import layout

SCHEMES_DIR = Path(__file__).resolve().parent.parent / "schemes"

# Property tests draw the same examples on every run and keep no example
# database, so they cost the same fixed time in every Tier-1 run.
settings.register_profile("hors", derandomize=True, database=None, deadline=None)
settings.load_profile("hors")


@lru_cache(maxsize=None)
def load_scheme(name: str) -> Scheme:
    return parse((SCHEMES_DIR / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def order3():
    """Order-3 scheme with value tree  a <infinite b-tree> ⊥ c."""
    return load_scheme("order3.hors")


@pytest.fixture(scope="session")
def separating():
    """Order-1 scheme with OI value c and IO value ⊥."""
    return load_scheme("separating.hors")


@pytest.fixture(scope="session")
def dropper():
    """Mini analysis scheme: S -> F H, F x -> c, H -> a H."""
    return load_scheme("dropper.hors")


# ---------------------------------------------------------------------------
# Deterministic scheme generator

O = GROUND
OO = arrow(O, O)

# Non-terminal types of order <= 2 whose parameter types stay enumerable,
# so the same corpus serves the engine and the analysis.
_NT_TYPES = [O, OO, arrow(O, O, O), arrow(OO, O), arrow(OO, O, O)]

_TERMINALS = {
    "a": terminal("a", OO),
    "b": terminal("b", arrow(O, O, O)),
    "c": terminal("c", O),
    "d": terminal("d", O),
}


def _var_pool() -> dict:
    return {}


def _var_for(variables: dict, ty, index: int) -> Symbol:
    base = "x" if ty == O else "f"
    name = f"{base}{index + 1}"
    if name not in variables:
        variables[name] = variable(name, ty)
    if variables[name].type != ty:
        name = f"{base}{index + 1}_"
        variables[name] = variable(name, ty)
    return variables[name]


def _arg_types(ty):
    out = []
    while isinstance(ty, Arrow):
        out.append(ty.argument)
        ty = ty.result
    return out


def _candidates(symbols, target):
    out = []
    for sym in symbols:
        remaining = sym.type
        j = 0
        while True:
            if remaining == target:
                out.append((sym, j))
            if not isinstance(remaining, Arrow):
                break
            remaining = remaining.result
            j += 1
    return out


def _gen_term(rng: random.Random, symbols, target, depth) -> Term:
    cands = _candidates(symbols, target)
    assert cands, f"no candidate for target {target}"
    if depth <= 0:
        leaves = [cd for cd in cands if cd[1] == 0]
        sym, j = rng.choice(leaves) if leaves else min(cands, key=lambda cd: cd[1])
    else:
        sym, j = rng.choice(cands)
    args = []
    remaining = sym.type
    for _ in range(j):
        args.append(_gen_term(rng, symbols, remaining.argument, depth - 1))
        remaining = remaining.result
    return Term(sym, tuple(args))


@lru_cache(maxsize=None)
def gen_scheme(seed: int) -> Scheme:
    """A valid scheme of order <= 2 with at most 5 non-terminals."""
    rng = random.Random(seed)
    n_extra = rng.randint(1, 4)
    nonterminals = {"S": nonterminal("S", O)}
    for i in range(n_extra):
        name = f"N{i + 1}"
        nonterminals[name] = nonterminal(name, rng.choice(_NT_TYPES))
    variables: dict[str, Symbol] = {}
    rules = {}
    for name, nt in nonterminals.items():
        params = []
        counts: dict = {}
        for ty in _arg_types(nt.type):
            idx = counts.get(repr(ty), 0)
            counts[repr(ty)] = idx + 1
            params.append(_var_for(variables, ty, idx))
        scope = list(_TERMINALS.values()) + list(nonterminals.values()) + params
        body = _gen_term(rng, scope, O, rng.randint(2, 3))
        rules[name] = Rule(nt, tuple(params), body)
    return Scheme(
        terminals=dict(_TERMINALS),
        nonterminals=nonterminals,
        variables=variables,
        rules=rules,
        start=nonterminals["S"],
    ).check()


CORPUS_SEEDS = tuple(range(1, 18))


@pytest.fixture(scope="session")
def corpus(order3, separating, dropper):
    """>= 20 schemes: the three example schemes plus generated ones."""
    return [order3, separating, dropper] + [gen_scheme(seed) for seed in CORPUS_SEEDS]


@pytest.fixture(scope="session")
def analysis_corpus(separating, dropper):
    """Schemes whose parameter types the analysis can enumerate."""
    out = [separating, dropper, twice_scheme(), applier_scheme()]
    out += [g for g in (gen_scheme(seed) for seed in CORPUS_SEEDS) if _analysis_safe(g)]
    return out


def _analysis_safe(g: Scheme) -> bool:
    return all(
        all(ty in (O, OO) for ty in _arg_types(nt.type))
        for nt in g.nonterminals.values()
    )


@lru_cache(maxsize=None)
def twice_scheme() -> Scheme:
    """Order-2 scheme with a finite IO value tree: S -> Twice A c."""
    return parse(
        """
        terminal b : o -> o -> o
        terminal c : o
        nonterminal S : o
        nonterminal Twice : (o -> o) -> o -> o
        nonterminal A : o -> o
        var f : o -> o
        var x : o
        var y : o
        start S
        rule S = Twice A c
        rule Twice f x = f (f x)
        rule A y = b y y
        """
    )


@lru_cache(maxsize=None)
def applier_scheme() -> Scheme:
    """The labeling example signature: F : (o -> o) -> o applied to H : o -> o."""
    return parse(
        """
        terminal a : o -> o
        terminal c : o
        nonterminal S : o
        nonterminal F : (o -> o) -> o
        nonterminal H : o -> o
        var f : o -> o
        var x : o
        start S
        rule S = F H
        rule F f = f c
        rule H x = a (H x)
        """
    )


# ---------------------------------------------------------------------------
# Slow oracles


def naive_value_tree(g: Scheme, policy: str, budget: EvalBudget):
    """Value tree via the trace-producing deriver: truncate the final term's
    bottom-transform.  Slow but entirely independent of the fast evaluator."""
    trace = derive(g, g.start_term(), policy, budget)
    final = trace.terms[-1] if trace.terms else g.start_term()
    return truncate(bottom_transform(final), budget.depth), trace.exhausted_budget


def _rule_arities(g: Scheme) -> dict[str, int]:
    return {name: arity(g.nonterminals[name].type) for name in g.rules}


def _is_redex(arities: dict[str, int], node: Term) -> bool:
    return node.head.kind == NONTERMINAL and arities.get(node.head.name) == len(node.args)


_HOT, _INNERMOST = 1, 2  # a subterm holds a redex / holds an innermost one


def _redex_flags(arities: dict[str, int], t: Term, flags: dict) -> dict:
    """Fill `flags`, id -> _HOT | _INNERMOST bits, for every subterm of t not
    in it yet.  `flags[None]` keeps those subterms alive, so that their ids
    stay valid while later terms that share them are scanned."""
    pinned = flags.setdefault(None, [])
    post: list[tuple[Term, bool]] = [(t, False)]
    while post:
        node, expanded = post.pop()
        if id(node) in flags:
            continue
        if expanded:
            own = _is_redex(arities, node)
            below = 0
            for a in node.args:
                below |= flags[id(a)]
            bits = below & _INNERMOST
            if own or below:
                bits |= _HOT
            if own and not below & _HOT:
                bits |= _INNERMOST
            flags[id(node)] = bits
            pinned.append(node)
            continue
        post.append((node, True))
        post.extend((a, False) for a in node.args)
    return flags


def reference_redexes(
    g: Scheme, t: Term, policy: str = "unrestricted", flags: dict | None = None
) -> list[RedexInfo]:
    """The redexes of t the policy allows, in document order, by a walk from
    the root into every subterm that holds one.  `flags` may carry the
    subterm flags over from earlier terms that share subterms with t."""
    arities = _rule_arities(g)
    flags = _redex_flags(arities, t, {} if flags is None else flags)
    wanted = _INNERMOST if policy == "io" else _HOT
    out: list[RedexInfo] = []
    path: list[int] = []  # the position of the node being visited
    pre: list[tuple[Term, int, int, bool]] = [(t, 0, 0, False)] if flags[id(t)] & wanted else []
    while pre:
        node, depth, i, above = pre.pop()
        del path[max(depth - 1, 0) :]
        if depth:
            path.append(i)
        own = _is_redex(arities, node)
        if own:
            io = not any(flags[id(a)] & _HOT for a in node.args)
            if policy == "unrestricted" or (io if policy == "io" else not above):
                out.append(RedexInfo(tuple(path), node.head, not above, io))
        for i in range(len(node.args), 0, -1):
            if flags[id(node.args[i - 1])] & wanted:
                pre.append((node.args[i - 1], depth + 1, i, above or own))
    return out


def reference_derive(g: Scheme, t0: Term, policy: str, budget: EvalBudget) -> DerivationTrace:
    """The fair derivation as a loop that rescans the whole term before every
    step: the slow route `derive`'s incremental redex tree must agree with."""
    steps = []
    exhausted = False
    term = t0
    queue: list[tuple] = []
    flags: dict = {}
    while True:
        if term.size > budget.max_term_size:
            exhausted = True
            break
        eligible = reference_redexes(g, term, policy, flags)
        if not eligible:
            break
        if len(steps) >= budget.max_steps:
            exhausted = True
            break
        sweep = [r for r in eligible if r.is_oi] if policy == "unrestricted" else eligible
        by_pos = {r.position: r for r in sweep}
        chosen = None
        while queue:
            p = queue.pop(0)
            if p in by_pos:
                chosen = by_pos[p]
                break
        if chosen is None:
            queue = [r.position for r in sweep]
            chosen = by_pos[queue.pop(0)]
        after = step(g, term, chosen.position)
        steps.append((term, chosen, after))
        term = after
    return DerivationTrace(steps, exhausted)


def reference_self_correct(gprime: Scheme, lab: Labeling) -> tuple[Scheme, tuple[str, ...]]:
    """The eager correction of a labeled scheme G' (`label_scheme` with the
    analysis of `lab`): every rule whose annotated head is judged
    bottom-producing rewrites to a fresh `Void`, reachable or not.  Returns
    G'' and the voided names.  `self_correct_report` must agree with it on
    the part reachable from the start."""
    analysis = lab.analysis
    void = Symbol(fresh_name("Void", gprime.all_names()), NONTERMINAL, GROUND)
    rules: dict[str, Rule] = {}
    voided: list[str] = []
    for name, rule in gprime.rules.items():
        info = lab.ann_of[name]
        sem, lay = analysis.semantics_mask(Term(info.base)), layout(info.base.type)
        for arg in info.annotation:
            sem, lay = analysis.apply(lay, sem, arg), lay.result
        if lay.has_bot(sem):
            rules[name] = Rule(rule.lhs, rule.params, Term(void))
            voided.append(name)
        else:
            rules[name] = rule
    rules[void.name] = Rule(void, (), Term(void))
    corrected = Scheme(
        terminals=dict(gprime.terminals),
        nonterminals={**gprime.nonterminals, void.name: void},
        variables=dict(gprime.variables),
        rules=rules,
        start=gprime.start,
    )
    return corrected, tuple(voided)


def reference_prune(g: Scheme) -> Scheme:
    """Drop the non-terminals, and their rules, the start never reaches."""
    keep = reachable_nonterminals(g)
    return Scheme(
        dict(g.terminals),
        {n: s for n, s in g.nonterminals.items() if n in keep},
        dict(g.variables),
        {n: r for n, r in g.rules.items() if n in keep},
        g.start,
    )
