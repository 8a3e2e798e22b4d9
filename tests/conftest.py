"""Shared fixtures: the example schemes, a deterministic scheme
generator for corpus-based properties, and slow oracle helpers."""

from __future__ import annotations

import json
import random
import re
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
    ArityOrTypeMismatch,
    GROUND,
    NONTERMINAL,
    TERMINAL,
    VARIABLE,
    arity,
    arrow,
    bottom_transform,
    instantiate,
    nonterminal,
    term_to_str,
    terminal,
    truncate,
    type_to_str,
    variable,
)
from hors.engine import IO, DerivationTrace, RedexInfo, _Evaluator
from hors.io2oi import AnnotatedSymbol, Labeling, mask_tuples, plus_type
from hors.scheme import (
    _RESERVED,
    Rule,
    SchemeParseError,
    _TypeParser,
    fresh_name,
    reachable_nonterminals,
)
from hors.typesys import (
    MAX_ENTRY_ATOMS,
    Analysis,
    AnalysisInfeasible,
    ArrowMap,
    Atom,
    Conj,
    Env,
    QBot,
    QInf,
    UnboundSymbol,
    _mask_of,
    _require_rules,
    atom_count,
    enum_atoms,
    layout,
)

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
    return truncate(bottom_transform(trace.final), budget.depth), trace.exhausted_budget


def plain_value_tree_report(g: Scheme, policy: str, budget: EvalBudget):
    """The fast evaluator with its repeat search turned off on this instance
    only, so that it runs every step up to the budget: the tree, whether a
    budget ran out, the steps used and the evaluator."""
    ev = _Evaluator(g, g.start_term(), budget)
    ev._sample = lambda current: budget.max_steps + 1
    if policy == IO:
        ev.run_innermost()
    else:
        ev.run_outermost()
    return ev.extract(), ev.exhausted, ev.steps_used, ev


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
    step: the slow route that `derive`'s incremental rounds must agree with."""
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
    trace = DerivationTrace(g, t0, [info for _, info, _ in steps], term, exhausted)
    # Its steps are the ones this loop made, not a replay of its choices.
    trace._replayed = steps
    return trace


class EagerLabeling(Labeling):
    """The labeling tables that `Labeling` replaced: every copy of every
    non-terminal and variable is named with `fresh_name` against the
    terminals and all copies before it, and built, before any lookup.  The
    rest of the labeling is `Labeling`'s own."""

    def __init__(self, g: Scheme, analysis: Analysis | None = None):
        self.analysis = analysis if analysis is not None else Analysis(g)
        taken = set(g.terminals)
        self.nt_ann: dict = {}
        self.var_ann: dict = {}
        self.ann_of: dict = {}
        for table, syms, kind in (
            (self.nt_ann, g.nonterminals, NONTERMINAL),
            (self.var_ann, g.variables, VARIABLE),
        ):
            for sym in syms.values():
                plus = plus_type(sym.type)
                for idx, tup in enumerate(mask_tuples(sym.type)):
                    name = fresh_name(sym.name if not tup else f"{sym.name}#{idx}", taken)
                    taken.add(name)
                    annotated = Symbol(name, kind, plus)
                    table[(sym.name, tup)] = annotated
                    self.ann_of[name] = AnnotatedSymbol(annotated, sym, tup)


def reference_label_scheme(g: Scheme, analysis: Analysis | None = None) -> Scheme:
    """G' from the eager tables, declared in their registration order."""
    lab = EagerLabeling(g, analysis)
    rules = {}
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


# `\s` matches exactly the characters for which `str.isspace()` is true.
_tokenize = re.compile(r"[()]|[^\s()]+").findall

# The line endings that text-mode `open()` translates; other separators
# that `str.splitlines` honours are whitespace inside a line.
_split_lines = re.compile(r"\r\n|\r|\n").split


def reference_parse_term(tokens, line: int, lookup) -> Term:
    """The recursive descent that `scheme._parse_term` replaced: it rebuilds
    the growing application once per argument and recurses along the
    nesting.  `lookup` maps a name to its symbol or None."""
    pos = 0

    def atom() -> Term:
        nonlocal pos
        if pos >= len(tokens):
            raise SchemeParseError("term ended unexpectedly", line)
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            inner = app()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise SchemeParseError("missing ) in term", line)
            pos += 1
            return inner
        if tok in _RESERVED:
            raise SchemeParseError(f"unexpected {tok!r} in term", line)
        pos += 1
        sym = lookup(tok)
        if sym is None:
            raise SchemeParseError(f"undeclared symbol {tok!r}", line)
        return Term(sym)

    def app() -> Term:
        nonlocal pos
        t = atom()
        while pos < len(tokens) and tokens[pos] != ")":
            arg = atom()
            try:
                t = Term(t.head, t.args + (arg,))
            except ArityOrTypeMismatch as e:
                raise SchemeParseError(str(e), line) from e
        return t

    t = app()
    if pos != len(tokens):
        raise SchemeParseError(f"unexpected {tokens[pos]!r} after term", line)
    return t


def reference_parse(text: str) -> Scheme:
    """The reader that `parse` replaced: lines cut by a regex and tokenized
    by another, every declared type parsed on its own, every name looked up
    through the symbol tables, rule bodies read by `reference_parse_term`,
    and the result checked by `validate` afterwards.  `parse` must return
    an equal scheme or raise the same error."""
    terminals: dict[str, Symbol] = {}
    nonterminals: dict[str, Symbol] = {}
    variables: dict[str, Symbol] = {}
    rule_lines: list[tuple[int, list[str]]] = []
    start_name = None
    start_line = 0
    kinds = {"terminal": TERMINAL, "nonterminal": NONTERMINAL, "var": VARIABLE}
    tables = {TERMINAL: terminals, NONTERMINAL: nonterminals, VARIABLE: variables}
    for line_no, raw in enumerate(_split_lines(text), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("//"):
            continue
        tokens = _tokenize(stripped)
        head = tokens[0]
        if head in kinds:
            if len(tokens) < 4 or tokens[2] != ":":
                raise SchemeParseError(f"malformed {head} declaration", line_no)
            name = tokens[1]
            if name in _RESERVED:
                raise SchemeParseError(f"reserved word {name!r} used as name", line_no)
            ty = _TypeParser(tokens[3:], line_no).parse()
            try:
                sym = Symbol(name, kinds[head], ty)
            except ArityOrTypeMismatch as e:
                raise SchemeParseError(str(e), line_no) from e
            for other in (terminals, nonterminals, variables):
                if name in other:
                    raise SchemeParseError(f"duplicate declaration of {name}", line_no)
            tables[sym.kind][name] = sym
        elif head == "start":
            if len(tokens) != 2:
                raise SchemeParseError("malformed start declaration", line_no)
            if start_name is not None:
                raise SchemeParseError("duplicate start declaration", line_no)
            start_name, start_line = tokens[1], line_no
        elif head == "rule":
            rule_lines.append((line_no, tokens[1:]))
        else:
            raise SchemeParseError(f"unknown declaration {head!r}", line_no)
    if start_name is None:
        raise SchemeParseError("missing start declaration")
    if start_name not in nonterminals:
        raise SchemeParseError(f"start symbol {start_name} not declared", start_line)

    rules: dict[str, Rule] = {}
    for line_no, tokens in rule_lines:
        if "=" not in tokens:
            raise SchemeParseError("rule is missing =", line_no)
        eq = tokens.index("=")
        header, body_tokens = tokens[:eq], tokens[eq + 1 :]
        if not header:
            raise SchemeParseError("rule is missing its non-terminal", line_no)
        fname = header[0]
        if fname not in nonterminals:
            raise SchemeParseError(f"rule for undeclared non-terminal {fname}", line_no)
        if fname in rules:
            raise SchemeParseError(f"duplicate rule for {fname}", line_no)
        params = []
        for pname in header[1:]:
            if pname not in variables:
                raise SchemeParseError(f"undeclared parameter {pname}", line_no)
            params.append(variables[pname])
        param_map = {p.name: p for p in params}

        def lookup(name, _pm=param_map):
            if name in _pm:
                return _pm[name]
            return terminals.get(name) or nonterminals.get(name)

        body = reference_parse_term(body_tokens, line_no, lookup)
        rules[fname] = Rule(nonterminals[fname], tuple(params), body)
    g = Scheme(terminals, nonterminals, variables, rules, nonterminals[start_name])
    return g.check()


def substitute(t: Term, x: Symbol, s: Term) -> Term:
    """Replace every occurrence of the variable x in t by s."""
    if x.kind != VARIABLE:
        raise ArityOrTypeMismatch(f"{x.name} is not a variable")
    if s.type != x.type:
        raise ArityOrTypeMismatch(
            f"cannot substitute {term_to_str(s)} : {type_to_str(s.type)} "
            f"for {x.name} : {type_to_str(x.type)}"
        )
    return instantiate(t, {x.name: s})


# ---------------------------------------------------------------------------
# The analysis on objects


def initial_env(g: Scheme) -> Env:
    """The full assignment: every fitting atom for every non-terminal."""
    return Env({name: Conj(enum_atoms(f.type)) for name, f in g.nonterminals.items()})


def theta_star(g: Scheme) -> Env:
    """The greatest environment closed under the judgement rules."""
    return Analysis(g).env


def semantics(g: Scheme, t: Term, venv=None) -> Conj:
    """One-shot term semantics on `Conj` objects."""
    return Analysis(g).semantics(t, venv)


def atom_text(a: Atom) -> str:
    if isinstance(a, QBot):
        return "q⊥"
    if isinstance(a, QInf):
        return "q∞"
    assert isinstance(a, ArrowMap)
    return f"{conj_text(a.argument)} -> {atom_text(a.result)}"


def conj_text(c: Conj) -> str:
    return "{" + ", ".join(atom_text(a) for a in c) + "}"


def atom_json(a: Atom):
    if isinstance(a, QBot):
        return "q_bot"
    if isinstance(a, QInf):
        return "q_inf"
    assert isinstance(a, ArrowMap)
    return {"arg": [atom_json(x) for x in a.argument], "res": atom_json(a.result)}


def reference_analyze_output(g: Scheme) -> tuple[str, str]:
    """What `hors analyze` printed, as text and as structured output, when
    it decoded the fixpoint into `Conj` and `ArrowMap` objects: the route
    its output must stay byte-equal to."""
    analysis = Analysis(g)
    names = sorted(g.nonterminals)
    entries = analysis.env.entries
    text = "\n".join(f"{name} :: {conj_text(entries[name])}" for name in names) + "\n"
    payload = {
        "schema": "hors.analysis/1",
        "iterations": analysis.iterations,
        "nonterminals": {name: [atom_json(a) for a in entries[name]] for name in names},
    }
    return text, json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# The fixpoint by recursive walks: the route `Analysis` compiled away


def reference_chains(lay, k: int):
    """Every tuple of conjunction masks for the first k arguments of a
    layout, in the product order of `enum_conj`, with the index of its
    chain: the atom c1 -> .. -> ck -> a sits at that index plus a's index
    in the type left after k arguments."""
    if k == 0:
        yield (), 0
        return
    res_n = lay.result.n
    for ci, c in enumerate(lay.conjs):
        head = 1 + ci * res_n
        for rest, off in reference_chains(lay.result, k - 1):
            yield (c,) + rest, head + off


def reference_inf_chains(t, exact: bool):
    """The index of every chain s1 -> .. -> si -> q_inf of type t, with
    1 <= i <= arity, where some sj holds q_inf (is exactly {q_inf} when
    `exact`), and whether the chain takes every argument."""
    lay = layout(t)
    k = arity(t)
    args, cur = [], lay
    for _ in range(k):
        args.append(cur.argument)
        cur = cur.result
    for i in range(1, k + 1):
        tail = 1 if i == k else 0  # q_inf's index in the type left after i
        for masks, off in reference_chains(lay, i):
            if any((m == a.inf) if exact else (m & a.inf) for m, a in zip(masks, args)):
                yield off + tail, i == k


@lru_cache(maxsize=None)
def reference_terminal_mask(t) -> int:
    """(Sig) for a terminal of type t, closed under (ArrI), chain by chain."""
    lay = layout(t)
    return _mask_of((b for b, _ in reference_inf_chains(t, exact=True)), lay.n) | lay.arrow_inf


@lru_cache(maxsize=None)
def reference_argument_clauses(t) -> int:
    """Clauses (ii) and (iii) of the rule operator, chain by chain."""
    bits = []
    for b, full in reference_inf_chains(t, exact=False):
        bits.append(b)
        if full:
            bits.append(b - 1)
    return _mask_of(bits, layout(t).n)


class ReferenceWalker:
    """Bottom-up semantics over one environment of non-terminal masks, by a
    recursive walk that starts afresh for every term and binding."""

    def __init__(self, env, tables=None):
        self.env = env
        self.tables = {} if tables is None else tables

    def symbol(self, sym: Symbol, venv):
        """The semantics of a symbol with its layout: the (Sig) atoms of a
        terminal, or the symbol's entry closed under (ArrI)."""
        if sym.kind == TERMINAL:
            return reference_terminal_mask(sym.type), layout(sym.type)
        lay = layout(sym.type)
        if venv is not None and sym.name in venv:
            entry = venv[sym.name]
        else:
            entry = self.env.get(sym.name)
            if entry is None:
                raise UnboundSymbol(f"{sym.kind} {sym.name} is not in the environment")
        return entry | lay.arrow_inf, lay

    def apply(self, lay, fun: int, arg: int) -> int:
        key = (lay, fun)
        results = self.tables.get(key)
        if results is None:
            results = self.tables[key] = lay.results(fun)
        return results[arg]

    def walk(self, t: Term, venv=None, memo=None) -> int:
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


def reference_step(g: Scheme, walker: ReferenceWalker) -> dict:
    """One application of the rule operator, one walk per chain."""
    out = {}
    for name, f in g.nonterminals.items():
        rule = g.rules[name]
        lay = layout(f.type)
        params = [p.name for p in rule.params]
        bits = []
        for masks, off in reference_chains(lay, len(params)):
            body = walker.walk(rule.body, dict(zip(params, masks)))
            if body & 1:
                bits.append(off)
            if body & 2:
                bits.append(off + 1)
        out[name] = _mask_of(bits, lay.n) | reference_argument_clauses(f.type)
    return out


def reference_fixpoint(g: Scheme) -> tuple[dict, int]:
    """The greatest fixpoint by naive Kleene iteration from the full
    assignment, every rule walked in every step: (masks, iterations).  It
    refuses what `Analysis` refuses, with the same first error."""
    _require_rules(g)
    for name, f in g.nonterminals.items():
        n = atom_count(f.type)
        if n > MAX_ENTRY_ATOMS:
            raise AnalysisInfeasible(
                f"non-terminal {name} : {type_to_str(f.type)} has {n} atoms; "
                f"an entry of more than {MAX_ENTRY_ATOMS} atoms is not feasible"
            )
    tables: dict = {}
    masks = {name: layout(f.type).full for name, f in g.nonterminals.items()}
    iterations = 0
    while True:
        nxt = reference_step(g, ReferenceWalker(masks, tables))
        assert all(not nxt[name] & ~m for name, m in masks.items())
        if nxt == masks:
            return masks, iterations
        masks = nxt
        iterations += 1
