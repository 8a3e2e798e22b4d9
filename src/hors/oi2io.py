"""Make every derivation innermost: the wait-token transformation.

Each symbol gets an extra ground argument appended to its type; a rewrite
only fires once the token `Delta` arrives in that slot, and the token is
handed out strictly from the outside in.  Inner work is frozen as a partial
application until its surroundings demand it, so every derivation of the
transformed scheme is simultaneously outermost and innermost, and its IO
value tree equals the source scheme's unrestricted value tree.  The order of
the scheme rises by one.

`Delta` itself is a rule-less non-terminal: it is an argument token only and
never a redex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    GROUND,
    NONTERMINAL,
    VARIABLE,
    Arrow,
    SimpleType,
    Symbol,
    Term,
    arity,
)
from .scheme import Rule, Scheme, fresh_name


def bar_type(t: SimpleType) -> SimpleType:
    """Append a ground wait slot: ground becomes o -> o, arrows map through."""
    if isinstance(t, Arrow):
        return Arrow(bar_type(t.argument), bar_type(t.result))
    return Arrow(GROUND, GROUND)


@dataclass(frozen=True)
class BarContext:
    """Symbol bookkeeping for one application of the transformation."""

    symbol_map: dict[str, Symbol]  # original name -> barred symbol
    etas: tuple[Symbol, ...]  # fresh o -> o variables, one per terminal slot
    delta: Symbol  # the bound wait parameter (variable, ground)
    token: Symbol  # the wait token Delta (rule-less non-terminal, ground)
    start: Symbol  # the fresh ground start symbol

    def bar(self, sym: Symbol) -> Symbol:
        mapped = self.symbol_map.get(sym.name)
        if mapped is None or bar_type(sym.type) != mapped.type:
            raise KeyError(f"symbol {sym.name} has no barred image")
        return mapped


def bar_term(ctx: BarContext, t: Term) -> Term:
    """Homomorphic image of a term under the barred symbol map, built
    bottom-up with an explicit stack: a body may be nested deeper than the
    recursion limit.  Heads are mapped in pre-order."""
    done: list[Term] = []  # built images, children before parents
    stack: list[tuple[Term, Symbol | None]] = [(t, None)]
    while stack:
        s, head = stack.pop()
        if head is not None:
            cut = len(done) - len(s.args)
            done[cut:] = [Term(head, done[cut:])]
            continue
        stack.append((s, ctx.bar(s.head)))
        stack.extend((a, None) for a in reversed(s.args))
    return done[0]


def make_bar_context(g: Scheme) -> BarContext:
    taken = g.all_names()
    symbol_map: dict[str, Symbol] = {}

    def make(sym: Symbol, kind: str) -> Symbol:
        name = fresh_name(sym.name + "'", taken)
        taken.add(name)
        barred = Symbol(name, kind, bar_type(sym.type))
        symbol_map[sym.name] = barred
        return barred

    for sym in g.variables.values():
        make(sym, VARIABLE)
    for sym in g.terminals.values():
        make(sym, NONTERMINAL)
    for sym in g.nonterminals.values():
        make(sym, NONTERMINAL)

    def fresh(base: str, kind: str, ty: SimpleType) -> Symbol:
        name = fresh_name(base, taken)
        taken.add(name)
        return Symbol(name, kind, ty)

    delta = fresh("delta", VARIABLE, GROUND)
    ar_max = max((arity(a.type) for a in g.terminals.values()), default=0)
    etas = tuple(
        fresh(f"eta{i}", VARIABLE, Arrow(GROUND, GROUND)) for i in range(1, ar_max + 1)
    )
    token = fresh("Delta", NONTERMINAL, GROUND)
    start = fresh("I", NONTERMINAL, GROUND)
    return BarContext(symbol_map, etas, delta, token, start)


def bar_scheme(g: Scheme) -> Scheme:
    """Transform so that IO derivations compute the unrestricted value tree.

    Rules:
      - each source rule  F x1..xk -> e   becomes  F' x1'..xk' delta -> e' Delta
      - each terminal a of arity k gets   a' eta1..etak delta ->
                                               a (eta1 Delta) .. (etak Delta)
      - a fresh ground start with         I -> S' Delta
      - Delta gets no rule at all.
    """
    ctx = make_bar_context(g)
    token_term = Term(ctx.token)

    variables: dict[str, Symbol] = {}
    for sym in g.variables.values():
        barred = ctx.symbol_map[sym.name]
        variables[barred.name] = barred
    for eta in ctx.etas:
        variables[eta.name] = eta
    variables[ctx.delta.name] = ctx.delta

    nonterminals: dict[str, Symbol] = {}
    rules: dict[str, Rule] = {}

    nonterminals[ctx.start.name] = ctx.start
    nonterminals[ctx.token.name] = ctx.token

    for a in g.terminals.values():
        abar = ctx.symbol_map[a.name]
        nonterminals[abar.name] = abar
        k = arity(a.type)
        params = ctx.etas[:k] + (ctx.delta,)
        body = Term(a, tuple(Term(eta, (token_term,)) for eta in ctx.etas[:k]))
        rules[abar.name] = Rule(abar, params, body)

    for f in g.nonterminals.values():
        fbar = ctx.symbol_map[f.name]
        nonterminals[fbar.name] = fbar
        rule = g.rules.get(f.name)
        if rule is None:
            continue  # rule-less tokens stay rule-less
        params = tuple(ctx.symbol_map[p.name] for p in rule.params) + (ctx.delta,)
        barred_body = bar_term(ctx, rule.body)
        body = Term(barred_body.head, barred_body.args + (token_term,))
        rules[fbar.name] = Rule(fbar, params, body)

    sbar = ctx.symbol_map[g.start.name]
    rules[ctx.start.name] = Rule(ctx.start, (), Term(sbar, (token_term,)))

    return Scheme(dict(g.terminals), nonterminals, variables, rules, ctx.start)
