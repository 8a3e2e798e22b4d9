"""The wait-token transformation and its equivalence guarantees."""

import random
import sys

import pytest

from hors import (
    EvalBudget,
    PartialTree,
    Term,
    bar_scheme,
    derive,
    parse,
    redexes,
    render,
    scheme_order,
    validate,
    value_tree,
)
from hors.core import (
    Arrow,
    GROUND,
    arity,
    arrow,
    nonterminal,
    order,
    term_to_str,
    terminal,
    variable,
)
from hors.oi2io import bar_term, bar_type, make_bar_context
from hors.scheme import Rule, Scheme



O = GROUND
OO = arrow(O, O)


def test_bar_type_examples():
    assert bar_type(O) == OO
    assert bar_type(arrow(O, O, O)) == arrow(OO, OO, O, O)
    # mechanical unfolding of the two equations
    got = bar_type(arrow(OO, O, O))
    assert got == arrow(arrow(OO, OO), OO, O, O)
    assert order(got) == 3


def test_bar_type_raises_order_by_one():
    rng = random.Random(5)

    def random_type(depth):
        if depth == 0 or rng.random() < 0.4:
            return O
        return Arrow(random_type(depth - 1), random_type(depth - 1))

    for _ in range(200):
        t = random_type(4)
        assert order(bar_type(t)) == order(t) + 1
        assert arity(bar_type(t)) == arity(t) + 1


def test_bar_term_homomorphism(separating):
    ctx = make_bar_context(separating)
    f, h, a, c, x = (separating.symbol(n) for n in "FHacx")
    assert term_to_str(bar_term(ctx, Term(h, (Term(a),)))) == "H' a'"
    assert term_to_str(bar_term(ctx, Term(x))) == "x'"
    t = Term(f, (Term(h, (Term(a),)), Term(c)))
    assert term_to_str(bar_term(ctx, t)) == "F' (H' a') c'"
    assert bar_term(ctx, t).type == bar_type(t.type)


def test_bar_term_rejects_unmapped_symbols(separating, dropper):
    ctx = make_bar_context(separating)
    foreign = dropper.symbol("H")
    with pytest.raises(KeyError):
        bar_term(ctx, Term(foreign))


def test_bar_scheme_takes_bodies_deeper_than_the_recursion_limit():
    # S = a^1500 (F c) and F x = b x (a^1500 x), built with `Term`
    depth = 1_500
    a, b, c = terminal("a", arrow(O, O)), terminal("b", arrow(O, O, O)), terminal("c")
    s, f, x = nonterminal("S"), nonterminal("F", OO), variable("x")

    def nest(head, t):
        for _ in range(depth):
            t = Term(head, (t,))
        return t

    rules = {
        "S": Rule(s, (), nest(a, Term(f, (Term(c),)))),
        "F": Rule(f, (x,), Term(b, (Term(x), nest(a, Term(x))))),
    }
    g = Scheme({"a": a, "b": b, "c": c}, {"S": s, "F": f}, {"x": x}, rules, s).check()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)  # the interpreter's default
    try:
        gb = bar_scheme(g)
    finally:
        sys.setrecursionlimit(limit)
    ctx = make_bar_context(g)
    bar = ctx.symbol_map
    token = Term(ctx.token)
    want_s = nest(bar["a"], Term(bar["F"], (Term(bar["c"]),)))
    want_f = Term(bar["b"], (Term(bar["x"]), nest(bar["a"], Term(bar["x"]))))
    assert gb.rules["S'"].body == Term(want_s.head, want_s.args + (token,))
    assert gb.rules["F'"].body == Term(want_f.head, want_f.args + (token,))


def test_bar_scheme_golden(separating):
    gb = bar_scheme(separating)
    assert validate(gb) == []
    assert render(gb) == (
        "terminal a : o\n"
        "terminal c : o\n"
        "nonterminal Delta : o\n"
        "nonterminal F' : (o -> o) -> (o -> o) -> o -> o\n"
        "nonterminal H' : (o -> o) -> o -> o\n"
        "nonterminal I : o\n"
        "nonterminal S' : o -> o\n"
        "nonterminal a' : o -> o\n"
        "nonterminal c' : o -> o\n"
        "var delta : o\n"
        "var x' : o -> o\n"
        "var y' : o -> o\n"
        "start I\n"
        "rule F' x' y' delta = y' Delta\n"
        "rule H' x' delta = H' (H' x') Delta\n"
        "rule I = S' Delta\n"
        "rule S' delta = F' (H' a') c' Delta\n"
        "rule a' delta = a\n"
        "rule c' delta = c\n"
    )
    # exactly six rules; the wait token has none
    assert len(gb.rules) == 6
    assert "Delta" in gb.nonterminals and "Delta" not in gb.rules


def test_binary_terminal_rule_template():
    g = parse(
        """
        terminal b : o -> o -> o
        terminal c : o
        nonterminal S : o
        start S
        rule S = b c c
        """
    )
    gb = bar_scheme(g)
    rule = gb.rules["b'"]
    assert [p.name for p in rule.params] == ["eta1", "eta2", "delta"]
    assert term_to_str(rule.body) == "b (eta1 Delta) (eta2 Delta)"
    cb = gb.rules["c'"]
    assert [p.name for p in cb.params] == ["delta"]
    assert term_to_str(cb.body) == "c"


def test_bar_scheme_fresh_names_avoid_collisions(order3):
    gb = bar_scheme(order3)
    assert validate(gb) == []
    # order3 already declares a non-terminal I, whose barred copy takes I'
    assert gb.start.name == "I''"
    assert gb.nonterminals["I'"].type == bar_type(order3.nonterminals["I"].type)


def test_bar_four_step_derivation(separating):
    gb = bar_scheme(separating)
    for policy in ("unrestricted", "oi", "io"):
        trace = derive(gb, gb.start_term(), policy, EvalBudget(100, 10_000, 5))
        assert [term_to_str(t) for t in trace.terms] == [
            "I",
            "S' Delta",
            "F' (H' a') c' Delta",
            "c' Delta",
            "c",
        ]
        assert not trace.exhausted_budget


def test_every_barred_redex_is_oi_and_io(separating, dropper):
    for g in (separating, dropper):
        gb = bar_scheme(g)
        trace = derive(gb, gb.start_term(), "unrestricted", EvalBudget(300, 50_000, 5))
        for t in trace.terms:
            for info in redexes(gb, t):
                assert info.is_oi and info.is_io


def test_wait_token_only_in_last_argument_position(order3, separating):
    for g in (order3, separating):
        gb = bar_scheme(g)
        token = gb.nonterminals["Delta"]
        trace = derive(gb, gb.start_term(), "unrestricted", EvalBudget(200, 50_000, 4))
        for t in trace.terms:
            stack = [t]
            while stack:
                node = stack.pop()
                for i, arg in enumerate(node.args):
                    if arg.head == token:
                        assert i == len(node.args) - 1
                        assert node.head.kind == "nonterminal" or node.head.kind == "variable"
                    stack.append(arg)


def test_order_shift_on_corpus(corpus):
    for g in corpus:
        gb = bar_scheme(g)
        assert validate(gb) == []
        n = scheme_order(g)
        has_ranked_terminal = any(arity(a.type) >= 1 for a in g.terminals.values())
        expected = max(n + 1, 2 if has_ranked_terminal else 1)
        assert scheme_order(gb) == expected


def test_order_shift_plus_one_for_example_schemes(order3, separating, dropper):
    for g in (order3, separating, dropper):
        assert scheme_order(bar_scheme(g)) == scheme_order(g) + 1


def test_bar_value_trees_match_source(separating, dropper):
    gb3 = bar_scheme(separating)
    c = separating.symbol("c")
    assert value_tree(gb3, "io", EvalBudget(1000, 50_000, 5)) == PartialTree(c)
    gb4 = bar_scheme(dropper)
    a4, c4 = dropper.symbol("a"), dropper.symbol("c")
    assert value_tree(gb4, "io", EvalBudget(1000, 50_000, 5)) == PartialTree(c4)


def test_bar_io_matches_source_oi_on_order3(order3):
    gb = bar_scheme(order3)
    budget = EvalBudget(10_000, 100_000, 3)
    assert value_tree(gb, "io", budget) == value_tree(order3, "oi", budget)


def test_bar_context_invariants(order3):
    ctx = make_bar_context(order3)
    for name in order3.all_names():
        sym = order3.symbol(name)
        assert ctx.symbol_map[name].type == bar_type(sym.type)
    assert ctx.delta.type == O and ctx.delta.kind == "variable"
    assert ctx.token.type == O and ctx.token.kind == "nonterminal"
    assert ctx.start.type == O and ctx.start.kind == "nonterminal"
    assert len(ctx.etas) == 3  # the widest terminal takes three arguments
    assert all(eta.type == OO for eta in ctx.etas)
