"""Redex classification, derivations and value-tree prefixes."""

import random
import sys

import pytest

from hors import (
    EvalBudget,
    NotARedex,
    PartialTree,
    PolicyViolation,
    Term,
    derive,
    parse,
    redexes,
    step,
    value_tree,
    value_tree_report,
    with_start,
)
from hors.core import (
    BOT,
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
    tree_leq,
    variable,
)
from hors.engine import (
    _BEYOND,
    _INVIS,
    UNRESTRICTED,
    RedexInfo,
    _eligible,
    _Evaluator,
    _from_term,
    _instantiate,
    _MNode,
    _redex_tree,
    _rewrite,
    _subtree_size,
    _Template,
    _to_term,
)
from hors.oi2io import bar_scheme
from hors.scheme import Rule, Scheme

from conftest import (
    _candidates,
    _gen_term,
    gen_scheme,
    naive_value_tree,
    reference_derive,
    reference_redexes,
)

O = GROUND


def _t(g, name, *args):
    sym = g.symbol(name)
    return Term(sym, tuple(_x if isinstance(_x, Term) else _x for _x in args))


def small(steps=1000, size=50_000, depth=5):
    return EvalBudget(steps, size, depth)


# ---------------------------------------------------------------------------
# redexes


def test_redexes_of_separating_example(separating):
    f, h, a, c = (separating.symbol(n) for n in "FHac")
    t = Term(f, (Term(h, (Term(a),)), Term(c)))
    infos = redexes(separating, t)
    assert [(r.position, r.nonterminal.name) for r in infos] == [((), "F"), ((1,), "H")]
    root, inner = infos
    assert root.is_oi and not root.is_io
    assert inner.is_io and not inner.is_oi
    assert [r for r in infos if r.is_oi] == [root]
    assert [r for r in infos if r.is_io] == [inner]


def test_redexes_of_barred_term(separating):
    from hors import bar_scheme

    gb = bar_scheme(separating)
    fb, hb, ab, cb, token = (gb.symbol(n) for n in ("F'", "H'", "a'", "c'", "Delta"))
    t = Term(fb, (Term(hb, (Term(ab),)), Term(cb), Term(token)))
    infos = redexes(gb, t)
    assert len(infos) == 1
    assert infos[0].position == ()
    assert infos[0].is_oi and infos[0].is_io


def test_redexes_none_for_terminal_tree(order3):
    a, c = order3.symbol("a"), order3.symbol("c")
    t = Term(a, (Term(c), Term(c), Term(c)))
    assert redexes(order3, t) == []


# ---------------------------------------------------------------------------
# step


def test_step_start_rule(order3):
    t = step(order3, order3.start_term(), ())
    assert term_to_str(t) == "F H I c"


def test_step_inner_redex(order3):
    k, c = order3.symbol("K"), order3.symbol("c")
    t = Term(k, (Term(c),))
    t2 = step(order3, t, ())
    assert term_to_str(t2) == "K (K c)"


def test_step_rejects_non_redex(order3):
    a, c = order3.symbol("a"), order3.symbol("c")
    t = Term(a, (Term(c), Term(c), Term(c)))
    with pytest.raises(NotARedex):
        step(order3, t, (1,))


# ---------------------------------------------------------------------------
# derive


def test_io_derivation_never_produces_a_terminal(separating):
    trace = derive(separating, separating.start_term(), "io", EvalBudget(6, 10_000, 5))
    rendered = [term_to_str(t) for t in trace.terms]
    assert rendered[:4] == [
        "S",
        "F (H a) c",
        "F (H (H a)) c",
        "F (H (H (H a))) c",
    ]
    assert trace.exhausted_budget
    assert all(t.head.name == "F" for t in trace.terms[1:])


def test_oi_derivation_reaches_c_in_two_steps(separating):
    trace = derive(separating, separating.start_term(), "oi", small())
    rendered = [term_to_str(t) for t in trace.terms]
    assert rendered == ["S", "F (H a) c", "c"]
    assert not trace.exhausted_budget


def test_derivation_of_redex_free_term_is_empty(separating):
    c = separating.symbol("c")
    trace = derive(separating, Term(c), "oi", small())
    assert trace.steps == []
    assert not trace.exhausted_budget


def test_policy_soundness_of_recorded_steps(order3, separating):
    for g in (order3, separating):
        for policy, flag in (("oi", "is_oi"), ("io", "is_io")):
            trace = derive(g, g.start_term(), policy, EvalBudget(200, 20_000, 5))
            assert trace.steps
            assert all(getattr(info, flag) for _, info, _ in trace.steps)


def test_subject_reduction_and_monotone_prefixes(order3, separating):
    for g, policy in ((order3, "oi"), (order3, "io"), (separating, "io"), (separating, "oi")):
        trace = derive(g, g.start_term(), policy, EvalBudget(60, 20_000, 5))
        terms = trace.terms
        assert all(t.type == GROUND for t in terms)
        for before, after in zip(terms, terms[1:]):
            assert tree_leq(bottom_transform(before), bottom_transform(after))


def test_chooser_violation_raises(separating):
    bogus = RedexInfo((5, 5), separating.symbol("F"), True, True)
    with pytest.raises(PolicyViolation):
        derive(separating, separating.start_term(), "oi", small(), chooser=lambda t, els: bogus)


def test_chooser_none_stops(separating):
    trace = derive(separating, separating.start_term(), "oi", small(), chooser=lambda t, els: None)
    assert trace.steps == []


def test_chooser_receives_only_eligible(separating):
    seen = []

    def chooser(term, eligible):
        seen.append([r.position for r in eligible])
        return eligible[0]

    derive(separating, separating.start_term(), "io", EvalBudget(3, 10_000, 5), chooser=chooser)
    # after the start step the only IO redex is the innermost H chain
    assert seen[0] == [()]
    assert seen[1] == [(1,)]
    assert seen[2] == [(1, 1)]


def test_unfair_derivation_matches_displayed_steps(order3):
    """Always rewriting a K-redex reproduces the displayed derivation and
    converges to the tree  a ⊥ ⊥ ⊥, which is not the value tree."""

    def prefer_k(term, eligible):
        for info in eligible:
            if info.nonterminal.name == "K":
                return info
        return eligible[0]

    trace = derive(order3, order3.start_term(), "unrestricted",
                   EvalBudget(40, 50_000, 5), chooser=prefer_k)
    rendered = [term_to_str(t) for t in trace.terms]
    assert rendered[:6] == [
        "S",
        "F H I c",
        "H I c",
        "a (J c) (K c) (I c)",
        "a (J c) (K (K c)) (I c)",
        "a (J c) (K (K (K c))) (I c)",
    ]
    a = order3.symbol("a")
    limit = bottom_transform(trace.terms[-1])
    assert limit == PartialTree(a, (BOT, BOT, BOT))
    assert limit != value_tree(order3, "oi", EvalBudget(2_000, 50_000, 2))


def test_derive_is_deterministic(order3):
    a = derive(order3, order3.start_term(), "oi", EvalBudget(100, 20_000, 5))
    b = derive(order3, order3.start_term(), "oi", EvalBudget(100, 20_000, 5))
    assert [term_to_str(t) for t in a.terms] == [term_to_str(t) for t in b.terms]


def test_term_size_cap_stops_trace(separating):
    trace = derive(separating, separating.start_term(), "io", EvalBudget(10_000, 30, 5))
    assert trace.exhausted_budget
    assert all(t.size <= 40 for t in trace.terms)


# ---------------------------------------------------------------------------
# value trees


def test_value_tree_policies_separate(separating):
    c = separating.symbol("c")
    assert value_tree(separating, "oi", small()) == PartialTree(c)
    assert value_tree(separating, "io", small()) == BOT
    assert value_tree(separating, "unrestricted", small()) == PartialTree(c)


def test_value_tree_depth_two(order3):
    a, b, c = order3.symbol("a"), order3.symbol("b"), order3.symbol("c")
    got = value_tree(order3, "oi", EvalBudget(10_000, 100_000, 2))
    expected = PartialTree(
        a, (PartialTree(b, (BOT, BOT)), BOT, PartialTree(c))
    )
    assert got == expected


def test_value_tree_exact_for_finite_scheme():
    g = parse(
        """
        terminal a : o -> o -> o -> o
        terminal c : o
        nonterminal S : o
        start S
        rule S = a c c c
        """
    )
    a, c = g.symbol("a"), g.symbol("c")
    expected = PartialTree(a, (PartialTree(c), PartialTree(c), PartialTree(c)))
    for policy in ("oi", "io", "unrestricted"):
        report = value_tree_report(g, policy, small())
        assert report.tree == expected
        assert not report.exhausted


def test_budget_monotonicity(order3, separating):
    for g in (order3, separating):
        for policy in ("oi", "io"):
            prev = None
            for steps in (10, 100, 1000):
                tree = value_tree(g, policy, EvalBudget(steps, 100_000, 4))
                if prev is not None:
                    assert tree_leq(prev, tree)
                prev = tree


def test_io_below_oi_on_example_schemes(order3, separating, dropper):
    for g in (order3, separating, dropper):
        io_tree = value_tree(g, "io", EvalBudget(1500, 100_000, 4))
        oi_tree = value_tree(g, "oi", EvalBudget(10_000, 100_000, 4))
        assert tree_leq(io_tree, oi_tree)


def test_io_below_oi_on_corpus(corpus):
    for g in corpus:
        io_rep = value_tree_report(g, "io", EvalBudget(1500, 100_000, 3))
        oi_rep = value_tree_report(g, "oi", EvalBudget(10_000, 100_000, 3))
        if not oi_rep.exhausted:
            assert tree_leq(io_rep.tree, oi_rep.tree), render_name(g)


def render_name(g):
    return f"scheme with start {g.start.name} and rules {sorted(g.rules)}"


def test_fast_evaluator_matches_naive_oracle(corpus):
    """Dual route: the worklist evaluator against the trace-based deriver."""
    budget = EvalBudget(600, 20_000, 3)
    compared = 0
    for g in corpus:
        for policy in ("oi", "io"):
            fast = value_tree_report(g, policy, budget)
            if fast.exhausted:
                continue  # no exactness claim to check against
            naive_tree, naive_exhausted = naive_value_tree(g, policy, budget)
            if naive_exhausted:
                assert tree_leq(naive_tree, fast.tree), (render_name(g), policy)
            else:
                assert fast.tree == naive_tree, (render_name(g), policy)
            compared += 1
    assert compared >= 10


def test_value_tree_respects_size_cap(separating):
    report = value_tree_report(separating, "io", EvalBudget(100_000, 500, 4))
    assert report.exhausted
    assert report.tree == BOT


def test_deep_output_depth(order3):
    # the lazily grown b-tree supports much deeper prefixes than the default
    tree = value_tree(order3, "oi", EvalBudget(3_000, 200_000, 8))
    node = tree.children[0]
    for _ in range(6):
        assert node.label is not None and node.label.name == "b"
        node = node.children[0]


def test_budget_components_must_be_positive():
    with pytest.raises(ValueError):
        EvalBudget(0, 10, 5)
    with pytest.raises(ValueError):
        EvalBudget(10, 10, 0)
    with pytest.raises(ValueError):
        EvalBudget(10, -1, 5)


def test_terms_are_immutable(separating):
    t = separating.start_term()
    with pytest.raises(AttributeError):
        t.head = separating.symbol("c")


def test_value_tree_start_override(separating):
    f, h, a, c = (separating.symbol(n) for n in "FHac")
    t = Term(f, (Term(h, (Term(a),)), Term(c)))
    via_with_start = value_tree(with_start(separating, t), "oi", small())
    direct = value_tree_report(separating, "oi", small(), start=t).tree
    assert via_with_start == direct == PartialTree(c)


def test_trace_steps_replay_at_recorded_positions(order3, separating):
    for g, policy in ((order3, "oi"), (separating, "io")):
        trace = derive(g, g.start_term(), policy, EvalBudget(40, 20_000, 5))
        for before, info, after in trace.steps:
            assert step(g, before, info.position) == after


def test_innermost_completion_unlocks_ancestors():
    # inner regions finish and hand control back up a chain of waiting redexes
    g = parse(
        """
        terminal a : o -> o
        terminal b : o -> o -> o
        terminal c : o
        nonterminal S : o
        nonterminal F : o -> o
        nonterminal G : o -> o
        var x : o
        var y : o
        start S
        rule S = F (G (G c))
        rule G y = b y y
        rule F x = a x
        """
    )
    report = value_tree_report(g, "io", EvalBudget(100, 10_000, 5))
    assert not report.exhausted
    a, b, c = g.symbol("a"), g.symbol("b"), g.symbol("c")
    bcc = PartialTree(b, (PartialTree(c), PartialTree(c)))
    assert report.tree == PartialTree(a, (PartialTree(b, (bcc, bcc)),))
    naive, naive_exhausted = naive_value_tree(g, "io", EvalBudget(100, 10_000, 5))
    assert not naive_exhausted and naive == report.tree


def test_invisible_arguments_still_evaluate():
    # the argument is computed below a non-terminal head, then surfaces
    g = parse(
        """
        terminal b : o -> o -> o
        terminal c : o
        nonterminal S : o
        nonterminal F : o -> o
        nonterminal G : o -> o
        var x : o
        var y : o
        start S
        rule S = b c (F (G c))
        rule F x = x
        rule G y = b y y
        """
    )
    b, c = g.symbol("b"), g.symbol("c")
    got = value_tree(g, "io", EvalBudget(100, 10_000, 4))
    bcc = PartialTree(b, (PartialTree(c), PartialTree(c)))
    assert got == PartialTree(b, (PartialTree(c), bcc))


def test_io_dual_route_on_many_generated_schemes():
    budget = EvalBudget(250, 8_000, 3)
    compared = 0
    for seed in range(100, 160):
        g = gen_scheme(seed)
        fast = value_tree_report(g, "io", budget)
        if fast.exhausted:
            continue
        naive_tree, naive_exhausted = naive_value_tree(g, "io", budget)
        if naive_exhausted:
            # the unpruned deriver kept working below the horizon; its
            # partial prefix must still sit below the settled one
            assert tree_leq(naive_tree, fast.tree), seed
        else:
            assert naive_tree == fast.tree, seed
            compared += 1
    assert compared >= 15


def test_deep_prefix_needs_no_recursion():
    g = parse("terminal a : o -> o\nnonterminal S : o\nstart S\nrule S = a S\n")
    a = g.symbol("a")
    for policy in ("oi", "io"):
        report = value_tree_report(g, policy, EvalBudget(depth=3000))
        assert not report.exhausted
        node = report.tree
        for _ in range(3000):
            assert node.label == a
            (node,) = node.children
        assert node == BOT


# ---------------------------------------------------------------------------
# incremental bookkeeping against full rescans

POLICIES = ("oi", "io", "unrestricted")


def _trace_key(trace):
    """What two derivations must agree on: each step's redex with its flags,
    each result (by structural hash), the final term rendered, the verdict."""
    chosen = [
        (info.position, info.nonterminal, info.is_oi, info.is_io, hash(after))
        for _, info, after in trace.steps
    ]
    final = term_to_str(trace.final) if trace.steps else None
    return chosen, final, trace.exhausted_budget


def _assert_matches_reference(g, budget, label):
    for policy in POLICIES:
        got = derive(g, g.start_term(), policy, budget)
        want = reference_derive(g, g.start_term(), policy, budget)
        assert _trace_key(got) == _trace_key(want), (label, policy)


def test_derive_matches_full_rescans_on_corpus(corpus):
    for g in corpus:
        _assert_matches_reference(g, EvalBudget(600, 20_000, 3), render_name(g))


def test_derive_matches_full_rescans_on_generated_schemes():
    for seed in range(100, 160):
        _assert_matches_reference(gen_scheme(seed), EvalBudget(250, 8_000, 3), seed)


def test_derive_moves_duplicated_argument_redexes():
    # Outermost steps copy arguments that still hold redexes (`b y y`), and
    # complete a partial application with the body's arguments (`f (f ...)`).
    g = parse(
        """
        terminal a : o -> o
        terminal b : o -> o -> o
        terminal c : o
        nonterminal S : o
        nonterminal F : o -> o
        nonterminal G : o -> o
        nonterminal T : (o -> o) -> o -> o
        var x : o
        var y : o
        var f : o -> o
        start S
        rule S = b (F (G (G c))) (T G (F (G c)))
        rule F x = a x
        rule G y = b y y
        rule T f x = f (f (T f x))
        """
    )
    _assert_matches_reference(g, EvalBudget(200, 20_000, 3), "duplicating scheme")


def test_chooser_receives_the_rescanned_eligible_list(corpus):
    """Random picks leave the fair sweep's disjointness behind: every step
    the chooser must still see exactly what a full rescan finds."""
    budget = EvalBudget(150, 20_000, 3)
    for g in corpus:
        for policy in POLICIES:
            rng = random.Random(7)
            seen: dict = {}

            def pick(term, eligible):
                assert eligible == reference_redexes(g, term, policy, seen)
                if policy == "unrestricted":
                    assert redexes(g, term) == eligible
                return rng.choice(eligible)

            trace = derive(g, g.start_term(), policy, budget, chooser=pick)
            assert trace.steps, (render_name(g), policy)
            for before, info, after in trace.steps:
                assert step(g, before, info.position) == after


def _assert_nodes_fresh(g, root):
    """Every node's parent link and flags equal their values recomputed
    bottom-up."""
    order, stack = [], [root]
    while stack:
        n = stack.pop()
        order.append(n)
        for k in n.kids:
            assert k.parent is n
            stack.append(k)
    for n in reversed(order):
        redex = (
            n.sym.kind == NONTERMINAL
            and n.sym.name in g.rules
            and len(n.kids) == arity(n.sym.type)
        )
        assert n.redex == redex
        assert n.hot == (redex or any(k.hot for k in n.kids))


def _assert_marks_fresh(node, mark, horizon):
    """node's mark is `mark` and every mark below it equals its value
    recomputed top-down: invisible below a non-terminal head, beyond from
    the horizon on along an all-terminal path."""
    stack = [(node, mark)]
    while stack:
        n, vis = stack.pop()
        assert n.vis == vis, (n.sym, n.vis, vis)
        if vis == _BEYOND:
            below = _BEYOND
        elif vis == _INVIS or n.sym.kind != TERMINAL:
            below = _INVIS
        else:
            below = vis + 1 if vis + 1 < horizon else _BEYOND
        stack.extend((k, below) for k in n.kids)


def _assert_flags_fresh(g, ev):
    """The evaluator's flags, marks and running term size are current."""
    _assert_nodes_fresh(g, ev.root)
    _assert_marks_fresh(ev.root, 0, ev.depth)
    assert ev.size == _subtree_size(ev.root)


def test_evaluator_flags_match_recomputation(corpus):
    cases = []
    for depth in (1, 3, 5):
        cases += [(g, EvalBudget(600, 20_000, depth)) for g in corpus]
        cases += [(gen_scheme(s), EvalBudget(250, 8_000, depth)) for s in range(100, 160)]
    for g, budget in cases:
        for run in (_Evaluator.run_innermost, _Evaluator.run_outermost):
            ev = _Evaluator(g, g.start_term(), budget)
            run(ev)
            _assert_flags_fresh(g, ev)


# ---------------------------------------------------------------------------
# the in-place derivation


def test_final_term_equals_the_replayed_last_term(corpus):
    budget = EvalBudget(150, 20_000, 3)
    for g in corpus:
        for policy in POLICIES:
            rng = random.Random(3)
            for chooser in (None, lambda t, els: rng.choice(els)):
                trace = derive(g, g.start_term(), policy, budget, chooser=chooser)
                assert trace.start == g.start_term()
                assert len(trace.steps) == len(trace.chosen)
                assert [info for _, info, _ in trace.steps] == trace.chosen
                if trace.steps:
                    assert trace.final == trace.steps[-1][2] == trace.terms[-1]
                else:
                    assert trace.final == trace.start and trace.terms == []


def test_default_derivation_neither_rebuilds_spines_nor_replays(separating, order3, monkeypatch):
    def refuse(*args):
        raise AssertionError("replace_at called")

    monkeypatch.setattr("hors.engine.replace_at", refuse)
    for g in (separating, order3):
        for policy in POLICIES:
            trace = derive(g, g.start_term(), policy, EvalBudget(300, 20_000, 3))
            assert len(trace.steps) == len(trace.chosen) > 0
            assert bool(trace.steps)
    with pytest.raises(AssertionError, match="replace_at called"):
        trace.steps[0]


def test_io_chain_of_3000_steps_needs_no_recursion(separating):
    n = 3_000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)  # the interpreter's default
    try:
        trace = derive(separating, separating.start_term(), "io", EvalBudget(n, 100_000))
    finally:
        sys.setrecursionlimit(limit)
    assert trace.exhausted_budget and len(trace.steps) == n
    assert [info.position for info in trace.chosen] == [(1,) * i for i in range(n)]
    f, h, a, c = (separating.symbol(s) for s in "FHac")
    chain = Term(a)
    for _ in range(n):
        chain = Term(h, (chain,))
    assert trace.final == Term(f, (chain, Term(c)))


def test_shared_start_subterms_are_rewritten_apart():
    # the start term shares one redex between two positions; each position
    # is its own node, rewritten by its own step
    g = parse(
        """
        terminal a : o -> o
        terminal b : o -> o -> o
        terminal c : o
        nonterminal S : o
        nonterminal F : o -> o
        var x : o
        start S
        rule S = c
        rule F x = a x
        """
    )
    b, f, c = g.symbol("b"), g.symbol("F"), g.symbol("c")
    shared = Term(f, (Term(c),))
    start = Term(b, (shared, shared))
    for policy in POLICIES:
        trace = derive(g, start, policy, small())
        assert [info.position for info in trace.chosen] == [(1,), (2,)]
        assert term_to_str(trace.final) == "b (a c) (a c)"
        report = value_tree_report(g, policy, small(), start=start)
        assert report.steps_used == 2


def test_term_size_counts_copied_arguments():
    # every step copies the growing argument x, so the size cap is reached
    # after a dozen steps, and at the same step as the rescanning loop's
    g = parse(
        """
        terminal a : o -> o
        terminal b : o -> o -> o
        terminal c : o
        nonterminal S : o
        nonterminal F : o -> o
        var x : o
        start S
        rule S = F (a c)
        rule F x = b x (F (a x))
        """
    )
    budget = EvalBudget(40, 100, 3)
    for policy in POLICIES:
        got = derive(g, g.start_term(), policy, budget)
        assert got.exhausted_budget and len(got.steps) < 20, policy
        assert _trace_key(got) == _trace_key(reference_derive(g, g.start_term(), policy, budget))


# ---------------------------------------------------------------------------
# compiled rule templates


def _template_corpus(corpus):
    """The corpus, the generated dual-route schemes, a scheme with partial
    applications completed by the body, duplicated and unused parameters,
    and the barred image of each."""
    extra = parse(
        """
        terminal a : o -> o
        terminal b : o -> o -> o
        terminal c : o
        nonterminal S : o
        nonterminal F : o -> o
        nonterminal G : o -> o
        nonterminal K : o -> o -> o
        nonterminal T : (o -> o) -> o -> o
        var x : o
        var y : o
        var f : o -> o
        start S
        rule S = K (T G (F c)) (G c)
        rule F x = a x
        rule G y = b y y
        rule K x y = x
        rule T f x = f (f (T f x))
        """
    )
    schemes = list(corpus) + [gen_scheme(seed) for seed in range(100, 160)] + [extra]
    return schemes + [bar_scheme(g) for g in schemes]


def _arguments(g, rule, rng):
    """Closed argument terms for the rule's parameters, built from the
    scheme's symbols, with partial applications and redexes among them."""
    symbols = list(g.terminals.values()) + list(g.nonterminals.values())
    args = []
    for p in rule.params:
        if not _candidates(symbols, p.type):
            symbols.append(variable(f"free_{p.name}", p.type))
        args.append(_gen_term(rng, symbols, p.type, 2))
    return args


def _assert_static_hot(g, rule, tpl):
    """Each operation's static `hot` flag agrees with its body subterm: set
    when the subterm holds a redex, clear when it holds neither a redex nor
    a parameter, and left to run time (None) only when it holds a
    parameter."""
    params = {p.name for p in rule.params}
    post, stack = [], [(rule.body, False)]
    holds = {}  # id of a subterm -> (holds a parameter, holds a redex)
    while stack:
        t, expanded = stack.pop()
        if not expanded:
            stack.append((t, True))
            stack.extend((a, False) for a in reversed(t.args))
            continue
        post.append(t)
        param = t.head.kind == VARIABLE and t.head.name in params
        redex = t.head.kind == NONTERMINAL and t.head.name in g.rules
        redex = redex and len(t.args) == arity(t.head.type)
        kids = [holds[id(a)] for a in t.args]
        holds[id(t)] = (param or any(p for p, _ in kids), redex or any(r for _, r in kids))
    ops = tpl.ops + [tpl.root]
    assert len(ops) == len(post), rule
    for t, (param, _, _, _, hot, _, _) in zip(post, ops):
        has_param, has_redex = holds[id(t)]
        if param:
            assert hot is None, rule
        elif hot is None:
            assert has_param, (rule, t)
        else:
            assert hot == has_redex and (hot or not has_param), (rule, t)


def test_template_matches_instantiate_flags_and_size(corpus):
    rng = random.Random(5)
    checked = 0
    horizon = 3
    for g in _template_corpus(corpus):
        for rule in g.rules.values():
            tpl = _Template(g, rule.params, rule.body)
            _assert_static_hot(g, rule, tpl)
            for mark in (0, horizon - 1, _INVIS):
                args = _arguments(g, rule, rng)
                redex = Term(rule.lhs, tuple(args))
                want = instantiate(rule.body, {p.name: a for p, a in zip(rule.params, args)})
                # the instance: term, flags, marks, size change
                node = _MNode(rule.lhs, [_from_term(g, a) for a in args], vis=mark)
                _, delta = _instantiate(g, tpl, node, None, horizon)
                assert _to_term(node) == want, rule
                _assert_nodes_fresh(g, node)
                _assert_marks_fresh(node, mark, horizon)
                assert delta == want.size - redex.size, rule
                # the redex tree after `_rewrite` is the one a rescan finds
                top = _from_term(g, redex)
                root = _redex_tree(g, redex, top)
                new, delta = _rewrite(g, tpl, root.kids[0])
                assert _to_term(top) == want and delta == want.size - redex.size, rule
                found = _eligible(root, UNRESTRICTED)
                assert [info for _, info in found] == redexes(g, want), rule
                for r, info in found:
                    at = top
                    for i in info.position:
                        at = at.kids[i - 1]
                    assert r.node is at, (rule, info)
                checked += 1
    assert checked > 1_000


def test_deep_rule_bodies_need_no_recursion():
    # S = a^1500 (F c) and F x = b x (a^1500 x): a redex and a copied
    # argument at the bottom of bodies nested deeper than the recursion limit
    depth = 1_500
    o = GROUND
    a, b, c = terminal("a", arrow(o, o)), terminal("b", arrow(o, o, o)), terminal("c")
    s, f, x = nonterminal("S"), nonterminal("F", arrow(o, o)), variable("x")

    def nest(t):
        for _ in range(depth):
            t = Term(a, (t,))
        return t

    rules = {
        "S": Rule(s, (), nest(Term(f, (Term(c),)))),
        "F": Rule(f, (x,), Term(b, (Term(x), nest(Term(x))))),
    }
    g = Scheme({"a": a, "b": b, "c": c}, {"S": s, "F": f}, {"x": x}, rules, s).check()
    final = nest(Term(b, (Term(c), nest(Term(c)))))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)  # the interpreter's default
    try:
        reports = [value_tree_report(g, p, EvalBudget(depth=3_100)) for p in ("io", "oi")]
        traces = [derive(g, g.start_term(), p) for p in ("io", "oi", "unrestricted")]
    finally:
        sys.setrecursionlimit(limit)
    for report in reports:
        assert not report.exhausted and report.steps_used == 2
        assert report.tree == bottom_transform(final)
    for trace in traces:
        assert not trace.exhausted_budget
        assert [info.position for info in trace.chosen] == [(), (1,) * depth]
        assert trace.final == final
