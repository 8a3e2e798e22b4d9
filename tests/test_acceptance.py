"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import time

import pytest

from hors import (
    Analysis,
    EvalBudget,
    PartialTree,
    Term,
    bar_scheme,
    derive,
    judge,
    label_scheme,
    redexes,
    render,
    scheme_order,
    self_correct_report,
    sem_apply,
    value_tree,
    value_tree_report,
    with_start,
)
from hors.core import Arrow, BOT, GROUND, arrow, term_to_str
from hors.typesys import (
    ARROW_INF,
    ArrowMap,
    Conj,
    QBot,
    QInf,
    Q_BOT,
    Q_INF,
    enum_atoms,
    step_F,
)

from conftest import (
    CORPUS_SEEDS,
    gen_scheme,
    load_scheme,
    applier_scheme,
    twice_scheme,
)


def _report(n: int, detail: str) -> None:
    print(f"[acceptance] criterion {n}: PASS ({detail})")


_ANALYSES: dict[int, Analysis] = {}


def analysis_for(g) -> Analysis:
    """Analyses are expensive; schemes are cached, so share per object."""
    an = _ANALYSES.get(id(g))
    if an is None:
        an = Analysis(g)
        _ANALYSES[id(g)] = an
    return an


def _named_corpus():
    out = [("order3", load_scheme("order3.hors")), ("separating", load_scheme("separating.hors")),
           ("dropper", load_scheme("dropper.hors"))]
    out += [(f"gen{seed}", gen_scheme(seed)) for seed in CORPUS_SEEDS]
    return out


def _analysis_corpus():
    named = [("separating", load_scheme("separating.hors")), ("dropper", load_scheme("dropper.hors")),
             ("twice", twice_scheme()), ("applier", applier_scheme())]
    for seed in CORPUS_SEEDS:
        g = gen_scheme(seed)
        if all(
            all(t in (GROUND, arrow(GROUND, GROUND)) for t in _arg_types(nt.type))
            for nt in g.nonterminals.values()
        ):
            named.append((f"gen{seed}", g))
    return named


def _arg_types(t):
    out = []
    while isinstance(t, Arrow):
        out.append(t.argument)
        t = t.result
    return out


def _tree(label, *children):
    return PartialTree(label, tuple(children))


def test_criterion_1_order3_example_figure():
    g = load_scheme("order3.hors")
    start = time.monotonic()
    got = value_tree(g, "oi", EvalBudget(10_000, 100_000, 4))
    elapsed = time.monotonic() - start
    a, b, c = g.symbol("a"), g.symbol("b"), g.symbol("c")
    leaf = _tree(b, BOT, BOT)
    expected = _tree(
        a,
        _tree(b, _tree(b, leaf, leaf), _tree(b, leaf, leaf)),
        BOT,
        _tree(c),
    )
    assert got == expected
    assert elapsed < 5.0
    _report(1, f"figure prefix reproduced in {elapsed:.2f}s")


def test_criterion_2_separating_example_and_bar():
    g = load_scheme("separating.hors")
    start = time.monotonic()
    c = g.symbol("c")
    assert value_tree(g, "oi", EvalBudget(1_000, 100_000, 5)) == _tree(c)
    io_steps = value_tree_report(g, "io", EvalBudget(1_000, 100_000, 5))
    assert io_steps.tree == BOT and io_steps.exhausted
    io_cap = value_tree_report(g, "io", EvalBudget(100_000, 500, 5))
    assert io_cap.tree == BOT and io_cap.exhausted

    gb = bar_scheme(g)
    assert render(gb).splitlines()[-6:] == [
        "rule F' x' y' delta = y' Delta",
        "rule H' x' delta = H' (H' x') Delta",
        "rule I = S' Delta",
        "rule S' delta = F' (H' a') c' Delta",
        "rule a' delta = a",
        "rule c' delta = c",
    ]
    assert len(gb.rules) == 6

    for policy in ("unrestricted", "oi", "io"):
        trace = derive(gb, gb.start_term(), policy, EvalBudget(100, 10_000, 5))
        assert [term_to_str(t) for t in trace.terms] == [
            "I", "S' Delta", "F' (H' a') c' Delta", "c' Delta", "c",
        ]
    assert value_tree(gb, "io", EvalBudget(1_000, 100_000, 5)) == _tree(c)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(2, f"value trees, six bar rules and the 4-step trace in {elapsed:.2f}s")


def test_criterion_3_all_barred_redexes_oi_and_io():
    corpus = _named_corpus()
    assert len(corpus) >= 20
    budget = EvalBudget(500, 60_000, 5)
    checked = 0
    for name, g in corpus:
        gb = bar_scheme(g)
        traces = [derive(gb, gb.start_term(), "unrestricted", budget)]
        for seed in (1, 2):
            rng = random.Random(seed)
            traces.append(
                derive(
                    gb,
                    gb.start_term(),
                    "unrestricted",
                    budget,
                    chooser=lambda t, els, rng=rng: rng.choice(els),
                )
            )
        for trace in traces:
            for t in trace.terms:
                for info in redexes(gb, t):
                    assert info.is_oi and info.is_io, name
                    checked += 1
    assert checked > 0
    _report(3, f"{checked} redexes across {len(corpus)} barred schemes, zero violations")


def test_criterion_4_bar_preserves_value_tree():
    corpus = _named_corpus()
    skipped, compared = [], 0
    for name, g in corpus:
        gb = bar_scheme(g)
        lhs = value_tree_report(gb, "io", EvalBudget(10_000, 100_000, 3))
        rhs = value_tree_report(g, "oi", EvalBudget(2_500, 100_000, 3))
        if lhs.exhausted and rhs.exhausted:
            skipped.append(name)
            continue
        assert lhs.tree == rhs.tree, name
        compared += 1
    assert compared >= 10
    detail = f"{compared} schemes equal at depth 3"
    if skipped:
        detail += f"; skipped (both budgets hit): {', '.join(skipped)}"
    _report(4, detail)


HAND_TRUTH = {
    # scheme name -> list of (term builder, q_bot expected, q_inf expected)
    "dropper": [
        (lambda g: Term(g.symbol("S")), True, True),
        (lambda g: Term(g.symbol("H")), False, True),
        (lambda g: Term(g.symbol("F"), (Term(g.symbol("H")),)), True, True),
        (lambda g: Term(g.symbol("F"), (Term(g.symbol("c")),)), False, False),
        (lambda g: Term(g.symbol("a"), (Term(g.symbol("H")),)), False, True),
        (lambda g: Term(g.symbol("c")), False, False),
    ],
    "separating": [
        (lambda g: Term(g.symbol("S")), True, True),
        (lambda g: Term(g.symbol("H"), (Term(g.symbol("a")),)), True, True),
        (
            lambda g: Term(
                g.symbol("F"),
                (Term(g.symbol("H"), (Term(g.symbol("a")),)), Term(g.symbol("c"))),
            ),
            True,
            True,
        ),
        (
            lambda g: Term(g.symbol("F"), (Term(g.symbol("c")), Term(g.symbol("c")))),
            False,
            False,
        ),
        (lambda g: Term(g.symbol("c")), False, False),
    ],
    "twice": [(lambda g: Term(g.symbol("S")), False, False)],
    "applier": [(lambda g: Term(g.symbol("S")), False, True)],
}


def test_criterion_5_type_system_oracle():
    schemes = {
        "dropper": load_scheme("dropper.hors"),
        "separating": load_scheme("separating.hors"),
        "twice": twice_scheme(),
        "applier": applier_scheme(),
    }
    checked = 0
    for name, cases in HAND_TRUTH.items():
        g = schemes[name]
        an = analysis_for(g)
        for build, want_bot, want_inf in cases:
            t = build(g)
            sem = an.semantics(t)
            assert (Q_BOT in sem) == want_bot, (name, term_to_str(t))
            assert (Q_INF in sem) == want_inf, (name, term_to_str(t))
            report = value_tree_report(
                with_start(g, t), "io", EvalBudget(10_000, 200_000, 3)
            )
            assert (report.tree == BOT) == want_bot, (name, term_to_str(t))
            checked += 1
    _report(5, f"{checked} hand-verified terms, zero mismatches")


def test_criterion_6_fixpoint_sanity():
    worst = 0.0
    for name, g in _analysis_corpus():
        start = time.monotonic()
        an = Analysis(g)  # timed fresh: the criterion bounds the fixpoint run
        elapsed = time.monotonic() - start
        _ANALYSES[id(g)] = an
        worst = max(worst, elapsed)
        assert elapsed < 60.0, name
        assert an.iterations <= an.atom_bound, name
        assert step_F(g, an.env) == an.env, name
        _assert_witness_property(g, an.env)
    _report(6, f"fixpoints on {len(_analysis_corpus())} schemes, worst {worst:.2f}s")


def _assert_witness_property(g, env):
    for name, rule in g.rules.items():
        k = len(rule.params)
        judgable = list(env.entries[name]) + ([ARROW_INF] if k else [])
        for atom in judgable:
            sigmas, cur = [], atom
            while isinstance(cur, ArrowMap):
                sigmas.append(cur.argument)
                cur = cur.result
            assert isinstance(cur, (QBot, QInf)), name
            if any(Q_INF in s for s in sigmas):
                continue
            assert len(sigmas) == k, (name, atom)
            venv = {p.name: s for p, s in zip(rule.params, sigmas)}
            assert judge(env.extended(venv), rule.body, cur), (name, atom)


def test_criterion_7_self_correction_suite():
    equal, skipped = 0, []
    for name, g in _analysis_corpus():
        gp = label_scheme(g, analysis_for(g))
        gpp, _ = self_correct_report(g, analysis_for(g))
        # G' has the types of the full G'' but for the ground Void; the live
        # part of G'' may drop the copies that carry the order.
        assert scheme_order(gp) == scheme_order(g) >= scheme_order(gpp), name
        base = value_tree_report(g, "io", EvalBudget(2_000, 100_000, 3))
        labeled = value_tree_report(gp, "io", EvalBudget(8_000, 400_000, 3))
        oi_fixed = value_tree_report(gpp, "oi", EvalBudget(8_000, 400_000, 3))
        io_fixed = value_tree_report(gpp, "io", EvalBudget(8_000, 400_000, 3))
        assert labeled.tree == base.tree, name
        assert oi_fixed.tree == base.tree, name
        assert io_fixed.tree == base.tree, name
        equal += 1
    _report(7, f"labeling and correction preserve the IO tree on {equal} schemes at depth 3")


def test_criterion_8_compositionality():
    corpus = _analysis_corpus()
    rng = random.Random(99)
    analyses = [(name, g, analysis_for(g)) for name, g in corpus[:6]]
    checked = judged = 0
    for i in range(1000):
        name, g, an = analyses[i % len(analyses)]
        t = _random_application(rng, g)
        fun = Term(t.head, t.args[:-1])
        arg = t.args[-1]
        lhs = an.semantics(t)
        rhs = sem_apply(an.semantics(fun), an.semantics(arg), t.type)
        assert lhs == rhs, (name, term_to_str(t))
        checked += 1
        if i % 10 == 0 and t.type == GROUND:
            derivable = Conj(th for th in enum_atoms(t.type) if judge(an.env, t, th))
            assert derivable == lhs, (name, term_to_str(t))
            judged += 1
    assert checked == 1000
    _report(8, f"1000 applications compositional; {judged} re-checked by judgement search")


def _random_application(rng, g):
    symbols = list(g.terminals.values()) + list(g.nonterminals.values())

    def candidates(target):
        out = []
        for sym in symbols:
            remaining, j = sym.type, 0
            while True:
                if remaining == target:
                    out.append((sym, j))
                if not isinstance(remaining, Arrow):
                    break
                remaining, j = remaining.result, j + 1
        return out

    def gen(target, depth):
        cands = candidates(target)
        if depth <= 0:
            cands = [cd for cd in cands if cd[1] == 0] or cands
        sym, j = rng.choice(cands)
        args, remaining = [], sym.type
        for _ in range(j):
            args.append(gen(remaining.argument, depth - 1))
            remaining = remaining.result
        return Term(sym, tuple(args))

    # force a genuine application: head applied to at least one argument
    while True:
        target = GROUND if rng.random() < 0.7 else arrow(GROUND, GROUND)
        t = gen(target, rng.randint(1, 3))
        if t.args:
            return t
