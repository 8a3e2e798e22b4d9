"""Semantic labeling, duplication and the self-correcting scheme."""

import itertools

from hors import (
    Analysis,
    AnalysisInfeasible,
    EvalBudget,
    Term,
    derive,
    label_scheme,
    parse,
    render,
    scheme_order,
    self_correct_report,
    validate,
    value_tree,
)
from hors.core import BOT, GROUND, arrow, term_to_str
from hors.io2oi import Labeling, mask_tuples, nbvar, plus_type, sigma_tuples
from hors.typesys import enum_conj

from conftest import applier_scheme, reference_prune, reference_self_correct, twice_scheme

O = GROUND
OO = arrow(O, O)


def test_nbvar_examples():
    assert nbvar(O) == 1
    assert nbvar(OO) == 4
    # 4 * 4 by exhaustive tuple generation
    brute = list(itertools.product(enum_conj(O), enum_conj(O)))
    assert nbvar(arrow(O, O, O)) == len(brute) == 16


def test_sigma_tuples_order_and_width():
    tuples = sigma_tuples(OO)
    assert len(tuples) == 4
    assert tuples == tuple((c,) for c in enum_conj(O))
    assert sigma_tuples(O) == ((),)


def test_plus_type_examples():
    assert plus_type(O) == O
    assert plus_type(OO) == OO
    got = plus_type(arrow(OO, O))
    assert got == arrow(OO, OO, OO, OO, O)
    # width comes from the four ground conjunctions


def test_plus_type_preserves_order():
    for t in (O, OO, arrow(O, O, O), arrow(OO, O), arrow(OO, O, O)):
        from hors.core import order

        assert order(plus_type(t)) == order(t)


def test_plus_term_duplicates_higher_order_argument():
    g = applier_scheme()
    an = Analysis(g)
    lab = Labeling(g, an)
    f, h = g.symbol("F"), g.symbol("H")
    fh = Term(f, (Term(h),))
    plus = lab.plus_term(fh, {}, ())
    # F^{sem(H)} applied to one copy of H per ground conjunction, in order
    sem_h = an.semantics(Term(h))
    f_tuples = sigma_tuples(f.type)
    assert plus.head == lab.nt_ann[(f.name, (an.semantics_mask(Term(h)),))]
    assert f_tuples.index((sem_h,)) == int(plus.head.name.split("#")[1])
    assert len(plus.args) == 4
    expected_copies = [lab.nt_ann[(h.name, tup)] for tup in mask_tuples(h.type)]
    assert [arg.head for arg in plus.args] == expected_copies
    assert plus.type == O


def test_plus_term_keeps_terminals_and_ground_symbols():
    g = applier_scheme()
    lab = Labeling(g)
    a, c, s = g.symbol("a"), g.symbol("c"), g.symbol("S")
    t = Term(a, (Term(c),))
    plus = lab.plus_term(t, {}, ())
    assert plus.head == a
    assert plus.args[0].head == c
    assert lab.plus_term(Term(s), {}, ()).head.name == "S"


def test_label_scheme_mini_golden(dropper):
    gp = label_scheme(dropper)
    assert validate(gp) == []
    assert len(gp.rules) == 6  # 4 F copies + S + H
    for idx in range(4):
        rule = gp.rules[f"F#{idx}"]
        assert len(rule.params) == 1
        assert term_to_str(rule.body) == "c"
    assert term_to_str(gp.rules["S"].body) == "F#2 H"
    assert term_to_str(gp.rules["H"].body) == "a H"
    assert gp.start.name == "S"


def test_self_correct_mini_golden(dropper):
    an = Analysis(dropper)
    gp = label_scheme(dropper, an)
    gpp, voided = reference_self_correct(gp, Labeling(dropper, an))
    assert validate(gpp) == []
    assert set(voided) == {"S", "F#2", "F#3"}
    assert term_to_str(gpp.rules["F#2"].body) == "Void"
    assert term_to_str(gpp.rules["F#3"].body) == "Void"
    assert term_to_str(gpp.rules["S"].body) == "Void"
    # untouched rules are identical to the labeled ones
    assert gpp.rules["F#0"] == gp.rules["F#0"]
    assert gpp.rules["F#1"] == gp.rules["F#1"]
    assert gpp.rules["H"] == gp.rules["H"]
    # Void -> Void present exactly once
    void_rules = [r for r in gpp.rules.values() if r.body.head.name == "Void"]
    assert {r.lhs.name for r in void_rules} == {"S", "F#2", "F#3", "Void"}
    assert gpp.rules["Void"].params == ()

    # Voiding S leaves every other copy dead, so only S is judged and emitted.
    live, report = self_correct_report(dropper, an)
    assert validate(live) == []
    assert report.voided_rules == ("S",)
    assert set(live.rules) == set(live.nonterminals) == {"S", "Void"}
    assert term_to_str(live.rules["S"].body) == "Void"
    assert term_to_str(live.rules["Void"].body) == "Void"
    assert set(report.unreachable) == set(gp.nonterminals) - {"S"}
    assert report.base_rules == 3
    assert report.labeled_rules == 6
    assert ("o", 1) in report.nbvar_table


def test_self_correct_report_matches_the_eager_reference(corpus, analysis_corpus):
    """The demand-driven correction is the reachable part of the eager one,
    byte for byte, and leaves out exactly its unreachable copies."""
    schemes = {id(g): g for g in corpus + analysis_corpus}.values()
    checked = 0
    for g in schemes:
        try:
            an = Analysis(g)
        except AnalysisInfeasible:
            continue
        gpp, voided = reference_self_correct(label_scheme(g, an), Labeling(g, an))
        pruned = reference_prune(gpp)
        live, report = self_correct_report(g, an)
        assert render(live) == render(pruned)
        assert report.unreachable == tuple(n for n in gpp.nonterminals if n not in pruned.nonterminals)
        assert report.voided_rules == tuple(n for n in voided if n in pruned.rules)
        assert report.labeled_rules == len(gpp.rules) - 1
        checked += 1
    assert checked >= 20


def _budget(depth=3):
    return EvalBudget(2_500, 100_000, depth)


def test_labeling_preserves_io_trees(separating, dropper):
    for g in (separating, dropper, twice_scheme(), applier_scheme()):
        gp = label_scheme(g)
        assert validate(gp) == []
        got = value_tree(gp, "io", _budget())
        want = value_tree(g, "io", _budget())
        assert got == want


def test_labeling_preserves_io_from_custom_start_terms(dropper):
    """Starting G' at the annotated image of t mirrors G started at t."""
    from hors import with_start

    g = applier_scheme()
    an = Analysis(g)
    gp = label_scheme(g, an)
    lab = Labeling(g, an)
    f, h, c = g.symbol("F"), g.symbol("H"), g.symbol("c")
    for t in (Term(f, (Term(h),)), Term(h, (Term(c),))):
        t_plus = lab.plus_term(t, {}, ())
        got = value_tree(with_start(gp, t_plus), "io", _budget())
        want = value_tree(with_start(g, t), "io", _budget())
        assert got == want, term_to_str(t)


def test_self_correction_aligns_all_policies(separating, dropper):
    for g in (separating, dropper, twice_scheme(), applier_scheme()):
        gpp, _ = self_correct_report(g)
        assert validate(gpp) == []
        io_g = value_tree(g, "io", _budget())
        oi_gpp = value_tree(gpp, "oi", _budget())
        io_gpp = value_tree(gpp, "io", _budget())
        assert oi_gpp == io_g
        assert io_gpp == io_g
        # The labeling keeps the order; the live part may drop the copies
        # that carry it.
        assert scheme_order(gpp) <= scheme_order(g) == scheme_order(label_scheme(g))


def test_self_correcting_separating_example(separating):
    # OI evaluation of the corrected scheme now computes bottom, like IO
    gpp, _ = self_correct_report(separating)
    assert value_tree(separating, "oi", _budget()) != BOT
    assert value_tree(gpp, "oi", _budget()) == BOT


def _strip(lab, t):
    """Remove annotations and collapse duplicated arguments."""
    head = t.head
    if head.kind == "terminal":
        return Term(head, tuple(_strip(lab, a) for a in t.args))
    info = lab.ann_of[head.name]
    base = info.base
    groups = []
    i = 0
    remaining = base.type
    from hors.core import argument_types

    for ty in argument_types(base.type)[: _base_arity_used(base, t, lab)]:
        width = nbvar(ty)
        group = t.args[i : i + width]
        i += width
        stripped = [_strip(lab, g) for g in group]
        assert all(s == stripped[0] for s in stripped), "copies must agree"
        groups.append(stripped[0])
    assert i == len(t.args)
    return Term(base, tuple(groups))


def _base_arity_used(base, t, lab):
    # how many base arguments the annotated application supplies
    from hors.core import argument_types

    used = 0
    total = 0
    for ty in argument_types(base.type):
        if total >= len(t.args):
            break
        total += nbvar(ty)
        used += 1
    return used


def test_base_recoverability_along_traces(dropper):
    g = dropper
    an = Analysis(g)
    gp = label_scheme(g, an)
    lab = Labeling(g, an)
    trace_p = derive(gp, gp.start_term(), "io", EvalBudget(12, 10_000, 5))
    trace_g = derive(g, g.start_term(), "io", EvalBudget(12, 10_000, 5))
    reachable = {term_to_str(t) for t in trace_g.terms}
    for t in trace_p.terms:
        assert term_to_str(_strip(lab, t)) in reachable


def test_bottom_positions_propagate_from_io_to_oi(separating, dropper):
    """Wherever the IO prefix of the corrected scheme is bottom, the
    unrestricted prefix is bottom too, even at a larger budget."""

    def bots(tree, path=()):
        if tree.label is None:
            yield path
        for i, child in enumerate(tree.children):
            yield from bots(child, path + (i + 1,))

    def node_at(tree, path):
        for i in path:
            if tree.label is None:
                return tree
            tree = tree.children[i - 1]
        return tree

    for g in (separating, dropper, twice_scheme()):
        gpp, _ = self_correct_report(g)
        io_tree = value_tree(gpp, "io", EvalBudget(2_500, 100_000, 3))
        oi_tree = value_tree(gpp, "oi", EvalBudget(5_000, 100_000, 3))
        for path in bots(io_tree):
            assert node_at(oi_tree, path).label is None


def test_report_counts_blowup():
    g = twice_scheme()
    _, report = self_correct_report(g)
    # Twice : (o -> o) -> o -> o contributes 512 * 4 annotated rules
    assert report.labeled_rules == 1 + 512 * 4 + 4
    assert report.base_rules == 3
    assert ("o -> o", 4) in report.nbvar_table


def test_labeled_scheme_survives_the_text_format(dropper):
    gp = label_scheme(dropper)
    gpp, _ = self_correct_report(dropper)
    for g in (gp, gpp):
        back = parse(render(g))
        assert validate(back) == []
        assert back == g
        assert value_tree(back, "oi", _budget()) == value_tree(g, "oi", _budget())
