"""Semantic labeling, duplication and the self-correcting scheme."""

import itertools

import pytest

from hors import (
    BOT,
    GROUND,
    Analysis,
    EvalBudget,
    Term,
    arrow,
    derive,
    enum_conj,
    label_scheme,
    nbvar,
    parse,
    plus_type,
    scheme_order,
    self_correct,
    self_correct_report,
    sigma_tuples,
    term_to_str,
    validate,
    value_tree,
)
from hors.io2oi import mask_tuples

from conftest import applier_scheme, twice_scheme

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
        from hors import order

        assert order(plus_type(t)) == order(t)


def test_plus_term_duplicates_higher_order_argument():
    g = applier_scheme()
    an = Analysis(g)
    gp = label_scheme(g, an)
    lab = gp.labeling
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
    gp = label_scheme(g)
    lab = gp.labeling
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
    gp = label_scheme(dropper)
    gpp, report = self_correct_report(gp)
    assert validate(gpp) == []
    assert set(report.voided_rules) == {"S", "F#2", "F#3"}
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
    assert report.base_rules == 3
    assert report.labeled_rules == 6
    assert ("o", 1) in report.nbvar_table


def test_self_correct_requires_labeling(dropper):
    from hors.io2oi import NotLabeled

    gp = label_scheme(dropper)
    plain = parse("terminal c : o\nnonterminal S : o\nstart S\nrule S = c\n")
    with pytest.raises(NotLabeled):
        self_correct(plain)  # only labeled schemes carry the analysis
    assert self_correct(gp) is not None


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
    gp = label_scheme(g)
    lab = gp.labeling
    f, h, c = g.symbol("F"), g.symbol("H"), g.symbol("c")
    for t in (Term(f, (Term(h),)), Term(h, (Term(c),))):
        t_plus = lab.plus_term(t, {}, ())
        got = value_tree(with_start(gp, t_plus), "io", _budget())
        want = value_tree(with_start(g, t), "io", _budget())
        assert got == want, term_to_str(t)


def test_self_correction_aligns_all_policies(separating, dropper):
    for g in (separating, dropper, twice_scheme(), applier_scheme()):
        gpp = self_correct(label_scheme(g))
        assert validate(gpp) == []
        io_g = value_tree(g, "io", _budget())
        oi_gpp = value_tree(gpp, "oi", _budget())
        io_gpp = value_tree(gpp, "io", _budget())
        assert oi_gpp == io_g
        assert io_gpp == io_g
        assert scheme_order(gpp) == scheme_order(g)


def test_self_correcting_separating_example(separating):
    # OI evaluation of the corrected scheme now computes bottom, like IO
    gpp = self_correct(label_scheme(separating))
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
    gp = label_scheme(g)
    lab = gp.labeling
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
        gpp = self_correct(label_scheme(g))
        io_tree = value_tree(gpp, "io", EvalBudget(2_500, 100_000, 3))
        oi_tree = value_tree(gpp, "oi", EvalBudget(5_000, 100_000, 3))
        for path in bots(io_tree):
            assert node_at(oi_tree, path).label is None


def test_report_counts_blowup():
    g = twice_scheme()
    gp = label_scheme(g)
    _, report = self_correct_report(gp)
    # Twice : (o -> o) -> o -> o contributes 512 * 4 annotated rules
    assert report.labeled_rules == 1 + 512 * 4 + 4
    assert report.base_rules == 3
    assert ("o -> o", 4) in report.nbvar_table


def test_labeled_scheme_survives_the_text_format(dropper):
    from hors import parse, render

    gp = label_scheme(dropper)
    gpp = self_correct(gp)
    for g in (gp, gpp):
        back = parse(render(g))
        assert validate(back) == []
        assert back == g
        assert value_tree(back, "oi", _budget()) == value_tree(g, "oi", _budget())
