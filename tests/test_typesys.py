"""The divergence type system: enumerations, judgements, the fixpoint."""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hors import (
    Analysis,
    AnalysisInfeasible,
    EvalBudget,
    Term,
    UnboundSymbol,
    bar_scheme,
    derive,
    judge,
    parse,
    sem_apply,
    value_tree_report,
    with_start,
)
from hors.core import (
    Arrow,
    BOT,
    GROUND,
    argument_types,
    arrow,
    nonterminal,
    terminal,
    variable,
)
from hors.scheme import Rule, Scheme
from hors.typesys import (
    MAX_ENTRY_ATOMS,
    ArrowMap,
    Conj,
    Env,
    Q_BOT,
    Q_INF,
    atom_count,
    conj,
    conj_masks,
    enum_atoms,
    enum_conj,
    _argument_clauses,
    _Compiler,
    _RuleProgram,
    _terminal_mask,
    layout,
    step_F,
)

from conftest import (
    _TERMINALS,
    SCHEMES_DIR,
    ReferenceWalker,
    _analysis_safe,
    _arg_types,
    _candidates,
    _var_for,
    applier_scheme,
    gen_scheme,
    initial_env,
    reference_argument_clauses,
    reference_fixpoint,
    reference_terminal_mask,
    semantics,
    theta_star,
    twice_scheme,
)

O = GROUND
OO = arrow(O, O)
CINF = conj(Q_INF)
ARROW_INF = ArrowMap(CINF, Q_INF)


# ---------------------------------------------------------------------------
# Enumeration


def test_enum_atoms_ground():
    assert enum_atoms(O) == (Q_BOT, Q_INF)


def test_enum_conj_ground_order():
    got = enum_conj(O)
    assert got == (conj(), conj(Q_BOT), conj(Q_INF), conj(Q_BOT, Q_INF))


def _brute_atoms(t):
    """Independent enumeration straight from the defining grammar."""
    if t == O:
        return {("bot",), ("inf",)}
    arg_conjs = set()
    arg_atoms = sorted(_brute_atoms(t.argument))
    for r in range(len(arg_atoms) + 1):
        for sub in itertools.combinations(arg_atoms, r):
            arg_conjs.add(frozenset(sub))
    out = {("inf",)}
    for c in arg_conjs:
        for res in _brute_atoms(t.result):
            out.add(("arrow", c, res))
    return out


def test_enum_atoms_count_cross_checked():
    assert len(enum_atoms(OO)) == 9 == len(_brute_atoms(OO))
    assert len(enum_atoms(arrow(O, O, O))) == len(_brute_atoms(arrow(O, O, O)))
    assert len(enum_conj(OO)) == 2 ** 9


def test_canonical_order():
    atoms = enum_atoms(OO)
    assert atoms[0] == Q_INF  # the only non-arrow atom of an arrow type
    keys = [a.key() for a in atoms]
    assert keys == sorted(keys)
    conjs = enum_conj(O)
    assert [len(c) for c in conjs] == [0, 1, 1, 2]


def test_enum_guard_rejects_huge_types(order3):
    with pytest.raises(AnalysisInfeasible):
        enum_conj(arrow(OO, O, O))
    with pytest.raises(AnalysisInfeasible):
        Analysis(order3)


def _types_with_arrows(k):
    """Every simple type built from o with exactly k arrows."""
    if k == 0:
        return [O]
    return [
        Arrow(a, r)
        for i in range(k)
        for a in _types_with_arrows(i)
        for r in _types_with_arrows(k - 1 - i)
    ]


def test_atom_count_matches_enumeration():
    for k in range(4):
        for t in _types_with_arrows(k):
            try:
                want = len(enum_atoms(t))
            except AnalysisInfeasible as e:
                with pytest.raises(AnalysisInfeasible) as got:
                    atom_count(t)
                assert str(got.value) == str(e)
            else:
                assert atom_count(t) == want


def test_entry_bound_admits_two_unary_function_parameters():
    assert atom_count(arrow(OO, OO, O)) == 524_801 <= MAX_ENTRY_ATOMS
    assert atom_count(arrow(OO, OO, OO, O)) == 268_698_113 > MAX_ENTRY_ATOMS


def test_barred_scheme_is_refused_before_enumeration(separating):
    barred = bar_scheme(separating)
    wide = arrow(OO, OO, O, O)
    assert wide in [f.type for f in barred.nonterminals.values()]
    enum_atoms.cache_clear()
    with pytest.raises(AnalysisInfeasible, match="no rule"):
        Analysis(barred)
    assert enum_atoms.cache_info().misses == 0  # not called on any type


LAYOUT_TYPES = [O, OO, arrow(O, O, O), arrow(OO, O), arrow(O, OO), arrow(OO, O, O)]


def test_layout_follows_the_canonical_order():
    for t in LAYOUT_TYPES:
        lay = layout(t)
        atoms = enum_atoms(t)
        assert lay.n == len(atoms)
        assert [lay.atom(i) for i in range(lay.n)] == list(atoms)
        assert [lay.index(a) for a in atoms] == list(range(lay.n))
        assert lay.decode(lay.full) == Conj(atoms)
        # bit order is `Conj` order, which `hors analyze` prints in
        assert list(Conj(atoms)) == list(atoms)
        assert lay.decode(lay.arrow_inf) == (conj(ARROW_INF) if isinstance(t, Arrow) else conj())
    for t in (O, OO):
        assert [layout(t).decode(m) for m in conj_masks(t)] == list(enum_conj(t))


def test_duplicates_collapse_in_conj():
    assert conj(Q_INF, Q_INF) == CINF
    assert len(conj(Q_BOT, Q_INF, Q_BOT)) == 2


# ---------------------------------------------------------------------------
# Judgements


def test_arrow_intro_holds_for_any_arrow_term(dropper):
    env = Env({})
    f = dropper.symbol("F")
    a = dropper.symbol("a")
    assert judge(env, Term(f), ARROW_INF)
    assert judge(env, Term(a), ARROW_INF)
    x = variable("g", OO)
    assert judge(Env({"g": conj()}), Term(x), ARROW_INF)


def test_sigma_rule_on_binary_terminal():
    b = terminal("b", arrow(O, O, O))
    env = Env({})
    assert judge(env, Term(b), ArrowMap(CINF, Q_INF))
    assert judge(env, Term(b), ArrowMap(CINF, ArrowMap(conj(), Q_INF)))
    assert judge(env, Term(b), ArrowMap(conj(), ArrowMap(CINF, Q_INF)))
    # no (Sig) instance without a q_inf slot, and never a q_bot result
    assert not judge(env, Term(b), ArrowMap(conj(), ArrowMap(conj(), Q_INF)))
    assert not judge(env, Term(b), ArrowMap(CINF, ArrowMap(conj(), Q_BOT)))


def test_at_rule_reads_environment():
    alpha = variable("alpha", O)
    env = Env({"alpha": conj(Q_BOT)})
    assert judge(env, Term(alpha), Q_BOT)
    assert not judge(env, Term(alpha), Q_INF)


def test_ground_terminal_judges_nothing():
    c = terminal("c", O)
    env = Env({})
    assert not judge(env, Term(c), Q_BOT)
    assert not judge(env, Term(c), Q_INF)
    assert judge(env, Term(c), conj())  # the empty conjunction via (Set)


def test_set_rule_conjunction(dropper):
    an = Analysis(dropper)
    h = dropper.symbol("H")
    assert judge(an.env, Term(h), conj(Q_INF))
    assert not judge(an.env, Term(h), conj(Q_BOT, Q_INF))


# ---------------------------------------------------------------------------
# sem_apply


def test_sem_apply_propagates_inf():
    fun = conj(Q_INF, ArrowMap(conj(), Q_BOT))
    out = sem_apply(fun, conj(), O)
    assert Q_INF in out and Q_BOT in out


def test_sem_apply_app_instance():
    fun = conj(ArrowMap(CINF, Q_BOT))
    assert Q_BOT in sem_apply(fun, CINF, O)
    assert Q_BOT not in sem_apply(fun, conj(Q_BOT), O)


def test_sem_apply_empty_function():
    assert sem_apply(conj(), conj(Q_BOT, Q_INF), O) == conj()


def test_sem_apply_closes_under_arrow_intro():
    out = sem_apply(conj(), conj(), OO)
    assert out == conj(ARROW_INF)


# ---------------------------------------------------------------------------
# The rule operator and the fixpoint


def test_step_F_clause_iii_mini(dropper):
    env0 = initial_env(dropper)
    out = step_F(dropper, env0)
    assert ArrowMap(CINF, Q_BOT) in out.entries["F"]
    assert ArrowMap(conj(Q_BOT, Q_INF), Q_BOT) in out.entries["F"]


def test_step_F_clause_ii_partial_atoms(separating):
    env0 = initial_env(separating)
    out = step_F(separating, env0)
    # F : o -> o -> o gets the partial atom  {q_inf} -> q_inf
    assert ArrowMap(CINF, Q_INF) in out.entries["F"]
    assert ArrowMap(conj(Q_BOT), Q_INF) not in out.entries["F"]


def test_step_F_monotone_descent(separating, dropper):
    for g in (separating, dropper):
        env = initial_env(g)
        for _ in range(4):
            nxt = step_F(g, env)
            for name in env:
                assert nxt.entries[name].issubset(env.entries[name])
            env = nxt


def test_theta_star_mini_exact(dropper):
    an = Analysis(dropper)
    assert an.env.entries["H"] == conj(Q_INF)
    assert an.env.entries["F"] == conj(
        ArrowMap(CINF, Q_BOT),
        ArrowMap(CINF, Q_INF),
        ArrowMap(conj(Q_BOT, Q_INF), Q_BOT),
        ArrowMap(conj(Q_BOT, Q_INF), Q_INF),
    )
    assert an.env.entries["S"] == conj(Q_BOT, Q_INF)


def test_theta_star_is_a_fixpoint(separating, dropper):
    for g in (separating, dropper, twice_scheme()):
        env = theta_star(g)
        assert step_F(g, env) == env


def test_theta_star_self_supporting_atoms(separating):
    # H x -> H (H x): divergence justifies itself at the greatest fixpoint
    env = theta_star(separating)
    assert ArrowMap(conj(), Q_BOT) in env.entries["H"]
    assert ArrowMap(conj(), Q_INF) in env.entries["H"]
    assert Q_BOT in env.entries["S"]
    assert Q_INF in env.entries["S"]


def test_iteration_bound(separating, dropper):
    for g in (separating, dropper, twice_scheme(), applier_scheme()):
        an = Analysis(g)
        assert an.iterations <= an.atom_bound


def test_entries_live_in_their_enumerations(separating, dropper):
    for g in (separating, dropper):
        env = theta_star(g)
        for name, c in env.entries.items():
            allowed = set(enum_atoms(g.nonterminals[name].type))
            assert set(c) <= allowed


def test_analysis_rejects_rule_less_schemes():
    g = parse(
        """
        terminal c : o
        nonterminal S : o
        nonterminal Stuck : o
        start S
        rule S = Stuck
        """
    )
    with pytest.raises(AnalysisInfeasible):
        Analysis(g)


# ---------------------------------------------------------------------------
# Term semantics


def test_semantics_of_mini_terms(dropper):
    an = Analysis(dropper)
    f, h, c, a = (dropper.symbol(n) for n in "FHca")
    fh = Term(f, (Term(h),))
    assert Q_BOT in an.semantics(fh)
    assert Q_INF in an.semantics(fh)
    assert an.semantics(Term(c)) == conj()
    assert an.semantics(Term(h)) == conj(Q_INF)
    assert Q_BOT not in an.semantics(Term(a, (Term(h),)))
    assert Q_INF in an.semantics(Term(a, (Term(h),)))
    fc = Term(f, (Term(c),))
    assert an.semantics(fc) == conj()


def test_semantics_unbound_variable(dropper):
    an = Analysis(dropper)
    x = dropper.symbol("x")
    with pytest.raises(UnboundSymbol):
        an.semantics(Term(x))
    assert an.semantics(Term(x), {"x": conj(Q_BOT)}) == conj(Q_BOT)


def test_semantics_resolves_each_symbol_by_its_own_type(dropper):
    """A variable named like one met before, with another type, is read
    at its own type."""
    an = Analysis(dropper)
    x = dropper.symbol("x")
    assert an.semantics_mask(Term(x), {"x": 1}) == 1
    f, c = variable("x", OO), dropper.symbol("c")
    assert an.semantics_mask(Term(f), {"x": 0}) == layout(OO).arrow_inf
    assert an.semantics_mask(Term(f, (Term(c),)), {"x": layout(OO).full}) == 0b11


def test_io_step_invariance(separating, dropper):
    for g in (separating, dropper):
        an = Analysis(g)
        trace = derive(g, g.start_term(), "io", EvalBudget(8, 10_000, 5))
        for before, _, after in trace.steps:
            assert an.semantics(before) == an.semantics(after)


def test_semantics_matches_judge_route(separating, dropper):
    """Dual route at small scale: bottom-up semantics vs goal-directed search."""
    for g in (separating, dropper):
        an = Analysis(g)
        c = g.symbol("c")
        h = g.symbol("H")
        f = g.symbol("F")
        sample = [Term(c), Term(f), Term(h)]
        if g is separating:
            a = g.symbol("a")
            sample += [Term(h, (Term(a),)), Term(f, (Term(h, (Term(a),)), Term(c)))]
        else:
            a = g.symbol("a")
            sample += [Term(f, (Term(h),)), Term(a, (Term(h),))]
        for t in sample:
            derivable = {th for th in enum_atoms(t.type) if judge(an.env, t, th)}
            assert Conj(derivable) == an.semantics(t), str(t)


def test_one_shot_semantics_helper(dropper):
    f = dropper.symbol("F")
    h = dropper.symbol("H")
    assert Q_BOT in semantics(dropper, Term(f, (Term(h),)))


# ---------------------------------------------------------------------------
# Witness property and the bounded engine oracle


def _witness_property_holds(g, env):
    for name, rule in g.rules.items():
        f = g.nonterminals[name]
        k = len(rule.params)
        judgable = list(env.entries[name]) + ([ARROW_INF] if k else [])
        for atom in judgable:
            sigmas = []
            cur = atom
            while isinstance(cur, ArrowMap):
                sigmas.append(cur.argument)
                cur = cur.result
            if not isinstance(cur, (type(Q_BOT), type(Q_INF))):
                return False
            if any(Q_INF in s for s in sigmas):
                continue
            if len(sigmas) != k:
                return False
            venv = {p.name: s for p, s in zip(rule.params, sigmas)}
            if not judge(env.extended(venv), rule.body, cur):
                return False
    return True


def test_witness_property_on_small_schemes(separating, dropper):
    for g in (separating, dropper, applier_scheme()):
        assert _witness_property_holds(g, theta_star(g))


def _io_oracle(g, t):
    """(tree is bottom, ran forever) for the term under fair IO evaluation.

    Bottomness comes from the value-tree prefix; infiniteness from an
    unpruned trace-producing derivation, which cannot settle early the way
    the depth-directed evaluator legitimately does.
    """
    gt = with_start(g, t)
    report = value_tree_report(gt, "io", EvalBudget(3_000, 60_000, 3))
    trace = derive(gt, gt.start_term(), "io", EvalBudget(400, 20_000, 3))
    return report.tree == BOT, trace.exhausted_budget


def test_divergence_states_match_engine_oracle(separating, dropper):
    cases = []
    f4, h4, c4, a4 = (dropper.symbol(n) for n in "FHca")
    cases += [
        (dropper, Term(h4), False, True),  # infinite spine, never bottom
        (dropper, Term(f4, (Term(h4),)), True, True),
        (dropper, Term(c4), False, False),
        (dropper, Term(f4, (Term(c4),)), False, False),
        (dropper, Term(a4, (Term(h4),)), False, True),
    ]
    f3, h3, c3, a3 = (separating.symbol(n) for n in "FHca")
    ha = Term(h3, (Term(a3),))
    cases += [
        (separating, ha, True, True),
        (separating, Term(f3, (ha, Term(c3))), True, True),
        (separating, Term(c3), False, False),
    ]
    analyses = {}
    for g, t, want_bot, want_inf in cases:
        an = analyses.setdefault(id(g), Analysis(g))
        sem = an.semantics(t)
        assert (Q_BOT in sem) == want_bot, str(t)
        assert (Q_INF in sem) == want_inf, str(t)
        got_bot, got_inf = _io_oracle(g, t)
        assert got_bot == want_bot, str(t)
        assert got_inf == want_inf, str(t)


# ---------------------------------------------------------------------------
# The mask core against the object route, on drawn inputs


@lru_cache(maxsize=None)
def _analysis(seed):
    return Analysis(gen_scheme(seed))


def _terms(g, target, depth=2):
    """Terms of the generator grammar over a scheme's symbols, variables
    included, of type `target`, at most `depth` applications deep."""
    symbols = [*g.terminals.values(), *g.nonterminals.values(), *g.variables.values()]
    cands = _candidates(symbols, target)
    if depth <= 0:
        cands = [cd for cd in cands if cd[1] == 0] or [min(cands, key=lambda cd: cd[1])]

    def build(cd):
        sym, j = cd
        arg_types = argument_types(sym.type)[:j]
        parts = [_terms(g, ty, depth - 1) for ty in arg_types]
        return st.tuples(*parts).map(lambda args: Term(sym, args))

    return st.sampled_from(cands).flatmap(build)


SAFE_SEEDS = [s for s in range(1, 41) if _analysis_safe(gen_scheme(s))]


@settings(max_examples=80)
@given(st.data())
def test_mask_semantics_matches_judge(data):
    """Terms of type o and o -> o, with free variables bound to drawn
    conjunctions, against the goal-directed search."""
    seed = data.draw(st.sampled_from(SAFE_SEEDS))
    g, an = gen_scheme(seed), _analysis(seed)
    t = data.draw(_terms(g, data.draw(st.sampled_from([O, OO]))))
    venv = {}
    for sym in g.variables.values():
        lay = layout(sym.type)
        venv[sym.name] = lay.decode(data.draw(st.integers(0, lay.full)))
    derivable = {th for th in enum_atoms(t.type) if judge(an.env.extended(venv), t, th)}
    assert an.semantics(t, venv) == Conj(derivable), str(t)


APPLY_TYPES = [OO, arrow(O, O, O), arrow(OO, O), arrow(OO, O, O)]


@settings(max_examples=200)
@given(st.data())
def test_tabulated_application_matches_sem_apply(data):
    t = data.draw(st.sampled_from(APPLY_TYPES))
    lay = layout(t)
    fun = data.draw(st.integers(0, lay.full))
    arg = data.draw(st.integers(0, lay.argument.full))
    want = sem_apply(lay.decode(fun), lay.argument.decode(arg), t.result)
    assert lay.result.decode(lay.results(fun)[arg]) == want


# ---------------------------------------------------------------------------
# The compiled fixpoint against the recursive walks it replaced


def _fixpoint_or_refusal(route, g):
    try:
        return route(g)
    except AnalysisInfeasible as e:
        return "refused", str(e)


def _compiled(g):
    an = Analysis(g)
    return an.masks, an.iterations


def test_fixpoint_matches_the_reference_on_the_corpus(analysis_corpus):
    """Equal masks and iteration counts, or the same refusal, on the
    analysis corpus, the example files and 60 generated schemes."""
    schemes = list(analysis_corpus)
    schemes += [parse(p.read_text(encoding="utf-8")) for p in sorted(SCHEMES_DIR.glob("*.hors"))]
    schemes += [gen_scheme(seed) for seed in range(1, 61)]
    refused = 0
    for g in schemes:
        got = _fixpoint_or_refusal(_compiled, g)
        assert got == _fixpoint_or_refusal(reference_fixpoint, g)
        refused += got[0] == "refused"
    assert refused == 1  # order3.hors


# Non-terminal types of the drawn schemes: the generator's, up to 4,609 atoms.
DRAWN_TYPES = [O, OO, arrow(O, O, O), arrow(OO, O), arrow(OO, O, O)]


def _drawn_term(symbols, target, depth):
    """Terms of type `target` over `symbols`.  An application whose two
    arguments have one type may take the same subterm object twice, as a
    shared subterm."""
    cands = _candidates(symbols, target)
    if depth <= 0:
        cands = [cd for cd in cands if cd[1] == 0] or [min(cands, key=lambda cd: cd[1])]

    def build(cd):
        sym, j = cd
        tys = argument_types(sym.type)[:j]
        parts = st.tuples(*[_drawn_term(symbols, ty, depth - 1) for ty in tys])
        if j == 2 and tys[0] == tys[1]:
            shared = _drawn_term(symbols, tys[0], depth - 1).map(lambda a: (a, a))
            parts = st.one_of(parts, shared)
        return parts.map(lambda args: Term(sym, args))

    return st.sampled_from(cands).flatmap(build)


@st.composite
def drawn_schemes(draw):
    """Schemes of up to four rules with bodies up to three applications deep:
    leaf bodies, parameters in head position, parameters that never occur,
    and shared subterms all come up."""
    nonterminals = {"S": nonterminal("S", O)}
    for i in range(draw(st.integers(1, 3))):
        nonterminals[f"N{i + 1}"] = nonterminal(f"N{i + 1}", draw(st.sampled_from(DRAWN_TYPES)))
    variables: dict = {}
    rules = {}
    for name, nt in nonterminals.items():
        params, counts = [], {}
        for ty in _arg_types(nt.type):
            idx = counts.get(repr(ty), 0)
            counts[repr(ty)] = idx + 1
            params.append(_var_for(variables, ty, idx))
        scope = [*_TERMINALS.values(), *nonterminals.values(), *params]
        body = draw(_drawn_term(scope, O, draw(st.integers(0, 3))))
        rules[name] = Rule(nt, tuple(params), body)
    return Scheme(dict(_TERMINALS), nonterminals, variables, rules, nonterminals["S"]).check()


@settings(max_examples=60)
@given(drawn_schemes())
def test_fixpoint_matches_the_reference_on_drawn_schemes(g):
    assert _compiled(g) == reference_fixpoint(g)


def _subterms(t):
    seen, stack = {}, [t]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.args)
    return list(seen.values())


def test_semantics_mask_matches_the_reference_walk(analysis_corpus):
    """Every subterm of every rule body, under three sampled bindings of
    its variables, against a recursive walk over the fixpoint."""
    rng = random.Random(5)
    schemes = list(analysis_corpus) + [gen_scheme(seed) for seed in range(18, 41)]
    checked = 0
    for g in schemes:
        an = Analysis(g)
        walker = ReferenceWalker(an.masks)
        for rule in g.rules.values():
            for sub in _subterms(rule.body):
                for _ in range(3):
                    venv = {
                        p.name: rng.randrange(layout(p.type).full + 1) for p in rule.params
                    }
                    assert an.semantics_mask(sub, venv) == walker.walk(sub, venv), str(sub)
                    checked += 1
    assert checked > 1000


def test_parameter_free_roots_and_unused_parameters():
    """A body root that reads no parameter sets every chain at once; a
    parameter that does not occur still spans its chains."""
    g = parse(
        """
        terminal a : o -> o
        terminal b : o -> o -> o
        terminal c : o
        nonterminal S : o
        nonterminal K : o -> o
        nonterminal P : (o -> o) -> o -> o
        nonterminal L : (o -> o) -> o -> o
        nonterminal D : o -> o
        nonterminal H : o -> o
        var f : o -> o
        var x : o
        start S
        rule S = L (P K) (D (K c))
        rule K x = b c c
        rule P f x = D (H c)
        rule L f x = f (b c (a c))
        rule D x = D x
        rule H x = a (H x)
        """
    )
    static = {name: _RuleProgram(g, name, _Compiler()).offsets is None for name in g.rules}
    assert static == {"S": True, "K": True, "P": True, "L": False, "D": False, "H": False}
    assert _compiled(g) == reference_fixpoint(g)
    an = Analysis(g)
    # P's root D (H c) reads no parameter and diverges: q_inf at every chain
    p = an.env.entries["P"]
    assert all(ArrowMap(s, ArrowMap(t, Q_INF)) in p for s in enum_conj(OO) for t in enum_conj(O))


CHAIN_TYPES = LAYOUT_TYPES + [
    arrow(O, O, O, O), arrow(O, O, O, O, O), arrow(OO, O, O, O), arrow(O, OO, O),
]


def test_chain_masks_match_the_chain_enumeration():
    for t in CHAIN_TYPES:
        assert _argument_clauses(t) == reference_argument_clauses(t), t
        if all(a == O for a in argument_types(t)):  # a terminal's type
            assert _terminal_mask(t) == reference_terminal_mask(t), t
