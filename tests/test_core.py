"""Types, terms, the bottom-transformation and the tree order."""

import random

import pytest

from hors import (
    ArityOrTypeMismatch,
    IncompatibleLabels,
    InvalidPosition,
    PartialTree,
    Term,
)
from hors.core import (
    Arrow,
    BOT,
    GROUND,
    arity,
    arrow,
    bottom_transform,
    nonterminal,
    order,
    positions,
    replace_at,
    substitute,
    subterm_at,
    term_to_str,
    terminal,
    tree_leq,
    tree_lub,
    tree_to_str,
    truncate,
    type_of,
    type_to_str,
    variable,
)

O = GROUND
OO = arrow(O, O)


# ---------------------------------------------------------------------------
# Types


def test_order_examples():
    assert order(O) == 0
    assert order(arrow(O, O, O, O)) == 1
    assert order(arrow(OO, O, O)) == 2


def test_arity_examples():
    assert arity(O) == 0
    assert arity(arrow(O, O, O, O)) == 3
    assert arity(arrow(OO, O, O)) == 2


def _order_oracle(t):
    if t == O:
        return 0
    return max(_order_oracle(t.argument) + 1, _order_oracle(t.result))


def _arity_oracle(t):
    k = 0
    while isinstance(t, Arrow):
        k += 1
        t = t.result
    return k


def _random_type(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return O
    return Arrow(_random_type(rng, depth - 1), _random_type(rng, depth - 1))


def test_order_arity_against_oracle():
    rng = random.Random(7)
    for _ in range(300):
        t = _random_type(rng, 4)
        assert order(t) == _order_oracle(t)
        assert arity(t) == _arity_oracle(t)


def test_type_rendering_right_associative():
    assert type_to_str(arrow(O, O, O)) == "o -> o -> o"
    assert type_to_str(arrow(OO, O, O)) == "(o -> o) -> o -> o"
    assert type_to_str(Arrow(Arrow(OO, OO), OO)) == "((o -> o) -> o -> o) -> o -> o"


# ---------------------------------------------------------------------------
# Terms: the preliminaries signature F, G, H, a

F = nonterminal("F", arrow(OO, O, O))
G = nonterminal("G", arrow(O, O, O))
H = nonterminal("H", OO)
A = terminal("a", O)


def test_type_of_well_typed_applications():
    fh = Term(F, (Term(H),))
    ga = Term(G, (Term(A),))
    assert type_of(fh) == OO
    assert type_of(ga) == OO
    full = Term(F, (Term(G, (Term(A),)), Term(H, (Term(H, (Term(A),)),))))
    assert type_of(full) == O


def test_ill_typed_application_rejected():
    with pytest.raises(ArityOrTypeMismatch) as err:
        Term(F, (Term(A),))
    assert err.value.position == (1,)


def test_over_application_rejected():
    with pytest.raises(ArityOrTypeMismatch):
        Term(H, (Term(A), Term(A)))


def test_type_of_lone_terminal():
    c = terminal("c", O)
    assert type_of(Term(c)) == O


def test_unique_readability_round_trip():
    rng = random.Random(21)
    symbols = [F, G, H, A]
    for _ in range(200):
        t = _random_term(rng, O, 3)
        rebuilt = Term(t.head, t.args)
        assert rebuilt == t
        assert term_to_str(rebuilt) == term_to_str(t)


def _random_term(rng, target, depth):
    cands = []
    for sym in (F, G, H, A):
        remaining = sym.type
        j = 0
        while True:
            if remaining == target:
                cands.append((sym, j))
            if not isinstance(remaining, Arrow):
                break
            remaining = remaining.result
            j += 1
    if depth <= 0:
        cands = [cd for cd in cands if cd[1] == 0] or cands
    sym, j = rng.choice(cands)
    args = []
    remaining = sym.type
    for _ in range(j):
        args.append(_random_term(rng, remaining.argument, depth - 1))
        remaining = remaining.result
    return Term(sym, tuple(args))


# ---------------------------------------------------------------------------
# Substitution and positions


def test_substitution_fills_context():
    # C[bullet] = F bullet (H (H a)) and the plug G a
    bullet = variable("bullet", OO)
    ctx = Term(F, (Term(bullet), Term(H, (Term(H, (Term(A),)),))))
    plugged = substitute(ctx, bullet, Term(G, (Term(A),)))
    assert term_to_str(plugged) == "F (G a) (H (H a))"


def test_substitution_no_occurrence():
    x = variable("x", O)
    t = Term(G, (Term(A), Term(A)))
    assert substitute(t, x, Term(A)) == t


def test_substitution_identity_context():
    x = variable("x", O)
    s = Term(G, (Term(A), Term(A)))
    assert substitute(Term(x), x, s) == s


def test_substitution_type_mismatch():
    x = variable("x", O)
    with pytest.raises(ArityOrTypeMismatch):
        substitute(Term(x), x, Term(H))


def test_substitution_requires_a_variable():
    with pytest.raises(ArityOrTypeMismatch):
        substitute(Term(A), A, Term(A))


def _subterm_oracle(t, position):
    """Independent structural walk."""
    if not position:
        return t
    return _subterm_oracle(t.args[position[0] - 1], position[1:])


def _replace_oracle(t, position, s):
    if not position:
        return s
    i = position[0]
    args = list(t.args)
    args[i - 1] = _replace_oracle(args[i - 1], position[1:], s)
    return Term(t.head, tuple(args))


def test_subterm_at_direct():
    c = terminal("c", O)
    f2 = nonterminal("F2", arrow(O, O, O))
    h1 = nonterminal("H1", OO)
    t = Term(f2, (Term(h1, (Term(A),)), Term(c)))
    assert subterm_at(t, (1,)) == Term(h1, (Term(A),))
    assert subterm_at(t, ()) == t
    with pytest.raises(InvalidPosition):
        subterm_at(t, (3,))


def test_replace_at_matches_oracle():
    c = terminal("c", O)
    f2 = nonterminal("F2", arrow(O, O, O))
    h1 = nonterminal("H1", OO)
    t = Term(f2, (Term(h1, (Term(A),)), Term(c)))
    s = Term(h1, (Term(h1, (Term(A),)),))
    assert replace_at(t, (1,), s) == _replace_oracle(t, (1,), s)
    assert term_to_str(replace_at(t, (1,), s)) == "F2 (H1 (H1 a)) c"
    assert replace_at(t, (), Term(c)) == Term(c)
    rng = random.Random(3)
    for _ in range(100):
        t = _random_term(rng, O, 3)
        ps = list(positions(t))
        p = rng.choice(ps)
        sub = subterm_at(t, p)
        assert sub == _subterm_oracle(t, p)
        assert replace_at(t, p, sub) == t


def test_replace_at_type_mismatch():
    c = terminal("c", O)
    f2 = nonterminal("F2", arrow(O, O, O))
    t = Term(f2, (Term(c), Term(c)))
    with pytest.raises(ArityOrTypeMismatch):
        replace_at(t, (1,), Term(H))


# ---------------------------------------------------------------------------
# Bottom transformation


def _tree(label, *children):
    return PartialTree(label, tuple(children))


def test_bottom_transform_nonterminal_head():
    k = nonterminal("K", OO)
    c = terminal("c", O)
    t = Term(k, (Term(k, (Term(c),)),))
    assert bottom_transform(t) == BOT


def test_bottom_transform_mixed():
    a3 = terminal("a", arrow(O, O, O, O))
    j = nonterminal("J", OO)
    k = nonterminal("K", OO)
    i = nonterminal("I", OO)
    c = terminal("c", O)
    t = Term(a3, (Term(j, (Term(c),)), Term(k, (Term(c),)), Term(i, (Term(c),))))
    got = bottom_transform(t)
    assert got == _tree(a3, BOT, BOT, BOT)
    _assert_ranked(got)


def _assert_ranked(tree):
    if tree.label is None:
        assert tree.children == ()
    else:
        assert len(tree.children) == arity(tree.label.type)
        for child in tree.children:
            _assert_ranked(child)


def test_bottom_transform_pure_terminals():
    a3 = terminal("a", arrow(O, O, O, O))
    c = terminal("c", O)
    t = Term(a3, (Term(c), Term(c), Term(c)))
    expected = _tree(a3, _tree(c), _tree(c), _tree(c))
    assert bottom_transform(t) == expected


def test_bottom_transform_requires_ground():
    with pytest.raises(ArityOrTypeMismatch):
        bottom_transform(Term(H))


def test_bottom_transform_deep_term():
    # deeper than the default recursion limit
    k = nonterminal("K", OO)
    c = terminal("c", O)
    t = Term(c)
    for _ in range(5000):
        t = Term(k, (t,))
    assert bottom_transform(t) == BOT


def test_partial_tree_arity_invariant():
    b = terminal("b", arrow(O, O, O))
    with pytest.raises(ValueError):
        PartialTree(b, (BOT,))
    with pytest.raises(ValueError):
        PartialTree(None, (BOT,))


# ---------------------------------------------------------------------------
# The prefix order and least upper bounds

B2 = terminal("b2", arrow(O, O, O))
A3 = terminal("a3", arrow(O, O, O, O))
C0 = terminal("c0", O)
BP = terminal("b'", O)
A1 = terminal("a1", OO)
DEEP = 3000  # deeper than the recursion limit


def _chain(depth, leaf=BOT):
    """The unary tree a1 (a1 (... leaf)) with `depth` a1 nodes."""
    t = leaf
    for _ in range(depth):
        t = _tree(A1, t)
    return t


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return BOT if rng.random() < 0.5 else _tree(C0)
    label = rng.choice([B2, A3])
    return _tree(label, *(_random_tree(rng, depth - 1) for _ in range(arity(label.type))))


def test_tree_leq_examples():
    rng = random.Random(11)
    for _ in range(50):
        t = _random_tree(rng, 3)
        assert tree_leq(BOT, t)
        assert tree_leq(t, t)
    low = _tree(A3, BOT, _tree(C0), BOT)
    high = _tree(A3, _tree(C0), _tree(C0), BOT)
    assert tree_leq(low, high)
    assert not tree_leq(high, low)


def test_tree_leq_is_partial_order():
    rng = random.Random(13)
    trees = [_random_tree(rng, 3) for _ in range(40)]
    for x in trees:
        assert tree_leq(x, x)
    for x in trees:
        for y in trees:
            if tree_leq(x, y) and tree_leq(y, x):
                assert x == y
            for z in trees:
                if tree_leq(x, y) and tree_leq(y, z):
                    assert tree_leq(x, z)


def test_tree_lub_examples():
    assert tree_lub([BOT, _tree(C0)]) == _tree(C0)
    left = _tree(A3, BOT, _tree(C0), BOT)
    right = _tree(A3, _tree(BP), BOT, BOT)
    assert tree_lub([left, right]) == _tree(A3, _tree(BP), _tree(C0), BOT)
    with pytest.raises(IncompatibleLabels) as err:
        tree_lub([_tree(C0), _tree(BP)])
    assert err.value.path == ()
    with pytest.raises(IncompatibleLabels) as err:
        tree_lub([left, _tree(A3, BOT, _tree(BP), BOT)])
    assert err.value.path == (2,)
    assert "at path 2" in str(err.value)
    deep = _chain(DEEP, _tree(C0))
    assert tree_to_str(tree_lub([_chain(DEEP), deep, _chain(DEEP // 2)])) == tree_to_str(deep)
    with pytest.raises(IncompatibleLabels) as err:
        tree_lub([deep, _chain(DEEP, _tree(BP))])
    assert err.value.path == (1,) * DEEP


def test_tree_lub_is_least_upper_bound():
    rng = random.Random(17)
    checked = 0
    for _ in range(300):
        big = _random_tree(rng, 3)
        lo1 = _prefix_of(rng, big)
        lo2 = _prefix_of(rng, big)
        lub = tree_lub([lo1, lo2])
        assert tree_leq(lo1, lub) and tree_leq(lo2, lub)
        assert tree_leq(lub, big)  # big is an upper bound, lub is below it
        checked += 1
    assert checked == 300


def _prefix_of(rng, t):
    if t.label is None or rng.random() < 0.3:
        return BOT
    return _tree(t.label, *(_prefix_of(rng, c) for c in t.children))


def test_truncate_inserts_bottom():
    deep = _tree(B2, _tree(B2, _tree(C0), _tree(C0)), _tree(C0))
    assert truncate(deep, 1) == _tree(B2, BOT, BOT)
    assert truncate(deep, 2) == _tree(B2, _tree(B2, BOT, BOT), _tree(C0))
    assert truncate(deep, 5) == deep
    assert truncate(deep, 0) == BOT
    assert truncate(deep, -1) == BOT
    chain = _chain(DEEP, _tree(C0))
    assert tree_to_str(truncate(chain, DEEP // 2)) == tree_to_str(_chain(DEEP // 2))
    assert tree_to_str(truncate(chain, DEEP + 1)) == tree_to_str(chain)


def test_tree_to_str_examples():
    assert str(BOT) == "⊥"
    assert str(_tree(C0)) == "c0"
    assert str(_tree(A3, _tree(B2, BOT, _tree(C0)), _tree(C0), BOT)) == "a3 (b2 ⊥ c0) c0 ⊥"
    assert str(_chain(2)) == "a1 (a1 ⊥)"
    assert str(_chain(DEEP)) == "a1 (" * (DEEP - 1) + "a1 ⊥" + ")" * (DEEP - 1)
