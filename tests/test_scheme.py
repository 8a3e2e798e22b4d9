"""Scheme validation, the start-term construction and the textual format."""

import sys

import pytest

from hors import (
    ArityOrTypeMismatch,
    EvalBudget,
    InvalidScheme,
    Scheme,
    SchemeParseError,
    Term,
    parse,
    render,
    scheme_order,
    validate,
    value_tree,
    with_start,
)
from hors.core import (
    BOT,
    GROUND,
    arrow,
    nonterminal,
    terminal,
    variable,
)
from hors.scheme import Rule

from conftest import CORPUS_SEEDS, SCHEMES_DIR, gen_scheme, reference_prune, twice_scheme

O = GROUND
OO = arrow(O, O)


def test_example_schemes_validate(order3, separating, dropper):
    for g in (order3, separating, dropper):
        assert validate(g) == []


def test_scheme_order_examples(order3, separating):
    assert scheme_order(separating) == 1
    # F : ((o -> o) -> o -> o) -> (o -> o) -> o -> o has an order-2 argument
    assert scheme_order(order3) == 3


def test_scheme_order_ground_only():
    c = terminal("c", O)
    s = nonterminal("S", O)
    g = Scheme({"c": c}, {"S": s}, {}, {"S": Rule(s, (), Term(c))}, s)
    assert scheme_order(g) == 0


def test_validate_body_not_ground():
    c = terminal("c", O)
    s = nonterminal("S", O)
    h = nonterminal("H", OO)
    bad = Scheme(
        {"c": c},
        {"S": s, "H": h},
        {},
        {"S": Rule(s, (), Term(h)), "H": Rule(h, (variable("x", O),), Term(c))},
        s,
    )
    diags = validate(bad)
    assert any("body not ground" in d for d in diags)


def test_validate_locates_parameter_problems():
    c = terminal("c", O)
    s = nonterminal("S", O)
    h = nonterminal("H", OO)
    x_wrong = variable("x", OO)
    bad = Scheme(
        {"c": c},
        {"S": s, "H": h},
        {"x": x_wrong},
        {
            "S": Rule(s, (), Term(c)),
            "H": Rule(h, (x_wrong,), Term(c)),
        },
        s,
    )
    diags = validate(bad)
    assert any("parameter 1" in d and "rule H" in d for d in diags)


def test_terminal_order_rejected_at_declaration():
    text = """
    terminal f : (o -> o) -> o
    nonterminal S : o
    start S
    rule S = S
    """
    with pytest.raises(SchemeParseError) as err:
        parse(text)
    assert "order" in str(err.value)


def test_self_application_is_a_type_error():
    text = """
    terminal c : o
    nonterminal S : o
    nonterminal F : o -> o
    var x : o
    start S
    rule S = c
    rule F x = x x
    """
    with pytest.raises(SchemeParseError) as err:
        parse(text)
    assert "arity" in str(err.value) or "type" in str(err.value)


def test_duplicate_rule_rejected():
    text = """
    terminal c : o
    nonterminal S : o
    start S
    rule S = c
    rule S = c
    """
    with pytest.raises(SchemeParseError) as err:
        parse(text)
    assert "duplicate rule" in str(err.value)


def test_parse_error_carries_line_number():
    text = "terminal c : o\nnonterminal S : o\nstart S\nrule S = undeclared_name\n"
    with pytest.raises(SchemeParseError) as err:
        parse(text)
    assert err.value.line == 4


def test_missing_start_rejected():
    with pytest.raises(SchemeParseError):
        parse("terminal c : o\n")


def test_round_trip_examples_and_generated(order3, separating, dropper):
    for g in [order3, separating, dropper] + [gen_scheme(s) for s in CORPUS_SEEDS]:
        text = render(g)
        back = parse(text)
        assert validate(back) == []
        assert back == g
        assert render(back) == text  # idempotent after one render


def test_render_is_deterministic(separating):
    assert render(separating) == render(parse(render(separating)))


def test_rule_less_nonterminal_is_an_inert_token():
    text = """
    terminal c : o
    nonterminal S : o
    nonterminal Stuck : o
    start S
    rule S = Stuck
    """
    g = parse(text)
    assert validate(g) == []
    assert value_tree(g, "oi", EvalBudget(10, 100, 3)) == BOT


def test_with_start_behaviour(separating):
    f = separating.nonterminals["F"]
    h = separating.nonterminals["H"]
    a = separating.terminals["a"]
    c = separating.terminals["c"]
    body = Term(f, (Term(h, (Term(a),)), Term(c)))
    g2 = with_start(separating, body)
    assert validate(g2) == []
    assert g2.start.name == "S'"
    assert g2.start.name in g2.rules
    # the original rules are untouched
    for name, rule in separating.rules.items():
        assert g2.rules[name] == rule
    # the new scheme derives like the old one after one step
    assert value_tree(g2, "oi", EvalBudget(100, 10_000, 3)) == value_tree(
        separating, "oi", EvalBudget(100, 10_000, 3)
    )


def test_with_start_io_bottom(dropper):
    f = dropper.nonterminals["F"]
    h = dropper.nonterminals["H"]
    g2 = with_start(dropper, Term(f, (Term(h),)))
    assert value_tree(g2, "io", EvalBudget(500, 10_000, 3)) == BOT


def test_with_start_rejects_bad_terms(separating):
    h = separating.nonterminals["H"]
    with pytest.raises(ArityOrTypeMismatch):
        with_start(separating, Term(h))  # not ground
    foreign = nonterminal("Z", O)
    with pytest.raises(InvalidScheme):
        with_start(separating, Term(foreign))


def test_with_start_fresh_name_does_not_capture(separating):
    c = separating.terminals["c"]
    once = with_start(separating, Term(c))
    twice = with_start(once, Term(c))
    assert twice.start.name == "S''"
    assert set(once.rules) < set(twice.rules)


def test_reachability_and_pruning(dropper):
    from hors import label_scheme
    from hors.scheme import reachable_nonterminals

    gp = label_scheme(dropper)
    live = reachable_nonterminals(gp)
    assert {"S", "F#2", "H"} <= live
    assert "F#0" not in live
    pruned = reference_prune(gp)
    assert validate(pruned) == []
    assert set(pruned.rules) == live
    assert value_tree(pruned, "io", EvalBudget(500, 10_000, 3)) == value_tree(
        gp, "io", EvalBudget(500, 10_000, 3)
    )


def _reference_tokenize(text: str) -> list[str]:
    """The character loop the parser's regex tokenizer replaced."""
    out: list[str] = []
    cur = ""
    for ch in text:
        if ch in "()":
            if cur:
                out.append(cur)
                cur = ""
            out.append(ch)
        elif ch.isspace():
            if cur:
                out.append(cur)
                cur = ""
        else:
            cur += ch
    if cur:
        out.append(cur)
    return out


def test_tokenizer_matches_the_character_loop(separating, dropper):
    from hors import label_scheme, self_correct_report
    from hors.scheme import _tokenize

    texts = [path.read_text(encoding="utf-8") for path in sorted(SCHEMES_DIR.glob("*.hors"))]
    for g in (separating, dropper, twice_scheme()):
        texts += [render(label_scheme(g)), render(self_correct_report(g)[0])]
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert {"\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"} <= set(spaces)
    texts.append("".join(f"F{i}{ch}(x{ch}y){ch}z#{i}'){ch}" for i, ch in enumerate(spaces)))
    for text in texts:
        for line in [text, *text.splitlines()]:
            assert _tokenize(line) == _reference_tokenize(line)
