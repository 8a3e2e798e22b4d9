"""Scheme validation, the start-term construction and the textual format."""

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
import hors.scheme
from hors.scheme import _RESERVED, Rule, _spaced_lines

from conftest import (
    CORPUS_SEEDS,
    SCHEMES_DIR,
    _split_lines,
    _tokenize,
    gen_scheme,
    reference_parse,
    reference_prune,
    twice_scheme,
)

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
    """A character loop that tokenizes one line."""
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

    texts = [path.read_text(encoding="utf-8") for path in sorted(SCHEMES_DIR.glob("*.hors"))]
    for g in (separating, dropper, twice_scheme()):
        texts += [render(label_scheme(g)), render(self_correct_report(g)[0])]
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert {"\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"} <= set(spaces)
    texts.append("".join(f"F{i}{ch}(x{ch}y){ch}z#{i}'){ch}" for i, ch in enumerate(spaces)))
    texts.append("x\r\ny(\rz)\n\r\n\f(\x85)\u2028\n")
    for text in texts:
        want = [_reference_tokenize(line) for line in _split_lines(text)]
        assert [line.split() for line in _spaced_lines(text)] == want
        for line in [text, *text.splitlines()]:
            assert _tokenize(line) == _reference_tokenize(line)


def test_comment_lines_start_with_a_slash_pair():
    text = (SCHEMES_DIR / "separating.hors").read_text(encoding="utf-8")
    for line, error in (
        ("//(x", None),
        (" // x", None),
        ("\t//", None),
        ("(//x", "unknown declaration '('"),
        ("a//b", "unknown declaration 'a//b'"),
    ):
        edited = text.replace("start S\n", f"start S\n{line}\n")
        assert _outcome(parse, edited) == _outcome(reference_parse, edited)
        if error is None:
            assert parse(edited) == parse(text)
        else:
            with pytest.raises(SchemeParseError, match=f"^line 10: {re.escape(error)}$"):
                parse(edited)


# Separators that `str.splitlines` honours besides the three line endings.
_INNER_SEPARATORS = [
    chr(c) for c in range(sys.maxunicode + 1) if len(f"a{chr(c)}b".splitlines()) == 2
]


def test_only_newline_endings_end_a_line():
    assert set(_INNER_SEPARATORS) - {"\n", "\r"} == {
        "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
    }
    lines = (SCHEMES_DIR / "separating.hors").read_text(encoding="utf-8").split("\n")
    assert lines[9] == "rule S = F (H a) c"
    want = parse("\n".join(lines))
    for ch in set(_INNER_SEPARATORS) - {"\n", "\r"}:
        lines[9] = f"rule S = F (H a){ch}c"
        text = "\n".join(lines)
        assert parse(text) == reference_parse(text) == want
        # A later error is reported at the line an editor shows.
        bad = text.replace("rule H x = H (H x)", "rule H x = H (H z)")
        for read in (parse, reference_parse):
            with pytest.raises(SchemeParseError) as err:
                read(bad)
            assert err.value.line == 12 and str(err.value) == "line 12: undeclared symbol 'z'"
    for ending in ("\r\n", "\r"):
        assert parse(ending.join(lines)) == parse("\n".join(lines))


def _outcome(read, text):
    """The scheme `read` returns, or the class and message of what it
    raises, with the whole diagnostics list of an `InvalidScheme`."""
    try:
        return read(text)
    except InvalidScheme as e:
        return InvalidScheme, str(e), e.diagnostics
    except Exception as e:
        return type(e), str(e)


def _assert_reads_like_the_oracle(text):
    got, want = _outcome(parse, text), _outcome(reference_parse, text)
    assert got == want, text


_SHIPPED_TEXTS = [path.read_text(encoding="utf-8") for path in sorted(SCHEMES_DIR.glob("*.hors"))]
_DRAWN_TEXTS = [render(gen_scheme(seed)) for seed in range(1, 61)]


def test_parser_matches_the_recursive_oracle_on_the_corpus():
    for text in _SHIPPED_TEXTS + _DRAWN_TEXTS:
        _assert_reads_like_the_oracle(text)


def test_parse_establishes_the_invariants_without_validate(monkeypatch):
    def refuse(g):
        raise AssertionError("parse called validate")

    monkeypatch.setattr(hors.scheme, "validate", refuse)
    read = [parse(text) for text in _SHIPPED_TEXTS + _DRAWN_TEXTS]
    monkeypatch.undo()
    for g in read:
        assert validate(g) == []


_MUTATIONS = ("open", "close", "drop_paren", "reserved", "undeclared", "name", "truncate")
_HEADER_MUTATIONS = (None, "drop", "add", "repeat", "swap")
_WORDS = sorted(_RESERVED - {"(", ")"})


@st.composite
def _mutated_texts(draw):
    """A shipped or drawn scheme with one rule mutated.  Its header may
    lose or gain a parameter, or have one renamed, in the body too, to
    another parameter or to a variable of another type.  Its body is mutated
    up to three times, at least once when no header mutation was drawn:
    stray or missing parentheses, reserved words, undeclared names, declared
    names where they give excess or wrong-typed arguments, and truncation.
    One draw in four also declares a name a second time, and one in four
    gives the start symbol an arrow type."""
    lines = draw(st.sampled_from(_SHIPPED_TEXTS + _DRAWN_TEXTS[:20])).splitlines()
    tokenized = [_tokenize(ln) for ln in lines]
    names = sorted({t[1] for t in tokenized if t[:1] in (["terminal"], ["nonterminal"], ["var"])})
    var_types = {t[1]: t[3:] for t in tokenized if t[:1] == ["var"]}
    i = draw(st.sampled_from([i for i, ln in enumerate(lines) if ln.startswith("rule ")]))
    tokens = _tokenize(lines[i])
    eq = tokens.index("=") + 1
    params, body = tokens[2 : eq - 1], tokens[eq:]
    header_kind = draw(st.sampled_from(_HEADER_MUTATIONS))
    if header_kind == "add":
        if var_types:
            params.insert(draw(st.integers(0, len(params))), draw(st.sampled_from(sorted(var_types))))
    elif header_kind and params:
        j = draw(st.integers(0, len(params) - 1))
        if header_kind == "drop":
            del params[j]
        else:
            if header_kind == "repeat":
                new = params[draw(st.integers(0, len(params) - 1))]
            else:
                others = [v for v, ty in var_types.items() if ty != var_types[params[j]]]
                new = draw(st.sampled_from(sorted(others))) if others else params[j]
            # The body follows the renamed parameter.
            body = [new if tok == params[j] else tok for tok in body]
            params[j] = new
    for _ in range(draw(st.integers(0 if header_kind else 1, 3))):
        kind = draw(st.sampled_from(_MUTATIONS))
        pos = draw(st.integers(0, len(body)))
        if kind == "open":
            body.insert(pos, "(")
        elif kind == "close":
            body.insert(pos, ")")
        elif kind == "drop_paren":
            parens = [j for j, tok in enumerate(body) if tok in "()"]
            if parens:
                del body[draw(st.sampled_from(parens))]
        elif kind == "reserved":
            body.insert(pos, draw(st.sampled_from(_WORDS)))
        elif kind == "undeclared":
            body.insert(pos, "Undeclared")
        elif kind == "name":
            body.insert(pos, draw(st.sampled_from(names)))
        else:
            del body[pos:]
    lines[i] = " ".join(tokens[:2] + params + ["="] + body)
    if draw(st.integers(0, 3)) == 0:
        redeclared = draw(st.sampled_from(["terminal", "nonterminal", "var"]))
        lines.insert(draw(st.integers(0, len(lines))), f"{redeclared} {draw(st.sampled_from(names))} : o")
    if draw(st.integers(0, 3)) == 0:
        start = next(t[1] for t in tokenized if t[:1] == ["start"])
        j = next(j for j, ln in enumerate(lines) if _tokenize(ln)[:2] == ["nonterminal", start])
        lines[j] = f"nonterminal {start} : o -> o"
    return "\n".join(lines) + "\n"


@settings(max_examples=400)
@given(_mutated_texts())
def test_parser_matches_the_recursive_oracle_on_mutated_bodies(text):
    _assert_reads_like_the_oracle(text)


def test_equal_declared_types_are_one_object(order3):
    g = parse(render(order3))
    types = [s.type for table in (g.terminals, g.nonterminals, g.variables) for s in table.values()]
    assert len({id(t) for t in types}) == len(set(types)) < len(types)
