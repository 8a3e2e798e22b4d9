"""The recursion scheme data model, validation and the textual format.

A scheme is ⟨variables, terminals, non-terminals, rules, start⟩ with at most
one rewrite rule per non-terminal.  A non-terminal without a rule is an inert
token: it is never a redex, so it denotes bottom wherever it survives.  The
OI-to-IO transformation relies on exactly one such token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
    GROUND,
    NONTERMINAL,
    TERMINAL,
    VARIABLE,
    Arrow,
    ArityOrTypeMismatch,
    HorsError,
    SimpleType,
    Symbol,
    Term,
    argument_types,
    order,
    term_to_str,
    type_to_str,
)


class InvalidScheme(HorsError):
    """Raised when a scheme fails validation and a valid one is required."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


class SchemeParseError(HorsError):
    """Syntax or declaration error in the textual scheme format."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


@dataclass(frozen=True)
class Rule:
    """One rewrite rule  F x1 ... xk -> body."""

    lhs: Symbol
    params: tuple[Symbol, ...]
    body: Term

    def __str__(self) -> str:
        head = " ".join([self.lhs.name] + [p.name for p in self.params])
        return f"{head} = {term_to_str(self.body)}"


@dataclass
class Scheme:
    """A higher-order recursion scheme.

    Symbol tables are insertion-ordered name -> Symbol mappings; `rules` maps
    non-terminal names to their single rule.
    """

    terminals: dict[str, Symbol]
    nonterminals: dict[str, Symbol]
    variables: dict[str, Symbol]
    rules: dict[str, Rule]
    start: Symbol

    def symbol(self, name: str) -> Symbol | None:
        for table in (self.terminals, self.nonterminals, self.variables):
            if name in table:
                return table[name]
        return None

    def rule_for(self, name: str) -> Rule | None:
        return self.rules.get(name)

    def start_term(self) -> Term:
        return Term(self.start)

    def all_names(self) -> set[str]:
        return set(self.terminals) | set(self.nonterminals) | set(self.variables)

    def check(self) -> "Scheme":
        """Validate and return self, raising InvalidScheme on problems."""
        diagnostics = validate(self)
        if diagnostics:
            raise InvalidScheme(diagnostics)
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scheme):
            return NotImplemented
        return (
            self.terminals == other.terminals
            and self.nonterminals == other.nonterminals
            and self.variables == other.variables
            and self.rules == other.rules
            and self.start == other.start
        )


def scheme_order(g: Scheme) -> int:
    """Order of a scheme: the maximum order over its non-terminals."""
    return max((order(f.type) for f in g.nonterminals.values()), default=0)


def validate(g: Scheme) -> list[str]:
    """All invariant violations, with locations; empty means the scheme is ok."""
    out: list[str] = []
    seen: dict[str, str] = {}
    for table, kind in (
        (g.terminals, TERMINAL),
        (g.nonterminals, NONTERMINAL),
        (g.variables, VARIABLE),
    ):
        for name, sym in table.items():
            if name != sym.name:
                out.append(f"{kind} table entry {name} holds symbol {sym.name}")
            if sym.kind != kind:
                out.append(f"{name} declared in {kind} table but has kind {sym.kind}")
            if name in seen:
                out.append(f"name {name} declared as both {seen[name]} and {kind}")
            seen[name] = kind

    for name, sym in g.terminals.items():
        if order(sym.type) > 1:
            out.append(f"terminal {name} has order > 1: {type_to_str(sym.type)}")

    if g.start.name not in g.nonterminals:
        out.append(f"start symbol {g.start.name} is not a declared non-terminal")
    elif g.nonterminals[g.start.name] != g.start:
        out.append(f"start symbol {g.start.name} does not match its declaration")
    if g.start.type != GROUND:
        out.append(f"start symbol {g.start.name} is not of ground type")

    for name, rule in g.rules.items():
        loc = f"rule {name}"
        if name not in g.nonterminals:
            out.append(f"{loc}: {name} is not a declared non-terminal")
            continue
        if rule.lhs != g.nonterminals[name]:
            out.append(f"{loc}: left-hand symbol does not match declaration")
            continue
        expected = argument_types(rule.lhs.type)
        if len(rule.params) != len(expected):
            out.append(
                f"{loc}: {len(rule.params)} parameters for arity {len(expected)}"
            )
            continue
        for i, (param, want) in enumerate(zip(rule.params, expected)):
            if param.kind != VARIABLE:
                out.append(f"{loc}: parameter {param.name} is not a variable")
            if param.name not in g.variables:
                out.append(f"{loc}: parameter {param.name} is not declared")
            if param.type != want:
                out.append(
                    f"{loc}: parameter {i + 1} has type {type_to_str(param.type)}, "
                    f"expected {type_to_str(want)}"
                )
        if len({p.name for p in rule.params}) != len(rule.params):
            out.append(f"{loc}: duplicate parameter names")
        if rule.body.type != GROUND:
            out.append(f"{loc}: body not ground, has type {type_to_str(rule.body.type)}")
        param_names = {p.name: p for p in rule.params}
        for sub_head in _heads(rule.body):
            if sub_head.kind == VARIABLE:
                declared = param_names.get(sub_head.name)
                if declared is None:
                    out.append(f"{loc}: body uses unbound variable {sub_head.name}")
                elif declared != sub_head:
                    out.append(f"{loc}: variable {sub_head.name} used at wrong type")
            else:
                table = g.terminals if sub_head.kind == TERMINAL else g.nonterminals
                if table.get(sub_head.name) != sub_head:
                    out.append(f"{loc}: body uses undeclared symbol {sub_head.name}")
    return out


def _heads(t: Term):
    stack = [t]
    while stack:
        node = stack.pop()
        yield node.head
        stack.extend(node.args)


def fresh_name(base: str, taken: set[str]) -> str:
    """Append primes until the name is unused; deterministic."""
    name = base
    while name in taken:
        name += "'"
    return name


def reachable_nonterminals(g: Scheme) -> set[str]:
    """Names of non-terminals reachable from the start symbol's rules."""
    seen = {g.start.name}
    work = [g.start.name]
    while work:
        rule = g.rules.get(work.pop())
        if rule is None:
            continue
        for head in _heads(rule.body):
            if head.kind == NONTERMINAL and head.name not in seen:
                seen.add(head.name)
                work.append(head.name)
    return seen


def with_start(g: Scheme, t: Term) -> Scheme:
    """Redirect derivations to start with `t` via a fresh start non-terminal."""
    if t.type != GROUND:
        raise ArityOrTypeMismatch(
            f"start term must be ground, got {type_to_str(t.type)}"
        )
    for head in _heads(t):
        if head.kind == VARIABLE:
            raise InvalidScheme([f"start term contains a variable: {head.name}"])
        table = g.terminals if head.kind == TERMINAL else g.nonterminals
        if table.get(head.name) != head:
            raise InvalidScheme([f"start term uses unknown symbol {head.name}"])
    new_start = Symbol(fresh_name(g.start.name + "'", g.all_names()), NONTERMINAL, GROUND)
    nonterminals = dict(g.nonterminals)
    nonterminals[new_start.name] = new_start
    rules = dict(g.rules)
    rules[new_start.name] = Rule(new_start, (), t)
    return Scheme(dict(g.terminals), nonterminals, dict(g.variables), rules, new_start)


# ---------------------------------------------------------------------------
# Textual format
#
#   terminal <name> : <type>
#   nonterminal <name> : <type>
#   var <name> : <type>
#   start <name>
#   rule <F> <x1> ... <xk> = <term>
#
# Types use `o` and right-associative `->`; terms are applicative with
# parentheses.  Lines starting with `//` are comments.

_RESERVED = {"terminal", "nonterminal", "var", "start", "rule", ":", "=", "->", "(", ")"}


# `\s` matches exactly the characters for which `str.isspace()` is true.
_tokenize = re.compile(r"[()]|[^\s()]+").findall


class _TypeParser:
    def __init__(self, tokens: list[str], line: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def parse(self) -> SimpleType:
        t = self._arrow()
        if self.pos != len(self.tokens):
            raise SchemeParseError(
                f"unexpected {self.tokens[self.pos]!r} in type", self.line
            )
        return t

    def _arrow(self) -> SimpleType:
        left = self._atom()
        if self.pos < len(self.tokens) and self.tokens[self.pos] == "->":
            self.pos += 1
            return Arrow(left, self._arrow())
        return left

    def _atom(self) -> SimpleType:
        if self.pos >= len(self.tokens):
            raise SchemeParseError("type ended unexpectedly", self.line)
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok == "o":
            return GROUND
        if tok == "(":
            inner = self._arrow()
            if self.pos >= len(self.tokens) or self.tokens[self.pos] != ")":
                raise SchemeParseError("missing ) in type", self.line)
            self.pos += 1
            return inner
        raise SchemeParseError(f"unexpected {tok!r} in type", self.line)


def _parse_term(tokens: list[str], line: int, lookup) -> Term:
    pos = 0

    def atom() -> Term:
        nonlocal pos
        if pos >= len(tokens):
            raise SchemeParseError("term ended unexpectedly", line)
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            inner = app()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise SchemeParseError("missing ) in term", line)
            pos += 1
            return inner
        if tok in _RESERVED:
            raise SchemeParseError(f"unexpected {tok!r} in term", line)
        pos += 1
        sym = lookup(tok)
        if sym is None:
            raise SchemeParseError(f"undeclared symbol {tok!r}", line)
        return Term(sym)

    def app() -> Term:
        nonlocal pos
        t = atom()
        while pos < len(tokens) and tokens[pos] != ")":
            arg = atom()
            try:
                t = Term(t.head, t.args + (arg,))
            except ArityOrTypeMismatch as e:
                raise SchemeParseError(str(e), line) from e
        return t

    t = app()
    if pos != len(tokens):
        raise SchemeParseError(f"unexpected {tokens[pos]!r} after term", line)
    return t


def parse(text: str) -> Scheme:
    """Parse the textual scheme format; validates before returning."""
    terminals: dict[str, Symbol] = {}
    nonterminals: dict[str, Symbol] = {}
    variables: dict[str, Symbol] = {}
    rule_lines: list[tuple[int, list[str]]] = []
    start_name: str | None = None
    start_line = 0

    def declare(table: dict[str, Symbol], sym: Symbol, line: int) -> None:
        for other in (terminals, nonterminals, variables):
            if sym.name in other:
                raise SchemeParseError(f"duplicate declaration of {sym.name}", line)
        table[sym.name] = sym

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("//"):
            continue
        tokens = _tokenize(stripped)
        head = tokens[0]
        if head in ("terminal", "nonterminal", "var"):
            if len(tokens) < 4 or tokens[2] != ":":
                raise SchemeParseError(f"malformed {head} declaration", line_no)
            name = tokens[1]
            if name in _RESERVED:
                raise SchemeParseError(f"reserved word {name!r} used as name", line_no)
            ty = _TypeParser(tokens[3:], line_no).parse()
            kind = {"terminal": TERMINAL, "nonterminal": NONTERMINAL, "var": VARIABLE}[head]
            try:
                sym = Symbol(name, kind, ty)
            except ArityOrTypeMismatch as e:
                raise SchemeParseError(str(e), line_no) from e
            declare({TERMINAL: terminals, NONTERMINAL: nonterminals, VARIABLE: variables}[kind], sym, line_no)
        elif head == "start":
            if len(tokens) != 2:
                raise SchemeParseError("malformed start declaration", line_no)
            if start_name is not None:
                raise SchemeParseError("duplicate start declaration", line_no)
            start_name, start_line = tokens[1], line_no
        elif head == "rule":
            rule_lines.append((line_no, tokens[1:]))
        else:
            raise SchemeParseError(f"unknown declaration {head!r}", line_no)

    if start_name is None:
        raise SchemeParseError("missing start declaration")
    if start_name not in nonterminals:
        raise SchemeParseError(f"start symbol {start_name} not declared", start_line)

    rules: dict[str, Rule] = {}
    for line_no, tokens in rule_lines:
        if "=" not in tokens:
            raise SchemeParseError("rule is missing =", line_no)
        eq = tokens.index("=")
        header, body_tokens = tokens[:eq], tokens[eq + 1 :]
        if not header:
            raise SchemeParseError("rule is missing its non-terminal", line_no)
        fname = header[0]
        if fname not in nonterminals:
            raise SchemeParseError(f"rule for undeclared non-terminal {fname}", line_no)
        if fname in rules:
            raise SchemeParseError(f"duplicate rule for {fname}", line_no)
        lhs = nonterminals[fname]
        params = []
        for pname in header[1:]:
            if pname not in variables:
                raise SchemeParseError(f"undeclared parameter {pname}", line_no)
            params.append(variables[pname])
        param_map = {p.name: p for p in params}

        def lookup(name: str, _pm=param_map):
            if name in _pm:
                return _pm[name]
            return terminals.get(name) or nonterminals.get(name)

        body = _parse_term(body_tokens, line_no, lookup)
        rules[fname] = Rule(lhs, tuple(params), body)

    g = Scheme(terminals, nonterminals, variables, rules, nonterminals[start_name])
    diagnostics = validate(g)
    if diagnostics:
        raise InvalidScheme(diagnostics)
    return g


def render(g: Scheme) -> str:
    """Deterministic textual form: declarations sorted by name, rules in
    non-terminal declaration order."""
    lines: list[str] = []
    for name in sorted(g.terminals):
        lines.append(f"terminal {name} : {type_to_str(g.terminals[name].type)}")
    for name in sorted(g.nonterminals):
        lines.append(f"nonterminal {name} : {type_to_str(g.nonterminals[name].type)}")
    for name in sorted(g.variables):
        lines.append(f"var {name} : {type_to_str(g.variables[name].type)}")
    lines.append(f"start {g.start.name}")
    for name in sorted(g.nonterminals):
        rule = g.rules.get(name)
        if rule is None:
            continue
        header = " ".join([name] + [p.name for p in rule.params])
        lines.append(f"rule {header} = {term_to_str(rule.body)}")
    return "\n".join(lines) + "\n"
