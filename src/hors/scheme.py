"""The recursion scheme data model, validation and the textual format.

A scheme is ⟨variables, terminals, non-terminals, rules, start⟩ with at most
one rewrite rule per non-terminal.  A non-terminal without a rule is an inert
token: it is never a redex, so it denotes bottom wherever it survives.  The
OI-to-IO transformation relies on exactly one such token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    arity,
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
    """All invariant violations, with locations; empty means the scheme is ok.

    `parse` establishes these invariants as it reads, so this is for
    schemes built or edited by hand."""
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
                elif declared is not sub_head and declared != sub_head:
                    out.append(f"{loc}: variable {sub_head.name} used at wrong type")
            else:
                table = g.terminals if sub_head.kind == TERMINAL else g.nonterminals
                declared = table.get(sub_head.name)
                if declared is not sub_head and declared != sub_head:
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
# parentheses.  A line ends at `\n`, `\r\n` or `\r`, the line endings that
# text-mode `open()` translates; every other character for which
# `str.isspace()` is true separates tokens inside a line.  A line whose
# first token starts with `//` is a comment.

_RESERVED = {"terminal", "nonterminal", "var", "start", "rule", ":", "=", "->", "(", ")"}


def _spaced_lines(text: str) -> list[str]:
    """The lines of `text` with every parenthesis spaced out, so that
    `str.split` cuts a line into its tokens: each parenthesis, and each
    maximal run of characters that are neither whitespace nor parentheses."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.replace("(", " ( ").replace(")", " ) ").split("\n")


class _TypeParser:
    def __init__(self, tokens: Sequence[str], line: int):
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


def _parse_term(
    tokens: list[str], line: int, params: dict[str, Term], leaves: dict[str, Term]
) -> Term:
    """One left-to-right pass over `tokens` with an explicit stack, so a
    body of any depth is read.

    An open application is a frame `[head leaf, args, remaining type, node
    count]`; a frame whose head is not read yet is None.  Each argument is
    checked against the remaining type as it is appended, so errors come in
    token order, and each application's `Term` is built once, unchecked,
    when its frame closes; a frame without arguments is its head's leaf.  A
    parenthesised head, as in `(f x) y`, goes on filling its own frame.  A
    name is read as its leaf in the rule's `params`, else in `leaves`, which
    holds one shared leaf per terminal and non-terminal.
    """
    trusted = Term._trusted
    stack: list[list | None] = []
    frame: list | None = None
    for tok in tokens:
        if tok == "(":
            stack.append(frame)
            frame = None
            continue
        if tok == ")":
            if frame is None:
                raise SchemeParseError("unexpected ')' in term", line)
            if not stack:
                raise SchemeParseError("unexpected ')' after term", line)
            outer = stack.pop()
            if outer is None:
                continue  # a parenthesised head: its frame is the outer one
            leaf, args, remaining, size = frame
            arg = trusted(leaf.head, tuple(args), remaining, size) if args else leaf
            frame = outer
        elif tok in _RESERVED:
            raise SchemeParseError(f"unexpected {tok!r} in term", line)
        else:
            arg = params.get(tok) or leaves.get(tok)
            if arg is None:
                raise SchemeParseError(f"undeclared symbol {tok!r}", line)
            if frame is None:
                frame = [arg, [], arg.type, 1]
                continue
        leaf, args, remaining, size = frame
        if not isinstance(remaining, Arrow):
            raise SchemeParseError(
                f"{leaf.head.name} applied to {len(args) + 1} arguments but has "
                f"arity {arity(leaf.type)}",
                line,
            )
        want = remaining.argument
        if arg.type is not want and arg.type != want:
            raise SchemeParseError(
                f"argument {len(args) + 1} of {leaf.head.name} has type "
                f"{type_to_str(arg.type)}, expected {type_to_str(want)}",
                line,
            )
        args.append(arg)
        frame[2] = remaining.result
        frame[3] = size + arg.size
    if frame is None:
        raise SchemeParseError("term ended unexpectedly", line)
    if stack:
        raise SchemeParseError("missing ) in term", line)
    leaf, args, remaining, size = frame
    return trusted(leaf.head, tuple(args), remaining, size) if args else leaf


def parse(text: str) -> Scheme:
    """Parse the textual scheme format into a scheme that satisfies every
    invariant of `validate`.

    The text is split once; the declarations are read first, then each
    rule in line order, and every fact is checked once, where it is read.
    A syntax or declaration error raises `SchemeParseError` at its line.
    The reader establishes the rest of `validate`'s invariants itself; those
    that are not syntax (the start symbol's type, and each rule's parameter
    count, parameter types, repeated parameters and body type) are
    collected in `validate`'s wording and order and raised together as
    `InvalidScheme` after the last rule, so a syntax error on a later line
    still wins.  `parse` does not call `validate`.
    """
    terminals: dict[str, Symbol] = {}
    nonterminals: dict[str, Symbol] = {}
    variables: dict[str, Symbol] = {}
    rule_lines: list[tuple[int, list[str]]] = []
    start_name: str | None = None
    start_line = 0
    # Each distinct type is parsed once, so equal declared types are one object.
    types: dict[tuple[str, ...], SimpleType] = {}

    tables = {
        "terminal": (TERMINAL, terminals),
        "nonterminal": (NONTERMINAL, nonterminals),
        "var": (VARIABLE, variables),
    }

    for line_no, line in enumerate(_spaced_lines(text), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("//"):
            continue
        head = tokens[0]
        if head in tables:
            if len(tokens) < 4 or tokens[2] != ":":
                raise SchemeParseError(f"malformed {head} declaration", line_no)
            name = tokens[1]
            if name in _RESERVED:
                raise SchemeParseError(f"reserved word {name!r} used as name", line_no)
            type_tokens = tuple(tokens[3:])
            ty = types.get(type_tokens)
            if ty is None:
                ty = types[type_tokens] = _TypeParser(type_tokens, line_no).parse()
            kind, table = tables[head]
            try:
                sym = Symbol(name, kind, ty)
            except ArityOrTypeMismatch as e:
                raise SchemeParseError(str(e), line_no) from e
            if name in terminals or name in nonterminals or name in variables:
                raise SchemeParseError(f"duplicate declaration of {name}", line_no)
            table[name] = sym
        elif head == "start":
            if len(tokens) != 2:
                raise SchemeParseError("malformed start declaration", line_no)
            if start_name is not None:
                raise SchemeParseError("duplicate start declaration", line_no)
            start_name, start_line = tokens[1], line_no
        elif head == "rule":
            rule_lines.append((line_no, tokens))
        else:
            raise SchemeParseError(f"unknown declaration {head!r}", line_no)

    if start_name is None:
        raise SchemeParseError("missing start declaration")
    if start_name not in nonterminals:
        raise SchemeParseError(f"start symbol {start_name} not declared", start_line)
    start = nonterminals[start_name]
    diagnostics: list[str] = []
    # Every parsed ground type is the one GROUND object.
    if start.type is not GROUND:
        diagnostics.append(f"start symbol {start_name} is not of ground type")

    rules: dict[str, Rule] = {}
    # Terms are immutable, so every occurrence of a symbol shares one leaf.
    trusted = Term._trusted
    leaves = {
        name: trusted(sym, (), sym.type, 1)
        for name, sym in {**nonterminals, **terminals}.items()
    }
    var_leaves = {name: trusted(sym, (), sym.type, 1) for name, sym in variables.items()}
    for line_no, tokens in rule_lines:
        try:
            eq = tokens.index("=")
        except ValueError:
            raise SchemeParseError("rule is missing =", line_no) from None
        if eq == 1:
            raise SchemeParseError("rule is missing its non-terminal", line_no)
        fname = tokens[1]
        lhs = nonterminals.get(fname)
        if lhs is None:
            raise SchemeParseError(f"rule for undeclared non-terminal {fname}", line_no)
        if fname in rules:
            raise SchemeParseError(f"duplicate rule for {fname}", line_no)
        names = tokens[2:eq]
        # As in `validate`, a rule with the wrong parameter count gets no
        # other diagnostic.
        fits = len(names) == arity(lhs.type)
        if not fits:
            diagnostics.append(
                f"rule {fname}: {len(names)} parameters for arity {arity(lhs.type)}"
            )
        remaining = lhs.type
        params: dict[str, Term] = {}
        for i, pname in enumerate(names, start=1):
            leaf = var_leaves.get(pname)
            if leaf is None:
                raise SchemeParseError(f"undeclared parameter {pname}", line_no)
            if fits:
                want = remaining.argument
                if leaf.type is not want and leaf.type != want:
                    diagnostics.append(
                        f"rule {fname}: parameter {i} has type "
                        f"{type_to_str(leaf.type)}, expected {type_to_str(want)}"
                    )
                remaining = remaining.result
            params[pname] = leaf
        if fits and len(params) != len(names):
            diagnostics.append(f"rule {fname}: duplicate parameter names")
        body = _parse_term(tokens[eq + 1 :], line_no, params, leaves)
        if fits and body.type is not GROUND:
            diagnostics.append(
                f"rule {fname}: body not ground, has type {type_to_str(body.type)}"
            )
        rules[fname] = Rule(lhs, tuple([variables[p] for p in names]), body)

    if diagnostics:
        raise InvalidScheme(diagnostics)
    return Scheme(terminals, nonterminals, variables, rules, start)


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
