"""Output checks, written against the CLI's documented formats only.

Trees are `(label, children)` tuples with `None` as the bottom label.  The
parsers here read the program's text and JSON output; they share no code with
the program, so a wrong tree or a wrong exit code cannot slip through a
helper the program also uses.
"""

from __future__ import annotations

import json
import re

BOT = (None, ())


def leq(a, b) -> bool:
    """Prefix order: bottom below everything, labels compared node by node."""
    if a[0] is None:
        return True
    return a[0] == b[0] and len(a[1]) == len(b[1]) and all(map(leq, a[1], b[1]))


def compatible(a, b) -> bool:
    """Two prefixes of one tree never carry different labels at a node."""
    if a[0] is None or b[0] is None:
        return True
    return a[0] == b[0] and len(a[1]) == len(b[1]) and all(map(compatible, a[1], b[1]))


def consistent(a, a_exhausted: bool, b, b_exhausted: bool) -> bool:
    """Two budgeted prefixes of the same value tree agree.

    A run that did not exhaust its budget returned the exact truncation, so
    it equals any other exact run and bounds every partial one from above.
    """
    if not a_exhausted and not b_exhausted:
        return a == b
    if not a_exhausted:
        return leq(b, a)
    if not b_exhausted:
        return leq(a, b)
    return compatible(a, b)


def tree_from_json(node):
    if node["label"] is None:
        return BOT
    return (node["label"], tuple(tree_from_json(c) for c in node["children"]))


def tree_from_text(text: str):
    """Read the indented text format: one label per line, two spaces a level."""
    root: list = []
    stack: list[tuple[int, list]] = [(-1, root)]
    for line in text.splitlines():
        if not line.strip():
            continue
        body = line.lstrip(" ")
        level = (len(line) - len(body)) // 2
        if (len(line) - len(body)) % 2 or level > stack[-1][0] + 1:
            raise ValueError(f"bad indentation: {line!r}")
        while stack[-1][0] >= level:
            stack.pop()
        kids: list = []
        stack[-1][1].append((body, kids))
        stack.append((level, kids))
    if len(root) != 1:
        raise ValueError(f"expected one root, got {len(root)}")

    def freeze(n):
        label, kids = n
        return BOT if label == "⊥" else (label, tuple(freeze(k) for k in kids))

    return freeze(root[0])


_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def term_from_text(text: str):
    """Parse an applicative term such as `a (F x) c` into `(head, args)`."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def atom():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            t = app()
            if tokens[pos] != ")":
                raise ValueError("missing )")
            pos += 1
            return t
        if tok == ")":
            raise ValueError("unexpected )")
        return (tok, ())

    def app():
        head, args = atom()
        args = list(args)
        while pos < len(tokens) and tokens[pos] != ")":
            args.append(atom())
        return (head, tuple(args))

    t = app()
    if pos != len(tokens):
        raise ValueError("trailing tokens")
    return t


def bottom_transform(term, terminals, depth: int) -> tuple:
    """Keep terminal-headed nodes down to `depth`; any other head is
    unfinished work."""
    head, args = term
    if depth <= 0 or head not in terminals:
        return BOT
    return (head, tuple(bottom_transform(a, terminals, depth - 1) for a in args))


_STEP = re.compile(r"^\d+ (ε|\d+(\.\d+)*) \S+ OI=[01] IO=[01]$")


def derive_output(text: str, terminals, depth: int, policy_flag: str):
    """Check a `derive --trace` dump; return (steps, truncated final tree).

    `policy_flag` is `OI` or `IO` for a policy every step must satisfy, or
    None.
    """
    lines = text.rstrip("\n").split("\n")
    steps = lines[:-1]
    for i, line in enumerate(steps):
        if not _STEP.match(line) or not line.startswith(f"{i} "):
            raise ValueError(f"bad trace line {i}: {line!r}")
        if policy_flag and f"{policy_flag}=1" not in line:
            raise ValueError(f"step {i} violates the policy: {line!r}")
    final = term_from_text(lines[-1])
    return len(steps), bottom_transform(final, terminals, depth)


def analysis_output(text: str, nonterminals) -> dict:
    payload = json.loads(text)
    if payload.get("schema") != "hors.analysis/1":
        raise ValueError("wrong analysis schema")
    entries = payload["nonterminals"]
    if set(entries) != set(nonterminals):
        raise ValueError("analysis does not cover exactly the non-terminals")
    return entries


def tree_output(text: str) -> tuple:
    """Read `valuetree --format structured`; return (tree, exhausted)."""
    payload = json.loads(text)
    if payload.get("schema") != "hors.tree/1":
        raise ValueError("wrong tree schema")
    return tree_from_json(payload["tree"]), bool(payload["exhausted"])


_RULE_BODY = re.compile(r"^rule [^=]*= (.*)$", re.M)
_NAME = re.compile(r"[^\s()]+")


def scheme_nodes(text: str) -> int:
    """Term nodes over all rule bodies: one per symbol occurrence."""
    return sum(len(_NAME.findall(body)) for body in _RULE_BODY.findall(text))


class Verdicts:
    """Job outcomes; a job fails on a wrong tree, a wrong exit code, a
    traceback or an exception, and every failure is counted."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def job(self, label: str, code, expect_code: int, stderr: str, check=None) -> bool:
        self.attempted += 1
        problem = None
        if "Traceback" in stderr:
            problem = "traceback"
        elif code != expect_code:
            problem = f"exit code {code}, expected {expect_code}"
        elif check is not None:
            try:
                ok = check()
            except (ValueError, KeyError, IndexError, TypeError) as e:
                problem = f"unreadable output: {e}"
            else:
                if not ok:
                    problem = "wrong output"
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
        return problem is None

    @property
    def failed(self) -> int:
        return len(self.failures)
