"""Command-line driver: check, derive, valuetree, analyze, transform."""

from __future__ import annotations

import argparse
import json
import sys

from .core import HorsError, PartialTree
from .engine import (
    EvalBudget,
    derive,
    value_tree_report,
)
from .io2oi import label_scheme  # noqa: F401  (kept importable: perfbench traces hors.cli.label_scheme)
from .io2oi import self_correct_report
from .oi2io import bar_scheme
from .scheme import (
    InvalidScheme,
    Scheme,
    parse,
    render,
    scheme_order,
    validate,
)
from .typesys import Analysis, ArrowMap, Atom, Conj, QBot, QInf

SCHEMA_TREE = "hors.tree/1"
SCHEMA_ANALYSIS = "hors.analysis/1"

_POLICY = {"oi": "oi", "io": "io", "any": "unrestricted"}


def _read_scheme(path: str) -> Scheme:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def tree_text(t: PartialTree) -> str:
    """One label per line, indented by depth; an explicit stack, since a
    prefix may be deeper than the recursion limit."""
    lines: list[str] = []
    stack = [(t, 0)]
    while stack:
        node, indent = stack.pop()
        lines.append("  " * indent + ("⊥" if node.label is None else node.label.name))
        stack.extend((child, indent + 1) for child in reversed(node.children))
    return "\n".join(lines) + "\n"


def tree_json_text(t: PartialTree) -> str:
    """The tree as `hors.tree/1` JSON, byte-identical to `json.dumps` of
    nested {"children": [...], "label": name} / {"label": null} objects with
    sorted keys, but with an explicit stack: a prefix may be deeper than the
    recursion limit and than the `json` encoder's nesting."""
    parts: list[str] = []
    stack: list = [t]  # trees still to write, and literal text
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item.label is None:
            parts.append('{"label": null}')
        else:
            parts.append('{"children": [')
            stack.append('], "label": ' + json.dumps(item.label.name, ensure_ascii=False) + "}")
            for i in range(len(item.children) - 1, -1, -1):
                stack.append(item.children[i])
                if i:
                    stack.append(", ")
    return "".join(parts)


def atom_text(a: Atom) -> str:
    if isinstance(a, QBot):
        return "q⊥"
    if isinstance(a, QInf):
        return "q∞"
    assert isinstance(a, ArrowMap)
    return f"{conj_text(a.argument)} -> {atom_text(a.result)}"


def conj_text(c: Conj) -> str:
    return "{" + ", ".join(atom_text(a) for a in c) + "}"


def atom_json(a: Atom):
    if isinstance(a, QBot):
        return "q_bot"
    if isinstance(a, QInf):
        return "q_inf"
    assert isinstance(a, ArrowMap)
    return {"arg": [atom_json(x) for x in a.argument], "res": atom_json(a.result)}


def _position_text(position: tuple[int, ...]) -> str:
    return ".".join(map(str, position)) if position else "ε"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _budget(args: argparse.Namespace) -> EvalBudget:
    return EvalBudget(
        max_steps=args.steps,
        max_term_size=args.max_term,
        depth=getattr(args, "depth", 5),
    )


def cmd_check(args: argparse.Namespace) -> int:
    g = _read_scheme(args.input)
    diagnostics = validate(g)
    if diagnostics:
        for d in diagnostics:
            print(d, file=sys.stderr)
        return 1
    _write_out(
        f"ok: order {scheme_order(g)}, {len(g.nonterminals)} nonterminals\n",
        args.out,
    )
    return 0


def cmd_derive(args: argparse.Namespace) -> int:
    g = _read_scheme(args.input)
    trace = derive(g, g.start_term(), _POLICY[args.policy], _budget(args))
    lines: list[str] = []
    if args.trace:
        for i, (_, info, _) in enumerate(trace.steps):
            lines.append(
                f"{i} {_position_text(info.position)} {info.nonterminal.name} "
                f"OI={int(info.is_oi)} IO={int(info.is_io)}"
            )
    final = trace.steps[-1][2] if trace.steps else g.start_term()
    lines.append(str(final))
    _write_out("\n".join(lines) + "\n", args.out)
    if trace.exhausted_budget:
        print("warning: budget exhausted; derivation is incomplete", file=sys.stderr)
    return 0


def cmd_valuetree(args: argparse.Namespace) -> int:
    g = _read_scheme(args.input)
    result = value_tree_report(g, _POLICY[args.policy], _budget(args))
    if args.format == "structured":
        payload = {
            "schema": SCHEMA_TREE,
            "policy": args.policy,
            "depth": args.depth,
            "exhausted": result.exhausted,
            "steps_used": result.steps_used,
        }
        head = json.dumps(payload, sort_keys=True, ensure_ascii=False)
        # "tree" sorts after every other key, so it closes the object.
        text = head[:-1] + ', "tree": ' + tree_json_text(result.tree) + "}\n"
        _write_out(text, args.out)
    else:
        _write_out(tree_text(result.tree), args.out)
    if result.exhausted:
        print("warning: budget exhausted; tree is a partial prefix", file=sys.stderr)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _read_scheme(args.input)
    analysis = Analysis(g)
    if args.format == "structured":
        payload = {
            "schema": SCHEMA_ANALYSIS,
            "iterations": analysis.iterations,
            "nonterminals": {
                name: [atom_json(a) for a in analysis.env.entries[name]]
                for name in sorted(g.nonterminals)
            },
        }
        _write_out(json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n", args.out)
    else:
        lines = [
            f"{name} :: {conj_text(analysis.env.entries[name])}"
            for name in sorted(g.nonterminals)
        ]
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    g = _read_scheme(args.input)
    if args.to == "io":
        _write_out(render(bar_scheme(g)), args.out)
        return 0
    corrected, report = self_correct_report(g)
    _write_out(render(corrected), args.out)
    print(
        f"rules: {report.base_rules} before, {len(corrected.rules)} after "
        f"({report.voided_count} redirected to Void)",
        file=sys.stderr,
    )
    for ty, n in report.nbvar_table:
        print(f"nbvar[{ty}] = {n}", file=sys.stderr)
    if report.voided_rules:
        print("voided: " + " ".join(report.voided_rules), file=sys.stderr)
    if report.unreachable:
        print(
            f"unreachable annotated copies: {len(report.unreachable)} (pruned)",
            file=sys.stderr,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hors",
        description="Evaluate and transform higher-order recursion schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, depth: bool = False) -> None:
        p.add_argument("input", help="scheme file")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--steps", type=_positive_int, default=10_000)
        p.add_argument("--max-term", type=_positive_int, default=100_000, dest="max_term")
        if depth:
            p.add_argument("--depth", type=_positive_int, default=5)

    p = sub.add_parser("check", help="validate a scheme file")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("derive", help="run one fair derivation")
    common(p)
    p.add_argument("--policy", choices=("oi", "io", "any"), default="any")
    p.add_argument("--trace", action="store_true", help="emit the step dump")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("valuetree", help="compute a value-tree prefix")
    common(p, depth=True)
    p.add_argument("--policy", choices=("oi", "io", "any"), default="any")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=cmd_valuetree)

    p = sub.add_parser("analyze", help="run the divergence type analysis")
    p.add_argument("input")
    p.add_argument("--out")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("transform", help="rewrite the scheme for a target policy")
    p.add_argument("input")
    p.add_argument("--out")
    p.add_argument("--to", choices=("io", "oi"), required=True)
    p.set_defaults(func=cmd_transform)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InvalidScheme as e:
        for d in e.diagnostics:
            print(d, file=sys.stderr)
        return 1
    except HorsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
