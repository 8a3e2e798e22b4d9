"""Command-line driver: check, derive, valuetree, analyze, transform."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator

from .core import HorsError, PartialTree
from .engine import (
    EvalBudget,
    RedexInfo,
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
)
from .typesys import Analysis, Layout, _bit_indices, layout

SCHEMA_TREE = "hors.tree/1"
SCHEMA_ANALYSIS = "hors.analysis/1"
# `analyze` writes an entry in pieces of at most this many atoms.
_PIECE_ATOMS = 4096
# `derive --trace` keeps the position texts of this many recent lines.
_TEXTS_KEPT = 64

_POLICY = {"oi": "oi", "io": "io", "any": "unrestricted"}


def _read_scheme(path: str) -> Scheme:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


@contextmanager
def _output(out: str | None) -> Iterator[Callable[[str], object]]:
    """The `write` of stdout, or of the `--out` file, open for the block."""
    if out is None:
        yield sys.stdout.write
    else:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh.write


def _write_out(text: str, out: str | None) -> None:
    with _output(out) as write:
        write(text)


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


def _entry_printer(structured: bool):
    """A printer of fixpoint entries for one call: `(layout, mask)` to the
    pieces of the entry's text, in order.

    Bit order is `Conj` order, so an entry is a join over its set bits.  An
    arrow atom is the head of its argument conjunction followed by its
    result atom: `{args} -> result`, or `{"arg": [args], "res": result}` as
    `json.dumps` with sorted keys writes it.  Heads and atoms of argument and
    result layouts are tabled once; an entry's own layout is printed for
    its set bits only, so a wide type costs what it prints.  A piece joins
    at most `_PIECE_ATOMS` atoms, so a wide entry is never held whole.
    """
    if structured:
        ground, brackets = ('"q_bot"', '"q_inf"'), "[]"
        open_, mid, close = '{"arg": [', '], "res": ', "}"
    else:
        ground, brackets = ("q⊥", "q∞"), "{}"
        open_, mid, close = "{", "} -> ", ""
    heads: dict[Layout, list[str]] = {}
    atoms: dict[Layout, list[str]] = {}

    def fragments(lay: Layout, bits) -> list[str]:
        if lay.result is None:
            return [ground[i] for i in bits]
        if lay not in heads:
            arg = atom_table(lay.argument)
            heads[lay] = [
                open_ + ", ".join([arg[i] for i in _bit_indices(m)]) + mid for m in lay.conjs
            ]
        head, res, width = heads[lay], atom_table(lay.result), lay.result.n
        return [
            head[(i - 1) // width] + res[(i - 1) % width] + close if i else ground[1]
            for i in bits
        ]

    def atom_table(lay: Layout) -> list[str]:
        if lay not in atoms:
            atoms[lay] = fragments(lay, range(lay.n))
        return atoms[lay]

    def entry(lay: Layout, mask: int) -> Iterator[str]:
        bits = _bit_indices(mask)
        yield brackets[0]
        for start in range(0, len(bits), _PIECE_ATOMS):
            part = ", ".join(fragments(lay, bits[start : start + _PIECE_ATOMS]))
            yield ", " + part if start else part
        yield brackets[1]

    return entry


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
    _write_out(
        f"ok: order {scheme_order(g)}, {len(g.nonterminals)} nonterminals\n",
        args.out,
    )
    return 0


def _position_texts(chosen: list[RedexInfo]) -> Iterator[str]:
    """The text of each chosen redex's position, "ε" for the root.  Each is
    put together from the text of the nearest link above it among the last
    `_TEXTS_KEPT` written, so a redex one level below a recent one costs
    its new index and one string copy, and the texts held stay few however
    long the positions grow.  The links stay alive in `chosen`, so their
    ids key the texts."""
    written: dict[int, str] = {}  # oldest first
    for info in chosen:
        top = info._link
        parts: list[str] = []
        while top is not None and id(top) not in written:
            parts.append(str(top[0]))
            top = top[1]
        text = "" if top is None else written[id(top)]
        if parts:
            parts.reverse()
            tail = ".".join(parts)
            text = f"{text}.{tail}" if text else tail
        written[id(info._link)] = text
        if len(written) > _TEXTS_KEPT:
            del written[next(iter(written))]
        yield text or "ε"


def cmd_derive(args: argparse.Namespace) -> int:
    g = _read_scheme(args.input)
    trace = derive(g, g.start_term(), _POLICY[args.policy], _budget(args))
    final = str(trace.final)
    # Written line by line, as `analyze` writes its entries.
    with _output(args.out) as write:
        if args.trace:
            for i, (info, position) in enumerate(zip(trace.chosen, _position_texts(trace.chosen))):
                write(
                    f"{i} {position} {info.nonterminal.name} "
                    f"OI={int(info.is_oi)} IO={int(info.is_io)}\n"
                )
        write(final + "\n")
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
    structured = args.format == "structured"
    entry = _entry_printer(structured)
    names = sorted(g.nonterminals)
    # Each entry is written piece by piece as it is formed, so no more than
    # one piece of the output is held at a time.
    with _output(args.out) as write:
        if structured:
            # `json.dumps(payload, sort_keys=True, ensure_ascii=False)`,
            # written from the printed entries.
            write(f'{{"iterations": {analysis.iterations}, "nonterminals": {{')
        for i, n in enumerate(names):
            if structured:
                write(f'{", " if i else ""}{json.dumps(n, ensure_ascii=False)}: ')
            else:
                write(f"{n} :: ")
            for piece in entry(layout(g.nonterminals[n].type), analysis.masks[n]):
                write(piece)
            if not structured:
                write("\n")
        if structured:
            write(f'}}, "schema": {json.dumps(SCHEMA_ANALYSIS)}}}\n')
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
    if report.unreachable_count:
        print(
            f"unreachable annotated copies: {report.unreachable_count} (pruned)",
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


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: parsing leaves no state in it, and building
    it costs about as much as a small command."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as e:
        print(f"error: {args.input}: not UTF-8: {e}", file=sys.stderr)
        return 1
    except InvalidScheme as e:
        for d in e.diagnostics:
            print(d, file=sys.stderr)
        return 1
    except HorsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        # Types are still read (`scheme._TypeParser`) and printed
        # (`type_to_str`) recursively; a type nested deeper than they reach
        # is a domain error.
        print(f"error: {args.input}: nested too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
