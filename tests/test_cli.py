"""The command-line driver: outputs, exit codes, pipelines, determinism."""

import json
import time

import pytest

from hors import EvalBudget, parse, render, value_tree_report
from hors.cli import main
from hors.typesys import atom_count

from conftest import (
    SCHEMES_DIR,
    _analysis_safe,
    gen_scheme,
    reference_analyze_output,
    reference_derive,
)

ORDER3 = str(SCHEMES_DIR / "order3.hors")
SEPARATING = str(SCHEMES_DIR / "separating.hors")
DROPPER = str(SCHEMES_DIR / "dropper.hors")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(capsys):
    code, out, err = run(capsys, "check", ORDER3)
    assert code == 0
    assert out == "ok: order 3, 6 nonterminals\n"
    assert err == ""


def test_check_reports_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.hors"
    bad.write_text(
        "terminal c : o\nnonterminal S : o\nnonterminal H : o -> o\n"
        "var x : o\nstart S\nrule S = c\nrule H x = H\n"
    )
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "body not ground" in err


def test_check_missing_file(capsys):
    code, out, err = run(capsys, "check", "no-such-file.hors")
    assert code == 1
    assert "error" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["valuetree", SEPARATING, "--policy", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["valuetree", SEPARATING, "--depth", "0"],
        ["valuetree", SEPARATING, "--steps", "0"],
        ["valuetree", SEPARATING, "--max-term", "0"],
        ["valuetree", SEPARATING, "--depth", "-3"],
        ["derive", SEPARATING, "--steps", "0"],
        ["derive", SEPARATING, "--max-term", "x"],
    ],
)
def test_nonpositive_budget_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "usage:" in err


def test_valuetree_deep_prefix_text(tmp_path, capsys):
    scheme = tmp_path / "ones.hors"
    scheme.write_text("terminal a : o -> o\nnonterminal S : o\nstart S\nrule S = a S\n")
    code, out, err = run(capsys, "valuetree", str(scheme), "--policy", "oi", "--depth", "3000")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 3001
    assert lines[0] == "a"
    assert lines[2999] == "  " * 2999 + "a"
    assert lines[3000] == "  " * 3000 + "⊥"


def _tree_dict(t):
    """The recursive reference shape of a `hors.tree/1` tree."""
    if t.label is None:
        return {"label": None}
    return {"label": t.label.name, "children": [_tree_dict(c) for c in t.children]}


def test_valuetree_structured_matches_json_dumps(tmp_path, capsys, corpus):
    for i, g in enumerate(corpus):
        path = tmp_path / f"g{i}.hors"
        path.write_text(render(g), encoding="utf-8")
        for policy, engine_policy in (("oi", "oi"), ("io", "io"), ("any", "unrestricted")):
            code, out, _ = run(
                capsys, "valuetree", str(path), "--policy", policy, "--depth", "4",
                "--steps", "1500", "--format", "structured",
            )
            assert code == 0
            result = value_tree_report(g, engine_policy, EvalBudget(1500, 100_000, 4))
            payload = {
                "schema": "hors.tree/1",
                "policy": policy,
                "depth": 4,
                "exhausted": result.exhausted,
                "steps_used": result.steps_used,
                "tree": _tree_dict(result.tree),
            }
            assert out == json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("policy", ["oi", "io"])
def test_valuetree_deep_prefix_structured(tmp_path, capsys, policy):
    scheme = tmp_path / "ones.hors"
    scheme.write_text("terminal a : o -> o\nnonterminal S : o\nstart S\nrule S = a S\n")
    code, out, err = run(
        capsys, "valuetree", str(scheme), "--policy", policy, "--depth", "3000",
        "--format", "structured",
    )
    assert code == 0
    assert err == ""
    tree = '{"children": [' * 3000 + '{"label": null}' + '], "label": "a"}' * 3000
    head, _, rest = out.partition(', "tree": ')
    assert rest == tree + "}\n"
    header = json.loads(head + "}")
    assert header["depth"] == 3000 and header["schema"] == "hors.tree/1"
    assert header["exhausted"] is False


def test_valuetree_oi(capsys):
    code, out, err = run(capsys, "valuetree", SEPARATING, "--policy", "oi", "--depth", "3")
    assert code == 0
    assert out == "c\n"
    assert err == ""


def test_valuetree_io_bottom_with_warning(capsys):
    code, out, err = run(
        capsys, "valuetree", SEPARATING, "--policy", "io", "--depth", "2", "--steps", "100"
    )
    assert code == 0
    assert out == "⊥\n"
    assert "budget exhausted" in err


def test_valuetree_indented_text(capsys):
    code, out, _ = run(
        capsys, "valuetree", ORDER3, "--policy", "oi", "--depth", "2", "--steps", "2000"
    )
    assert code == 0
    assert out == "a\n  b\n    ⊥\n    ⊥\n  ⊥\n  c\n"


def test_valuetree_structured(capsys):
    code, out, _ = run(
        capsys,
        "valuetree",
        SEPARATING,
        "--policy",
        "oi",
        "--format",
        "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "hors.tree/1"
    assert payload["tree"] == {"label": "c", "children": []}
    assert payload["exhausted"] is False


def test_derive_trace_format(capsys):
    code, out, _ = run(capsys, "derive", SEPARATING, "--policy", "oi", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0 ε S OI=1 IO=1"
    assert lines[1] == "1 ε F OI=1 IO=0"
    assert lines[-1] == "c"


def _assert_trace_matches_the_reference(capsys, path) -> list:
    """`derive --trace` on the scheme file prints, byte for byte, the trace
    of the reference loop that rescans the whole term before every step.
    Returns the reference's IO positions at the largest budget."""
    g = parse(path.read_text())
    for policy, engine_policy in (("oi", "oi"), ("io", "io"), ("any", "unrestricted")):
        for steps in (1, 57, 600):
            trace = reference_derive(g, g.start_term(), engine_policy, EvalBudget(steps, 100_000))
            want = [
                f"{i} {'.'.join(map(str, info.position)) or 'ε'} {info.nonterminal.name} "
                f"OI={int(info.is_oi)} IO={int(info.is_io)}"
                for i, info in enumerate(trace.chosen)
            ]
            want.append(str(trace.final))
            got = run(capsys, "derive", str(path), "--policy", policy,
                      "--trace", "--steps", str(steps))
            warning = "warning: budget exhausted; derivation is incomplete\n"
            assert got == (0, "\n".join(want) + "\n", warning if trace.exhausted_budget else ""), (
                policy, steps)
            if policy == "io":
                io_positions = [info.position for info in trace.chosen]
    return io_positions


@pytest.mark.parametrize("name", sorted(p.name for p in SCHEMES_DIR.glob("*.hors")))
def test_derive_trace_matches_the_rescanning_reference(name, capsys):
    _assert_trace_matches_the_reference(capsys, SCHEMES_DIR / name)


# IO rounds that climb: when a rewrite leaves no redex below the redex just
# above it, that one is next, at a position no earlier step printed.  The
# corpus files never climb; these do.
_CLIMBING = """
terminal a : o -> o
terminal b : o -> o -> o
terminal c : o
nonterminal S : o
nonterminal F : o -> o
nonterminal G : o -> o
nonterminal H : o -> o
var x : o
start S
rule S = a (F (b (G (H c)) (F (G (H c)))))
rule F x = b x (G x)
rule G x = a x
rule H x = c
"""


@pytest.mark.parametrize("source", ["hand", 61, 65, 98, 293])
def test_derive_trace_of_climbing_io_rounds_matches_the_reference(source, tmp_path, capsys):
    path = tmp_path / "climbing.hors"
    path.write_text(_CLIMBING if source == "hand" else render(gen_scheme(source)))
    positions = _assert_trace_matches_the_reference(capsys, path)
    # a climb chooses a proper prefix of a position chosen before it
    above, climbs = set(), 0
    for p in positions:
        climbs += p in above
        above.update(p[:k] for k in range(len(p)))
    assert climbs, source


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["derive", "--policy", "io"],
        ["valuetree"],
        ["analyze"],
        ["transform", "--to", "io"],
        ["transform", "--to", "oi"],
    ],
)
def test_deeply_nested_input_is_a_domain_error(argv, tmp_path, capsys):
    depth = 1_500
    body = "a (" * depth + "c" + ")" * depth
    path = tmp_path / "deep.hors"
    path.write_text(
        "terminal a : o -> o\nterminal c : o\nnonterminal S : o\nstart S\n"
        f"rule S = {body}\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and err.endswith("nested too deeply\n")
        assert err.count("\n") == 1


def test_deep_bodies_are_read(tmp_path, capsys):
    """The parser, validation, both evaluators, `derive`, `bar_scheme`, the
    analysis and the labeling take a rule body nested deeper than the
    recursion limit."""
    depth = 1_500
    body = "a (" * depth + "c" + ")" * depth
    path = tmp_path / "deep.hors"
    path.write_text(
        "terminal a : o -> o\nterminal c : o\nnonterminal S : o\nstart S\n"
        f"rule S = {body}\n",
        encoding="utf-8",
    )
    assert run(capsys, "check", str(path)) == (0, "ok: order 0, 1 nonterminals\n", "")
    prefix = "".join("  " * i + "a\n" for i in range(4)) + "  " * 4 + "⊥\n"
    for policy in ("io", "oi"):
        got = run(capsys, "valuetree", str(path), "--policy", policy, "--depth", "4")
        assert got == (0, prefix, ""), policy
    final = "a (" * (depth - 1) + "a c" + ")" * (depth - 1) + "\n"
    assert run(capsys, "derive", str(path), "--policy", "io") == (0, final, "")
    code, out, err = run(capsys, "transform", str(path), "--to", "io")
    assert (code, err) == (0, "")
    barred = parse(out)
    assert max(rule.body.size for rule in barred.rules.values()) > depth
    assert run(capsys, "analyze", str(path)) == (0, "S :: {}\n", "")
    code, out, err = run(capsys, "transform", str(path), "--to", "oi")
    assert (code, err) == (
        0, "rules: 1 before, 1 after (0 redirected to Void)\nunreachable annotated copies: 1 (pruned)\n"
    )
    assert parse(out).rules["S"].body.size == depth + 1


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", DROPPER)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("F :: {")
    assert "H :: {q∞}" in lines[1]
    assert "S :: {q⊥, q∞}" in lines[2]


def test_analyze_structured(capsys):
    code, out, _ = run(capsys, "analyze", DROPPER, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "hors.analysis/1"
    assert payload["nonterminals"]["H"] == ["q_inf"]
    assert {"arg": ["q_inf"], "res": "q_bot"} in payload["nonterminals"]["F"]


def test_analyze_infeasible_is_domain_error(capsys):
    code, out, err = run(capsys, "analyze", ORDER3)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_analyze_prints_what_the_object_route_printed(analysis_corpus, tmp_path, capsys):
    """`hors analyze` prints from the fixpoint masks; both formats must be
    byte-equal to decoding every entry into `Conj` and `ArrowMap` objects
    and printing those, in `Conj` order and through `json.dumps`."""
    extra = [gen_scheme(seed) for seed in range(18, 31)]
    schemes = analysis_corpus + [g for g in extra if _analysis_safe(g)]
    widest = max(atom_count(nt.type) for g in schemes for nt in g.nonterminals.values())
    assert widest == 4_609  # a (o -> o) -> o -> o non-terminal
    assert len(schemes) >= 30
    for i, g in enumerate(schemes):
        path = tmp_path / f"g{i}.hors"
        path.write_text(render(g), encoding="utf-8")
        for fmt, want in zip(("text", "structured"), reference_analyze_output(g)):
            assert run(capsys, "analyze", str(path), "--format", fmt) == (0, want, ""), (i, fmt)


@pytest.mark.parametrize("width", [3, 4])
@pytest.mark.parametrize("argv", [["analyze"], ["transform", "--to", "oi"]])
def test_wide_entry_types_are_refused_at_once(width, argv, tmp_path, capsys):
    """A non-terminal of type (o -> o) -> .. -> (o -> o) -> o with three
    parameters has 268,698,113 atoms, with four 137,573,433,857: its entry
    alone would not fit, so both commands refuse it before allocating."""
    params = [f"f{i}" for i in range(width)]
    path = tmp_path / "wide.hors"
    path.write_text(
        "terminal a : o -> o\nterminal c : o\nnonterminal S : o\n"
        f"nonterminal F : {'(o -> o) -> ' * width}o\n"
        + "".join(f"var {p} : o -> o\n" for p in params)
        + "start S\n"
        + f"rule S = F{' a' * width}\n"
        + f"rule F {' '.join(params)} = {' ('.join(params)} c{')' * (width - 1)}\n",
        encoding="utf-8",
    )
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: non-terminal F : (o -> o) -> ") and err.count("\n") == 1
    assert err.endswith("atoms is not feasible\n")


def test_transform_to_io_pipeline(tmp_path, capsys):
    barred = tmp_path / "separating-io.hors"
    code, out, err = run(capsys, "transform", SEPARATING, "--to", "io", "--out", str(barred))
    assert code == 0
    code, out, err = run(capsys, "check", str(barred))
    assert code == 0
    assert "ok: order 2" in out
    code, out, err = run(
        capsys, "valuetree", str(barred), "--policy", "io", "--depth", "3"
    )
    assert code == 0
    assert out == "c\n"


def test_transform_to_oi_pipeline(tmp_path, capsys):
    corrected = tmp_path / "dropper-oi.hors"
    code, out, err = run(
        capsys, "transform", DROPPER, "--to", "oi", "--out", str(corrected)
    )
    assert code == 0
    assert "rules: 3 before" in err
    assert "voided:" in err
    code, out, err = run(capsys, "check", str(corrected))
    assert code == 0
    for policy in ("oi", "io", "any"):
        code, out, err = run(
            capsys, "valuetree", str(corrected), "--policy", policy, "--depth", "3",
            "--steps", "500",
        )
        assert code == 0
        assert out.splitlines()[0] == "⊥"


def test_valuetree_deterministic(capsys):
    first = run(capsys, "valuetree", ORDER3, "--policy", "oi", "--depth", "3")
    second = run(capsys, "valuetree", ORDER3, "--policy", "oi", "--depth", "3")
    assert first == second


def test_every_shipped_scheme_checks(capsys):
    for path in sorted(SCHEMES_DIR.glob("*.hors")):
        code, out, err = run(capsys, "check", str(path))
        assert code == 0, (path.name, err)
        assert out.startswith("ok: order ")


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "tree.txt"
    code, out, _ = run(
        capsys, "valuetree", SEPARATING, "--policy", "oi", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "c\n"


def test_transform_oi_emits_only_live_copies(tmp_path, capsys):
    target = tmp_path / "live.hors"
    code, out, err = run(capsys, "transform", DROPPER, "--to", "oi", "--out", str(target))
    assert code == 0
    assert "unreachable annotated copies: 5 (pruned)" in err
    assert err.startswith("rules: 3 before, 2 after (1 redirected to Void)\n")
    code, out, err = run(capsys, "check", str(target))
    assert code == 0
    # voiding S makes every other copy dead: only S and Void survive
    assert "2 nonterminals" in out


def test_analyze_rejects_barred_schemes(tmp_path, capsys):
    barred = tmp_path / "barred.hors"
    code, out, err = run(
        capsys, "transform", SEPARATING, "--to", "io", "--out", str(barred)
    )
    assert code == 0
    code, out, err = run(capsys, "analyze", str(barred))
    assert code == 1
    assert "no rule" in err


def test_benchmark_tracer_targets_resolve(capsys):
    """perfbench/tracing.py wraps program functions by module and name; a
    name it cannot find fails every traced benchmark run at install, and a
    result it can no longer read (`CorrectionReport`, `Analysis.env`) fails
    it at the first job.  So the tracer is installed here, fed by one run of
    each traced command, and taken out again."""
    import importlib
    import importlib.util

    path = SCHEMES_DIR.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    originals = {}
    for mod, attr, _ in tracing.TARGETS:
        originals[mod, attr] = getattr(importlib.import_module(mod), attr)
        assert callable(originals[mod, attr]), (mod, attr)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli = importlib.import_module("hors.cli")
        for argv in (
            ["analyze", DROPPER],
            ["transform", DROPPER, "--to", "oi"],
            ["valuetree", SEPARATING, "--policy", "io", "--steps", "100"],
            ["derive", DROPPER, "--steps", "5"],
        ):
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn, (mod, attr)
    for counter in (
        "scheme.parse_nodes",
        "typesys.iterations",
        "typesys.fixpoint_atoms",
        "io2oi.voided_rules",
        "io2oi.emitted_rules",
        "io2oi.live_rules",
        "engine.io_steps",
        "engine.derive_steps",
    ):
        assert tracer.counts[counter] > 0, counter
    spans = {span[0] for span in tracer.spans}
    assert {"cli.main", "typesys.analysis", "io2oi.correct", "engine.io", "engine.derive"} <= spans


def test_os_and_decode_errors_are_domain_errors(tmp_path, capsys):
    """A directory as input or as `--out`, and an input that is not UTF-8,
    each give one `error:` line and exit 1.  An unreadable input raises
    `PermissionError`, an `OSError` too; it is not tested, because a test
    run as root reads every file."""
    bad = tmp_path / "bad.hors"
    bad.write_bytes(b"\xff")
    for argv in (
        ["check", str(tmp_path)],
        ["analyze", str(tmp_path)],
        ["check", DROPPER, "--out", str(tmp_path)],
        ["transform", DROPPER, "--to", "oi", "--out", str(tmp_path)],
        ["check", str(bad)],
        ["valuetree", str(bad), "--policy", "io"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err


def test_main_reuses_one_parser_and_leaks_no_state(tmp_path, capsys, monkeypatch):
    """`main` parses every call with one parser.  Across every subcommand,
    usage errors and `--help`, with flags set in one call and left out in
    the next, its outputs and exit codes are those of a fresh parser per
    call."""
    import hors.cli as cli

    chain = tmp_path / "chain.hors"
    chain.write_text(
        "terminal a : o -> o\nterminal c : o\nnonterminal S : o\nnonterminal F : o -> o\n"
        "var x : o\nstart S\nrule S = F (F (F (F c)))\nrule F x = a x\n"
    )
    calls = [
        ["check", DROPPER],
        ["valuetree", SEPARATING, "--policy", "oi", "--depth", "2", "--steps", "40",
         "--format", "structured"],
        ["valuetree", SEPARATING, "--policy", "io"],
        ["derive", str(chain), "--steps", "2", "--trace"],
        ["derive", str(chain), "--trace"],
        ["analyze", DROPPER, "--format", "structured"],
        ["analyze", DROPPER],
        ["transform", DROPPER, "--to", "oi"],
        ["transform", DROPPER, "--to", "io", "--out", str(tmp_path / "barred.hors")],
        ["valuetree", SEPARATING, "--policy", "bogus"],
        ["transform", DROPPER],
        ["--help"],
        ["derive", "--help"],
        ["check", "no-such-file.hors"],
        [],
        ["valuetree", ORDER3, "--steps", "2000", "--depth", "2", "--policy", "oi"],
        ["valuetree", ORDER3, "--policy", "oi"],
    ]

    def route():
        got = []
        for argv in calls:
            try:
                code = cli.main(list(argv))
            except SystemExit as e:
                code = ("exit", e.code)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    assert cli._parser() is cli._parser()
    reused = route()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert cli._parser() is not cli._parser()
    fresh = route()
    assert reused == fresh
    assert {code for code, _, _ in reused} == {0, 1, ("exit", 0), ("exit", 2)}
    # The flags of one call are not the defaults of the next.
    assert reused[1][1] != reused[2][1] and reused[3][1] != reused[4][1]
    assert reused[15] != reused[16]
