"""The command-line driver: outputs, exit codes, pipelines, determinism."""

import json

import pytest

from hors import EvalBudget, render, value_tree_report
from hors.cli import main

from conftest import SCHEMES_DIR

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
    assert "error" in err


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


def test_benchmark_tracer_targets_resolve():
    """perfbench/tracing.py wraps program functions by module and name; a
    name it cannot find fails every traced benchmark run at install."""
    import importlib
    import importlib.util

    path = SCHEMES_DIR.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for mod, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(mod), attr)), (mod, attr)
