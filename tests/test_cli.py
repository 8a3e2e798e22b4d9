"""The command-line driver: outputs, exit codes, pipelines, determinism."""

import json

import pytest

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


def test_transform_prune_flag(tmp_path, capsys):
    target = tmp_path / "pruned.hors"
    code, out, err = run(
        capsys, "transform", DROPPER, "--to", "oi", "--prune", "--out", str(target)
    )
    assert code == 0
    assert "unreachable annotated copies" in err
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
