"""Self-test of the output checks: a corrupted tree, a wrong exit code and a
traceback must each count as a failed job, and a correct output must not.

Run as `python3 perfbench/selftest.py`; `run.py` also runs it before
measuring, so a checker that lets failures through never produces numbers.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402


def selftest() -> None:
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        plan = workloads.Plan(0, Path(tmp))
        inp = gen.hand_input("dropper")
        plan.inputs = [inp]
        workloads._io2oi_jobs(plan, inp)
        plan.refs[inp.name] = (("c", ()), False)
        valuetree = plan.jobs[2]

        def verdict(code, out, err):
            v = check.Verdicts()
            v.job(valuetree.label, code, valuetree.expect, err,
                  lambda: valuetree.check(out, err, plan))
            return v.failed

        assert verdict(0, "c\n", "") == 0, "a correct tree was counted as failed"
        assert verdict(0, "a\n  c\n", "") == 1, "a corrupted tree passed"
        assert verdict(0, "⊥\n", "") == 1, "a bottom tree passed for c"
        assert verdict(1, "c\n", "error: x\n") == 1, "a wrong exit code passed"
        assert verdict(0, "c\n", "Traceback (most recent call last):\n") == 1, \
            "a traceback passed"
        assert verdict(0, "c\n  c\n", "") == 1, "unreadable output passed"

    tree = {"schema": "hors.tree/1", "exhausted": False,
            "tree": {"label": "b", "children": [{"label": None}, {"label": "c", "children": []}]}}
    parsed, ex = check.tree_output(json.dumps(tree))
    assert parsed == ("b", (check.BOT, ("c", ()))) and not ex
    assert check.consistent(("b", (check.BOT, check.BOT)), True, parsed, False)
    assert not check.consistent(("b", (("d", ()), check.BOT)), True, parsed, False)


if __name__ == "__main__":
    selftest()
    print("checker self-test passed")
