"""The three workloads: seeded inputs, the CLI jobs over them, and the
reference each job's output is checked against.

A job is one `hors` command line.  Checks run after the timed pass; a check
may use the outputs of earlier jobs of the same pass (series, cross-route
agreement), which are kept in `Plan.seen`.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import check
import gen

DEPTH = 3
# Step budgets of acceptance criterion 4: the barred IO run gets four times
# the steps of the source OI run, since barring adds wait steps.  The barred
# runs get a smaller term cap: about one random draw in fifty duplicates a
# growing argument, and each step then copies the whole argument, so at the
# criterion's cap of 100,000 nodes one such job took 90 s and made a seed's
# pass fifteen times slower than the next seed's.  At 2,000 nodes such a job
# takes about a second.  The check allows for the cap: a run that stopped
# early must be a prefix of the exact tree.
OI2IO_REF = (2_500, 100_000)
OI2IO_BARRED = (10_000, 2_000)
OI2IO_DERIVE = (200, 2_000)
# Budgets of acceptance criterion 7.
IO2OI_REF = (2_000, 100_000)
IO2OI_FIXED = (8_000, 400_000)
# The scaling series of the roadmap.
IO_SERIES = (1_000, 2_000, 4_000, 8_000, 16_000)
DERIVE_SERIES = (100, 200, 400)

OO = gen.OO
# The random corpora follow the natural mix of `gen.random_scheme`, measured
# over 20,000 draws, in fixed quotas so that a pass's work stays steady while
# each seed draws its own schemes.  By behaviour class (`gen.classify`):
# 53.0 % settle, 19.8 % are productive, 27.2 % are stuck; oi2io takes 160
# draws at those shares.  With 491 jobs, job_tail_s is p95 with 24 jobs
# beyond it; 88 draws left 13 beyond it, and the tail moved by a fifth.
OI2IO_QUOTA = {gen.SETTLES: 85, gen.PRODUCTIVE: 32, gen.STUCK: 43}
# By labeled-size stratum (`gen.stratum`): 32.4 % small, 26.6 % mid, 32.6 %
# big, 8.4 % huge.  io2oi departs from that mix on purpose, because the
# middle of its latency order must be a dense group of like jobs for
# job_p50_s and job_tail_s to be steady.  At the natural shares (6 small,
# 5 mid, 6 big, 1 huge) five seeds spread job_p50_s by 0.47 of its median,
# and with 20 natural mid draws by 0.49: mid draws hold one to four
# non-terminals, and their analyze jobs ranged from 0.05 to 0.26 s.  So
# the corpus is 12 small and 2 big natural draws, the frozen huge `large`,
# and 40 mid schemes whose types are fixed per position: one (o -> o) -> o
# non-terminal (512 labeled copies) and at most one smaller partner.  Their
# analyze and valuetree jobs form the middle of the latency order, and
# their transforms the region of the tail.  The mid rule bodies are drawn
# once, the same for every seed: between draws of one signature, analyze
# and transform times vary by a factor of four to ten, so with bodies drawn
# per seed five seeds spread job_p50_s by 0.15 of its median and
# job_tail_s by 0.21, against 0.075 for wall_s.  The huge scheme is frozen
# because the measured huge draws took 2.4 to 5.4 s each through the three
# jobs.
IO2OI_QUOTA = {gen.SMALL: 12, gen.BIG: 2}
_OOO = gen.arrow(OO, gen.O)
IO2OI_MID = ((_OOO,), (_OOO, gen.O), (_OOO, OO), (_OOO, gen.arrow(gen.O, gen.O, gen.O))) * 10
# Non-terminal types whose parameter types have more than 16 atoms (37 and
# 1025), which the analysis must refuse.  The (o -> o) -> o parameter needs a
# non-terminal of that type to be passed.
INFEASIBLE_SIGNATURES = (
    (gen.arrow(gen.arrow(gen.O, gen.O, gen.O), gen.O),),
    (gen.arrow(gen.arrow(OO, gen.O), gen.O), gen.arrow(OO, gen.O)),
)
# Must-reject inputs of oi2io and io-eval: (files, merged random schemes
# per file).  A part adds about 3.5 rules.  Several files, spread over the
# pass, make reject_s a sample of the whole pass, not of one moment.
OI2IO_REJECT = (8, 400)
IO_EVAL_REJECT = (5, 1_000)
# Chain schemes per io-eval seed, and how many of them also derive 400
# steps.  A pass then takes about 30 s, so a run holds exactly one, and
# every io-eval job has a fixed place in the latency order of the 122 jobs:
# the median (ranks 61 and 62) is the middle of the thirteen 100-step
# derives, and the tail (p90, rank 110) the middle of the thirteen 4k runs
# on the sources, so a neighbour that changes places under host noise moves
# neither out of its group.  The ten must-reject jobs (five files, each
# rejected by valuetree and by derive) take about 0.15 s, above the
# median's group and below the tail's; the four 400-step derives lie above
# the tail's group.  With fewer chains and two passes a run, the second
# pass fitted into some runs and not into others; with the median or the
# tail at the edge of its group, where the quickest or slowest members of
# the group fall, it spread by a fifth between seeds.
IO_EVAL_CHAINS = 12
IO_EVAL_LONG_DERIVES = 3


class Job:
    def __init__(self, label, argv, check_fn=None, expect=0, reject=False, out=None):
        self.label = label
        self.argv = argv
        self.check = check_fn  # (stdout, stderr, plan) -> bool
        self.expect = expect
        self.reject = reject
        self.out = out  # file written by --out, if any


class Plan:
    def __init__(self, seed: int, root: Path, picks=None):
        self.seed = seed
        self.root = root
        self.picks = picks or {}  # kind -> indices of the seed's draws, see select
        self.inputs: list[gen.Input] = []
        self.jobs: list[Job] = []  # in the order their checks run
        self.groups: list[tuple[str, range]] = []  # (kind, indices in jobs)
        self.setup_jobs: list[Job] = []  # CLI runs that prepare inputs, untimed
        self.reference_fns: list = []
        self.seen: dict = {}
        self.refs: dict = {}

    def add(self, kind: str, *jobs: Job) -> None:
        """Jobs that must run one after another, in this order, such as a
        transform and the runs on its output.  `kind` names groups of like
        jobs, which `run_order` spreads over the pass."""
        first = len(self.jobs)
        self.jobs += jobs
        self.groups.append((kind, range(first, len(self.jobs))))

    def run_order(self) -> list[int]:
        """Job indices in the order the pass runs them: the groups of each
        kind at even intervals over the pass.  The host's speed drifts over
        seconds, so a metric drawn from one kind of job, such as the median
        job or `reject_s`, samples the whole pass rather than one stretch."""
        total = Counter(kind for kind, _ in self.groups)
        seen: Counter = Counter()
        keyed = []
        for i, (kind, indices) in enumerate(self.groups):
            keyed.append(((seen[kind] + 0.5) / total[kind], i, indices))
            seen[kind] += 1
        return [j for _, _, indices in sorted(keyed) for j in indices]

    def path(self, name: str) -> str:
        return str(self.root / name)

    def write(self, name: str, text: str) -> str:
        p = self.path(name)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        return p


def select(workload: str, seed: int) -> dict:
    """The draws that fill a workload's quotas (`gen.pick`).  The number of
    draws classified to find them varies with the seed, so this runs before
    set-up is timed; set-up then makes exactly the picked draws."""
    if workload == "oi2io":
        return gen.pick(seed, OI2IO_QUOTA, gen.classify)
    if workload == "io2oi":
        return gen.pick(seed, IO2OI_QUOTA, gen.stratum)
    return {}


def _picked(plan: Plan) -> list[gen.Input]:
    return [
        gen.scheme_input(f"{kind}{i}", gen.nth_draw(plan.seed, k))
        for kind, draws in plan.picks.items()
        for i, k in enumerate(draws)
    ]


def references(plan: Plan, policy: str, budget) -> None:
    """The source's value tree, from the library's engine, outside timing."""
    from hors import EvalBudget, parse, value_tree_report

    def tree(t):
        if t.label is None:
            return check.BOT
        return (t.label.name, tuple(tree(c) for c in t.children))

    for inp in plan.inputs:
        r = value_tree_report(parse(inp.text), policy, EvalBudget(*budget, DEPTH))
        plan.refs[inp.name] = (tree(r.tree), r.exhausted)


def _exhausted(stderr: str) -> bool:
    return "warning: budget exhausted" in stderr


def _reject_large(plan: Plan, rng: random.Random, commands, size) -> None:
    """Large inputs with a defect on their last line, each rejected by every
    command: the time to the domain error covers reading the whole file."""
    files, parts = size
    for i in range(files):
        text = gen.corrupt(gen.merged_scheme(rng, parts).text(), i)
        bad = plan.write(f"bad{i}.hors", text)
        for command in commands:
            plan.add("reject", Job(f"bad{i}:{command[0]}", [command[0], bad] + command[1:],
                                   expect=1, reject=True))


# ---------------------------------------------------------------------------
# oi2io: bar, then evaluate the barred scheme innermost and outermost.


def _oi2io_jobs(plan: Plan, inp: gen.Input, kind: str) -> None:
    src = plan.write(f"{inp.name}.hors", inp.text)
    barred = plan.path(f"{inp.name}.io.hors")
    name = inp.name

    def tree_ok(out, err, p):
        tree, ex = check.tree_output(out)
        p.seen[(name, "bar-io")] = (tree, ex)
        return check.consistent(tree, ex, *p.refs[name])

    def derive_ok(out, err, p):
        _, tree = check.derive_output(out, inp.terminals, DEPTH, None)
        ex = _exhausted(err)
        ref, ref_ex = p.refs[name]
        io_tree, io_ex = p.seen[(name, "bar-io")]
        return check.consistent(tree, ex, ref, ref_ex) and check.consistent(
            tree, ex, io_tree, io_ex
        )

    plan.add(
        kind,
        Job(f"{name}:transform-io", ["transform", src, "--to", "io", "--out", barred],
            out=barred),
        Job(f"{name}:valuetree-io", ["valuetree", barred, "--policy", "io", "--format",
            "structured", "--depth", str(DEPTH), "--steps", str(OI2IO_BARRED[0]),
            "--max-term", str(OI2IO_BARRED[1])], tree_ok),
        Job(f"{name}:derive-any", ["derive", barred, "--policy", "any", "--trace",
            "--steps", str(OI2IO_DERIVE[0]), "--max-term", str(OI2IO_DERIVE[1])],
            derive_ok),
    )


def plan_oi2io(plan: Plan) -> None:
    hand = [gen.hand_input(n) for n in ("order3", "separating", "dropper")]
    plan.inputs = hand + _picked(plan)
    for inp in plan.inputs:
        _oi2io_jobs(plan, inp, "hand" if inp in hand else inp.name.rstrip("0123456789"))
    _reject_large(plan, random.Random(f"{plan.seed}/reject"), [["transform", "--to", "io"]],
                  OI2IO_REJECT)
    plan.reference_fns.append(lambda: references(plan, "oi", OI2IO_REF))


# ---------------------------------------------------------------------------
# io2oi: analyse, label and correct, then evaluate the image without policy.


def _io2oi_jobs(plan: Plan, inp: gen.Input, kind: str = "hand") -> None:
    src = plan.write(f"{inp.name}.hors", inp.text)
    fixed = plan.path(f"{inp.name}.oi.hors")
    name = inp.name

    def analysis_ok(out, err, p):
        entries = check.analysis_output(out, inp.nonterminals)
        ref, _ = p.refs[name]
        # q_bot on the start symbol means the IO value tree is bottom.
        return "q_bot" not in entries["S"] or ref == check.BOT

    def tree_ok(out, err, p):
        return check.tree_from_text(out) == p.refs[name][0]

    plan.add(
        kind,
        Job(f"{name}:analyze", ["analyze", src, "--format", "structured"], analysis_ok),
        Job(f"{name}:transform-oi", ["transform", src, "--to", "oi", "--out", fixed],
            lambda out, err, p: err.startswith("rules: "), out=fixed),
        Job(f"{name}:valuetree-any", ["valuetree", fixed, "--policy", "any", "--depth",
            str(DEPTH), "--steps", str(IO2OI_FIXED[0]), "--max-term",
            str(IO2OI_FIXED[1])], tree_ok),
    )


def _reject_analysis(plan: Plan, name: str, text: str, needle: str) -> None:
    path = plan.write(f"{name}.hors", text)
    plan.add("reject", Job(f"{name}:analyze", ["analyze", path],
                           lambda out, err, p: needle in err, expect=1, reject=True))


def plan_io2oi(plan: Plan) -> None:
    rng = random.Random(f"{plan.seed}/reject")
    hand = [gen.hand_input(n) for n in ("separating", "dropper", "large")]
    plan.inputs = hand + _picked(plan)
    for i, sig in enumerate(IO2OI_MID):
        s = gen.random_scheme(random.Random(f"mid{i}"), list(sig))
        plan.inputs.append(gen.scheme_input(f"{gen.MID}{i}", s))
    for inp in plan.inputs:
        _io2oi_jobs(plan, inp, "hand" if inp in hand else inp.name.rstrip("0123456789"))
    wide = [gen.random_scheme(rng, list(sig)).text() for sig in INFEASIBLE_SIGNATURES]
    _reject_analysis(plan, "wide0", wide[0], "not feasible")
    # The barred image keeps the wait token Delta rule-less, which the
    # analysis must refuse.  It is the middle one of the three must-reject
    # jobs, so its 15 s fall in the middle of the pass.
    sep = plan.write("barred-src.hors", gen.HAND["separating"])
    barred = plan.path("barred.hors")
    plan.setup_jobs.append(Job("barred:transform-io", ["transform", sep, "--to", "io",
                                                       "--out", barred]))
    plan.add("reject", Job("barred:analyze", ["analyze", barred],
                           lambda out, err, p: "no rule" in err, expect=1, reject=True))
    _reject_analysis(plan, "wide1", wide[1], "not feasible")
    plan.reference_fns.append(lambda: references(plan, "io", IO2OI_REF))


# ---------------------------------------------------------------------------
# io-eval: innermost evaluation over growing budgets, where chains grow.


def _agrees(p: Plan, name: str, tree, ex: bool) -> bool:
    """Consistent with every earlier result for the same source scheme."""
    return all(
        check.consistent(tree, ex, other, oex)
        for (n, *_), (other, oex) in p.seen.items()
        if n == name
    )


def _known(inp: gen.Input, tree, ex: bool) -> bool:
    if inp.known_io is None:
        return True
    return check.leq(tree, inp.known_io) if ex else tree == inp.known_io


def _io_series_jobs(plan, inp, path, key, budgets):
    name = inp.name
    for b in budgets:
        def tree_ok(out, err, p, b=b):
            tree, ex = check.tree_output(out)
            ok = _agrees(p, name, tree, ex) and _known(inp, tree, ex)
            prev = p.seen.get((name, key, b // 2))
            if prev is not None:
                ok = ok and check.leq(prev[0], tree)  # budgets only grow prefixes
            p.seen[(name, key, b)] = (tree, ex)
            return ok

        plan.add(f"{key}@{b}", Job(f"{name}:{key}@{b}", ["valuetree", path, "--policy",
                                 "io", "--format", "structured", "--depth", str(DEPTH),
                                 "--steps", str(b)], tree_ok))


def _io_derive_jobs(plan, inp, path, budgets):
    """The derive-based oracle: its final term, bottom-transformed, is a
    prefix of the same IO value tree."""
    name = inp.name
    for n in budgets:
        def derive_ok(out, err, p, n=n):
            steps, tree = check.derive_output(out, inp.terminals, DEPTH, "IO")
            ex = _exhausted(err)
            ok = steps <= n and _agrees(p, name, tree, ex) and _known(inp, tree, ex)
            prev = p.seen.get((name, "derive", n // 2))
            if prev is not None:
                ok = ok and check.leq(prev[0], tree)
            p.seen[(name, "derive", n)] = (tree, ex)
            return ok

        plan.add(f"derive-io@{n}", Job(f"{name}:derive-io@{n}", ["derive", path, "--policy",
                                       "io", "--trace", "--steps", str(n)], derive_ok))


def plan_io_eval(plan: Plan) -> None:
    rng = random.Random(plan.seed)
    sep = gen.hand_input("separating", known_io=check.BOT)
    chains = []
    for i in range(IO_EVAL_CHAINS):
        s, known = gen.chain_scheme(rng)
        chains.append(gen.scheme_input(f"chain{i}", s, known_io=known))
    plan.inputs = [sep] + chains
    for inp in plan.inputs:
        src = plan.write(f"{inp.name}.hors", inp.text)
        fixed = plan.path(f"{inp.name}.oi.hors")
        plan.setup_jobs.append(
            Job(f"{inp.name}:transform-oi", ["transform", src, "--to", "oi", "--out", fixed],
                out=fixed)
        )
        # separating runs the whole series; the chains stop at 4k steps, and
        # all but the first few at 200 derive steps, which keeps a pass near
        # 30 s.
        if inp is sep:
            budgets, derives = IO_SERIES, DERIVE_SERIES
        elif chains.index(inp) < IO_EVAL_LONG_DERIVES:
            budgets, derives = IO_SERIES[:3], DERIVE_SERIES
        else:
            budgets, derives = IO_SERIES[:3], DERIVE_SERIES[:2]
        _io_series_jobs(plan, inp, src, "io", budgets)
        _io_series_jobs(plan, inp, fixed, "fixed-io", budgets)
        _io_derive_jobs(plan, inp, src, derives)
    _reject_large(plan, rng, [["valuetree", "--policy", "io"], ["derive", "--policy", "io"]],
                  IO_EVAL_REJECT)


PLANNERS = {"oi2io": plan_oi2io, "io2oi": plan_io2oi, "io-eval": plan_io_eval}
