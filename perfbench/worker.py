"""One pass of a workload, in a fresh process so that the program's
module-level caches start cold, as they do for every CLI invocation.

The pass picks the seeded draws its quotas need (untimed), sets up its
inputs once (timed, with the import, as set-up), then runs the job list once
through `hors.cli.main`, in `Plan.run_order`, timing each job from outside,
and only then computes references and checks every output.  With
`--setup-only` it stops after set-up and the references; `run.py` starts
several such processes for the median set-up time.
The program runs under the interpreter's default recursion limit, as it does
for a CLI user; only this benchmark's own classifier, parsers and references
run under a raised one.  Results go to the JSON file named by `--result`.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

DEEP_LIMIT = 100_000  # check.py's parsers read derive dumps hundreds of levels deep


@contextlib.contextmanager
def deep_recursion():
    default = sys.getrecursionlimit()
    sys.setrecursionlimit(DEEP_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(default)


def run_cli(cli, argv):
    """One CLI invocation with captured output; never raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse usage errors
            code = e.code
        except Exception:  # any escape is a failed job, with its traceback
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def setup(cli, workload: str, seed: int, root: Path, picks: dict) -> workloads.Plan:
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    plan = workloads.Plan(seed, root, picks)
    workloads.PLANNERS[workload](plan)
    for job in plan.setup_jobs:
        code, _, err = run_cli(cli, job.argv)
        if code != 0:
            raise RuntimeError(f"set-up step {job.label} failed ({code}): {err[-500:]}")
    return plan


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--refs", help="file that keeps the references for the run's later passes")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import hors.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported hors from {cli.__file__}, not from {src}")
    import_s = time.perf_counter() - PROCESS_START

    with deep_recursion():
        picks = workloads.select(args.workload, args.seed)
    t0 = time.perf_counter()
    plan = setup(cli, args.workload, args.seed, Path(args.workdir), picks)
    setup_s = import_s + time.perf_counter() - t0
    if args.setup_only:
        with deep_recursion():
            references(args, plan)
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s}, fh)
        shutil.rmtree(args.workdir, ignore_errors=True)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    records = [None] * len(plan.jobs)  # in plan order, which the checks follow
    wall_s = 0.0
    for i in plan.run_order():
        job = plan.jobs[i]
        if tracer is not None:
            tracer.job, tracer.reject = i, job.reject
        # Untimed: what earlier jobs left alive is collected and frozen, so
        # this job's collections walk only its own objects, as they would in
        # a fresh `hors` process.  Otherwise full collections over all the
        # caches filled so far, of 0.6-0.7 s each, fell on random jobs.
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        code, out, err = run_cli(cli, job.argv)
        records[i] = (time.perf_counter() - t0, code, out, err)
        wall_s += records[i][0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    with deep_recursion():
        return finish(args, plan, records, setup_s, wall_s, peak_rss_mb, tracer)


def references(args, plan) -> None:
    """Fill `plan.refs`, from the `--refs` file if it exists, else by
    computing them into it.  They depend only on the seed's inputs, so the
    run's first set-up-only process computes them, after its timed set-up,
    and every pass reads them: on oi2io one stuck draw's reference alone
    can take 15 s, which left a run room for one pass instead of three."""
    if args.refs and os.path.exists(args.refs):
        with open(args.refs, "rb") as fh:
            plan.refs = pickle.load(fh)
        return
    for fn in plan.reference_fns:
        fn()
    if args.refs:
        with open(args.refs, "wb") as fh:
            pickle.dump(plan.refs, fh)


def finish(args, plan, records, setup_s, wall_s, peak_rss_mb, tracer) -> int:
    """References, checks and the result file, after the timed pass."""
    references(args, plan)
    verdicts = check.Verdicts()
    out_bytes = out_nodes = 0
    for job, (_, code, out, err) in zip(plan.jobs, records):
        fn = job.check
        verdicts.job(job.label, code, job.expect, err,
                     None if fn is None else (lambda fn=fn, out=out, err=err: fn(out, err, plan)))
        out_bytes += len(out.encode("utf-8"))
        if job.out and os.path.exists(job.out):
            text = Path(job.out).read_text(encoding="utf-8")
            out_bytes += len(text.encode("utf-8"))
            out_nodes += check.scheme_nodes(text)
    for job in plan.setup_jobs:
        if job.out:
            out_nodes += check.scheme_nodes(Path(job.out).read_text(encoding="utf-8"))

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies": [r[0] for r in records],
        "labels": [j.label for j in plan.jobs],
        "reject_s": sum(r[0] for j, r in zip(plan.jobs, records) if j.reject),
        "attempted": verdicts.attempted,
        "failures": verdicts.failures,
        "out_size_nodes": out_nodes,
        "out_bytes": out_bytes,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["self_s"] = dict(tracer.self_s)
        result["counts"] = dict(tracer.counts)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    shutil.rmtree(args.workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
