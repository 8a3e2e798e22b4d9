"""Benchmark of the `hors` CLI pipelines.

    python3 perfbench/run.py --workload {oi2io,io2oi,io-eval} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
`./src`.  One client runs the workload's job list in a closed loop, one
`hors.cli.main(argv)` call after another.  Each pass over the list runs in a
fresh worker process (see worker.py), and passes repeat until the next one
would end after `--seconds`; before them, set-up alone runs in a few more
fresh processes, so that `setup_s` is a median of cold set-ups, and the
first of those also computes the references that every pass is checked
against.  With `--trace 0` the last line of output is a JSON object with
every end-to-end metric; with `--trace 1` each pass runs once untraced and
once traced, and the object holds the per-layer metrics.
A detailed record, with units, directions, the layer map and the run's
environment, goes to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 5  # set-up-only processes per run, besides each pass's own set-up

# name -> (unit, better, meaning)
END_TO_END = {
    "setup_s": ("s", "lower", "import, seeded inputs generated and written "
                "(io-eval: corrected images built too); median of cold set-ups, "
                "each in a fresh process"),
    "wall_s": ("s", "lower", "one timed pass over the job list: the sum of its "
               "job latencies, without the untimed collections between jobs"),
    "jobs_per_s": ("1/s", "higher", "jobs of the pass over its wall time"),
    "job_p50_s": ("s", "lower", "median job latency"),
    "job_tail_s": ("s", "lower", "latency at the highest percentile with at "
                   "least 10 jobs beyond it; percentile and job count in the record"),
    "reject_s": ("s", "lower", "total time to a domain-error verdict on the "
                 "inputs that must be rejected"),
    "ok_ratio": ("ratio", "higher", "1 - fail_ratio: jobs passing their check "
                 "over jobs attempted"),
    "out_size_nodes": ("count", "lower", "term nodes in the schemes the "
                       "transform jobs emit"),
    "peak_rss_mb": ("MiB", "lower", "ru_maxrss of the pass's process"),
}

SERIES_IO = (1000, 2000, 4000, 8000, 16000)
SERIES_DERIVE = (100, 200, 400)
LAYERS = ("scheme", "oi2io", "typesys", "io2oi", "engine", "cli")

PER_LAYER = {
    "engine.io_s": ("s", "lower"),
    "engine.io_steps": ("count", "lower"),
    "engine.io_us_per_step": ("us", "lower"),
    **{f"engine.io_s.b{b}": ("s", "lower") for b in SERIES_IO},
    "engine.derive_s": ("s", "lower"),
    "engine.derive_steps": ("count", "lower"),
    **{f"engine.derive_s.b{b}": ("s", "lower") for b in SERIES_DERIVE},
    "engine.oi_s": ("s", "lower"),
    "engine.oi_steps": ("count", "lower"),
    "engine.exhausted_jobs": ("count", "lower"),
    "typesys.analysis_s": ("s", "lower"),
    "typesys.iterations": ("count", "lower"),
    "typesys.fixpoint_atoms": ("count", "lower"),
    "typesys.sem_apply_calls": ("count", "lower"),
    "typesys.reject_s": ("s", "lower"),
    "io2oi.label_s": ("s", "lower"),
    "io2oi.correct_s": ("s", "lower"),
    "io2oi.labeled_rules": ("count", "lower"),
    "io2oi.voided_rules": ("count", "lower"),
    "io2oi.live_ratio": ("ratio", "higher"),
    "scheme.parse_s": ("s", "lower"),
    "scheme.render_s": ("s", "lower"),
    "scheme.parse_nodes": ("count", "lower"),
    "oi2io.bar_s": ("s", "lower"),
    "oi2io.rules_out": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    **{f"share.{layer}": ("ratio", "lower") for layer in LAYERS},
}

# Which end-to-end metric each layer's metrics should move, on which workload.
LAYER_MAP = {
    "engine.io_*": {"io-eval": ["wall_s", "job_tail_s"], "io2oi": ["(next to nothing)"]},
    "engine.derive_*": {"io-eval": ["job_tail_s"], "oi2io": ["wall_s"]},
    "engine.oi_*": {"io2oi": ["wall_s (slightly)"],
                    "oi2io": ["(none: its jobs evaluate IO and derive only)"]},
    "engine.exhausted_jobs": {"oi2io": ["wall_s"], "io-eval": ["wall_s"]},
    "typesys.*": {"io2oi": ["job_p50_s", "wall_s", "reject_s"], "io-eval": ["setup_s"]},
    "io2oi.*": {"io2oi": ["job_p50_s", "wall_s", "out_size_nodes"]},
    "scheme.*": {"io2oi": ["wall_s"], "io-eval": ["wall_s"], "oi2io": ["(next to nothing)"]},
    "oi2io.*": {"oi2io": ["wall_s (bar_scheme is under 1 ms a scheme)"]},
    "cli.*": {"oi2io": ["wall_s"], "io2oi": ["wall_s"], "io-eval": ["wall_s"]},
    "trace.overhead_s": {"all": ["traced wall_s minus untraced wall_s"]},
}

TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 66, 50)


def tail(latencies):
    """(value, percentile, jobs beyond) at the highest listed percentile with
    at least 10 jobs beyond it, by nearest rank."""
    s = sorted(latencies)
    n = len(s)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            return s[rank - 1], p, n - rank
    return s[-1], 100.0, 0


def run_pass(args, index, traced: bool, timeout: float, setup_only=False) -> dict:
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-pass{index}"
    result = OUT / f"{stem}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--workdir", str(Path(".perfbench_work") / stem), "--result", str(result)]
    if traced:
        cmd += ["--spans", str(OUT / f"{stem}.spans.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--refs", str(refs_path(args))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} failed:\n{proc.stderr[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        data = json.load(fh)
    result.unlink()
    return data


def refs_path(args) -> Path:
    return Path(".perfbench_work") / f"{args.workload}-seed{args.seed}-refs.pickle"


def end_to_end(passes, setups, attempted: int, failed: int) -> tuple[dict, dict]:
    """Each job's latency is its median over the passes; p50 and tail are
    taken over those."""
    med = statistics.median
    latencies = [med(runs) for runs in zip(*(p["latencies"] for p in passes))]
    job_tail = tail(latencies)
    values = {
        "setup_s": med(setups + [p["setup_s"] for p in passes]),
        "wall_s": med(p["wall_s"] for p in passes),
        "jobs_per_s": med(len(p["latencies"]) / p["wall_s"] for p in passes),
        "job_p50_s": med(latencies),
        "job_tail_s": job_tail[0],
        "reject_s": med(p["reject_s"] for p in passes),
        "ok_ratio": 1 - failed / attempted,
        "out_size_nodes": med(p["out_size_nodes"] for p in passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }
    extra = {
        "fail_ratio": failed / attempted,
        "job_tail_percentile": job_tail[1],
        "job_tail_jobs_beyond": job_tail[2],
        "jobs_per_pass": len(latencies),
        "setup_samples_s": setups + [p["setup_s"] for p in passes],
    }
    return values, extra


def per_layer(untraced, traced) -> dict:
    med = statistics.median

    def layer_values(p):
        s, c = p["self_s"], p["counts"]
        io_steps = c.get("engine.io_steps", 0)
        total = sum(s.get(f"layer.{layer}", 0.0) for layer in LAYERS)
        v = {
            "engine.io_s": s.get("engine.io", 0.0),
            "engine.io_steps": io_steps,
            "engine.io_us_per_step": 1e6 * s.get("engine.io", 0.0) / io_steps if io_steps else 0.0,
            **{f"engine.io_s.b{b}": s.get(f"engine.io.b{b}", 0.0) for b in SERIES_IO},
            "engine.derive_s": s.get("engine.derive", 0.0),
            "engine.derive_steps": c.get("engine.derive_steps", 0),
            **{f"engine.derive_s.b{b}": s.get(f"engine.derive.b{b}", 0.0) for b in SERIES_DERIVE},
            "engine.oi_s": s.get("engine.oi", 0.0),
            "engine.oi_steps": c.get("engine.oi_steps", 0),
            "engine.exhausted_jobs": c.get("engine.exhausted_jobs", 0),
            "typesys.analysis_s": s.get("layer.typesys", 0.0),
            "typesys.iterations": c.get("typesys.iterations", 0),
            "typesys.fixpoint_atoms": c.get("typesys.fixpoint_atoms", 0),
            "typesys.sem_apply_calls": c.get("typesys.sem_apply", 0),
            "typesys.reject_s": s.get("typesys.reject", 0.0),
            "io2oi.label_s": s.get("io2oi.label", 0.0),
            "io2oi.correct_s": s.get("io2oi.correct", 0.0),
            "io2oi.labeled_rules": c.get("io2oi.labeled_rules", 0),
            "io2oi.voided_rules": c.get("io2oi.voided_rules", 0),
            "io2oi.live_ratio": (c["io2oi.live_rules"] / c["io2oi.emitted_rules"]
                                 if c.get("io2oi.emitted_rules") else 0.0),
            "scheme.parse_s": s.get("scheme.parse", 0.0),
            "scheme.render_s": s.get("scheme.render", 0.0),
            "scheme.parse_nodes": c.get("scheme.parse_nodes", 0),
            "oi2io.bar_s": s.get("oi2io.bar", 0.0),
            "oi2io.rules_out": c.get("oi2io.rules_out", 0),
            "cli.self_s": s.get("layer.cli", 0.0),
            "cli.out_bytes": p["out_bytes"],
        }
        for layer in LAYERS:
            v[f"share.{layer}"] = s.get(f"layer.{layer}", 0.0) / total if total else 0.0
        return v

    rows = [layer_values(p) for p in traced]
    values = {k: med(r[k] for r in rows) for k in rows[0]}
    values["trace.overhead_s"] = (med(p["wall_s"] for p in traced)
                                  - med(p["wall_s"] for p in untraced))
    return values


def environment() -> dict:
    """Where the numbers come from: revision, source digest, machine."""
    rev = "unknown"
    if Path(".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(Path("src", "hors").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_revision": rev, "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("oi2io", "io2oi", "io-eval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (Path("src") / "hors" / "__init__.py").is_file():
        print("error: run from the root of a hors checkout (no src/hors here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import selftest

    selftest.selftest()

    refs_path(args).unlink(missing_ok=True)  # the first set-up process computes them afresh
    start = time.perf_counter()
    setups = []
    for i in range(SETUP_SAMPLES):
        left = RUN_LIMIT_S - (time.perf_counter() - start)
        setups.append(run_pass(args, f"setup{i}", False, left, setup_only=True)["setup_s"])
        if i == 0:
            # The measured stretch starts after the references, which take
            # from a second to 15 s, depending on the seed's draws.
            began = time.perf_counter()
    untraced, traced = [], []
    last = 0.0
    while not untraced or time.perf_counter() - began + last <= args.seconds:
        t0 = time.perf_counter()
        for kind in (untraced, traced) if args.trace else (untraced,):
            left = RUN_LIMIT_S - (time.perf_counter() - start)
            kind.append(run_pass(args, len(untraced) + len(traced), kind is traced, left))
        last = time.perf_counter() - t0

    refs_path(args).unlink(missing_ok=True)
    passes = traced if args.trace else untraced
    failures = [f for p in untraced + traced for f in p["failures"]]
    attempted = sum(p["attempted"] for p in untraced + traced)
    values, extra = end_to_end(untraced, setups, attempted, len(failures))
    if args.trace:
        metrics = per_layer(untraced, traced)
        units = {k: PER_LAYER[k][0] for k in metrics}
        shares = {k: v for k, v in metrics.items() if k.startswith("share.")}
    else:
        metrics = values
        units = {k: END_TO_END[k][0] for k in metrics}
        shares = None

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(untraced), "traced_passes": len(traced),
        "client": "one process, one client, closed loop",
        "metrics": {k: {"value": v, "unit": units[k],
                        "better": (PER_LAYER if args.trace else END_TO_END)[k][1]}
                    for k, v in metrics.items()},
        "end_to_end": values, **extra, "layer_self_share": shares,
        "layer_map": LAYER_MAP, "failures": failures, **environment(),
        "pass_jobs": [dict(zip(p["labels"], p["latencies"])) for p in passes],
        "pass_walls_s": [p["wall_s"] for p in untraced],
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for k, v in metrics.items():
        print(f"{args.workload} {k} = {v:.6g} {units[k]}")
    print(f"{args.workload} fail_ratio = {extra['fail_ratio']:.6g} "
          f"({len(failures)} of {attempted}); tail at p{extra['job_tail_percentile']} "
          f"with {extra['job_tail_jobs_beyond']} of {extra['jobs_per_pass']} jobs beyond")
    for f in failures:
        print(f"FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
