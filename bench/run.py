#!/usr/bin/env python3
"""permest benchmark.

    python3 bench/run.py --workload exact --seed 1 --seconds 15 --trace 0

runs one workload (exact, estimate, derandomize or cli) from the root of a
source checkout, importing ``permest`` from ``src/``. It makes the
workload's inputs from ``--seed``, runs one untimed warm-up job, then a
fixed number of passes over the workload's job list, one job at a time
(a closed loop with one client). The pass count is ``--seconds`` over the
workload's nominal pass time, so every commit runs the same jobs. Each job's
result is checked after the timed passes.

With ``--trace 0`` it reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics, and writes the spans to
``bench/results/``. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its sample count, and a provenance record.

``--workload all`` runs the four workloads, each in a fresh process, and
prints every metric in one table. ``--tiny`` shrinks every input, for a
quick smoke run (see ``bench/smoke.py``).

Only the standard library is imported at module level: ``setup_s`` times
the import of ``permest`` (and with it numpy) plus input generation, in this
process and in fresh child processes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import env_with_pythonpath, run_child

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("exact", "estimate", "derandomize", "cli")
# fresh processes that repeat set-up, in addition to this one; half run
# before the timed passes and half after, so they sample the whole run
SETUP_PROBES = 10
# fresh processes timed for the interpreter and for importing permest.cli
STARTUP_PROBES = 5
MIN_PASSES = 2
STRONG_CACHE_NOTE = (
    "permest.complex_bias._strong_generator is a process-wide cache that a CLI user never "
    "has warm; it is emptied before every pass, so in-process passes pay for it too"
)


def set_up(workload: str, seed: int, tiny: bool, workdir: Path):
    """Import permest from the checkout and build the workload's inputs."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import permest

    if Path(permest.__file__).resolve().parent != SRC / "permest":
        raise ImportError(f"permest was imported from {permest.__file__}, not from {SRC}")
    import workloads

    built = workloads.build(workload, seed, tiny, workdir)
    return built, time.perf_counter() - start


def probe_setup(args, workdir: Path) -> float:
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    res = run_child(argv, str(ROOT), dict(os.environ), str(workdir))
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {res.returncode}")
    return json.loads(res.stdout.decode().splitlines()[-1])["setup_s"]


def startup_probe(code: str, workdir: Path) -> float:
    times = []
    for _ in range(STARTUP_PROBES):
        res = run_child([sys.executable, "-c", code], str(ROOT), env_with_pythonpath(SRC), str(workdir))
        if res.returncode != 0:
            raise RuntimeError(f"{code!r} exited with {res.returncode}")
        times.append(res.wall_s)
    return statistics.median(times)


def run_pass(jobs, records, tracer=None) -> float:
    """One pass over the job list; appends (job, seconds, result) records."""
    from workloads import reset_caches

    reset_caches()
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job += 1
        t0 = time.perf_counter()
        try:
            result = job.call()
        except Exception as exc:  # a job that raises is a failed job
            result = exc
        records.append((job, time.perf_counter() - t0, result))
    return time.perf_counter() - start


def check_records(records):
    """Run every job's check; returns (failures, largest diagnostic ratio)."""
    failed = 0
    worst = 0.0
    for job, _, result in records:
        ok, diag, why = False, None, f"raised {result!r}"
        if not isinstance(result, Exception):
            try:
                (ok, diag), why = job.check(result), "wrong result"
            except Exception as exc:
                why = f"check raised {exc!r}"
        if not ok:
            print(f"# FAILED {job.name}: {why}", file=sys.stderr)
        failed += not ok
        if diag is not None:
            worst = max(worst, diag)
    return failed, worst


def tail(times):
    """Highest percentile with at least 10 jobs beyond it (the largest time
    when there are fewer than 11 jobs): (value, percentile, jobs beyond)."""
    ordered = sorted(times)
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered) - rank - 1


def cpu_record() -> dict:
    record = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu_model": platform.processor()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    record["caches"] = caches
    return record


def blas_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        record = {}
    record["thread_env"] = {
        k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    record["threads"] = _openblas_threads()
    return record


def _openblas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and line.endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args, passes) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "passes": passes,
        "machine": cpu_record(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "git_commit": git_commit(),
        "notes": [STRONG_CACHE_NOTE],
    }


def end_to_end(args, built, workdir):
    wl, own_setup = built
    setups = [own_setup] + [probe_setup(args, workdir) for _ in range(SETUP_PROBES // 2)]
    passes = max(MIN_PASSES, round(args.seconds / wl.nominal_pass_s))
    run_pass([wl.warmup], [])
    records, walls = [], []
    for _ in range(passes):
        walls.append(run_pass(wl.jobs, records))
    setups += [probe_setup(args, workdir) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    if wl.in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kib = max((r.maxrss_kib for _, _, r in records if not isinstance(r, Exception)), default=0)
    failed, _ = check_records(records)
    times = [t for _, t, _ in records]
    tail_s, tail_pct, beyond = tail(times)
    n = len(times)
    # each job's median over the passes, so that a slow pass moves no job
    # across the median
    per_job = {}
    for job, t, _ in records:
        per_job.setdefault(id(job), []).append(t)
    job_medians = [statistics.median(ts) for ts in per_job.values()]
    metrics = {
        "wall_s": (statistics.median(walls), f"median of {passes} passes of {len(wl.jobs)} jobs"),
        "job_p50_s": (
            statistics.median(job_medians),
            f"median over {len(job_medians)} jobs of each job's median of {passes} passes",
        ),
        "job_tail_s": (tail_s, f"p{tail_pct:.1f} of {n} jobs ({beyond} beyond it)"),
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (peak_kib / 1024.0, "largest child process" if not wl.in_process else "this process"),
    }
    print(f"# failed_ratio {failed / n:.4g} ratio ({failed} of {n} jobs)")
    return metrics, n, failed, passes


def traced(args, built, workdir):
    import tracing
    import workloads

    wl, _ = built
    # every layer is measured on every workload: each traced pass is followed
    # by the traced jobs of all four workloads at tiny sizes, untimed
    coverage_dir = workdir / "coverage"
    coverage_dir.mkdir()
    coverage = [job for name in WORKLOADS for job in workloads.build(name, args.seed, True, coverage_dir).traced_jobs]
    run_pass([wl.warmup], [])
    tracer = tracing.Tracer()
    plain_records, traced_records, coverage_records, plain_walls, traced_walls = [], [], [], [], []
    start = time.perf_counter()
    pairs = 0
    # pairs of one untraced and one traced pass, in alternating order, while
    # one more pair fits the run length
    while pairs == 0 or (time.perf_counter() - start) * (pairs + 1) / pairs <= args.seconds:
        for traced_pass in (pairs % 2 == 1, pairs % 2 == 0):
            if not traced_pass:
                plain_walls.append(run_pass(wl.traced_jobs, plain_records))
                continue
            tracer.install()
            try:
                traced_walls.append(run_pass(wl.traced_jobs, traced_records, tracer))
                run_pass(coverage, coverage_records, tracer)
            finally:
                tracer.uninstall()
        pairs += 1
    failed, worst = check_records(plain_records + traced_records)
    coverage_failed, coverage_worst = check_records(coverage_records)
    layer = tracing.layer_metrics(tracer.spans, pairs)
    layer["estimators.err_over_guarantee_max"] = max(worst, coverage_worst)
    layer["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    interpreter = startup_probe("pass", workdir)
    layer["cli.interpreter_s"] = interpreter
    layer["cli.import_s"] = startup_probe("import permest.cli", workdir) - interpreter
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    n = len(plain_records) + len(traced_records) + len(coverage_records)
    return {k: (v, f"{pairs} traced passes") for k, v in layer.items()}, n, failed + coverage_failed, 2 * pairs


def run_workload(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        try:
            built = set_up(args.workload, args.seed, args.tiny, workdir)
        except ImportError as exc:
            print(f"error: cannot import permest from {SRC}: {exc}", file=sys.stderr)
            return 2
        measure = traced if args.trace else end_to_end
        measured, attempted, failed, passes = measure(args, built, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {}
    for m in wanted:
        # a layer the workload never reaches reports zero
        value, how = measured.get(m["name"], (0.0, "not reached"))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']:58s} {value:14.6g} {m['unit']:6s} {how}")
    print(json.dumps({"provenance": provenance(args, passes)}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; one table of every metric."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in lines[:-2]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input (smoke run)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
        try:
            _, seconds = set_up(args.workload, args.seed, args.tiny, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
