#!/usr/bin/env python3
"""Benchmark of the octolift verification pipelines.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

One process runs one workload as a single closed-loop client: it sends jobs
back to back, each after the previous one finished.  With ``--trace 0`` it
reports the end-to-end metrics of ``BENCHMARK.json``, with its times
corrected for the shared host's changing speed (``calibrate.py``); with
``--trace 1`` it runs a fixed list of jobs untraced and then traced, and
reports the per-layer metrics.  ``--workload all`` runs every workload in
its own fresh process and prints one table.  The last line of standard
output is the JSON result; the full record (run metadata, every metric,
failures, job times) goes to ``bench/results/``; ``correct`` is false when
any job failed its checks.
"""

import os
import sys

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Native thread pools read these when numpy and scipy are first imported.
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import HostClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CheckFailed, Context, WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
IMPORT_SAMPLES = 3      # fresh-interpreter imports per run
PREPARE_SAMPLES = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_seconds() -> float:
    """Time `import octolift.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import octolift.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.split()[-1])


def run_job(wl, ctx, j, tracer=None):
    """Run job j; return (its wall seconds before its check, error or
    None).  An exception from the program counts as a failed job."""
    start = time.perf_counter()
    try:
        if tracer is None:
            check = wl.job(ctx, j)
        else:
            check = tracer.run_job(j, wl.job, ctx, j)
        elapsed = time.perf_counter() - start
        if check is not None:
            check()
        return elapsed, None
    except CheckFailed as e:
        return time.perf_counter() - start, str(e)
    except Exception as e:  # the run goes on; the job counts as failed
        return time.perf_counter() - start, f"{type(e).__name__}: {e}"


def readme_smoke(workdir: Path):
    """Run every `octolift ...` line of the README's command-line section
    in a fresh interpreter, in order, in one empty directory."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[-1]
    workdir.mkdir(parents=True)
    records = []
    for line in section.splitlines():
        if not line.startswith("octolift "):
            continue
        argv = shlex.split(line, comments=True)
        try:
            p = subprocess.run(
                [sys.executable, "-m", "octolift.cli", *argv[1:]],
                cwd=workdir, env=child_env(), capture_output=True, text=True,
                timeout=60)
            code = p.returncode
            try:
                total_s = json.loads(p.stdout)["timings"]["total_s"]
            except (ValueError, KeyError, TypeError):
                total_s = None
        except subprocess.TimeoutExpired:
            code, total_s = None, None
        records.append({"command": line, "exit": code, "total_s": total_s})
    return records


def run_meta(args) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30
                             ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "octolift").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    import mpmath
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_rev": rev, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": NPROC, "machine": platform.machine(),
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS}}


def intervals(host, fn, *args):
    """Run fn(*args); return its result and the host intervals it added."""
    first = len(host.intervals)
    result = fn(*args)
    return result, range(first, len(host.intervals))


def span_seconds(host, span):
    """(as measured, host-speed corrected) seconds of a span of intervals."""
    pairs = [host.seconds(i) for i in span]
    return (sum(p[0] for p in pairs), sum(p[1] for p in pairs))


def timed_run(wl, ctx, seconds):
    """Jobs 1, 2, ... back to back until `seconds` have passed and the last
    cycle of job sizes is complete; returns [(job, span of host intervals,
    error)].  A job's time is that of its calls into the program."""
    jobs = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(jobs) % wl.cycle:
        j = len(jobs) + 1
        (_elapsed, err), span = intervals(ctx.host, run_job, wl, ctx, j)
        jobs.append((j, span, err))
    return jobs


def end_to_end_metrics(times, passed, setup_s):
    return {"setup_s": (setup_s, "s"),
            "jobs_per_s": (passed / sum(times), "1/s"),
            "job_p50_s": (statistics.median(times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB")}


def traced_run(wl, ctx, record):
    """The fixed job list untraced, then traced, then the README smoke;
    returns the jobs of both passes and the per-layer metrics."""
    numbers = range(1, wl.trace_jobs + 1)
    plain = [(j, *run_job(wl, ctx, j)) for j in numbers]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [(j, *run_job(wl, ctx, j, tracer)) for j in numbers]
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(len(numbers))
    untraced_s = sum(dt for _j, dt, _err in plain)
    traced_s = sum(dt for _j, dt, _err in traced)
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s,
                                      "frac")
    readme = readme_smoke(ctx.work / "readme")
    metrics["cli.readme_failures"] = (sum(r["exit"] != 0 for r in readme),
                                      "count")
    (BENCH / "results").mkdir(exist_ok=True)
    tracer.dump_spans(BENCH / "results" /
                      f"{wl.name}-seed{ctx.seed}-spans.json")
    record.update(readme=readme, untraced_job_s=[dt for _j, dt, _e in plain],
                  traced_job_s=[dt for _j, dt, _e in traced])
    return plain + traced, metrics


def run_workload(args) -> int:
    spec = load_spec()
    wl = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    import octolift.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "octolift":
        raise RuntimeError(f"imported octolift from {cli.__file__}, "
                           f"not from {SRC}")
    from octolift import coset, whittaker

    record = {"meta": run_meta(args)}
    ctx = Context(cli, whittaker, coset,
                  BENCH / "work" / f"{wl.name}-{os.getpid()}", args.seed)
    try:
        ctx.work.mkdir(parents=True)
        imports = [import_seconds() for _ in range(IMPORT_SAMPLES)]
        if args.trace:
            wl.prepare(ctx)
            warmup = (0, *run_job(wl, ctx, 0))
            jobs, metrics = traced_run(wl, ctx, record)
        else:
            host = ctx.host = HostClock(wl.host_block)
            with host:
                prepare = [intervals(host, wl.prepare, ctx)[1]
                           for _ in range(PREPARE_SAMPLES)]
                (dt, err), warmup_span = intervals(host, run_job, wl, ctx, 0)
                timed = timed_run(wl, ctx, args.seconds)
            warmup = (0, dt, err)
            timed = [(j, span_seconds(host, span), err)
                     for j, span, err in timed]
            jobs = [(j, dt, err) for j, (dt, _c), err in timed]
            metrics = {}
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    metrics["cli.import_s"] = (statistics.median(imports), "s")
    setup_s = {"import_s": [(t, t) for t in imports]}
    if not args.trace:
        passed = sum(err is None for _j, _t, err in timed)
        setup_s.update(
            prepare_s=[span_seconds(host, span) for span in prepare],
            warmup_s=[span_seconds(host, warmup_span)])
        # setup as measured ([0]) and host-speed corrected ([1])
        setup_total = [sum(statistics.median(t[k] for t in samples)
                           for samples in setup_s.values()) for k in (0, 1)]
        raw = end_to_end_metrics([dt for _j, (dt, _c), _e in timed], passed,
                                 setup_total[0])
        metrics.update(end_to_end_metrics([c for _j, (_dt, c), _e in timed],
                                          passed, setup_total[1]))
        record.update(job_s=[dt for _j, (dt, _c), _e in timed],
                      corrected_job_s=[c for _j, (_dt, c), _e in timed],
                      job_p50_samples=len(timed),
                      raw_metrics={k: {"value": v, "unit": u}
                                   for k, (v, u) in raw.items()},
                      reference_block_s=host.blocks)
        print(f"{wl.name}: as measured, before the host-speed correction: "
              + ", ".join(f"{k} {v:.4g} {u}" for k, (v, u) in raw.items()),
              file=sys.stderr)
    jobs.insert(0, warmup)
    failures = [{"job": j, "error": err} for j, _dt, err in jobs if err]
    attempted, failed = len(jobs), len(failures)
    metrics["failed_frac"] = (failed / attempted, "frac")
    record.update(setup={k: {"raw": [t[0] for t in v],
                             "corrected": [t[1] for t in v]}
                         for k, v in setup_s.items()},
                  failures=failures,
                  attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in sorted(metrics.items())})
    (BENCH / "results").mkdir(exist_ok=True)
    with open(BENCH / "results" /
              f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)

    reported = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {unit!r} is not the "
                               f"unit {m['unit']!r} of BENCHMARK.json")
        reported[m["name"]] = {"value": value, "unit": unit}
    for fail in failures[:5]:
        print(f"job {fail['job']} failed: {fail['error']}", file=sys.stderr)
    print(f"{wl.name}: {attempted} jobs, {failed} failed, failed_frac "
          f"{failed / attempted:.4g}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one table of results."""
    status = 0
    for name in WORKLOADS:
        p = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(p.stderr)
        if p.returncode != 0 or not p.stdout.strip():
            print(f"{name}: exit {p.returncode}")
            status = 1
            continue
        result = json.loads(p.stdout.strip().splitlines()[-1])
        rows = dict(result["metrics"])
        rows["failed_frac"] = {"value": result["failed"]
                               / result["attempted"], "unit": "frac"}
        for metric, m in rows.items():
            print(f"{name:<13} {metric:<45} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "octolift" / "cli.py").is_file():
        print(f"no octolift sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
