"""Benchmark of the siegelcong congruence engine, run from the repository root:

    python3 perfbench/run.py --workload siegel --seed 1 --seconds 55 --trace 0

Every job runs one CLI command the way a user does: a fresh
`python -m siegelcong.cli` process on the sources under src/, single-threaded,
one job at a time, with the disk cache on and pointed at a new empty
directory that is deleted afterwards.  Every job's output is checked
(checks.py); a wrong output, a nonzero exit or a timeout fails the job.

A workload is a round of commands, run in an order drawn from --seed; the
inputs never depend on the seed.  --trace 0 repeats rounds for about
--seconds seconds and reports round_s, the sum over the round's commands of
each command's median job time, the median peak RSS of the command that uses
most, and setup_s, the median time for a fresh interpreter to import
siegelcong.cli, timed twice before each job.  A shared host can change a
CPU's speed by up to 1.6 times from one phase of seconds or minutes to the
next, so these times are CPU times scaled to a reference speed, which a
thread of the benchmark samples on the jobs' CPU (HostSpeed).  --trace 1 runs
every command, whichever workload is named, once untraced and twice traced
(spans.py), so that every per-layer metric is measured in every traced run; it
requires the traced outputs to equal the untraced ones and the traced counts
to repeat exactly.  Its times are raw.

The last line of stdout is the JSON result.  The exit code is 1 when any
job failed and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from functools import partial
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
TABLE_DOC = SRC / "siegelcong" / "data" / "table_expected.json"
SETUP_PROBES = 2            # import timings before each job
CAL_PERIOD_S = 0.02         # pause between two timings of spin()
CAL_REF_S = 0.0012          # spin() CPU seconds at the reference speed (a fast phase)
CAL_HALF_S = 0.5            # a speed sample counts for timings within this distance
RUN_LIMIT_S = 170           # every run ends well inside the 180 s allowed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _table_doc():
    return json.loads(TABLE_DOC.read_text())


# name -> (CLI arguments, output check taking stdout)
COMMANDS = {
    "table": (["table", "--max-prime", "17"],
              lambda out: checks.check_table(out, _table_doc(), max_prime=17)),
    "search": (["search", "--max-weight", "18", "--max-prime", "17", "--quiet"],
               lambda out: checks.check_search(out, _table_doc(), max_weight=18, max_prime=17)),
    "check-b0": (["check", "chi12", "--p", "13", "--b", "0"],
                 partial(checks.check_reference, name="check-b0")),
    "heat-cycle": (["heat-cycle", "--weight", "12", "--index", "1", "--p", "17",
                    "--form", "phi12_1"],
                   partial(checks.check_reference, name="heat-cycle")),
}
# The Siegel-side commands share one workload so that each run is long
# enough for its median to absorb the host's slow phases.
WORKLOADS = {"siegel": ("table", "search", "check-b0"), "heat-cycle": ("heat-cycle",)}
# the traced check-b0 job reads its cache entries back, timing the warm read path
RELOAD_CACHE = {"check-b0"}
END_TO_END = {"round_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# per-layer metrics besides spans.metric_units(); src_lines is information only
TRACED_RUN = {"traced_wall_s": "s", "trace_overhead": "ratio", "src_lines": "lines"}


def per_layer_units():
    return dict(spans.metric_units(), **TRACED_RUN)


def job_env():
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("CONGRUENCE_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(cmd, workdir, timeout):
    """Run cmd with stdout/stderr in files under workdir.

    Returns (exit code, stdout, wall seconds, CPU seconds, peak RSS in MB); a
    process still running after `timeout` seconds is killed (exit code -9).
    """
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=job_env(), cwd=workdir)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = (workdir / "stdout").read_text(errors="replace")
    return proc.returncode, stdout, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def judge(code, stdout, check):
    """None when the job succeeded, else the reason it failed."""
    if code != 0:
        return f"exit code {code}"
    try:
        check(stdout)
    except checks.CheckFailed as exc:
        return str(exc)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output: {exc!r}"
    return None


def run_job(name, deadline, traced=False):
    """One job of command `name` with a fresh cache directory."""
    argv, check = COMMANDS[name]
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP))
    try:
        cli = [*argv, "--cache-dir", str(workdir / "cache")]
        if traced:
            extra = ["--reload-cache"] if name in RELOAD_CACHE else []
            cmd = [sys.executable, str(Path(spans.__file__)), str(workdir / "spans.json"),
                   *extra, "--", *cli]
        else:
            cmd = [sys.executable, "-m", "siegelcong.cli", *cli]
        timeout = max(5.0, deadline - time.perf_counter())
        code, stdout, wall, cpu, rss = run_process(cmd, workdir, timeout)
        job = {"command": name, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
               "exit": code, "stdout": stdout, "error": judge(code, stdout, check)}
        if traced and code == 0:
            job["spans"] = json.loads((workdir / "spans.json").read_text())
        return job
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def time_import(workdir, deadline, code="import siegelcong.cli"):
    """(stdout, wall seconds, CPU seconds) of a fresh interpreter running
    code; exits on failure."""
    timeout = max(5.0, deadline - time.perf_counter())
    exit_code, stdout, wall, cpu, _ = run_process([sys.executable, "-c", code], workdir, timeout)
    if exit_code != 0:
        raise SystemExit(f"cannot import siegelcong.cli from {SRC}: "
                         f"{(workdir / 'stderr').read_text(errors='replace').strip()}")
    return stdout, wall, cpu


def rounds(name, seed):
    """The workload's commands round after round, each round in seeded order."""
    rng = random.Random(seed)
    while True:
        order = list(WORKLOADS[name])
        rng.shuffle(order)
        yield order


def spin(np):
    """A fixed piece of CPU work of the program's kind: Python integer and
    dict arithmetic, then short int64 numpy convolutions mod p."""
    p, acc, seen = 10007, 1, {}
    for i in range(3000):
        acc = (acc * 31 + i) % p
        seen[acc & 255] = i
    a = np.arange(1, 120, dtype=np.int64)
    b = a[::-1].copy()
    for _ in range(60):
        a = np.convolve(a, b)[:119] % p
    return acc + int(a[0]) + len(seen)


class HostSpeed:
    """Samples, while jobs run, how fast the CPU they run on is.

    A shared host can give each CPU slow and fast phases, seconds to minutes
    long and independent between CPUs, in which the same work takes up to
    1.6 times as long, in CPU time as in wall time.  main() pins the
    benchmark and its jobs to one CPU, and a thread of this process times
    spin() in thread CPU seconds every CAL_PERIOD_S, so it sees the phases
    the jobs see.
    """

    def __init__(self):
        self.samples = []       # (perf_counter when timed, spin() CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        import numpy
        while not self._stop.wait(CAL_PERIOD_S):
            start = time.thread_time()
            spin(numpy)
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def scale(self, start, end):
        """CAL_REF_S over the mean spin() time sampled during [start, end],
        widened to at least 2 * CAL_HALF_S: multiplies a CPU time taken in
        that interval into seconds at the reference speed."""
        mid, half = (start + end) / 2, max((end - start) / 2, CAL_HALF_S)
        near = [d for t, d in self.samples if abs(t - mid) <= half]
        return CAL_REF_S / statistics.mean(near)


def timed_run(name, seed, seconds, deadline):
    """Rounds for about `seconds`.

    round_s sums over the round's commands the median of each command's jobs
    of its CPU time (ru_utime + ru_stime) times HostSpeed.scale() over the
    job: the seconds a job takes at the reference speed.  The jobs are
    CPU-bound and single-threaded: without the sampling thread, which takes
    about a tenth of the CPU, a job's wall time is its CPU time plus about
    0.1 s.  The raw wall and CPU times are in the detail line.  setup_s is
    the median of the import timings taken before each job, scaled the same
    way.
    """
    probe_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=TMP))
    # the first import writes bytecode caches, which a user pays once
    found, *_ = time_import(probe_dir, deadline,
                            "import siegelcong.cli, sys; sys.stdout.write(siegelcong.cli.__file__)")
    if not Path(found).resolve().is_relative_to(SRC):
        raise SystemExit(f"siegelcong.cli was imported from {found}, not from {SRC}")
    setup, jobs = [], []
    stop = time.perf_counter() + seconds
    with HostSpeed() as speed:
        for order in rounds(name, seed):
            start = time.perf_counter()
            for command in order:
                for _ in range(SETUP_PROBES):
                    begin = time.perf_counter()
                    _, _, cpu = time_import(probe_dir, deadline)
                    setup.append((begin, time.perf_counter(), cpu))
                begin = time.perf_counter()
                jobs.append(run_job(command, deadline))
                jobs[-1]["span"] = (begin, time.perf_counter())
            # stop when another round would overrun `stop` by more than half a round
            now = time.perf_counter()
            if now + (now - start) / 2 >= stop:
                break
    for job in jobs:
        job["scale"] = speed.scale(*job.pop("span"))
    times, rss = {}, {}
    for job in [j for j in jobs if j["error"] is None] or jobs:
        times.setdefault(job["command"], []).append(job["cpu_s"] * job["scale"])
        rss.setdefault(job["command"], []).append(job["peak_rss_mb"])
    metrics = {"round_s": sum(statistics.median(t) for t in times.values()),
               "peak_rss_mb": max(statistics.median(r) for r in rss.values()),
               "setup_s": statistics.median(cpu * speed.scale(begin, end)
                                            for begin, end, cpu in setup)}
    detail = {"job_samples": {c: len(t) for c, t in times.items()},
              "raw_setup_median_s": statistics.median(cpu for *_, cpu in setup),
              "speed_samples": len(speed.samples),
              "spin_median_s": statistics.median(d for _, d in speed.samples)}
    return jobs, metrics, END_TO_END, detail


def traced_run(seed, deadline):
    """One untraced and two traced passes over every command, so that every
    per-layer metric is measured whichever workload is named; the detail
    line splits the first traced pass by command."""
    order = list(COMMANDS)
    random.Random(seed).shuffle(order)
    plain = [run_job(c, deadline) for c in order]
    passes = [[run_job(c, deadline, traced=True) for c in order] for _ in range(2)]
    units = spans.metric_units()
    for traced in passes:
        for job, ref in zip(traced, plain):
            if job["error"] is None and job["stdout"] != ref["stdout"]:
                job["error"] = "traced output differs from the untraced output"
    found = [spans.metrics(spans.merge(j["spans"] for j in traced))
             for traced in passes if all("spans" in j for j in traced)]
    counts = [{k: v for k, v in m.items() if units[k] != "s"} for m in found]
    if len(counts) == 2 and counts[0] != counts[1]:
        moved = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        passes[1][0]["error"] = f"counts differ between two traced runs: {moved}"
    # counts repeat exactly, so only times need a median
    metrics = {k: (statistics.median(m[k] for m in found) if units[k] == "s" else found[0][k])
               if found else 0 for k in units}
    metrics["traced_wall_s"] = statistics.median(sum(j["wall_s"] for j in p) for p in passes)
    metrics["trace_overhead"] = metrics["traced_wall_s"] / sum(j["wall_s"] for j in plain)
    metrics["src_lines"] = src_lines()
    by_command = {}
    for job in passes[0]:
        if "spans" in job:
            found_here = spans.metrics(spans.merge([job["spans"]]))
            by_command[job["command"]] = {k: v for k, v in found_here.items() if v}
    return plain + passes[0] + passes[1], metrics, per_layer_units(), {"by_command": by_command}


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def meta(args):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    import numpy
    names = COMMANDS if args.trace else WORKLOADS[args.workload]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commands": {c: COMMANDS[c][0] for c in names},
            "commit": commit, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg": os.getloadavg(), "src_lines": src_lines()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "siegelcong" / "cli.py").is_file():
        print(f"no siegelcong sources under {SRC}", file=sys.stderr)
        return 2
    # turn SIGTERM into SystemExit so a running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one CPU for the benchmark, its jobs and its HostSpeed thread
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.perf_counter() + RUN_LIMIT_S
    TMP.mkdir(exist_ok=True)
    try:
        if args.trace:
            jobs, metrics, units, detail = traced_run(args.seed, deadline)
        else:
            jobs, metrics, units, detail = timed_run(args.workload, args.seed, args.seconds,
                                                     deadline)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    failed = sum(j["error"] is not None for j in jobs)
    rows = [{k: j[k] for k in ("command", "wall_s", "cpu_s", "peak_rss_mb", "scale", "exit",
                                "error") if k in j} for j in jobs]
    print(json.dumps(dict(meta(args), fail_frac=failed / len(jobs), jobs=rows, **detail)))
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
