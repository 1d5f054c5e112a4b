#!/usr/bin/env python3
"""Closed-loop benchmark of the cycloff verifier, one client, one job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     every workload in turn
    python3 perfbench/run.py --selftest             tracing wrapper checks

Workloads (perfbench/README.md gives the reasons and the layer mapping):

  verify-sweep  ``cycloff verify -q Q -M M all`` for q = 3, 4, 7, 8, 9, each in
                a fresh interpreter; one pass is the five reports in a
                seeded order.
  zeta-q5       ``cycloff verify -q 5 -M "T^2+2" all``; one pass is one report.
  divisors      one long library session calling ``places.divisor`` on the
                fixed draw pool in a seeded order; one pass is one session.

A run makes ``floor(seconds / PASS_S)`` passes, at least one.  ``PASS_S``
is fixed per workload, so every commit does the same work in a run of a
given length.  Every output is
checked: CLI reports byte for byte against ``perfbench/golden``, divisors
against the recorded hash of each draw and for degree zero.  With ``--trace 0`` the last line of standard output
holds the end-to-end metrics; with ``--trace 1`` a traced pass between two
untraced ones gives the per-layer metrics and the tracing overhead.  Each run
also writes its jobs and environment to ``perfbench/results/``.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden")
RESULTS = os.path.join(HERE, "results")

SWEEP = {3: "T^2+1", 4: "T^2+T+g", 7: "T^2+1", 8: "T^2+T+1", 9: "T^2+g+1"}
ZETA = {5: "T^2+2"}
FIELDS = {3: "3,1", 4: "2,2", 5: "5,1", 7: "7,1", 8: "2,3", 9: "3,2"}
SETUP_FIELDS = {"verify-sweep": [FIELDS[q] for q in SWEEP],
                "zeta-q5": [FIELDS[5]],
                "divisors": [FIELDS[q] for q in (3, 5, 7, 8, 9)]}
WORKLOADS = tuple(SETUP_FIELDS)
# --seconds per pass: a 40 s run makes two sweep passes and two divisor
# sessions (each about 15 s and 30 s on a 2-core Xeon).
PASS_S = {"verify-sweep": 20, "zeta-q5": 25, "divisors": 20}
SETUP_REPEATS = 10
JOB_TIMEOUT_S = 150
REFUSALS = ("!GenericPlaceUnsupported", "!TooLarge")


class Job:
    __slots__ = ("key", "seconds", "ok", "correct", "rss_kb")

    def __init__(self, key, seconds, ok, correct, rss_kb=0):
        self.key, self.seconds, self.ok = key, seconds, ok
        self.correct, self.rss_kb = correct, rss_kb


def spawn(args, out_path):
    """Run child.py; return (seconds, exit code, max RSS in KiB)."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD] + args, cwd=ROOT,
                                stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


def golden_report(q):
    with open(os.path.join(GOLDEN, f"verify_q{q}.json"), "rb") as fh:
        return fh.read()


def claims_hold(text):
    try:
        claims = json.loads(text)["paper_claims"]
    except (ValueError, KeyError, TypeError):
        return False
    return bool(claims) and all(v is True for v in claims.values())


class Run:
    """One invocation: set-up probes, passes, checks and metrics."""

    def __init__(self, workload, seed, seconds, work):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work = work
        self.passes = []   # (seconds, [Job], traced)
        self.dumps = []    # trace dumps of the traced pass
        self.notes = []

    # -- jobs -----------------------------------------------------------------

    def _cli_job(self, q, modulus, tag, traced):
        key = f"{tag}-q{q}"
        out = os.path.join(self.work, key + ".out")
        trace_out = os.path.join(self.work, key + ".trace") if traced else "-"
        seconds, code, rss = spawn(
            ["cli", key, trace_out, "--", "verify", "-q", str(q), "-M",
             modulus, "all"], out)
        with open(out, "rb") as fh:
            text = fh.read()
        same = text == golden_report(q)
        ok = code == 0 and same and claims_hold(text)
        if not ok:
            self.notes.append(f"{key}: exit {code}, identical report {same}")
        if traced and code == 0:
            with open(trace_out, encoding="utf-8") as fh:
                self.dumps.append(json.load(fh))
        return Job(key, seconds, ok, ok, rss)

    def _cli_pass(self, moduli, traced):
        n = len(self.passes)
        order = sorted(moduli)
        random.Random(self.seed * 1000 + n).shuffle(order)
        t0 = time.perf_counter()
        jobs = [self._cli_job(q, moduli[q], f"p{n}", traced) for q in order]
        return time.perf_counter() - t0, jobs

    def _divisor_pass(self, traced):
        n = len(self.passes)
        out = os.path.join(self.work, f"p{n}-divisors.json")
        trace_out = os.path.join(self.work, f"p{n}.trace") if traced else "-"
        _, code, rss = spawn(["divisors", str(self.seed * 1000 + n), out,
                              trace_out],
                             out + ".log")
        if code != 0:
            raise RuntimeError(f"divisor session exited {code}; see {out}.err")
        with open(out, encoding="utf-8") as fh:
            session = json.load(fh)
        if traced:
            with open(trace_out, encoding="utf-8") as fh:
                self.dumps.append(json.load(fh))
        with open(os.path.join(GOLDEN, "divisors.json"),
                  encoding="utf-8") as fh:
            recorded = json.load(fh)
        jobs = []
        for key, seconds, digest, degree in session["jobs"]:
            want = recorded[key]
            if digest in REFUSALS:
                ok, correct = False, True
            elif digest.startswith("!"):
                ok, correct = False, False
            else:
                # a draw refused when recorded has no hash to compare with
                ok = degree == 0 and (digest == want or want in REFUSALS)
                correct = ok
            if not correct:
                self.notes.append(f"divisor {key}: got {digest} degree "
                                  f"{degree}, recorded {want}")
            jobs.append(Job(key, seconds, ok, correct, rss))
        return session["wall_s"], jobs

    def one_pass(self, traced=False):
        if self.workload == "verify-sweep":
            wall, jobs = self._cli_pass(SWEEP, traced)
        elif self.workload == "zeta-q5":
            wall, jobs = self._cli_pass(ZETA, traced)
        else:
            wall, jobs = self._divisor_pass(traced)
        self.passes.append((wall, jobs, traced))
        return wall

    # -- phases ---------------------------------------------------------------

    def setup_probes(self, count):
        """Times of fresh interpreters that import the CLI and make fields."""
        times = []
        for i in range(count):
            seconds, code, _ = spawn(["setup"] + SETUP_FIELDS[self.workload],
                                     os.path.join(self.work, f"setup{i}.out"))
            if code != 0:
                raise RuntimeError(f"set-up probe exited {code}")
            times.append(seconds)
        return times

    def measure(self):
        for _ in range(max(1, int(self.seconds // PASS_S[self.workload]))):
            self.one_pass()

    def jobs(self, traced=None):
        return [j for _, jobs, t in self.passes
                if traced is None or t == traced for j in jobs]


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(run, setup_s):
    passes = [(w, jobs) for w, jobs, traced in run.passes if not traced]
    jobs = run.jobs(traced=False)
    times = [j.seconds for j in jobs]
    failed = sum(not j.ok for j in jobs)
    # the tail is taken per pass, so its percentile rests on the pass's job
    # list and not on how many passes a run makes
    tails = [tail([j.seconds for j in js]) for _, js in passes]
    _, pct, per_pass = tails[0]
    return {
        "wall_s": (statistics.median(w for w, _ in passes), "s",
                   f"median of {len(passes)} passes"),
        "job_p50_s": (statistics.median(times), "s", f"{len(times)} jobs"),
        "job_tail_s": (statistics.median(t for t, _, _ in tails), "s",
                       f"median over {len(passes)} passes of p{pct:.2f} "
                       f"of {per_pass} jobs"),
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} fresh "
                                  "interpreters"),
        "peak_rss_mb": (max(j.rss_kb for j in jobs) / 1024, "MB",
                        "largest process"),
        "ok_ratio": ((len(jobs) - failed) / len(jobs), "ratio",
                     f"fail_ratio {failed / len(jobs):.4f} = "
                     f"{failed}/{len(jobs)}"),
    }


def environment():
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "threads": 1}


def run_workload(workload, seed, seconds, trace):
    os.makedirs(RESULTS, exist_ok=True)
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    with tempfile.TemporaryDirectory(dir=RESULTS) as work:
        run = Run(workload, seed, seconds, work)
        if trace:
            from spans import layer_metrics
            # untraced passes on both sides, so a drift in machine speed
            # during the run does not read as tracing overhead
            before = run.one_pass()
            traced = run.one_pass(traced=True)
            untraced = (before + run.one_pass()) / 2
            metrics = {name: (value, unit, "") for name, (value, unit)
                       in layer_metrics(run.dumps).items()}
            metrics["trace.overhead_s"] = (traced - untraced, "s",
                                           f"traced {traced:.3f} s - "
                                           f"untraced mean {untraced:.3f} s")
        else:
            # half the probes before the passes and half after, so the
            # median does not rest on one moment of a shared machine
            probes = run.setup_probes(SETUP_REPEATS // 2)
            run.measure()
            probes += run.setup_probes(SETUP_REPEATS - len(probes))
            metrics = end_to_end(run, statistics.median(probes))
    env["loadavg_end"] = os.getloadavg()
    jobs = run.jobs()
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": env,
        "correct": all(j.correct for j in jobs),
        "attempted": len(jobs), "failed": sum(not j.ok for j in jobs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _)
                    in metrics.items()},
        "notes": run.notes,
        "passes": [{"wall_s": w, "traced": t,
                    "jobs": [[j.key, j.seconds, j.ok] for j in js]}
                   for w, js, t in run.passes],
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}-"
                                 f"{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"{workload}  seed {seed}  trace {trace}  passes "
          f"{len(run.passes)}  jobs {len(jobs)}  correct {result['correct']}")
    for name, (value, unit, how) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:6s} {how}")
    for note in run.notes[:20]:
        print(f"  note: {note}")
    print(f"  result file: {os.path.relpath(path, ROOT)}")
    return result


def selftest():
    """Every traced binding is wrapped, and tracing leaves reports identical."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    from spans import Tracer
    tracer = Tracer().install()
    missing = tracer.unwrapped()
    import cycloff
    if not os.path.realpath(cycloff.__file__).startswith(
            os.path.realpath(src) + os.sep):
        missing.append(f"cycloff imported from {cycloff.__file__}")
    for line in missing:
        print(f"unwrapped original: {line}")
    with tempfile.TemporaryDirectory(dir=RESULTS) as work:
        run = Run("verify-sweep", 0, 0, work)
        plain = run._cli_job(4, SWEEP[4], "plain", traced=False)
        traced = run._cli_job(4, SWEEP[4], "traced", traced=True)
        identical = plain.ok and traced.ok
        spans = len(run.dumps[0]["spans"]) if run.dumps else 0
    print(f"traced and untraced q=4 reports identical to golden: {identical}")
    print(f"spans recorded in traced report: {spans}")
    return 0 if not missing and identical and spans else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cycloff", "cli.py")):
        print(f"no cycloff source under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, args.trace)
               for w in names]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
