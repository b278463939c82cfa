"""The repository's benchmark: three workloads, end-to-end and per-layer.

One run of one workload (the last stdout line is the result as JSON)::

    python3 benchmarks/suite/run.py --workload codec-bulk --seed 0 --seconds 35 --trace 0

A suite -- every workload, repeated in rotating order, one fresh process
per run, medians and quartile spreads printed by metric::

    python3 benchmarks/suite/run.py --repeats 5 --trace --out results.json

Judging a change against its parent, and re-deriving the regression
bounds in BENCHMARK.json from two independent sets of runs::

    python3 benchmarks/suite/run.py compare PARENT.json CHANGE.json
    python3 benchmarks/suite/run.py calibrate --repeats 5 --write

See README.md in this directory for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: a single run must end within this many seconds of starting
RUN_DEADLINE_S = 170.0


class RunFailed(RuntimeError):
    """A workload process failed before producing a result."""


# ---------------------------------------------------------------------------
# Running workloads
# ---------------------------------------------------------------------------

def _launch(workload: str, seed: int, seconds: float, trace: bool, scale: float,
            setup_only: bool = False) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--scale", str(scale)]
    if setup_only:
        cmd.append("--setup-only")
    return subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _wait_ready(proc: subprocess.Popen, t0: float, deadline: float) -> float:
    """Seconds from launch (``t0``) until the process reported ready."""
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise RunFailed(f"no set-up answer within the deadline (pid {proc.pid})")
    if proc.stdout.readline().strip() != "ready":
        raise RunFailed(f"set-up failed (exit code {proc.wait()})")
    return time.perf_counter() - t0


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0) -> dict:
    """Set the workload up in fresh processes (:data:`spec.SETUP_SAMPLES`
    times when untraced, once when traced), measure in the last one, and
    return its result."""
    deadline = time.monotonic() + max(RUN_DEADLINE_S, 3 * seconds)
    load_before = list(os.getloadavg())
    setup = []
    for _ in range(0 if trace else spec.SETUP_SAMPLES - 1):
        t0 = time.perf_counter()
        proc = _launch(workload, seed, seconds, trace, scale, setup_only=True)
        try:
            setup.append(_wait_ready(proc, t0, deadline))
            if proc.wait(timeout=max(deadline - time.monotonic(), 0)) != 0:
                raise RunFailed(f"set-up probe exited with {proc.returncode}")
        finally:
            _stop(proc)
    t0 = time.perf_counter()
    proc = _launch(workload, seed, seconds, trace, scale)
    try:
        setup.append(_wait_ready(proc, t0, deadline))
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{workload} did not finish within the deadline") from None
        lines = out.splitlines()
        if proc.returncode != 0 or not lines:
            raise RunFailed(f"{workload} exited with {proc.returncode}")
    finally:
        _stop(proc)
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setup)
    result.update(workload=workload, seed=seed, trace=trace, seconds=seconds,
                  scale=scale, setup_samples=setup, loadavg_before=load_before,
                  loadavg_after=list(os.getloadavg()))
    return result


def host_fingerprint() -> dict:
    commit = None  # unless the checkout is a git repository of its own
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
    }


def suite_plan(workloads, repeats: int, seed: int, trace: bool) -> list:
    """``repeats`` untraced runs per workload, rotating the order between
    repeats (repeat ``r`` uses seed ``seed + r``), plus one traced run per
    workload when ``trace``: a list of ``(workload, seed, traced)``."""
    plan = [(workloads[(i + r) % len(workloads)], seed + r, False)
            for r in range(repeats) for i in range(len(workloads))]
    if trace:
        plan += [(w, seed, True) for w in workloads]
    return plan


def run_plan(plan, seconds: float, scale: float = 1.0, config=None, log=print) -> dict:
    """Every ``(workload, seed, traced)`` run of ``plan``, in order, with the
    host fingerprint and the summary."""
    host = host_fingerprint()
    runs = []
    for n, (workload, s, traced) in enumerate(plan, 1):
        log(f"[{n}/{len(plan)}] {workload} seed={s}{' traced' if traced else ''}")
        runs.append(run_one(workload, s, seconds, traced, scale))
    host["loadavg_after"] = list(os.getloadavg())
    host.update(runs[0]["versions"])
    return {"schema": "repro-bench-suite/3", "host": host,
            "config": dict(config or {}, seconds=seconds, scale=scale),
            "runs": runs, "summary": summarize(runs), "latency": latency_table(runs)}


def run_suite(workloads, repeats: int, seed: int, seconds: float, trace: bool,
              scale: float = 1.0, log=print) -> dict:
    config = {"workloads": list(workloads), "repeats": repeats, "seed": seed, "trace": trace}
    return run_plan(suite_plan(workloads, repeats, seed, trace), seconds, scale, config, log)


def values_by_workload(runs, traced: bool) -> dict:
    """workload -> metric -> values over the runs."""
    out: dict = {}
    for r in runs:
        if r["trace"] == traced:
            for name, v in r["metrics"].items():
                out.setdefault(r["workload"], {}).setdefault(name, []).append(v)
    return out


def summarize(runs) -> dict:
    return {w: {m: summary.describe(v) for m, v in metrics.items()}
            for w, metrics in values_by_workload(runs, False).items()}


def latency_table(runs) -> dict:
    """workload -> ``kind.statistic`` -> its description over the untraced
    runs: median and tail latency, their sample counts, complete cycles."""
    out: dict = {}
    for r in runs:
        if not r["trace"]:
            for kind, stats in r["latency"].items():
                for stat, v in stats.items():
                    out.setdefault(r["workload"], {}).setdefault(f"{kind}.{stat}", []).append(v)
    return {w: {k: summary.describe(v) for k, v in m.items()} for w, m in out.items()}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def print_end_to_end(result: dict) -> None:
    print(f"{'workload':<12} {'metric':<17} {'unit':<6} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>8} {'n':>3}")
    for workload, metrics in result["summary"].items():
        for name, (unit, _) in spec.END_TO_END.items():
            d = metrics.get(name)
            if d is not None:
                print(f"{workload:<12} {name:<17} {unit:<6} {d['median']:>11.4f} "
                      f"{d['q1']:>11.4f} {d['q3']:>11.4f} {100 * d['spread']:>7.2f}% "
                      f"{d['n']:>3}")


def print_latency(result: dict) -> None:
    tail = f"p{spec.TAIL}_ms"
    print(f"\n{'workload':<12} {'op':<6} {'p50_ms':>9} {'spread':>8} {tail:>9} {'spread':>8} "
          f"{'n':>6} {'beyond':>6} {'cycles':>6}   (medians over runs; not end-to-end metrics)")
    for workload, stats in result["latency"].items():
        for kind in ("write", "read"):
            d = {k.split(".", 1)[1]: v for k, v in stats.items() if k.startswith(kind + ".")}
            print(f"{workload:<12} {kind:<6} {d['p50_ms']['median']:>9.3f} "
                  f"{100 * d['p50_ms']['spread']:>7.2f}% {d[tail]['median']:>9.3f} "
                  f"{100 * d[tail]['spread']:>7.2f}% {d['n']['median']:>6.0f} "
                  f"{d['beyond_' + tail[:-3]]['median']:>6.0f} {d['cycles']['median']:>6.0f}")


def print_per_layer(result: dict) -> None:
    traced = {r["workload"]: r["metrics"] for r in result["runs"] if r["trace"]}
    if not traced:
        return
    names = list(traced)
    print(f"\n{'layer metric':<40} {'unit':<7}" + "".join(f" {w:>12}" for w in names))
    for metric, (unit, _) in spec.PER_LAYER.items():
        print(f"{metric:<40} {unit:<7}"
              + "".join(f" {traced[w].get(metric, float('nan')):>12.4g}" for w in names))


def contract_line(result: dict) -> dict:
    """The last stdout line of a single run: correct, attempted, failed and
    every metric of the run with its unit."""
    table = spec.PER_LAYER if result["trace"] else spec.END_TO_END
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def load_bounds() -> dict:
    if not BENCHMARK_JSON.exists():
        return {}
    return {m["name"]: m["bound"]
            for m in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]}


def cmd_compare(argv) -> int:
    ap = argparse.ArgumentParser(prog="run.py compare", description=(
        "Compare a change's suite results against its parent's, per workload "
        "and end-to-end metric, with the bounds in BENCHMARK.json."))
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    sides = [values_by_workload(json.loads(Path(p).read_text())["runs"], False)
             for p in (args.parent, args.change)]
    rows = summary.compare(sides[0], sides[1], spec.END_TO_END, load_bounds())
    print(f"{'workload':<12} {'metric':<17} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'wins':>5} {'bound':>6}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:<12} {r['metric']:<17} "
              f"{p['q1']:>9.4g} {p['median']:>9.4g} {p['q3']:>9.4g}  "
              f"{c['q1']:>9.4g} {c['median']:>9.4g} {c['q3']:>9.4g}  "
              f"{r['wins']:>5.0%} {r['bound']:>6.0%}  {r['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows) for v in summary.VERDICTS}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0


def bound_of(name: str, spreads) -> float:
    """A metric's regression bound from its largest observed spread:
    three times the spread (so the spread sits below a third of the
    bound), at least 5%, at most 25%; set-up time always gets 25%."""
    if name == "setup_s":
        return 0.25
    return min(0.25, math.ceil(100 * max(0.05, 3 * max(spreads))) / 100)


def benchmark_json(bounds: dict) -> dict:
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": spec.RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in spec.WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bounds[n]}
                       for n, (u, b) in spec.END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b) in spec.PER_LAYER.items()],
    }


def cmd_calibrate(argv) -> int:
    ap = argparse.ArgumentParser(prog="run.py calibrate", description=(
        "Run two independent sets of repeats (the first traced as well) into "
        "results/, report every end-to-end metric's spread and whether the "
        "sets agree, and derive the regression bounds."))
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--write", action="store_true",
                    help=f"rewrite {BENCHMARK_JSON.name} with the derived bounds")
    args = ap.parse_args(argv)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    workloads = list(spec.WORKLOADS)
    sets = {}
    for name, seed, trace in (("baseline", 0, True), ("repeat", 1000, False)):
        print(f"-- set {name} (seeds {seed}..{seed + args.repeats - 1})")
        sets[name] = run_suite(workloads, args.repeats, seed, spec.RUN_SECONDS, trace)
        (out_dir / f"{name}.json").write_text(json.dumps(sets[name], indent=1) + "\n")
    a, b = (values_by_workload(s["runs"], False) for s in sets.values())
    bounds, ok = {}, True
    print(f"{'metric':<17} {'max spread':>10} {'bound':>6}  worst A-vs-B median shift")
    for name in spec.END_TO_END:
        spreads = [summary.spread(v[w][name]) for v in (a, b) for w in v]
        bounds[name] = bound_of(name, spreads)
        shift = max(abs(statistics.median(b[w][name]) / statistics.median(a[w][name]) - 1)
                    for w in a)
        flag = "" if shift <= bounds[name] else "  EXCEEDS BOUND"
        noisy = "  (spread > 10%)" if max(spreads) > 0.10 else ""
        ok &= not flag
        print(f"{name:<17} {max(spreads):>9.2%} {bounds[name]:>6.0%}  {shift:.2%}{flag}{noisy}")
    if not ok:
        print(f"the sets disagree by more than a bound; {BENCHMARK_JSON.name} left as it is")
        return 1
    if args.write:
        BENCHMARK_JSON.write_text(json.dumps(benchmark_json(bounds), indent=2) + "\n")
        print(f"wrote {BENCHMARK_JSON}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return cmd_compare(argv[1:])
    if argv[:1] == ["calibrate"]:
        return cmd_calibrate(argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", "--workloads", dest="workloads", action="extend",
                    nargs="+", choices=list(spec.WORKLOADS),
                    help="workloads to run (default: all)")
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="a single run: trace it; a suite: add one traced run per workload")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink input sizes (smoke tests)")
    ap.add_argument("--out", help="write every run and the summary here as JSON")
    args = ap.parse_args(argv)
    workloads = args.workloads or list(spec.WORKLOADS)
    single = len(workloads) == 1 and args.repeats == 1
    log = lambda msg: print(msg, file=sys.stderr, flush=True)  # noqa: E731
    try:
        if single:
            result = run_plan([(workloads[0], args.seed, bool(args.trace))],
                              args.seconds, args.scale, log=log)
        else:
            result = run_suite(workloads, args.repeats, args.seed, args.seconds,
                               bool(args.trace), args.scale, log)
    except RunFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print_end_to_end(result)
    print_latency(result)
    print_per_layer(result)
    runs = result["runs"]
    for r in runs:
        for err in r["errors"]:
            print(f"FAILED {r['workload']} seed={r['seed']}: {err}", file=sys.stderr)
    print("host: " + json.dumps(result["host"]))
    if single:
        print(json.dumps(contract_line(runs[0])))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in runs),
                          "attempted": sum(r["attempted"] for r in runs),
                          "failed": sum(r["failed"] for r in runs)}))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
