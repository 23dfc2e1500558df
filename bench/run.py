"""Benchmark for croprl: training and evaluation throughput end to end, with
a traced split by module.

Run from the root of a checkout:

    python3 bench/run.py                         # every workload, each in a
                                                 # fresh interpreter, untraced
                                                 # then traced
    python3 bench/run.py --workload dqn-iowa-train --seed 3 --seconds 40 \\
        --trace 0

One workload run repeats the workload's user-level call, with the same
inputs, until the next repetition would end past ``--seconds``. It checks
every repetition's outputs and prints a report whose last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer figures of a traced run. The full record, with the
environment, fingerprints and (traced) spans, is written under
``bench/out/``. See ``bench/NOTES.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import stats

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("dqn-iowa-train", "sac-florida-train", "sweep-stochastic")
SETUP_SAMPLES = 9
SETUP_STAGES = ("import_s", "config_s", "env_s", "agent_s")
MIN_ROUNDS = {0: 2, 1: 1}   # by --trace; a traced round is two repetitions
MAX_FAILED_REPS = 3

# name -> unit, in the order they are printed
END_TO_END = {"steps_per_s": "1/s", "episode_ms_p50": "ms", "run_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="how long one run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics; 1: per-layer metrics "
                        "(default with --workload all: both)")
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes, for smoke tests; figures mean nothing")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    # BLAS is pinned to one thread before numpy is first imported, here and
    # in the child interpreters, which inherit the environment
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    if not (SRC / "croprl" / "__init__.py").is_file():
        print(f"error: no croprl sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


# ---------------------------------------------------------------------------
# Set-up time, measured in fresh interpreters
# ---------------------------------------------------------------------------

def setup_probe(args) -> int:
    """Child process: time import, config build, env and agent construction."""
    t0 = time.perf_counter()
    import croprl  # noqa: F401  (numpy and every croprl module)
    import_s = time.perf_counter() - t0
    import workloads
    times = workloads.setup_once(args.workload, args.seed, args.tiny,
                                 OUT / args.workload / "setup")
    times["import_s"] = import_s
    times["total_s"] = sum(times.values())
    print(json.dumps(times))
    return 0


class SetupProbes:
    """Set-up samples, each from a fresh interpreter running ``setup_probe``.

    The first probe is a warm-up (it also writes the bytecode cache) and is
    discarded. The others run between the first repetitions, so they see
    the machine as the repetitions do.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        if args.tiny:
            self.cmd.append("--tiny")
        self.runs = 0
        self.samples: list[dict] = []
        self.errors: list[str] = []

    def probe(self) -> None:
        self.runs += 1
        try:
            proc = subprocess.run(self.cmd, capture_output=True, text=True,
                                  timeout=60, cwd=ROOT)
        except subprocess.TimeoutExpired:
            self.errors.append("set-up probe timed out")
            return
        if proc.returncode != 0:
            self.errors.append(f"set-up probe exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        elif self.runs > 1:
            self.samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes
    import glob

    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"unknown (requested {os.environ['OPENBLAS_NUM_THREADS']})"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment_record(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": git_commit(),
            "seed": args.seed, "workload": args.workload,
            "trace": args.trace, "seconds": args.seconds, "tiny": args.tiny}


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    import tracing
    import workloads

    if args.trace is None:
        args.trace = 0
    workload = workloads.make(args.workload, args.seed,
                              OUT / args.workload / "run", args.tiny)
    checks = workloads.Checks()
    probes = None if args.trace else SetupProbes(args)
    tracer = tracing.Tracer() if args.trace else None
    reps, traced = [], []

    def one(clock=None, tracer_=None):
        verify = not reps and not traced
        try:
            rep = workload.rep(clock, tracer_, verify=verify)
        except Exception as exc:  # the user-level call raised
            checks.record(False, f"{args.workload} raised {exc!r}")
            return None
        checks.record(True, "")
        checks.merge(rep.checks)
        if not verify:
            checks.record(rep.fingerprint == (reps or traced)[0].fingerprint,
                          "fingerprint differs between repetitions")
        return rep

    # Repeat until the next round would end past --seconds. A traced run
    # alternates untraced and traced repetitions; the untraced ones are the
    # base of the overhead ratio.
    start = time.perf_counter()
    rounds = failed = 0
    while failed < MAX_FAILED_REPS:
        if probes and len(probes.samples) < SETUP_SAMPLES:
            probes.probe()
        for clock, tracer_ in (((None, None), (None, tracer)) if args.trace
                               else ((workloads.EpisodeClock(), None),)):
            rep = one(clock, tracer_)
            if rep is None:
                failed += 1
            else:
                (traced if tracer_ else reps).append(rep)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS[args.trace] \
                and elapsed * (rounds + 1) / rounds > args.seconds:
            break
    while probes and len(probes.samples) < SETUP_SAMPLES \
            and len(probes.errors) < MAX_FAILED_REPS:
        probes.probe()
    if probes:
        for err in probes.errors:
            checks.record(False, err)

    if not reps or (args.trace and not traced) \
            or (probes and len(probes.samples) < SETUP_SAMPLES):
        return _give_up(checks)
    record = {"environment": environment_record(args),
              "fingerprint": reps[0].fingerprint, "quality": reps[0].quality,
              "repetitions": len(reps) + len(traced)}
    if args.trace:
        summary = tracing.summarize(
            tracer, int(sum(r.wall_s for r in traced) * 1e9), len(traced))
        summary["overhead_ratio"] = (stats.median([r.wall_s for r in traced])
                                     / stats.median([r.wall_s for r in reps]))
        checks.attempted += tracer.balance.days
        checks.failed += tracer.balance.failures
        if tracer.balance.failures:
            checks.errors.append(
                f"{tracer.balance.failures} days broke N or water balance")
        metrics = per_layer_metrics(summary)
        record["trace"] = summary
        _write_spans(tracer, args)
    else:
        values, record["end_to_end_detail"] = end_to_end(reps, probes.samples,
                                                         checks)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    record["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                        "fail_ratio": checks.failed / checks.attempted,
                        "errors": checks.errors}
    record["metrics"] = metrics

    print_report(args, record)
    out_path = OUT / f"result-{_run_tag(args)}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True))
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


def end_to_end(reps, setup_samples, checks) -> tuple[dict, dict]:
    """End-to-end values, and the detail printed and recorded beside them.

    Every repetition does the same work, cut into the same segments (call
    start, each env reset, call end). For each segment the fastest
    repetition is taken: it is the one least slowed by other load on the
    machine. Times are sums or medians of those per-segment fastest times.
    Set-up probes are cut into their stages the same way.
    """
    first = reps[0]
    n = len(first.segments_ns)
    checks.record(all(len(r.segments_ns) == n for r in reps),
                  "repetitions differ in their number of episodes")
    fastest = [min(r.segments_ns[j] for r in reps if len(r.segments_ns) == n)
               for j in range(n)]
    raw_ms = [r.segments_ns[j] / 1e6 for r in reps for j in r.episodes]
    tail_ms, tail_pct = stats.tail(raw_ms)
    values = {
        "steps_per_s": first.steps * 1e9 / sum(fastest[j] for j in first.loop),
        "episode_ms_p50": stats.median([fastest[j] / 1e6
                                        for j in first.episodes]),
        "run_s": sum(fastest) / 1e9,
        # set-up stages are cut and aggregated like the call's segments
        "setup_s": sum(min(s[stage] for s in setup_samples)
                       for stage in SETUP_STAGES),
        # the first call's peak, as one croprl command would see it; later
        # calls can reuse freed heap and touch more pages
        "peak_rss_mb": first.peak_rss_mb,
    }
    detail = {
        "segments": n, "episodes_per_rep": len(first.episodes),
        "steps_per_rep": first.steps,
        "as_measured": {
            "episode_ms_p50": stats.median(raw_ms),
            "episode_ms_tail": tail_ms, "tail_percentile": tail_pct,
            "episodes": len(raw_ms),
            "run_s": [r.wall_s for r in reps],
            "steps_per_s": [r.steps * 1e9 / sum(r.segments_ns[j]
                                                for j in r.loop)
                            for r in reps]},
        "setup_samples": setup_samples}
    return values, detail


def _run_tag(args) -> str:
    return (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            + ("-tiny" if args.tiny else ""))


def _give_up(checks) -> int:
    print("error: no repetition completed; no result", file=sys.stderr)
    for err in checks.errors:
        print(f"  {err}", file=sys.stderr)
    return 1


def per_layer_metrics(summary: dict) -> dict:
    """The traced run's figures under the names BENCHMARK.json lists."""
    import tracing
    m = {}
    functions = summary["functions"]
    for fn in tracing.FUNCTIONS:
        m[f"{fn}.calls"] = {"value": functions[fn]["calls_per_rep"],
                            "unit": "count"}
    for fn in tracing.ALWAYS_CALLED:
        f = functions[fn]
        m[f"{fn}.self_us_p50"] = {"value": f["self_us_p50"], "unit": "us"}
        m[f"{fn}.self_us_tail"] = {"value": f["self_us_tail"], "unit": "us"}
        m[f"{fn}.share"] = {"value": 100.0 * f["share"], "unit": "%"}
    for layer, share in summary["layers"].items():
        if layer not in tracing.LEARNER_LAYERS:
            m[f"{layer}.share"] = {"value": 100.0 * share, "unit": "%"}
    m["trace.coverage"] = {"value": summary["coverage"], "unit": "ratio"}
    m["trace.overhead_ratio"] = {"value": summary["overhead_ratio"],
                                 "unit": "ratio"}
    m["weather.days_used_ratio"] = {"value": summary["days_used_ratio"],
                                    "unit": "ratio"}
    m["agents.update.useful_ratio"] = {"value": summary["update_useful_ratio"],
                                       "unit": "ratio"}
    m["net.params_per_update"] = {"value": summary["params_per_update"],
                                  "unit": "count"}
    return m


def _write_spans(tracer, args) -> None:
    import numpy as np
    path = OUT / f"spans-{_run_tag(args)}.npz"
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, names=np.array(tracer.names),
             **{k: np.frombuffer(v, dtype=np.int32 if v.typecode == "i"
                                 else np.int64)
                for k, v in tracer.spans().items()})


def print_report(args, record: dict) -> None:
    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}  repetitions {record['repetitions']}"
          + ("  (tiny)" if args.tiny else ""))
    print("environment: " + "  ".join(
        f"{k} {env[k]}" for k in ("python", "numpy", "blas", "blas_threads",
                                  "nproc", "commit", "seed")))
    c = record["checks"]
    print(f"checks: {c['attempted']} attempted, {c['failed']} failed, "
          f"fail_ratio {c['fail_ratio']:.4g}")
    for err in c["errors"]:
        print(f"  FAILED {err}")
    print(f"fingerprint: {json.dumps(record['fingerprint'], sort_keys=True)}")
    if record["quality"]:
        print(f"quality (not gated): {json.dumps(record['quality'])}")
    if "trace" in record:
        print_trace(record["trace"])
        return
    detail = record["end_to_end_detail"]
    for name, metric in record["metrics"].items():
        print(f"{name:<16} {metric['value']:>14.6g} {metric['unit']}")
    m = detail["as_measured"]
    print(f"per-segment fastest of {record['repetitions']} repetitions; "
          f"{detail['episodes_per_rep']} timed episodes and "
          f"{detail['steps_per_rep']} loop steps per repetition")
    print(f"as measured over all repetitions: episode_ms_p50 "
          f"{m['episode_ms_p50']:.6g} ms  episode_ms_tail "
          f"{m['episode_ms_tail']:.6g} ms (p{m['tail_percentile']:g} of "
          f"{m['episodes']} episodes)  run_s median "
          f"{stats.median(m['run_s']):.6g} s  steps_per_s median "
          f"{stats.median(m['steps_per_s']):.6g} 1/s")


def print_trace(t: dict) -> None:
    print(f"traced wall {t['wall_s']:.3f} s (checks {t['check_s']:.3f} s "
          f"excluded)  spans {t['spans']}  coverage {t['coverage']:.4f}  "
          f"overhead_ratio {t['overhead_ratio']:.3f}")
    print(f"{'function':<34} {'calls/rep':>10} {'self p50 us':>12} "
          f"{'self tail us':>13} {'tail pct':>8} {'share %':>8}")
    for fn, f in t["functions"].items():
        if not f["calls_per_rep"]:
            print(f"{fn:<34} {0:>10}")
            continue
        print(f"{fn:<34} {f['calls_per_rep']:>10.6g} {f['self_us_p50']:>12.3f} "
              f"{f['self_us_tail']:>13.3f} {f['tail_percentile']:>8g} "
              f"{100 * f['share']:>8.3f}")
    print("layer shares %: " + "  ".join(
        f"{k} {100 * v:.2f}" for k, v in t["layers"].items()))
    b = t["balance"]
    print(f"mass balance: {b['days']} days, {b['failures']} failed, worst "
          f"rel water {b['worst_water_rel']:.2e} N {b['worst_nitrogen_rel']:.2e}"
          f" organic {b['worst_organic_rel']:.2e}")
    print(f"weather.days_used_ratio {t['days_used_ratio']:.4f}  "
          f"max fixed-trace builds per model {t['max_fixed_trace_builds']}  "
          f"agents.update.useful_ratio {t['update_useful_ratio']:.4f}  "
          f"net.params_per_update {t['params_per_update']:g}")


# ---------------------------------------------------------------------------
# Every workload, one fresh interpreter each
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    modes = (0, 1) if args.trace is None else (args.trace,)
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in modes:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            if args.tiny:
                cmd.append("--tiny")
            print(f"== {name} trace {trace}", flush=True)
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            results[(name, trace)] = (json.loads(lines[-1])
                                      if proc.returncode == 0 and lines
                                      else None)
    print("== summary")
    ok = True
    for (name, trace), res in results.items():
        if res is None:
            ok = False
            print(f"{name} trace {trace}: no result")
            continue
        ok = ok and res["correct"]
        shown = (END_TO_END if trace == 0 else
                 ("trace.coverage", "trace.overhead_ratio"))
        print(f"{name} trace {trace}: correct {res['correct']}  " + "  ".join(
            f"{k} {res['metrics'][k]['value']:.6g} {res['metrics'][k]['unit']}"
            for k in shown))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
