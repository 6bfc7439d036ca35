"""dqmat benchmark: closed-loop CLI requests over Q and GF(101), one client, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dqmat checkout; the package is imported from its
`src/`.  Each run is one process.  It generates the documents of the first
workloads.ROUNDS rounds from the seed, untimed.  Then it sets up (imports
dqmat, writes the documents to files) SETUP_REPS times and reports the
median as `setup_s`.  Then it calls `dqmat.cli.main(argv)` in-process, one
request after the other, in passes over those rounds, each pass on a freshly
imported dqmat, until the requests have taken S seconds; the first pass is
always whole, and each later one starts where the one before stopped.  A
request's latency is the fastest of its calls, so every run reports figures
over the same requests, however fast the program.  The outputs of the first
pass are checked after it, outside the timed calls; those of later passes
must repeat them byte for byte.

The speed of a shared machine drifts by up to 2x, so every reported time is
scaled to a fixed machine speed: the run times a probe, a fixed piece of the
benchmark's own exact echelon work, just before and just after each timed
call or set-up, and multiplies the measured time by PROBE_NOMINAL_S over the
mean of the two probes.  The wall-clock figures are printed too.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json.
With --trace 1 it runs each round twice, untraced and traced, each on a
freshly imported dqmat, and reports the per-layer metrics of the first
traced round plus the tracing overhead over all rounds; the spans of the
first traced round are written to .perfbench-traces/.  `--workload all` runs
every workload in its own process and prints each result.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (name -> value and unit).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 21
# Reported times are those of a machine on which one probe takes this long; the
# 2-CPU x86_64 VM the bounds were set on took about 10 ms.
PROBE_NOMINAL_S = 0.008

import checks  # noqa: E402  (the benchmark's own modules sit next to this file)
import exact  # noqa: E402
import workloads  # noqa: E402
from tracer import CLI_COMMANDS, SPAN_FUNCTIONS, Tracer  # noqa: E402

_rng = random.Random(0)
_PROBE_WORK = [
    ([[[_rng.randint(-3, 3) for _ in range(5)] for _ in range(5)] for _ in range(8)], None),
    ([[[_rng.randrange(workloads.P) for _ in range(8)] for _ in range(8)] for _ in range(10)],
     workloads.P),
]


def probe() -> float:
    """Seconds for the fixed probe work (echelon forms over Q and GF(101)): the machine's speed now."""
    t0 = perf_counter()
    for basis, p in _PROBE_WORK:
        exact.span_key(basis, p)
    return perf_counter() - t0


def scaled(seconds, before, after):
    """`seconds` on a machine whose probe takes PROBE_NOMINAL_S, from the probes around them."""
    return seconds * 2 * PROBE_NOMINAL_S / (before + after)


def fresh_import():
    """Import dqmat anew from the checkout, dropping any earlier import and its state."""
    for name in [m for m in sys.modules if m == "dqmat" or m.startswith("dqmat.")]:
        del sys.modules[name]
    cli = importlib.import_module("dqmat.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"dqmat was imported from {cli.__file__}, not from this checkout")
    return cli


def write_batch(rounds, workdir: Path) -> list:
    """Write the documents of the rounds [(r, requests)]; returns [(request id, request, argv)]."""
    batch = []
    for r, reqs in rounds:
        for i, req in enumerate(reqs):
            paths = {}
            for name, doc in req.docs.items():
                path = workdir / f"r{r}-{i}-{name}.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                paths[name] = str(path)
            batch.append((f"{r}-{i}", req, [arg.format(**paths) for arg in req.argv]))
    return batch


def call(cli, argv, tracer=None, attrs=None):
    """One CLI call in-process between two probes: (exit code or exception text, stdout,
    seconds, scaled seconds)."""
    before = probe()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc, _ = tracer.run_span("request", attrs, cli.main, argv)
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        except Exception as exc:  # a crash is a failed request, not a failed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
    return rc, buf.getvalue(), dt, scaled(dt, before, probe())


def run_pass(workload: str, batch, traced: bool, budget=math.inf):
    """Call each request of the batch once on a freshly imported dqmat, traced or not.

    Stops before a call once the calls have taken `budget` seconds.  Returns the
    (exit code or exception text, stdout, seconds, scaled seconds) of each call
    made, and the tracer or None.
    """
    cli = fresh_import()
    tracer = Tracer() if traced else None
    if traced:
        tracer.install()
    results = []
    busy = 0.0
    for rid, req, argv in batch:
        if busy >= budget:
            break
        attrs = {"workload": workload, "subcommand": req.kind, "doc_class": req.doc_class,
                 "request": rid}
        results.append(call(cli, argv, tracer, attrs))
        busy += results[-1][2]
    return results, tracer


def setup(workload: str, seed: int, workdir: Path):
    """Generate the rounds (untimed), then import dqmat and write them, SETUP_REPS times.

    Returns the (seconds, scaled seconds) of each set-up, the generation time and the
    batch of requests.
    """
    t0 = perf_counter()
    stream = workloads.Stream(workload, seed)
    rounds = [(r, stream.round(r)) for r in range(workloads.ROUNDS)]
    generate_s = perf_counter() - t0
    times = []
    for _ in range(SETUP_REPS):
        before = probe()
        t0 = perf_counter()
        fresh_import()
        batch = write_batch(rounds, workdir)
        dt = perf_counter() - t0
        times.append((dt, scaled(dt, before, probe())))
    return times, generate_s, batch


def tail(latencies):
    """The highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_untraced(args, batch):
    samples = [[] for _ in batch]  # (seconds, scaled seconds) of each call, per request
    failures = [[] for _ in batch]  # None or a reason, per call, per request
    digests = []  # (exit code, stdout hash) of the first pass, per request
    busy = 0.0
    passes = 0
    start = 0  # later passes begin where the previous one stopped, so calls spread evenly
    while passes == 0 or busy < args.seconds:
        budget = math.inf if passes == 0 else args.seconds - busy
        order = list(range(start, len(batch))) + list(range(start))
        results, _ = run_pass(args.workload, [batch[i] for i in order], traced=False,
                              budget=budget)
        for i, (rc, out, dt, norm) in zip(order, results):
            busy += dt
            samples[i].append((dt, norm))
            digest = (rc, hashlib.sha256(out.encode()).hexdigest())
            if passes == 0:
                # checked after the pass, outside the timed calls; outputs are not kept
                failures[i].append(checks.check(batch[i][1], rc, out))
                digests.append(digest)
            else:
                failures[i].append(None if digest == digests[i] else
                                   "output differs from the first pass")
        start = (start + len(results)) % len(batch)
        passes += 1
    # the best call of each request: machine noise only ever adds time
    latencies = [min(norm for _, norm in times) for times in samples]
    raw = [min(dt for dt, _ in times) for times in samples]
    ok = sum(all(f is None for f in fs) for fs in failures)
    calls = [f for fs in failures for f in fs]
    value, pct = tail(latencies)
    metrics = {
        "requests_per_s": ok / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_ratio": sum(f is not None for f in calls) / len(calls),
    }
    print(f"{args.workload}: {len(batch)} requests in {workloads.ROUNDS} rounds, "
          f"{len(calls)} calls in {passes} passes (the first whole), "
          f"{min(map(len, samples))} to {max(map(len, samples))} calls per request, "
          f"tail = p{pct:.2f} of {len(latencies)} samples, "
          f"failed_ratio = {metrics['failed_ratio']}")
    print(f"{args.workload}: probes took {1e3 * PROBE_NOMINAL_S * sum(raw) / sum(latencies):.2f} ms "
          f"(nominal {1e3 * PROBE_NOMINAL_S:.0f} ms); wall clock: "
          f"requests_per_s {ok / sum(raw):.4f}, latency_p50_s {statistics.median(raw):.4f}, "
          f"latency_tail_s {tail(raw)[0]:.4f}")
    by_class = defaultdict(list)
    for (_, req, _), latency in zip(batch, latencies):
        by_class[req.doc_class].append(latency)
    for name, times in by_class.items():
        print(f"  {name:24s} n={len(times):3d} median {statistics.median(times):.4f} s "
              f"max {max(times):.4f} s", file=sys.stderr)
    return calls, metrics


def layer_metrics(spans) -> dict:
    calls = defaultdict(int)
    total = defaultdict(float)
    rounds_sum = 0
    leaves = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.total_s
        if s.name == "algebra.two_sided_ideal":
            rounds_sum += s.attrs["rounds"]
        for name, stats in s.leaves.items():
            acc = leaves[name]
            for i, v in enumerate(stats):
                acc[i] += v
    m = {f"cli.{c}.total_s": total[f"cli.{c}"] for c in CLI_COMMANDS}
    for mod, fn in SPAN_FUNCTIONS:
        m[f"{mod}.{fn}.calls"] = calls[f"{mod}.{fn}"]
        m[f"{mod}.{fn}.total_s"] = total[f"{mod}.{fn}"]
    m["algebra.two_sided_ideal.rounds"] = rounds_sum
    mm, sp, rr, ct = (leaves[k] for k in ("linalg.matmul", "linalg.span", "linalg.rref",
                                          "linalg.contains"))
    m.update({
        "linalg.matmul.calls": mm[0], "linalg.matmul.self_s": mm[2],
        "linalg.matmul.self_us_per_call": 1e6 * mm[2] / mm[0] if mm[0] else 0.0,
        "linalg.span.calls": sp[0], "linalg.span.vectors_in": sp[3],
        "linalg.span.rank_out": sp[4],
        "linalg.span.useful_ratio": sp[4] / sp[3] if sp[3] else 0.0,
        "linalg.rref.calls": rr[0], "linalg.rref.rows": rr[3], "linalg.rref.self_s": rr[2],
        "linalg.contains.calls": ct[0], "linalg.contains.self_s": ct[2],
    })
    return m


def run_traced(args, batch):
    rounds = [list(group) for _, group in itertools.groupby(batch, lambda b: b[0].split("-")[0])]
    failures = []  # one per call of either pass
    wall = {False: 0.0, True: 0.0}
    first_trace = None
    # cycle through the rounds until the calls have taken the time
    for k in itertools.count():
        part = rounds[k % len(rounds)]
        outputs = {}
        # alternate which pass goes first, so that drift in machine speed cancels
        for traced in (False, True) if k % 2 == 0 else (True, False):
            results, tracer = run_pass(args.workload, part, traced)
            wall[traced] += sum(dt for _, _, dt, _ in results)
            outputs[traced] = [(rc, out) for rc, out, _, _ in results]
            if traced and first_trace is None:
                first_trace = tracer
        for (_, req, _), plain, traced in zip(part, outputs[False], outputs[True]):
            failures.append(checks.check(req, *plain))
            failures.append(checks.check(req, *traced) or (
                None if traced == plain else "traced output differs from untraced output"))
        if wall[False] + wall[True] >= args.seconds:
            break
    metrics = layer_metrics(first_trace.spans)
    metrics["trace.overhead_ratio"] = wall[True] / wall[False]
    trace_dir = ROOT / ".perfbench-traces"
    trace_dir.mkdir(exist_ok=True)
    (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(first_trace.dump(), indent=1), encoding="utf-8")
    print(f"{args.workload}: traced {len(failures) // 2} requests, "
          f"overhead {metrics['trace.overhead_ratio']:.3f}")
    return failures, metrics


def declared_metrics(trace: bool) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_one(args) -> dict:
    os.environ.pop("DQMAT_BRUTE_BUDGET", None)  # the workload passes --budget itself
    sys.path.insert(0, str(ROOT / "src"))
    declared = declared_metrics(bool(args.trace))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setups, generate_s, batch = setup(args.workload, args.seed, workdir)
        print(f"{args.workload}: documents generated in {generate_s:.3f} s (not in setup_s)")
        if args.trace:
            failures, metrics = run_traced(args, batch)
        else:
            failures, metrics = run_untraced(args, batch)
            metrics["setup_s"] = statistics.median(norm for _, norm in setups)
            print(f"{args.workload}: wall clock: setup_s "
                  f"{statistics.median(dt for dt, _ in setups):.4f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [f for f in failures if f is not None]
    for reason in sorted(set(problems))[:10]:
        print(f"failed: {reason}", file=sys.stderr)
    if set(metrics) - set(declared) - {"failed_ratio"} or set(declared) - set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    return {
        "correct": not problems,
        "attempted": len(failures),
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }


def run_all(args) -> dict:
    """Every workload, each in its own process; metrics are prefixed by the workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            print(f"  {name:18s} {metric:44s} {entry['value']:.6g} {entry['unit']}")
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "dqmat" / "__init__.py").is_file():
        print(f"no dqmat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
