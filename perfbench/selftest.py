"""Self-test of the benchmark: its inputs, outputs and trace counts are deterministic.

    python3 perfbench/selftest.py [--seed N]

For round 0 of every workload it checks that

* another seed gives other documents;
* an untraced pass and two traced passes, each on a freshly imported dqmat,
  give byte-identical outputs that pass the output checks;
* the two traced passes record identical counts.

Prints one line per workload and exits 1 on the first mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def one_pass(workload, batch, traced):
    results, tracer = run.run_pass(workload, batch, traced)
    for (rid, req, _), (rc, out, _, _) in zip(batch, results):
        problem = checks.check(req, rc, out)
        if problem is not None:
            raise AssertionError(f"{workload} request {rid} ({req.doc_class}): {problem}")
    outputs = [(rc, out) for rc, out, _, _ in results]
    return outputs, run.layer_metrics(tracer.spans) if traced else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    counts = [m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
              if m["unit"] == "count"]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for workload in workloads.WORKLOADS:
            reqs = workloads.Stream(workload, args.seed).round(0)
            other = workloads.Stream(workload, args.seed + 1).round(0)
            if [r.docs for r in reqs] == [r.docs for r in other] and any(r.docs for r in reqs):
                raise AssertionError(f"{workload}: seeds {args.seed} and {args.seed + 1} "
                                     f"give the same documents")
            batch = run.write_batch([(0, reqs)], Path(tmp))
            plain, _ = one_pass(workload, batch, traced=False)
            traced1, m1 = one_pass(workload, batch, traced=True)
            traced2, m2 = one_pass(workload, batch, traced=True)
            if not plain == traced1 == traced2:
                raise AssertionError(f"{workload}: outputs differ between passes")
            diff = [name for name in counts if m1[name] != m2[name]]
            if diff:
                raise AssertionError(f"{workload}: counts differ between traced passes: {diff}")
            print(f"{workload}: {len(reqs)} requests, outputs identical in 3 passes, "
                  f"{len(counts)} counts identical in 2 traced passes "
                  f"(linalg.matmul.calls = {m1['linalg.matmul.calls']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
