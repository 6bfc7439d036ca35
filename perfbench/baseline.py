"""Cross-check of the tracer against hand-counted figures, and the Q-to-GF(101) cost ratio.

    python3 perfbench/baseline.py [--seed N] > perfbench/BASELINE.json

Traces one `analyze` of the maximum-dimension D_3 algebra of M_8(GF(101))
(block type (2,3,3), canonical blocks, as built, no conjugation) and reports
how often it computed the commutator ideal, the radical and the nilpotency
index.  Then it reports the time per matrix product,
`linalg.matmul.self_us_per_call`: for one `analyze` of the type (2,3)
algebra over Q and over GF(101), and for the requests of each workload (the
first workloads.ROUNDS rounds), with the ratio of each Q workload to
mixed-gf101.  These ratios are the cost of the scalar layer (`fields`), which
has no boundary of its own to wrap; the workload ratio also mixes in matrix
size (n <= 5 over Q, up to 9 over GF(101)).  For each workload it also
reports the share of request time spent in echelon reduction and membership
(`linalg.rref.self_s` plus `linalg.contains.self_s`), the figure that sets
the two Q workloads apart.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import algebras
import run
import workloads


def traced(batch, workload):
    """Layer metrics of one traced pass, plus the summed time of the request spans."""
    results, tracer = run.run_pass(workload, batch, traced=True)
    for (rid, _, _), (rc, _, _, _) in zip(batch, results):
        if rc != 0:
            raise RuntimeError(f"{workload} request {rid} exited with {rc}")
    m = run.layer_metrics(tracer.spans)
    m["request_s"] = sum(s.total_s for s in tracer.spans if s.name == "request")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    os.environ.pop("DQMAT_BRUTE_BUDGET", None)
    out = {"python": platform.python_version(), "machine": platform.machine(),
           "cpus": os.cpu_count(), "seed": args.seed}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:

        def analyze(parts, p):
            basis = algebras.block_type_basis(parts, [("canonical", 1)] * len(parts))
            doc = Path(tmp) / "baseline.json"
            doc.write_text(json.dumps(workloads.document(basis, p)))
            req = workloads.Request("analyze", "baseline", ["analyze", str(doc)], {}, {})
            return traced([("0-0", req, req.argv)], "baseline")

        m = analyze(algebras.balanced_parts(8, 3), workloads.P)
        out["analyze_max_dim_8_3_gf101"] = {
            name: m[name] for name in ("algebra.commutator_ideal.calls", "algebra.radical.calls",
                                       "algebra.nilpotency_index.calls", "linalg.matmul.calls",
                                       "cli.analyze.total_s")}
        # the same algebra over both fields isolates the scalar cost from the matrix size
        same = {label: analyze((2, 3), p)["linalg.matmul.self_us_per_call"]
                for label, p in (("q", None), ("gf101", workloads.P))}
        out["type_2_3_matmul_self_us_per_call"] = {**same, "q_to_gf101": same["q"] / same["gf101"]}
        per_call, echelon = {}, {}
        for workload in workloads.WORKLOADS:
            stream = workloads.Stream(workload, args.seed)
            batch = run.write_batch([(r, stream.round(r)) for r in range(workloads.ROUNDS)],
                                    Path(tmp))
            m = traced(batch, workload)
            per_call[workload] = m["linalg.matmul.self_us_per_call"]
            echelon[workload] = (m["linalg.rref.self_s"] + m["linalg.contains.self_s"]) \
                / m["request_s"]
        out["linalg.matmul.self_us_per_call"] = per_call
        out["q_to_gf101_matmul_ratio"] = {
            w: per_call[w] / per_call["mixed-gf101"] for w in ("analyze-q-sparse", "analyze-q-dense")}
        out["rref_plus_contains_share_of_request_time"] = echelon
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
