"""Run a small benchmark and read the tidy results.

The bench harness compares the censoring-adjusted forest (crf) against
the censoring-naive forest (qrf) and an oracle fitted on the latent
responses (qrf_oracle, simulation only). Results land in two CSVs: one
row per (replication, method, tau, metric), plus mean/sd aggregates.
"""

import csv
import tempfile
from pathlib import Path

from cqforest.bench import ExperimentSpec, run

spec = ExperimentSpec(
    scenario="aft1d",
    replications=5,
    n_train=300,
    n_test=150,
    taus=(0.1, 0.5),
    node_sizes=(30,),
    trees=100,
    seed=0,
)
with tempfile.TemporaryDirectory() as out_dir:
    results_path, aggregate_path = run(spec, out_dir)
    print(f"wrote {Path(results_path).name} and {Path(aggregate_path).name} to a temporary directory\n")
    with open(aggregate_path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["metric"] == "l_quantile"]
rows.sort(key=lambda r: (float(r["tau"]), r["method"]))
print(f"{'tau':>4} {'method':>12} {'mean pinball':>13} {'sd':>8}")
for r in rows:
    print(f"{float(r['tau']):4.1f} {r['method']:>12} {float(r['mean']):13.4f} "
          f"{float(r['sd']):8.4f}")
print("\ncrf should sit near qrf_oracle and clearly beat qrf at tau=0.1,")
print("where censoring bites hardest.")
