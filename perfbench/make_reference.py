"""Rewrite reference_qhat.json from the current code.

Run from the root of a checkout, only when a change to q_hat is intended
and its flips have been counted and reported:

    python3 perfbench/make_reference.py
"""

import json
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    harness.load_program(ROOT)
    import workloads

    q = workloads.reference_qhat()
    env = harness.environment(ROOT, "reference", 0, 0)
    doc = {"corpus": "workloads.reference_qhat", "env": env, "q_hat": q}
    workloads.REFERENCE_FILE.write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {len(q)} q_hat values to {workloads.REFERENCE_FILE}")
