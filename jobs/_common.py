"""Shared plumbing for the job entrypoints.

Every job runs in one Python process with pandas/numpy (no SparkSession):
each pipeline stage has one implementation, and a Spark version of each
was slower at every size the jobs use (README "Spark usage"). Jobs print a
paper-vs-measured table. Run as::

    python jobs/<name>.py [args]
"""
from __future__ import annotations

import sys


def show(title: str, paper, ours) -> None:
    print(f"\n=== {title} ===", flush=True)
    print("--- paper ---")
    print(paper.to_string(index=False) if hasattr(paper, "to_string") else paper)
    print("--- this reproduction ---")
    print(ours.to_string(index=False) if hasattr(ours, "to_string") else ours)
    sys.stdout.flush()
