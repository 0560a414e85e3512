"""Entrypoint reproducing one paper table (2–11) — prints paper vs measured.

Run as::

    python jobs/table.py 10
"""
import argparse
import importlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # finds _common

from _common import show

TABLES = range(2, 12)


def experiment(n: int):
    """The ``repro.experiments`` module that reproduces Table ``n``."""
    if n not in TABLES:
        raise ValueError(f"no experiment for Table {n}; choose from 2-11")
    return importlib.import_module(f"repro.experiments.table{n:02d}")


def main(n: int) -> None:
    mod = experiment(n)
    out = mod.run()
    if isinstance(out, tuple):  # Tables IX-XI: (table, per-policy results)
        out = out[0]
    if isinstance(out, dict):  # Table III: confusion matrix and F1 scores
        show(f"Table {n}", mod.PAPER, out["confusion"])
        print(mod.f1_line(out))
    else:
        show(f"Table {n}", mod.PAPER, out)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("table", type=int, choices=TABLES)
    main(ap.parse_args().table)
