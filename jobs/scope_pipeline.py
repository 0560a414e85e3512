"""The full SCOPe pipeline end-to-end, with physical tiered writes.

Runs the Table-IX configuration, then writes every partition of the SCOPe
(Total cost) plan to its assigned tier in its assigned codec through the
TieredStore substrate and prints the metered write and storage bill. Fails
if the plan assigns a partition that has no data to write."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # finds _common

import tempfile

from _common import show
from repro.experiments import table09
from repro.storage.tiers import TieredStore


def main() -> None:
    tbl, results = table09.run()
    show("Table IX policy grid (Enterprise Data II stand-in)", table09.PAPER, tbl)
    winner = results["scope_total"]
    parts = {p.pid: p for p in winner.partitions}
    missing = sorted(set(winner.assignment["pid"]) - parts.keys())
    if missing:
        raise RuntimeError(f"plan assigns partitions with no data: {missing}")
    with tempfile.TemporaryDirectory() as root:
        store = TieredStore(root)
        for row in winner.assignment.itertuples(index=False):
            store.put(row.pid, parts[row.pid].sample, tier=row.tier, scheme=row.scheme)
        store.advance(5.5)
        print("\nTiered-write bill (cents, physical sample scale):")
        print(f"  write={store.meter.write:.6f} storage={store.meter.storage:.6f}")
        print(f"  objects per tier: { {t: sum(1 for m in store.catalog.values() if m.tier == t) for t in store.tiers} }")


if __name__ == "__main__":
    main()
