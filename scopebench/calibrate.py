"""Measure the codec figures behind enterprise-scale's per-file predictions.

    python3 scopebench/calibrate.py            # about a minute on 4 cores

enterprise-scale runs no codec work in its timed job: it draws each file's
(ratio, decompression sec/GB) per scheme from the seed. This script measures
what those draws are centred on. It builds the enterprise tables with the
repository's generators, runs ``storage.codecs.measure`` on every file of
every table for each pipeline scheme, and prints, per (table, scheme), the
median ratio and sec/GB over the files and the standard deviation of their
logarithms. ``workloads.ENTERPRISE_CODECS`` holds the printed figures.

The tables are built at SF 0.05 (``CAL_SF``), ten times the benchmark's
size, with the benchmark's 32 files per table: every file then holds at
least 780 rows, so the per-call overhead of a codec does not dominate its
sec/GB. Ratios depend only on the data; sec/GB is wall-clock time and so
depends on the host that ran this script.
"""
from __future__ import annotations

import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAL_SF = 0.05
CAL_SEEDS = (1, 2, 3)
REPEATS = 3


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.pipeline import PIPELINE_SCHEMES
    from repro.storage import codecs

    from workloads import EnterpriseScale, enterprise_tables

    figures: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for seed in CAL_SEEDS:
        tables = enterprise_tables(CAL_SF, EnterpriseScale.FULL["n_files"],
                                   EnterpriseScale.LOGICAL_GB, seed)
        for name, tf in sorted(tables.items()):
            for f in tf.files:
                rows = tf.pdf.iloc[f.row_lo:f.row_hi]
                for s in PIPELINE_SCHEMES:
                    m = codecs.measure(rows, s, repeats=REPEATS)
                    figures.setdefault((name, s), []).append(
                        (m.ratio, m.decomp_sec_per_gb))
    print("# table, scheme: (median ratio, median sec/GB, sd log ratio, sd log sec/GB)")
    for (name, s), vals in sorted(figures.items()):
        ratio, dsec = zip(*vals)
        print(f'("{name}", "{s}"): ({statistics.median(ratio):.3g}, '
              f"{statistics.median(dsec):.3g}, "
              f"{statistics.pstdev(map(math.log, ratio)):.2g}, "
              f"{statistics.pstdev(map(math.log, dsec)):.2g}),")
    return 0


if __name__ == "__main__":
    sys.exit(main())
