"""The three seeded SCOPe benchmark workloads.

Each workload builds one instance's inputs from a seed with the
repository's own generators (``setup``), runs the job a SCOPe user waits for
(``job``: a placement plan, or a trained compression predictor) and then,
untimed, checks the job's outputs and names the objects it leaves to be
written to the tiered store (``finish``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro import synth_data as sd
from repro.core import compredict as cp
from repro.core import cost_model as cm
from repro.core import pipeline
from repro.experiments import common
from repro.ml import r2
from repro.workload import queries as wq

MONTHS = 5.5
P3 = ("premium", "hot", "cool")
#: Policies of Tables IX–XI that run with tier capacities; the coolest tier
#: in play (cool) is unbounded (see ``pipeline.run_policy``).
CAPACITY_POLICIES = frozenset(
    {"hermes", "hcompress", "part_tier", "scope_latency", "scope_read", "scope_total"}
)
COMPREDICT_SCHEMES = ("csv+gzip", "csv+snappy", "parquet+gzip", "parquet+snappy",
                      "parquet+lz4")


@dataclass
class Instance:
    seed: int
    tables: dict[str, wq.TableFiles]
    queries: list[wq.Query]
    file_preds: pd.DataFrame | None = None  # enterprise-scale only


@dataclass
class Write:
    key: str
    pdf: pd.DataFrame
    tier: str
    scheme: str


@dataclass
class Finished:
    """What the harness needs after a job: failed checks, store writes and
    quality figures (``plan_cents``/``nocap_cents`` or ``ratio_r2``/``dsec_r2``)."""

    problems: list[str]
    writes: list[Write]
    quality: dict[str, float] = field(default_factory=dict)


def _all_files(tables: dict[str, wq.TableFiles]) -> set[str]:
    return {f.file_id for tf in tables.values() for f in tf.files}


def check_plans(
    results: dict[str, pipeline.PolicyResult],
    partition_sets: dict[bool, list[pipeline.PipelinePartition]],
    inst: Instance,
    rho_total: float,
) -> list[str]:
    """Plan invariants. ``partition_sets`` maps ``partitioned`` to the
    partitions a policy placed."""
    problems = []
    all_files = _all_files(inst.tables)
    total_gb = sum(tf.size_gb for tf in inst.tables.values())
    for partitioned, parts in partition_sets.items():
        covered = set().union(*(p.files for p in parts))
        if covered != all_files:
            problems.append(f"partitioned={partitioned}: {len(all_files ^ covered)} "
                            "files not covered exactly")
        if not math.isclose(sum(p.rho for p in parts), rho_total, rel_tol=1e-9):
            problems.append(f"partitioned={partitioned}: sum of rho not conserved")
    for key, res in results.items():
        a = res.assignment
        pids = sorted(p.pid for p in partition_sets[res.partitioned])
        if sorted(a["pid"]) != pids:
            problems.append(f"{key}: plan rows do not match the partitions one to one")
        if not math.isclose(float(a["accesses"].sum()), rho_total, rel_tol=1e-9):
            problems.append(f"{key}: plan accesses do not sum to rho")
        if key in CAPACITY_POLICIES:
            used = a.groupby("tier")["stored_gb"].sum()
            for tier in ("premium", "hot"):
                cap = cm.CAPACITY_FRACTION[tier] * total_gb
                if float(used.get(tier, 0.0)) > cap * (1 + 1e-9):
                    problems.append(f"{key}: {tier} over capacity")
    nocap, total = results["scope_nocap"].total_cost, results["scope_total"].total_cost
    if nocap > total * (1 + 1e-9):
        problems.append(f"scope_nocap {nocap:.4f} > scope_total {total:.4f}")
    return problems


def plan_writes(res: pipeline.PolicyResult,
                parts: list[pipeline.PipelinePartition]) -> list[Write]:
    """Each partition sample of a plan, at its planned tier and scheme."""
    by_pid = {p.pid: p for p in parts}
    return [Write(row.pid, by_pid[row.pid].sample, row.tier, row.scheme)
            for row in res.assignment.itertuples()]


def enterprise_tables(sf: float, n_files: int, logical_gb: float,
                      seed: int) -> dict[str, wq.TableFiles]:
    """The enterprise tables split into files, with ``logical_gb`` shared
    out by physical size."""
    pdfs = {name: gen(sf=sf, seed=seed + i)
            for i, (name, gen) in enumerate(sd.ENTERPRISE_PDF.items())}
    phys = {n: p.memory_usage(deep=True).sum() for n, p in pdfs.items()}
    total = sum(phys.values())
    return {
        n: wq.split_table(p, n, n_files=n_files, sort_col=sd.ENTERPRISE_SORT_COL[n],
                          logical_size_gb=logical_gb * phys[n] / total)
        for n, p in pdfs.items()
    }


#: Per (table, scheme) of the enterprise tables: median ratio, median
#: decompression sec/GB, and the standard deviation of the log of each over
#: a table's files. Printed by ``calibrate.py`` (``storage.codecs.measure``
#: on every file of the tables at SF 0.05, 32 files per table, seeds 1-3,
#: 3 repeats) on a 4-core x86-64 host; sec/GB is that host's wall-clock time.
ENTERPRISE_CODECS = {
    ("events", "csv+gzip"): (4.26, 5.07, 0.0018, 0.13),
    ("events", "parquet+gzip"): (1.66, 16.3, 0.0016, 0.33),
    ("events", "parquet+lz4"): (1.28, 13.4, 0.00073, 0.4),
    ("events", "parquet+snappy"): (1.27, 13.5, 0.0013, 0.33),
    ("profiles", "csv+gzip"): (5.34, 4.54, 0.0065, 0.17),
    ("profiles", "parquet+gzip"): (3.69, 20.9, 0.0033, 0.28),
    ("profiles", "parquet+lz4"): (2.27, 17.4, 0.0033, 0.34),
    ("profiles", "parquet+snappy"): (2.56, 19.4, 0.0028, 0.29),
    ("transactions", "csv+gzip"): (3.17, 6.33, 0.0021, 0.12),
    ("transactions", "parquet+gzip"): (1.71, 29.7, 0.0011, 0.31),
    ("transactions", "parquet+lz4"): (1.34, 22.2, 0.0022, 0.34),
    ("transactions", "parquet+snappy"): (1.32, 23.5, 0.005, 0.33),
}


class _Workload:
    """Sizes per instance: ``FULL`` for the benchmark, ``TINY`` for the
    self-test. ``ROUND_S`` is the length of one round over the ``FULL``
    instances on a 4-core host; a run makes ``--seconds // ROUND_S`` rounds."""

    FULL: dict
    TINY: dict
    ROUND_S: float

    def __init__(self, tiny: bool = False):
        self.size = self.TINY if tiny else self.FULL
        self.instances = self.size["instances"]


class TpchGrid(_Workload):
    """Table X: all 11 policies of ``scope_policy_table`` on TPC-H-lite with
    ground-truth codec labels, then the SCOPe (Total cost) plan is written."""

    name = "tpch-grid"
    ROUND_S = 10.0
    FULL = dict(sf=0.005, n_files=8, n_per_template=5, max_rows=1000, instances=6)
    TINY = dict(sf=0.002, n_files=4, n_per_template=1, max_rows=100, instances=1)
    LOGICAL_GB = 100.0
    QUERY_REPEAT = 25.0
    S_THRESH_FRAC = 0.05

    def setup(self, seed: int, tr) -> Instance:
        tables = common.tpch_table_files(sf=self.size["sf"], logical_total_gb=self.LOGICAL_GB,
                                         n_files=self.size["n_files"], seed=seed)
        queries = wq.gen_tpch_workload(tables, n_per_template=self.size["n_per_template"],
                                       seed=seed)
        return Instance(seed, tables, queries)

    def _plan_args(self) -> dict:
        return dict(max_rows=self.size["max_rows"], s_thresh_frac=self.S_THRESH_FRAC)

    def job(self, inst: Instance):
        _, results = pipeline.scope_policy_table(
            inst.tables, inst.queries, months=MONTHS, query_repeat=self.QUERY_REPEAT,
            **self._plan_args())
        return results

    def finish(self, inst: Instance, results) -> Finished:
        # scope_policy_table does not return its partitions; rebuilding them
        # with the same arguments gives the same pids (checked below).
        args = self._plan_args()
        whole = pipeline.unpartitioned(inst.tables, inst.queries, max_rows=args["max_rows"])
        parted = pipeline.gpart_partitions(inst.tables, inst.queries, **args)
        for p in (*whole, *parted):
            p.rho *= self.QUERY_REPEAT
        rho_total = len(inst.queries) * self.QUERY_REPEAT
        problems = check_plans(results, {False: whole, True: parted}, inst, rho_total)
        writes = [] if problems else plan_writes(results["scope_total"], parted)
        return Finished(problems, writes, {
            "plan_cents": results["scope_total"].total_cost,
            "nocap_cents": results["scope_nocap"].total_cost,
        })


class CompredictTrain(_Workload):
    """Tables VI–VIII: query-result samples, weighted-entropy features and
    codec labels, one random forest per (scheme, target), predictions. The
    samples are then written compressed with their predicted-best scheme."""

    name = "compredict-train"
    ROUND_S = 15.0
    FULL = dict(sf=0.02, n_per_template=2, max_rows=700, repeats=2, instances=2)
    TINY = dict(sf=0.002, n_per_template=1, max_rows=100, repeats=1, instances=1)
    TEST_FRAC = 0.3

    def setup(self, seed: int, tr) -> Instance:
        tables = common.tpch_table_files(sf=self.size["sf"], seed=seed)
        queries = wq.gen_tpch_workload(tables, n_per_template=self.size["n_per_template"],
                                       seed=seed)
        return Instance(seed, tables, queries)

    def _split(self, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        idx = np.random.default_rng(seed).permutation(n)
        n_test = max(1, int(n * self.TEST_FRAC))
        return idx[:n_test], idx[n_test:]

    def job(self, inst: Instance):
        samples = common.query_samples(inst.tables, inst.queries,
                                       max_rows=self.size["max_rows"])
        data = common.compredict_dataset(samples, COMPREDICT_SCHEMES,
                                         repeats=self.size["repeats"])
        _, train = self._split(len(data), inst.seed)
        preds = cp.predictions_frame(data, list(range(len(data))), COMPREDICT_SCHEMES,
                                     train_dataset=data.iloc[train])
        return samples, data, preds

    def finish(self, inst: Instance, out) -> Finished:
        samples, data, preds = out
        problems = []
        labels = data[[f"{t}_{s}" for t in ("ratio", "dsec") for s in COMPREDICT_SCHEMES]]
        if not np.isfinite(labels.to_numpy(dtype=float)).all():
            problems.append("non-finite codec labels")
        if not (data[[f"ratio_{s}" for s in COMPREDICT_SCHEMES]] > 0).all().all():
            problems.append("a labelled ratio is not > 0")
        if len(preds) != len(data) * len(COMPREDICT_SCHEMES):
            problems.append("predictions do not cover every (sample, scheme)")
        pv = preds[["ratio", "decomp_sec_per_gb"]].to_numpy(dtype=float)
        if not np.isfinite(pv).all() or not (preds["ratio"] > 0).all():
            problems.append("non-finite prediction or predicted ratio <= 0")
        if problems:
            return Finished(problems, [])
        test, _ = self._split(len(data), inst.seed)
        quality = {}
        for target, col in (("ratio", "ratio"), ("dsec", "decomp_sec_per_gb")):
            scores = []
            for s in COMPREDICT_SCHEMES:
                p = preds[preds["scheme"] == s].set_index("pid")[col]
                scores.append(r2(data[f"{target}_{s}"].to_numpy()[test], p.loc[test].to_numpy()))
            quality[f"{target}_r2"] = float(np.mean(scores))
        best = (preds.sort_values(["pid", "ratio", "scheme"], ascending=[True, False, True])
                .groupby("pid")["scheme"].first())
        writes = [Write(f"s{i:04d}", samples[i], "premium", best.loc[i])
                  for i in range(len(samples))]
        return Finished([], writes, quality)


class EnterpriseScale(_Workload):
    """G-PART and the capacity-constrained policies on the enterprise tables
    with a Zipf workload whose demand exceeds the hot and premium capacity.
    Codec predictions are drawn per file from the seed, so no codec work
    runs in the plan; the SCOPe (Total cost) plan is then written."""

    name = "enterprise-scale"
    ROUND_S = 30.0
    FULL = dict(sf=0.005, n_files=32, n_queries=8000, max_rows=1000, instances=8)
    TINY = dict(sf=0.002, n_files=8, n_queries=100, max_rows=100, instances=1)
    LOGICAL_GB = 1.5
    ZIPF_ALPHA = 1.2
    QUERY_REPEAT = 100.0
    S_THRESH_FRAC = 0.1
    def setup(self, seed: int, tr) -> Instance:
        with tr.span("workload.tables"):
            tables = enterprise_tables(self.size["sf"], self.size["n_files"],
                                       self.LOGICAL_GB, seed)
        queries = wq.gen_zipf_workload(tables, n_queries=self.size["n_queries"],
                                       alpha=self.ZIPF_ALPHA, seed=seed,
                                       sort_cols=sd.ENTERPRISE_SORT_COL)
        return Instance(seed, tables, queries, self._file_predictions(tables, seed))

    def _file_predictions(self, tables: dict[str, wq.TableFiles], seed: int) -> pd.DataFrame:
        """Per-file (ratio, sec/GB) per scheme: the measured median of the
        file's table (``ENTERPRISE_CODECS``) times lognormal file noise of
        the measured spread, drawn from the seed."""
        g = np.random.default_rng([seed, 7])
        files = [f for name in sorted(tables) for f in tables[name].files]
        out = pd.DataFrame({"size_gb": [f.size_gb for f in files]},
                           index=[f.file_id for f in files])
        for s in pipeline.PIPELINE_SCHEMES:
            fig = np.array([ENTERPRISE_CODECS[f.table, s] for f in files])
            out[f"ratio_{s}"] = fig[:, 0] * np.exp(fig[:, 2] * g.standard_normal(len(files)))
            out[f"dsec_{s}"] = fig[:, 1] * np.exp(fig[:, 3] * g.standard_normal(len(files)))
        return out

    def _partition_predictions(self, parts, fp: pd.DataFrame) -> pd.DataFrame:
        """Span-weighted: stored bytes add up over files, and so does time."""
        rows = []
        for p in parts:
            f = fp.loc[list(p.files)]
            w = f["size_gb"].to_numpy()
            for s in pipeline.PIPELINE_SCHEMES:
                rows.append({
                    "pid": p.pid, "scheme": s,
                    "ratio": w.sum() / (w / f[f"ratio_{s}"].to_numpy()).sum(),
                    "decomp_sec_per_gb": (w * f[f"dsec_{s}"].to_numpy()).sum() / w.sum(),
                })
        return pd.DataFrame(rows)

    def job(self, inst: Instance):
        parts = pipeline.gpart_partitions(inst.tables, inst.queries,
                                          s_thresh_frac=self.S_THRESH_FRAC,
                                          max_rows=self.size["max_rows"])
        for p in parts:
            p.rho *= self.QUERY_REPEAT
        preds = self._partition_predictions(parts, inst.file_preds)
        total_gb = sum(tf.size_gb for tf in inst.tables.values())

        def run(name, **kw):
            return pipeline.run_policy(name=name, baseline="-", partitions=parts,
                                       tier_names=P3, months=MONTHS, partitioned=True, **kw)

        results = {
            "part_tier": run("Partitioning + Tiering", predictions=None,
                             capacity_total_gb=total_gb),
            "scope_latency": run("SCOPe (Latency time focused)", predictions=preds,
                                 capacity_total_gb=total_gb, latency_focused=True),
            "scope_nocap": run("SCOPe (No capacity constraint)", predictions=preds),
            "scope_read": run("SCOPe (Read+Decomp. cost focused)", predictions=preds,
                              capacity_total_gb=total_gb,
                              weights=cm.CostWeights(alpha=0.0, beta=1.0, gamma=0.0)),
            "scope_total": run("SCOPe (Total cost focused)", predictions=preds,
                               capacity_total_gb=total_gb),
        }
        return parts, results

    def finish(self, inst: Instance, out) -> Finished:
        parts, results = out
        rho_total = len(inst.queries) * self.QUERY_REPEAT
        problems = check_plans(results, {True: parts}, inst, rho_total)
        writes = [] if problems else plan_writes(results["scope_total"], parts)
        return Finished(problems, writes, {
            "plan_cents": results["scope_total"].total_cost,
            "nocap_cents": results["scope_nocap"].total_cost,
        })


WORKLOADS = {w.name: w for w in (TpchGrid, CompredictTrain, EnterpriseScale)}
