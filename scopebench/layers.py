"""Span and counter hooks on the public functions of each SCOPe layer.

Each hook wraps the module or class attribute its caller looks up, so the
traced run measures the unchanged program. Layer names follow the modules:

- ``workload``:   experiments.common / workload.queries (tables, queries, samples)
- ``datapart``:   pipeline.unpartitioned / gpart_partitions (+ sample rows)
- ``gpart``:      core.gpart via ``pipeline.gpart``
- ``codecs``:     storage.codecs.measure (ground-truth labelling)
- ``compredict``: weighted entropy + the ml random forest
- ``optassign``:  candidates, ``pipeline.run_policy`` and the capacity repair
- ``tiers``:      storage.tiers.TieredStore put / get
"""
from __future__ import annotations

from repro.core import compredict, gpart, pipeline
from repro.experiments import common
from repro.ml.forest import RandomForestRegressor
from repro.storage import codecs
from repro.storage.tiers import TieredStore
from repro.workload import queries

from spans import Tracer


def _after_samples(tr: Tracer, out, args, kwargs) -> None:
    tr.count("workload.samples", len(out))


def _after_partitions(tr: Tracer, out, args, kwargs) -> None:
    tr.count("datapart.partitions", len(out))


def _after_gpart(tr: Tracer, out, args, kwargs) -> None:
    parts, file_sizes = args[0], args[1]
    tr.count("gpart.calls")
    tr.count("gpart.families_in", len(parts))
    tr.count("gpart.partitions_out", len(out))
    tr.count("gpart.duplication", gpart.duplication(out, file_sizes))
    # File ids are "<table>/fNNNN"; a merged partition spanning two tables
    # is the disjoint-merge defect G-PART must never produce.
    tr.count("gpart.cross_table_merges", sum(
        len({f.split("/", 1)[0] for f in m.files}) > 1 for m in out))


def _after_measure(tr: Tracer, out, args, kwargs) -> None:
    tr.count("codecs.measure_calls")
    tr.count("codecs.label_mb", out.raw_bytes / 1e6)
    tr.record("codecs.dsec", out.decomp_sec_per_gb)


def _after_candidates(tr: Tracer, out, args, kwargs) -> None:
    tr.count("optassign.candidate_rows", len(out))


def _after_repair(tr: Tracer, out, args, kwargs) -> None:
    greedy = args[0].set_index("pid")[["tier", "scheme"]]
    placed = out.set_index("pid")[["tier", "scheme"]].loc[greedy.index]
    tr.count("optassign.repair_calls")
    tr.count("optassign.moves", int((placed != greedy).any(axis=1).sum()))


def _after_put(tr: Tracer, out, args, kwargs) -> None:
    tr.count("tiers.put_mb", out.raw_bytes / 1e6)


def _after_get(tr: Tracer, out, args, kwargs) -> None:
    store, key = args[0], args[1]
    tr.count("tiers.get_mb", store.catalog[key].raw_bytes / 1e6)


def install(tr: Tracer) -> None:
    """Wrap every layer boundary; undo with ``tr.unwrap_all()``."""
    tr.wrap(common, "tpch_table_files", "workload.tables")
    tr.wrap(queries, "gen_tpch_workload", "workload.queries")
    tr.wrap(queries, "gen_zipf_workload", "workload.queries")
    tr.wrap(common, "query_samples", "workload.samples", _after_samples)
    tr.wrap(pipeline, "unpartitioned", "datapart.partitions")
    tr.wrap(pipeline, "gpart_partitions", "datapart.partitions", _after_partitions)
    tr.wrap(pipeline, "_partition_rows", "datapart.materialise")
    tr.wrap(pipeline, "gpart", "gpart.merge", _after_gpart)
    tr.wrap(codecs, "measure", "codecs.measure", _after_measure)
    tr.wrap(compredict, "weighted_entropy_pandas", "compredict.entropy")
    tr.wrap(RandomForestRegressor, "fit", "compredict.fit")
    tr.wrap(RandomForestRegressor, "predict", "compredict.predict")
    tr.wrap(pipeline, "candidate_frame_numpy", "optassign.candidates", _after_candidates)
    tr.wrap(pipeline, "run_policy", "optassign.policy")
    tr.wrap(pipeline, "repair_capacity", "optassign.repair", _after_repair)
    tr.wrap(TieredStore, "put", "tiers.put", _after_put)
    tr.wrap(TieredStore, "get", "tiers.get", _after_get)
