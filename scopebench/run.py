"""SCOPe benchmark: one closed-loop caller, one plan at a time.

    python3 scopebench/run.py --workload tpch-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The seed generates the seeds of the run's
instances. The run makes ``--seconds // ROUND_S`` rounds over them, and at
least one, where ``ROUND_S`` is the workload's nominal round length. A round
takes each instance in turn: it sets the instance up from its seed
(``setup``, timed), runs its job (``job_s``: inputs -> full plan, or samples
-> fitted and predicted models), checks the outputs untimed, writes the
objects the job leaves into a ``TieredStore`` and reads them back
(``stored_per_raw``). ``setup_s`` is the median over every set-up of the
run; ``job_s`` sums over the instances each one's fastest round.

With ``--trace 1`` the layer hooks of ``layers.py`` record spans on the first
and last of three rounds; the per-layer metrics come from those rounds and
the untraced round between them gives the tracing overhead. Spans are
written to ``.scopebench/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Every failed check or raised
exception counts as one failed operation. See README.md for the metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".scopebench"

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "job_cpu_s": "s",
    "stored_per_raw": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "workload.tables_s": "s", "workload.queries_s": "s", "workload.families": "count",
    "workload.samples_s": "s", "workload.samples": "count",
    "datapart.partitions_s": "s", "datapart.materialise_s": "s",
    "datapart.partitions": "count",
    "gpart.merge_s": "s", "gpart.families_in": "count", "gpart.partitions_out": "count",
    "gpart.duplication": "ratio", "gpart.cross_table_merges": "count",
    "codecs.measure_s": "s", "codecs.measure_calls": "count", "codecs.label_mb": "MB",
    "codecs.label_mb_s": "MB/s", "codecs.dsec_cv": "ratio",
    "compredict.entropy_s": "s", "compredict.fit_s": "s", "compredict.predict_s": "s",
    "compredict.ratio_r2": "r2", "compredict.dsec_r2": "r2",
    "compredict.dsec_r2_range": "r2",
    "optassign.candidates_s": "s", "optassign.candidate_rows": "count",
    "optassign.policy_s": "s", "optassign.repair_s": "s",
    "optassign.repair_calls": "count", "optassign.moves": "count",
    "optassign.plan_cents": "cents", "optassign.plan_cents_range": "ratio",
    "optassign.capacity_gap": "ratio",
    "tiers.put_s": "s", "tiers.put_mb": "MB", "tiers.get_s": "s", "tiers.get_mb": "MB",
    "tiers.write_mb_s": "MB/s", "tiers.read_mb_s": "MB/s",
    "tiers.write_cents": "cents", "tiers.storage_cents": "cents",
    "trace.job_s": "s", "trace.overhead_s": "s",
}
TRACE_ORDER = (True, False, True)
#: The name each workload's job time goes by in the docs, printed beside job_s.
JOB_ALIAS = {"tpch-grid": "plan_s", "compredict-train": "train_s",
             "enterprise-scale": "plan_s"}


def instance_seeds(seed: int, k: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(k)]


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)


def set_up(wl, seed: int, tr, ops: Counter, rec: dict):
    """Build one instance from its seed; its time is one ``setup_s`` sample."""
    import repro.workload.queries as wq

    ops.attempted += 1
    try:
        t0 = time.perf_counter()
        inst = wl.setup(seed, tr)
        rec["setup"].append(time.perf_counter() - t0)
    except Exception:
        ops.fail(f"setup of seed {seed}\n{traceback.format_exc()}")
        return None
    tr.count("workload.families", len(wq.workload_fileparts(inst.queries)))
    return inst


def run_round(wl, seeds: list[int], instances: list, r: int, tr, store_dir: Path,
              ops: Counter) -> dict:
    """One pass of set-up, job, checks and store writes over every instance.

    The first round keeps the instances it builds for the later rounds; a
    later round builds each instance again, from the same seed, only to time
    the set-up, so that the set-up samples spread over the whole run as the
    job samples do.
    """
    from repro.storage.tiers import TieredStore
    from workloads import MONTHS

    nan = float("nan")
    rec = dict(setup=[], job_wall=[nan] * len(seeds), job_cpu=[nan] * len(seeds),
               put_raw=0, stored=0,
               write_cents=0.0, storage_cents=0.0, quality={})
    for i, seed in enumerate(seeds):
        tr.run_id = f"{wl.name}:r{r}:i{i}"
        rebuilt = set_up(wl, seed, tr, ops, rec)
        if r == 0:
            instances.append(rebuilt)
            # Instances live for the whole run: move them out of the
            # collector's young generations so that its pauses do not grow
            # with the number of instances built.
            gc.collect()
            gc.freeze()
        del rebuilt
        inst = instances[i]
        if inst is None:
            continue
        ops.attempted += 1
        try:
            with tr.span("job"):
                t0, c0 = time.perf_counter(), time.process_time()
                out = wl.job(inst)
                rec["job_wall"][i] = time.perf_counter() - t0
                rec["job_cpu"][i] = time.process_time() - c0
            with tr.paused():
                fin = wl.finish(inst, out)
        except Exception:
            ops.fail(f"{wl.name} job on instance {i}\n{traceback.format_exc()}")
            continue
        if fin.problems:
            ops.fail(f"{wl.name} instance {i}: {fin.problems}")
        for k, v in fin.quality.items():
            rec["quality"][k] = rec["quality"].get(k, 0.0) + v
        store = TieredStore(store_dir / f"i{i}")
        written = []
        for w in fin.writes:
            ops.attempted += 1
            try:
                meta = store.put(w.key, w.pdf, tier=w.tier, scheme=w.scheme)
            except Exception:
                ops.fail(f"put {w.key}\n{traceback.format_exc()}")
                continue
            rec["put_raw"] += meta.raw_bytes
            rec["stored"] += meta.stored_bytes
            written.append((w, meta))
        for w, meta in written:
            ops.attempted += 1
            try:
                back = store.get(w.key)
            except Exception:
                ops.fail(f"get {w.key}\n{traceback.format_exc()}")
                continue
            if len(back) != len(w.pdf) or list(back.columns) != list(w.pdf.columns):
                ops.fail(f"get {w.key}: {len(back)} rows {list(back.columns)}, "
                         f"wrote {len(w.pdf)} rows {list(w.pdf.columns)}")
        with tr.paused():
            store.advance(MONTHS)
        rec["write_cents"] += store.meter.write
        rec["storage_cents"] += store.meter.storage
        shutil.rmtree(store.root, ignore_errors=True)
    return rec


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def best_total(rounds: list[dict], key: str) -> float:
    """Sum over instances of each instance's fastest round.

    The jobs are CPU-bound and single-caller, so on a shared host the
    least-noise estimate of a job's time is its minimum over repeats (as
    ``codecs.measure`` does for codec timings): other tenants only add time.
    """
    per_instance = zip(*(r[key] for r in rounds))
    return sum(min((t for t in ts if not math.isnan(t)), default=0.0)
               for ts in per_instance)


def mean_total(rounds: list[dict], key: str) -> float:
    """Sum over instances of each instance's mean over ``rounds``."""
    per_instance = zip(*(r[key] for r in rounds))
    return sum(statistics.fmean(ok) for ts in per_instance
               if (ok := [t for t in ts if not math.isnan(t)]))


def layer_metrics(traced, untraced) -> dict[str, float]:
    """Per-layer figures: the median over traced rounds of each round's
    total over its instances."""
    def per_round(rec):
        t, c = rec["totals"], rec["counts"]
        q = rec["quality"]
        calls = c.get("gpart.calls", 0.0)
        nocap = q.get("nocap_cents", 0.0)
        return {
            "workload.tables_s": t.get("workload.tables", 0.0),
            "workload.queries_s": t.get("workload.queries", 0.0),
            "workload.families": c.get("workload.families", 0.0),
            "workload.samples_s": t.get("workload.samples", 0.0),
            "workload.samples": c.get("workload.samples", 0.0),
            "datapart.partitions_s": t.get("datapart.partitions", 0.0),
            "datapart.materialise_s": t.get("datapart.materialise", 0.0),
            "datapart.partitions": c.get("datapart.partitions", 0.0),
            "gpart.merge_s": t.get("gpart.merge", 0.0),
            "gpart.families_in": c.get("gpart.families_in", 0.0),
            "gpart.partitions_out": c.get("gpart.partitions_out", 0.0),
            "gpart.duplication": _ratio(c.get("gpart.duplication", 0.0), calls),
            "gpart.cross_table_merges": c.get("gpart.cross_table_merges", 0.0),
            "codecs.measure_s": t.get("codecs.measure", 0.0),
            "codecs.measure_calls": c.get("codecs.measure_calls", 0.0),
            "codecs.label_mb": c.get("codecs.label_mb", 0.0),
            "codecs.label_mb_s": _ratio(c.get("codecs.label_mb", 0.0),
                                        t.get("codecs.measure", 0.0)),
            "compredict.entropy_s": t.get("compredict.entropy", 0.0),
            "compredict.fit_s": t.get("compredict.fit", 0.0),
            "compredict.predict_s": t.get("compredict.predict", 0.0),
            "optassign.candidates_s": t.get("optassign.candidates", 0.0),
            "optassign.candidate_rows": c.get("optassign.candidate_rows", 0.0),
            "optassign.policy_s": t.get("optassign.policy", 0.0),
            "optassign.repair_s": t.get("optassign.repair", 0.0),
            "optassign.repair_calls": c.get("optassign.repair_calls", 0.0),
            "optassign.moves": c.get("optassign.moves", 0.0),
            "optassign.capacity_gap": _ratio(q.get("plan_cents", 0.0) - nocap, nocap),
            "tiers.put_s": t.get("tiers.put", 0.0),
            "tiers.put_mb": c.get("tiers.put_mb", 0.0),
            "tiers.get_s": t.get("tiers.get", 0.0),
            "tiers.get_mb": c.get("tiers.get_mb", 0.0),
            "tiers.write_mb_s": _ratio(c.get("tiers.put_mb", 0.0), t.get("tiers.put", 0.0)),
            "tiers.read_mb_s": _ratio(c.get("tiers.get_mb", 0.0), t.get("tiers.get", 0.0)),
            "tiers.write_cents": rec["write_cents"],
            "tiers.storage_cents": rec["storage_cents"],
        }

    rows = [per_round(r) for r in traced]
    out = {k: _median([row[k] for row in rows]) for k in rows[0]}
    # Label noise: the same samples are labelled again each round, in the
    # same order, so the spread per call position is wall-clock noise.
    series = [r["series"].get("codecs.dsec", []) for r in traced]
    cvs = [statistics.pstdev(v) / statistics.fmean(v)
           for v in zip(*series) if len(v) > 1 and statistics.fmean(v) > 0]
    out["codecs.dsec_cv"] = _median(cvs)
    everything = traced + untraced
    cents = [r["quality"]["plan_cents"] for r in everything if "plan_cents" in r["quality"]]
    out["optassign.plan_cents"] = _median(cents)
    out["optassign.plan_cents_range"] = _ratio(max(cents) - min(cents), _median(cents)) \
        if cents else 0.0
    r2s = {k: [r["quality"][k] / r["n_instances"] for r in everything if k in r["quality"]]
           for k in ("ratio_r2", "dsec_r2")}
    out["compredict.ratio_r2"] = _median(r2s["ratio_r2"])
    out["compredict.dsec_r2"] = _median(r2s["dsec_r2"])
    out["compredict.dsec_r2_range"] = (max(r2s["dsec_r2"]) - min(r2s["dsec_r2"])
                                       if r2s["dsec_r2"] else 0.0)
    # Rounds 0 and 2 are traced and round 1 is not: the mean of the traced
    # pair, per instance, against the one untraced round compares one
    # sample with one sample and cancels drift that is linear in time.
    traced_job = mean_total(traced, "job_wall")
    out["trace.job_s"] = traced_job
    out["trace.overhead_s"] = traced_job - mean_total(untraced, "job_wall")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the self-test")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: {src / 'repro'} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](tiny=args.tiny)
    tr = Tracer(enabled=bool(args.trace))
    ops = Counter()
    store_dir = OUT / f"store-{wl.name}-{args.seed}"
    shutil.rmtree(store_dir, ignore_errors=True)
    if args.trace:
        layers.install(tr)
    try:
        seeds = instance_seeds(args.seed, wl.instances)
        instances: list = []
        traced, untraced = [], []
        # An untraced run makes as many rounds as --seconds holds at the
        # workload's nominal round length, and at least one: a fixed count,
        # so every run takes its minimum over the same number of repeats. A
        # traced run makes three rounds, traced-untraced-traced, so that drift
        # in the host's speed cancels in the overhead (traced minus untraced).
        n_rounds = (len(TRACE_ORDER) if args.trace
                    else max(1, int(args.seconds // wl.ROUND_S)))
        for r in range(n_rounds):
            tr.enabled = bool(args.trace) and TRACE_ORDER[r]
            rec = run_round(wl, seeds, instances, r, tr, store_dir, ops)
            rec["totals"], rec["counts"], rec["series"] = tr.take()
            rec["n_instances"] = sum(inst is not None for inst in instances)
            (traced if tr.enabled else untraced).append(rec)
    finally:
        tr.unwrap_all()
        shutil.rmtree(store_dir, ignore_errors=True)

    rounds = traced + untraced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured = untraced  # the traced rounds' job_s is trace.job_s
    e2e = {
        "setup_s": _median([t for r in rounds for t in r["setup"]]),
        "job_s": best_total(measured, "job_wall"),
        "job_cpu_s": best_total(measured, "job_cpu"),
        "stored_per_raw": _median([_ratio(r["stored"], r["put_raw"]) for r in measured]),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {wl.name} seed {args.seed} instances {rounds[0]['n_instances']} "
          f"rounds {len(rounds)} (traced {len(traced)})")
    for name, unit in END_TO_END.items():
        print(f"metric {name} {e2e[name]:.6g} {unit}")
    print(f"metric {JOB_ALIAS[wl.name]} {e2e['job_s']:.6g} s")
    ratio_r2 = [r["quality"]["ratio_r2"] / r["n_instances"] for r in rounds
                if "ratio_r2" in r["quality"]]
    if ratio_r2:
        print(f"metric ratio_r2 {_median(ratio_r2):.6g} r2")
    print(f"metric error_rate {ops.failed / max(ops.attempted, 1):.6g} failed/attempted")

    if args.trace:
        metrics = layer_metrics(traced, untraced)
        units = PER_LAYER
        span_file = OUT / f"spans-{wl.name}-{args.seed}.jsonl"
        tr.write(span_file)
        for name, sec in sorted(tr.self_times().items(), key=lambda kv: -kv[1]):
            print(f"self_s {name} {sec:.6g}")
        print(f"spans {len(tr.spans)} written to {span_file.relative_to(ROOT)}")
    else:
        metrics, units = e2e, END_TO_END
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
