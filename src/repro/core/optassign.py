"""OPTASSIGN (§IV): optimal tier + compression assignment.

The general capacity-free case is Theorem 3's greedy — *per partition, pick
the cheapest latency-feasible (tier, scheme)*. :func:`candidate_frame_numpy`
builds the candidate table ``partitions x tiers x schemes`` in pandas,
priced by :func:`repro.core.cost_model.placement_cost` and filtered by the
ILP constraints; :func:`cheapest` keeps the min-cost row per partition.
Capacity-constrained instances run a repair loop over the same candidate
table; the exact branch-and-bound in :mod:`repro.core.ilp` is the test
oracle.

There is no Spark path: every caller places at most hundreds of partitions
(760 datasets for Tables II–IV, tens for Tables IX–XI), where pandas is the
faster engine: a Spark DataFrame version of the greedy gave the same plans
but took 4.3 s against pandas' 0.06 s at 10³ partitions and 1.6 s against
0.23 s at 10⁴ (local[4], 4 cores; DESIGN.md §4 has the full measurement).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core import cost_model as cm

#: Columns of an assignment: one chosen candidate row per partition.
ASSIGN_COLS = [
    "pid",
    "tier",
    "scheme",
    "stored_gb",
    "storage_cost",
    "transfer_cost",
    "read_cost",
    "decomp_cost",
    "weighted_cost",
    "read_latency",
    "decomp_latency",
]


def candidate_frame_numpy(
    partitions: pd.DataFrame,
    predictions: pd.DataFrame | None,
    tiers: list[cm.Tier],
    *,
    months: float,
    weights: cm.CostWeights = cm.CostWeights(),
    enforce_archive_residency: bool = True,
) -> pd.DataFrame:
    """The feasible candidate table with the ILP objective terms per row.

    ``partitions`` needs columns pid, span_gb, accesses and optionally
    latency_threshold (default inf), current_tier (default None = new data),
    fixed_scheme (default None = free choice). ``predictions`` holds
    (pid, scheme, ratio, decomp_sec_per_gb); the 'no compression' option
    (R=1, D=0, §IV-A) is always added, and ``None`` means K=0 (tiering only).
    """
    p = partitions.copy()
    if "latency_threshold" not in p:
        p["latency_threshold"] = np.inf
    if "current_tier" not in p:
        p["current_tier"] = None
    if "fixed_scheme" not in p:
        p["fixed_scheme"] = None
    none_rows = p[["pid"]].assign(scheme="none", ratio=1.0, decomp_sec_per_gb=0.0)
    if predictions is not None:
        s = pd.concat(
            [none_rows, predictions[predictions["scheme"] != "none"]],
            ignore_index=True,
        )
    else:
        s = none_rows
    t = pd.DataFrame(
        {
            "tier": [x.name for x in tiers],
            "t_storage": [x.storage_cost for x in tiers],
            "t_read": [x.read_cost for x in tiers],
            "t_write": [x.write_cost for x in tiers],
            "t_ttfb": [x.ttfb for x in tiers],
        }
    )
    cand = p.merge(t, how="cross").merge(s, on="pid")
    a = cm.placement_cost(
        span_gb=cand["span_gb"],
        accesses=cand["accesses"],
        months=months,
        storage_price=cand["t_storage"],
        read_price=cand["t_read"],
        write_price=cand["t_write"],
        ttfb=cand["t_ttfb"],
        src_read_price=cand["current_tier"].map(cm.READ_COST).fillna(0.0),
        moved=cand["current_tier"] != cand["tier"],
        ratio=cand["ratio"],
        decomp_sec_per_gb=cand["decomp_sec_per_gb"],
    )
    cand = cand.assign(
        stored_gb=a.stored_gb,
        storage_cost=a.storage,
        transfer_cost=a.transfer,
        read_cost=a.read,
        decomp_cost=a.decompress,
        weighted_cost=a.weighted(weights),
        read_latency=a.read_latency,
        decomp_latency=a.decompress_latency,
    )
    # Constraint 3: D + B_l <= T(P).
    ok = cand["decomp_latency"] + cand["read_latency"] <= cand["latency_threshold"]
    # Last ILP equality: existing partitions keep their scheme.
    ok &= cand["fixed_scheme"].isna() | (cand["scheme"] == cand["fixed_scheme"])
    if enforce_archive_residency and months < cm.ARCHIVE_MIN_MONTHS:
        ok &= cand["tier"] != "archive"
    return cand[ok].reset_index(drop=True)


def cheapest(cand: pd.DataFrame, pids) -> pd.DataFrame:
    """Theorem 3's argmin: the min-``weighted_cost`` candidate per partition.

    Ties break on tier, then scheme name. Raises if a partition in ``pids``
    has no feasible candidate.
    """
    chosen = cand.sort_values(
        ["pid", "weighted_cost", "tier", "scheme"], kind="stable"
    ).drop_duplicates("pid")
    missing = set(pids) - set(chosen["pid"])
    if missing:
        raise ValueError(f"partitions with no feasible option: {sorted(missing)[:5]}")
    return chosen[ASSIGN_COLS].reset_index(drop=True)


def greedy_assign_numpy(
    partitions: pd.DataFrame,
    predictions: pd.DataFrame | None,
    tiers: list[cm.Tier],
    *,
    months: float,
    weights: cm.CostWeights = cm.CostWeights(),
    enforce_archive_residency: bool = True,
) -> pd.DataFrame:
    """Theorem-3 greedy: the cheapest feasible (tier, scheme) per partition."""
    cand = candidate_frame_numpy(
        partitions,
        predictions,
        tiers,
        months=months,
        weights=weights,
        enforce_archive_residency=enforce_archive_residency,
    )
    return cheapest(cand, partitions["pid"])


def repair_capacity(
    chosen: pd.DataFrame,
    cand: pd.DataFrame,
    tiers: list[cm.Tier],
) -> pd.DataFrame:
    """Greedy capacity repair over an assignment and its candidate table.

    While a tier exceeds its capacity, evict the assigned partition whose
    cheapest feasible alternative (on a tier with head-room) costs the least
    extra per GB freed. Heuristic — exactness is the ILP's job; tests check
    feasibility and near-optimality on small instances.
    """
    cap = {t.name: t.capacity_gb for t in tiers}
    chosen = chosen.set_index("pid", drop=False).copy()
    # Each partition's candidate rows, by position, in candidate-table order.
    rows_of = cand.groupby("pid", sort=False).indices
    names = cand["tier"].to_numpy()
    stored = cand["stored_gb"].to_numpy()
    cost = cand["weighted_cost"].to_numpy()
    for _ in range(10_000):
        usage = chosen.groupby("tier")["stored_gb"].sum()
        over = [
            (tname, usage.get(tname, 0.0) - cap[tname])
            for tname in usage.index
            if usage.get(tname, 0.0) > cap[tname] + 1e-9
        ]
        if not over:
            return chosen.reset_index(drop=True)[ASSIGN_COLS]
        tname = max(over, key=lambda x: x[1])[0]
        room = {
            t.name: cap[t.name] - float(usage.get(t.name, 0.0)) for t in tiers
        }
        victims = chosen[chosen["tier"] == tname]
        best_move, best_key = None, None
        for pid, w, gb in zip(
            victims["pid"], victims["weighted_cost"], victims["stored_gb"]
        ):
            alts = [
                i
                for i in rows_of[pid]
                if names[i] != tname and stored[i] <= room[names[i]] + 1e-9
            ]
            if not alts:
                continue
            alt = min(alts, key=lambda i: cost[i])
            key = ((cost[alt] - w) / max(gb, 1e-12), pid)
            if best_key is None or key < best_key:
                best_key, best_move = key, (pid, alt)
        if best_move is None:
            raise ValueError(f"cannot repair capacity of tier {tname!r}")
        pid, alt = best_move
        chosen.loc[pid, ASSIGN_COLS[1:]] = cand.iloc[alt][ASSIGN_COLS[1:]].values
    raise RuntimeError("capacity repair did not converge")  # pragma: no cover


def assign_with_capacity(
    partitions: pd.DataFrame,
    predictions: pd.DataFrame | None,
    tiers: list[cm.Tier],
    *,
    months: float,
    weights: cm.CostWeights = cm.CostWeights(),
    enforce_archive_residency: bool = True,
) -> pd.DataFrame:
    """Greedy + capacity repair (used by the pipeline's capacity rows)."""
    cand = candidate_frame_numpy(
        partitions,
        predictions,
        tiers,
        months=months,
        weights=weights,
        enforce_archive_residency=enforce_archive_residency,
    )
    return repair_capacity(cheapest(cand, partitions["pid"]), cand, tiers)
