"""Table III: confusion matrix, predicted vs ideal tier (hot/cool).

Paper setting (§IV-C): one storage account, ~760 datasets / ~700 TB,
2-month prediction horizon, Random-Forest classifier on (size, age, recent
monthly reads/writes), out-of-time train/validation/test; F1 > 0.96.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.ml import RandomForestClassifier
from repro.ml.metrics import confusion_matrix, f1_score
from repro.workload import access_logs as al

#: Paper Table III (rows = predicted, cols = ideal; order hot, cool).
PAPER = pd.DataFrame(
    [[291, 12], [12, 445]],
    index=["pred_hot", "pred_cool"],
    columns=["ideal_hot", "ideal_cool"],
)
PAPER_F1 = 0.96

N_DATASETS = 760
TARGET_TB = 700.0


def _training_table(
    meta: pd.DataFrame, logs: pd.DataFrame, *, t0s: list[int], horizon: int, window: int
) -> tuple[np.ndarray, np.ndarray]:
    feats_cols = al.FEATURE_COLS(window)
    Xs, ys = [], []
    for t in t0s:
        f = al.feature_frame(meta, logs, t0=t, window=window)
        f = f[f["age_months"] >= 1]  # new data handled separately (§IV-A)
        labels = al.ideal_tiers(meta, logs, t0=t, horizon=horizon)
        lab = f["dataset_id"].map(labels.set_index("pid")["tier"])
        keep = lab.notna()
        Xs.append(f.loc[keep, feats_cols].to_numpy(dtype=float))
        ys.append(lab[keep].to_numpy())
    return np.vstack(Xs), np.concatenate(ys)


def run(
    *,
    seed: int = 7,
    months: int = 24,
    horizon: int = 2,
    window: int = 4,
    t0_test: int = 18,
) -> dict:
    """Train out-of-time (t0 in [window+1, t0_test - horizon]), test at
    ``t0_test``. Returns confusion matrix, F1, and the fitted pieces."""
    meta, logs = al.gen_enterprise_logs(
        n_datasets=N_DATASETS, months=months, seed=seed
    )
    meta = meta.copy()
    meta["size_gb"] *= TARGET_TB * 1e3 / meta["size_gb"].sum()
    train_t0s = list(range(window + 1, t0_test - horizon))
    X, y = _training_table(meta, logs, t0s=train_t0s, horizon=horizon, window=window)
    clf = RandomForestClassifier(
        n_estimators=50, max_depth=12, random_state=0
    ).fit(X, y)
    f = al.feature_frame(meta, logs, t0=t0_test, window=window)
    f = f[f["age_months"] >= 1]  # new data handled separately (§IV-A)
    ideal = al.ideal_tiers(meta, logs, t0=t0_test, horizon=horizon)
    truth = f["dataset_id"].map(ideal.set_index("pid")["tier"])
    keep = truth.notna()
    X_test = f.loc[keep, al.FEATURE_COLS(window)].to_numpy(dtype=float)
    y_true = truth[keep].to_numpy()
    y_pred = clf.predict(X_test)
    cmx = confusion_matrix(y_true, y_pred, labels=["hot", "cool"])
    return {
        "confusion": pd.DataFrame(
            cmx, index=["pred_hot", "pred_cool"], columns=["ideal_hot", "ideal_cool"]
        ),
        "f1_hot": f1_score(y_true, y_pred, positive="hot"),
        "f1_cool": f1_score(y_true, y_pred, positive="cool"),
        "n_datasets": int(keep.sum()),
        "total_tb": float(meta["size_gb"].sum() / 1e3),
        "classifier": clf,
        "meta": meta,
        "logs": logs,
        "predicted": pd.Series(y_pred, index=f.loc[keep, "dataset_id"].to_numpy()),
        "ideal": pd.Series(y_true, index=f.loc[keep, "dataset_id"].to_numpy()),
    }


def f1_line(res: dict) -> str:
    """The F1 summary printed under the confusion matrix."""
    return (f"F1 hot={res['f1_hot']:.4f} cool={res['f1_cool']:.4f} "
            f"(paper: F1 > {PAPER_F1})")
