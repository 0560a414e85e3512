"""COMPREDICT as a job: weighted-entropy features of the TPC-H-lite tables
and a Random-Forest ratio predictor trained on query-result samples."""
from repro import synth_data as sd
from repro.core import compredict as cp
from repro.experiments import table06


def main(sf: float = 0.01, seed: int = 0) -> None:
    for name, gen in sd.TPCH_PDF.items():
        feats = cp.weighted_entropy_pandas(gen(sf=sf, seed=seed))
        print(name, {k: round(v, 2) for k, v in feats.items()})
    ds = table06.build_dataset(sf=sf, n_per_template=6, max_rows=2000, seed=seed)
    out = cp.train_eval(
        ds, target="ratio_csv+gzip",
        features=cp.ENTROPY_FEATURES + ("size_mb",),
        model_factory=cp.MODEL_FACTORIES["Random Forest"],
    )
    print("RF ratio prediction (csv+gzip):", {k: round(v, 4) for k, v in out.items()})


if __name__ == "__main__":
    main()
