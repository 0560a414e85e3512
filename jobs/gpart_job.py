"""DATAPART/G-PART as a job: group an enterprise Zipf workload into query
families, merge them with G-PART, and report duplication and read cost."""
from repro import synth_data as sd
from repro.core.gpart import duplication, gpart, read_cost
from repro.experiments.common import enterprise_table_files
from repro.workload import queries as wq


def main(sf: float = 0.005, n_queries: int = 800, seed: int = 0) -> None:
    tables = enterprise_table_files(sf=sf, n_files=24, seed=seed)
    queries = wq.gen_zipf_workload(
        tables, n_queries=n_queries, seed=seed, sort_cols=sd.ENTERPRISE_SORT_COL
    )
    parts = wq.workload_fileparts(queries)
    file_sizes = {f.file_id: f.size_gb for tf in tables.values() for f in tf.files}
    total = sum(file_sizes.values())
    merged = gpart(parts, file_sizes, s_thresh=0.1 * total, rho_abs=50.0)
    print(f"{len(queries)} queries -> {len(parts)} families -> {len(merged)} partitions")
    print(f"duplication: {duplication(merged, file_sizes):.3f}")
    print(f"expected read cost: {read_cost(merged):.1f} GB-accesses")


if __name__ == "__main__":
    main()
