"""Smoke coverage for the job entrypoints (small inputs — benches cover
the full-size runs) and the offline build backend."""
import ast
import dataclasses
import importlib.util
import os
import pathlib
import subprocess
import sys
import zipfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
JOB_FILES = sorted(p for p in (ROOT / "jobs").glob("*.py") if p.name != "_common.py")
TABLE_JOB = ROOT / "jobs" / "table.py"
TABLES = range(2, 12)


def _load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"job_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestJobs:
    def test_one_job_per_table(self):
        names = {p.stem for p in JOB_FILES}
        for extra in ("table", "optassign_job", "gpart_job", "compredict_job", "scope_pipeline"):
            assert extra in names
        job = _load(TABLE_JOB)
        for n in TABLES:
            mod = job.experiment(n)
            assert mod.__name__ == f"repro.experiments.table{n:02d}"
            assert callable(mod.run) and hasattr(mod, "PAPER")
        for n in (1, 12):
            with pytest.raises(ValueError):
                job.experiment(n)

    @pytest.mark.parametrize(
        "path,table",
        [pytest.param(p, None, id=p.stem) for p in JOB_FILES if p != TABLE_JOB]
        + [pytest.param(TABLE_JOB, n, id=f"table{n:02d}") for n in TABLES],
    )
    def test_job_importable_with_main(self, path, table):
        mod = _load(path)
        assert callable(mod.main)
        if table is not None:
            assert mod.experiment(table).__name__.endswith(f"table{table:02d}")

    def test_common_show_formats(self, capsys):
        import pandas as pd

        sys.path.insert(0, str(ROOT / "jobs"))
        try:
            from _common import show
        finally:
            sys.path.pop(0)
        show("t", pd.DataFrame({"a": [1]}), pd.DataFrame({"a": [2]}))
        out = capsys.readouterr().out
        assert "paper" in out and "reproduction" in out


def _printed_dict(line: str, prefix: str) -> dict:
    assert line.startswith(prefix), line
    return ast.literal_eval(line[len(prefix):].strip())


@pytest.fixture(scope="module")
def small_plan():
    """A small SCOPe plan with the partitions it places."""
    from repro import synth_data as sd
    from repro.core import pipeline as pl
    from repro.experiments.common import enterprise_table_files
    from repro.workload import queries as wq

    tables = enterprise_table_files(sf=0.002, n_files=6, seed=0)
    queries = wq.gen_zipf_workload(
        tables, n_queries=60, seed=0, sort_cols=sd.ENTERPRISE_SORT_COL
    )
    parts = pl.gpart_partitions(tables, queries, max_rows=200)
    return pl.run_policy(
        name="SCOPe (Total cost focused)", baseline="-", partitions=parts,
        predictions=pl.measure_partitions(parts, ("parquet+gzip",)),
        tier_names=("premium", "hot", "cool"), months=5.5, partitioned=True,
    )


class TestJobRuns:
    def test_library_and_jobs_import_without_pyspark(self):
        """Spark is left to the query oracle (``repro.oracle``) and the
        tests: no other module of the library, and no job, imports it."""
        code = (
            "import importlib, importlib.util, pathlib, pkgutil, sys\n"
            "import repro\n"
            "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    if m.name != 'repro.oracle':\n"
            "        importlib.import_module(m.name)\n"
            "sys.path.insert(0, 'jobs')\n"
            "for p in sorted(pathlib.Path('jobs').glob('*.py')):\n"
            "    spec = importlib.util.spec_from_file_location('job_' + p.stem, p)\n"
            "    spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "assert 'pyspark' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       timeout=120)

    def test_gpart_job(self, capsys):
        _load(ROOT / "jobs" / "gpart_job.py").main(sf=0.002, n_queries=200)
        assert capsys.readouterr().out.splitlines() == [
            "200 queries -> 41 families -> 17 partitions",
            "duplication: 0.368",
            "expected read cost: 18.7 GB-accesses",
        ]

    def test_compredict_job(self, capsys):
        from repro import synth_data as sd
        from repro.core import compredict as cp

        _load(ROOT / "jobs" / "compredict_job.py").main(sf=0.0005)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(sd.TPCH_PDF) + 1
        for name, line in zip(sd.TPCH_PDF, lines):
            feats = _printed_dict(line, name)
            assert set(feats) == set(cp.ENTROPY_FEATURES)
            assert feats["H_object"] > 0
        rf = _printed_dict(lines[-1], "RF ratio prediction (csv+gzip):")
        assert set(rf) == {"MAE", "MAPE", "R2"}

    def test_table03_prints_confusion_and_f1(self, capsys):
        _load(TABLE_JOB).main(3)
        out = capsys.readouterr().out
        assert "ideal_hot  ideal_cool" in out
        assert out.splitlines()[-1].startswith("F1 hot=")
        assert "classifier" not in out and "Length:" not in out

    def test_scope_pipeline_writes_every_planned_partition(
        self, monkeypatch, capsys, small_plan
    ):
        import pandas as pd

        job = _load(ROOT / "jobs" / "scope_pipeline.py")
        monkeypatch.setattr(
            job.table09, "run", lambda: (pd.DataFrame(), {"scope_total": small_plan})
        )
        job.main()
        last = capsys.readouterr().out.splitlines()[-1].strip()
        per_tier = _printed_dict(last, "objects per tier:")
        assert sum(per_tier.values()) == len(small_plan.assignment)

    def test_scope_pipeline_fails_on_partition_without_data(
        self, monkeypatch, small_plan
    ):
        import pandas as pd

        job = _load(ROOT / "jobs" / "scope_pipeline.py")
        lost = dataclasses.replace(small_plan, partitions=small_plan.partitions[1:])
        monkeypatch.setattr(
            job.table09, "run", lambda: (pd.DataFrame(), {"scope_total": lost})
        )
        with pytest.raises(RuntimeError, match="no data"):
            job.main()


class TestBuildBackend:
    def test_editable_wheel_contains_pth(self, tmp_path):
        sys.path.insert(0, str(ROOT))
        try:
            import _build_backend as bb
        finally:
            sys.path.pop(0)
        name = bb.build_editable(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as z:
            names = z.namelist()
            assert "repro.pth" in names
            assert any(n.endswith("RECORD") for n in names)
            pth = z.read("repro.pth").decode().strip()
            assert pth.endswith("src")

    def test_wheel_contains_package(self, tmp_path):
        sys.path.insert(0, str(ROOT))
        try:
            import _build_backend as bb
        finally:
            sys.path.pop(0)
        name = bb.build_wheel(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as z:
            names = z.namelist()
            assert "repro/__init__.py" in names
            assert "repro/core/optassign.py" in names
