"""Smoke coverage for the job entrypoints and the offline build
backend (neither runs a full job — benches cover the heavy paths)."""
import importlib.util
import pathlib
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
