"""Tests for the utility helpers and the top-level package surface."""

import numpy as np
import pytest

import repro
from repro.utils import RunLogger, format_grid, format_table, set_seed, spawn_rng


class TestSeed:
    def test_set_seed_returns_generator(self):
        rng = set_seed(123)
        assert isinstance(rng, np.random.Generator)

    def test_same_seed_same_stream(self):
        a = set_seed(7).normal(size=5)
        b = set_seed(7).normal(size=5)
        np.testing.assert_allclose(a, b)

    def test_spawn_rng_children_are_independent(self):
        parent = np.random.default_rng(0)
        children = spawn_rng(parent, 3)
        assert len(children) == 3
        values = [child.normal() for child in children]
        assert len(set(values)) == 3


class TestRunLogger:
    def test_log_and_series(self):
        logger = RunLogger("test")
        logger.log(0, loss=1.0, ap=0.5)
        logger.log(1, loss=0.5, ap=0.7)
        assert logger.series("loss") == [1.0, 0.5]
        assert logger.last("ap") == 0.7
        assert logger.last("missing", default=-1) == -1

    def test_records_elapsed_time(self):
        logger = RunLogger("test")
        record = logger.log("step", metric=1.0)
        assert record["elapsed_s"] >= 0.0

    def test_verbose_mode_prints(self, capsys):
        logger = RunLogger("verbose-run", verbose=True)
        logger.log(3, ap=0.9)
        captured = capsys.readouterr()
        assert "verbose-run" in captured.err


class TestTables:
    def test_format_table_alignment_and_floats(self):
        table = format_table([{"a": 1.23456, "b": "x"}, {"a": 10.0, "b": "yy"}])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "1.23" in table and "10.00" in table

    def test_format_table_column_selection(self):
        table = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in table.splitlines()[0]

    def test_format_table_empty(self):
        assert format_table([]) == "(empty table)"

    def test_format_grid(self):
        grid = format_grid({(1, 2): 0.5, (3, 4): 0.75}, row_labels=[1, 3],
                           col_labels=[2, 4], row_name="r", col_name="c")
        assert "0.50" in grid and "0.75" in grid
        # Missing cells render as blanks, not errors.
        assert len(grid.splitlines()) == 4


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_public_symbols_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_examples_are_importable(self):
        """The example scripts import cleanly and expose a main() entry point."""
        import importlib.util
        import pathlib

        examples_dir = pathlib.Path(__file__).resolve().parent.parent / "examples"
        scripts = sorted(examples_dir.glob("*.py"))
        assert len(scripts) >= 4
        for script in scripts:
            spec = importlib.util.spec_from_file_location(script.stem, script)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            assert callable(getattr(module, "main", None)), script.name

    def test_one_shared_memory_lifecycle(self):
        """Only ``obs/_shm.py`` creates, attaches or finalizes shared segments.

        Every other module shares arrays through its ``SharedArrayBundle``:
        none imports ``multiprocessing.shared_memory`` or
        ``resource_tracker``, or registers a ``weakref.finalize``.
        """
        import ast
        import pathlib

        def lifecycle_names(path):
            found = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)):
                    names = [f"{node.value.id}.{node.attr}"]
                else:
                    continue
                found.update(name for name in names if name in (
                    "multiprocessing.shared_memory",
                    "multiprocessing.resource_tracker", "weakref.finalize"))
            return found

        src = pathlib.Path(repro.__file__).resolve().parent
        users = {str(path.relative_to(src)): lifecycle_names(path)
                 for path in sorted(src.rglob("*.py"))}
        users = {path: names for path, names in users.items() if names}
        assert users == {"obs/_shm.py": {"multiprocessing.shared_memory",
                                         "multiprocessing.resource_tracker",
                                         "weakref.finalize"}}
