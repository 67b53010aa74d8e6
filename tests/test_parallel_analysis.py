"""Tests for :mod:`repro.parallel` and :mod:`repro.analysis`."""

import math

import pytest

from repro.analysis.metrics import aggregate, instance_metrics, ratio, timeit_call
from repro.analysis.tables import format_records, format_table, print_records
from repro.analysis.experiments import (
    figure1_experiment,
    figure3_experiment,
    theorem2_experiment,
    theorem7_experiment,
)
from repro.generators.families import random_walk_family
from repro.generators.random_dags import random_internal_cycle_free_dag
from repro.parallel.executor import (
    chunked,
    default_workers,
    in_worker_process,
    parallel_map,
)
from repro.parallel.sweep import Sweep, run_sweep


def square(x):
    return x * x


def add(x, y):
    return x + y


def record_fn(n, seed):
    return {"value": n * 10 + seed}


def nested_sum(n):
    """A task that itself fans out — exercises the nested-pool guard."""
    inner = parallel_map(square, list(range(n)), workers=2,
                         sequential_threshold=0)
    return (sum(inner), in_worker_process())


def _raise(x):
    raise ValueError(f"task blew up on {x}")


class TestExecutor:
    def test_chunked(self):
        assert chunked([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
        with pytest.raises(ValueError):
            chunked([1], 0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_parallel_map_sequential(self):
        assert parallel_map(square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_parallel_map_tuple_args(self):
        assert parallel_map(add, [(1, 2), (3, 4)], workers=1) == [3, 7]

    def test_parallel_map_empty(self):
        assert parallel_map(square, []) == []

    def test_parallel_map_multiprocess(self):
        tasks = list(range(30))
        expected = [square(x) for x in tasks]
        assert parallel_map(square, tasks, workers=2, sequential_threshold=0) \
            == expected

    def test_order_preserved(self):
        tasks = list(range(25))
        assert parallel_map(square, tasks, workers=3, chunk_size=4,
                            sequential_threshold=0) == [x * x for x in tasks]

    def test_not_in_worker_in_main_process(self):
        assert not in_worker_process()

    def test_nested_parallel_map_degrades_to_serial(self):
        """A parallel_map issued from inside a worker must not spawn a
        grandchild pool (spawn-only platforms deadlock); it runs the
        serial path and returns order-identical results."""
        tasks = list(range(10, 22))
        serial = [nested_sum(n) for n in tasks]
        assert all(not flag for _, flag in serial)   # main process: no guard
        nested = parallel_map(nested_sum, tasks, workers=2,
                              sequential_threshold=0)
        assert [total for total, _ in nested] == \
            [total for total, _ in serial]
        # the inner calls really ran under the guard, inside workers
        assert all(flag for _, flag in nested)

    def test_worker_exceptions_propagate(self):
        with pytest.raises(ValueError, match="task blew up"):
            parallel_map(_raise, list(range(20)), workers=2,
                         sequential_threshold=0)


class TestSweep:
    def test_points_and_tasks(self):
        sweep = Sweep({"n": [1, 2], "m": ["x"]}, repetitions=2, base_seed=10)
        assert len(sweep.points()) == 2
        assert len(sweep) == 4
        tasks = sweep.tasks()
        assert tasks[0]["seed"] == 10
        assert tasks[-1]["seed"] == 13

    def test_run_sweep_merges_records(self):
        sweep = Sweep({"n": [1, 3]}, repetitions=2, base_seed=0)
        records = run_sweep(record_fn, sweep, workers=1)
        assert len(records) == 4
        assert all("value" in r and "n" in r and "seed" in r for r in records)
        assert records[0]["value"] == 10


class TestMetrics:
    def test_ratio(self):
        assert ratio(3, 2) == 1.5
        assert math.isnan(ratio(3, 0))

    def test_timeit_call(self):
        result, elapsed = timeit_call(square, 4)
        assert result == 16
        assert elapsed >= 0

    def test_instance_metrics(self):
        dag = random_internal_cycle_free_dag(15, 20, seed=0)
        family = random_walk_family(dag, 10, seed=0)
        record = instance_metrics(dag, family, methods=("theorem1", "dsatur"),
                                  include_clique=True)
        assert record["load"] == family.load()
        assert record["w_theorem1"] == family.load()
        assert record["w_dsatur"] >= record["w_theorem1"]
        assert record["clique_number"] >= 1
        assert not record["has_internal_cycle"]

    def test_aggregate(self):
        records = [{"x": 1}, {"x": 3}, {"y": 5}]
        agg = aggregate(records, "x")
        assert agg["count"] == 2
        assert agg["mean"] == 2
        assert aggregate([], "x")["count"] == 0


class TestTables:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, True]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "yes" in text
        assert "2.500" in text

    def test_format_records(self):
        text = format_records([{"k": 1, "v": 2}, {"k": 3, "v": 4}])
        assert "k" in text and "3" in text
        assert format_records([]).endswith("(no records)")

    def test_print_records(self, capsys):
        print_records([{"a": 1}], title="hello")
        captured = capsys.readouterr()
        assert "hello" in captured.out


class TestExperimentDrivers:
    def test_figure1_driver(self):
        records = figure1_experiment((2, 3, 4))
        assert [r["w"] for r in records] == [2, 3, 4]
        assert all(r["load"] == 2 for r in records)
        assert all(r["conflict_complete"] for r in records)

    def test_figure3_driver(self):
        (record,) = figure3_experiment()
        assert record["load"] == 2 and record["w"] == 3
        assert record["conflict_is_C5"]

    def test_theorem2_driver(self):
        records = theorem2_experiment((2, 4))
        assert all(r["w"] == 3 and r["load"] == 2 for r in records)
        assert all(r["conflict_is_odd_cycle"] for r in records)

    def test_theorem7_driver(self):
        records = theorem7_experiment((1, 2, 4), exact_limit=2)
        assert all(r["matches_paper"] for r in records)
        assert records[-1]["w_method"] == "blow-up cover"
