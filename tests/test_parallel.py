"""Sweep-point runner: results in input order, evaluated in order."""

from driftlab.parallel import run_parallel, worker_count


def test_results_keep_input_order():
    calls = []

    def record(x):
        calls.append(x)
        return x * x

    items = [5, 3, 9, 1, 7]
    assert run_parallel(record, iter(items)) == [25, 9, 81, 1, 49]
    assert calls == items


def test_empty_input_and_worker_count():
    assert run_parallel(lambda x: x, []) == []
    assert worker_count() == 1
