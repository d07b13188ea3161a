import concurrent.futures
import io
import os
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionparity import sweep
from ionparity.sweep import SweepResult, write_csv


def test_csv_cells_of_numpy_and_python_scalars():
    # the tables hold Python scalars (the CLI builds rows with tolist()); numpy
    # float64 and int64 cells format the same, and no cell is quoted
    rows = [
        (False, np.float64(0.1), np.int64(-7), "a", True),
        (True, np.float64(-2.5e-300), np.int64(12), "plain", False),
        (True, 1.0 / 3.0, 0, "closed_form_vs_propagator_state", True),
        (False, float("inf"), 1, "b", False),
    ]
    result = SweepResult(
        ("flag", "value", "count", "label", "passed"),
        rows,
        {"seed": 3, "mode": "gamma", "tau": 1e-8, "exact": False},
    )
    stream = io.StringIO()
    write_csv(result, stream)
    assert stream.getvalue() == (
        "# exact=false\n"
        "# mode=gamma\n"
        "# seed=3\n"
        "# tau=1.0000000000000000e-08\n"
        "flag,value,count,label,passed\n"
        "false,1.0000000000000001e-01,-7,a,true\n"
        "true,-2.5000000000000000e-300,12,plain,false\n"
        "true,3.3333333333333331e-01,0,closed_form_vs_propagator_state,true\n"
        "false,inf,1,b,false\n"
    )


def per_cell_csv(result: SweepResult) -> str:
    """``write_csv`` with ``_format_cell`` on every cell: the writer the row
    template replaced, kept as its oracle."""
    lines = [f"# {key}={sweep._format_cell(result.config[key])}\n"
             for key in sorted(result.config)]
    lines.append(",".join(result.columns) + "\n")
    lines.extend(",".join(map(sweep._format_cell, row)) + "\n" for row in result.rows)
    return "".join(lines)


def assert_bytes_of_the_cell_writer(columns, rows):
    result = SweepResult(columns, rows, {"seed": 3, "tau": 1e-8})
    stream = io.StringIO()
    write_csv(result, stream)
    assert stream.getvalue() == per_cell_csv(result)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               float("inf"), float("-inf"), float("nan"), 1.0 / 3.0, -2.5e-300, 1e16]


def test_float_rows_write_the_bytes_of_the_cell_writer():
    rows = [tuple(EDGE_FLOATS[i:i + 4]) for i in range(len(EDGE_FLOATS) - 3)]
    assert_bytes_of_the_cell_writer(("a", "b", "c", "d"), rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(), st.floats()), max_size=20))
def test_any_float_rows_write_the_bytes_of_the_cell_writer(rows):
    assert_bytes_of_the_cell_writer(("a", "b", "c"), rows)


def test_numpy_and_mixed_rows_write_the_bytes_of_the_cell_writer():
    rows = [
        tuple(np.float64(value) for value in EDGE_FLOATS[:4]),
        (np.float64(0.1), 0.2, np.float64(-0.0), float("nan")),
        (1.0, 2, 3.0, 4.0),  # an int in a float column keeps its text
        (1.0, True, 3.0, 4.0),
        (1.0, 2.0, 3.0),  # a short row
        [0.5, -0.0, 5e-324, float("inf")],  # a row given as a list
    ]
    assert_bytes_of_the_cell_writer(("a", "b", "c", "d"), rows)


def test_validate_rows_write_the_bytes_of_the_cell_writer():
    # validate's rows: a check name, two floats and a flag
    rows = [(name, measured, bound, bool(measured <= bound))
            for name, measured, bound in [("closed_form_vs_propagator", 3.1e-15, 1e-10),
                                          ("monte_carlo_vs_gamma", 3.294, 3.0),
                                          ("lamb_dicke_unitarity", float("inf"), 1e-8),
                                          ("norm_conservation", np.float64(0.0), 1e-12)]]
    assert_bytes_of_the_cell_writer(("check", "measured", "bound", "passed"), rows)


def usable_cpus():
    """The CPUs this process may run on, as pool_map should count them."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def recording_pool(monkeypatch):
    """A recorder in place of the thread pool, which maps serially and starts
    no thread; returns the list of the max_workers it was built with."""
    recorded = []

    class Recorder:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, item):
            future = Future()
            future.set_result(fn(item))
            return future

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    return recorded


def test_pool_map_starts_no_more_threads_than_items_and_cpus(monkeypatch):
    recorded = recording_pool(monkeypatch)
    assert list(sweep.pool_map(lambda x: 2 * x, [1, 2, 3], 10**6)) == [2, 4, 6]
    assert all(workers <= min(3, usable_cpus()) for workers in recorded)
    assert list(sweep.pool_map(lambda x: 2 * x, [5], 2)) == [10]
    assert len(recorded) == (1 if usable_cpus() > 1 else 0)


@pytest.mark.parametrize("allowed", [1, 2, 3, None])
def test_pool_map_counts_the_cpus_this_process_may_run_on(allowed, monkeypatch):
    # Under taskset the affinity mask holds fewer CPUs than the machine has;
    # where the platform has no mask (None), the machine's count stands
    recorded = recording_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    if allowed is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(allowed)), raising=False)
    assert list(sweep.pool_map(lambda x: 2 * x, range(10), 4)) == list(range(0, 20, 2))
    threads = min(4, 8 if allowed is None else allowed)
    assert recorded == ([threads] if threads > 1 else [])


def drawing(count, drawn):
    """A generator of 0 .. count - 1 that records each item it yields."""
    for index in range(count):
        drawn.append(index)
        yield index


def test_pool_map_keeps_input_order_whatever_finishes_first():
    def slow_first(index):
        time.sleep(0.002 * (8 - index))
        return index

    assert list(sweep.pool_map(slow_first, drawing(8, []), 2)) == list(range(8))


def test_pool_map_draws_at_most_one_window_ahead():
    # item 0 holds its worker until item 1 has seen how far the items were drawn
    drawn, seen, release = [], [], threading.Event()

    def work(index):
        if index == 0:
            release.wait(10.0)
        elif index == 1:
            time.sleep(0.05)
            seen.append(len(drawn))
            release.set()
        return index

    assert list(sweep.pool_map(work, drawing(40, drawn), 2)) == list(range(40))
    workers = min(2, usable_cpus())
    assert seen[0] <= 2 * workers


def test_pool_map_yields_each_result_before_drawing_the_rest():
    # the caller can finish with a result while the pool works on the window
    drawn = []
    results = sweep.pool_map(lambda x: 2 * x, drawing(100, drawn), 2)
    assert next(results) == 0
    assert len(drawn) <= 2 * min(2, usable_cpus())
    assert list(results) == list(range(2, 200, 2)) and len(drawn) == 100


def test_pool_map_raises_the_first_failure_and_stops_drawing():
    drawn, before = [], threading.active_count()

    def work(index):
        if index >= 5:
            raise ValueError(f"item {index}")
        return index

    with pytest.raises(ValueError, match="^item 5$"):
        list(sweep.pool_map(work, drawing(100, drawn), 2))
    assert max(drawn) < 5 + 2 * min(2, usable_cpus())
    assert threading.active_count() == before
