import math
import os
import signal
import time

import numpy as np
import pytest

from hexsum import verify
from hexsum.lattice import _omega_mask
from hexsum.verify import _TILING_SHIFTS, ALL_CHECKS, CheckResult, _tiling_hits, run_all_checks


@pytest.fixture(scope="module")
def battery():
    """run_all_checks(seed), each seed run once for the whole module."""
    runs = {}

    def run(seed):
        if seed not in runs:
            runs[seed] = run_all_checks(seed)
        return runs[seed]

    return run


def test_all_checks_pass_default_seed(battery):
    results = battery(0)
    failures = [r for r in results if not r.passed]
    assert not failures, "failed checks: " + ", ".join(
        f"{r.name} (residual {r.residual:.3g} > tol {r.tol:.3g})" for r in failures
    )


def test_check_names_unique_and_namespaced(battery):
    results = battery(0)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert len(names) == len(ALL_CHECKS)
    for name in names:
        module, _, rest = name.partition(".")
        assert module in ("lattice", "fourier", "kernels", "means")
        assert rest


def test_check_result_fields(battery):
    results = battery(0)
    for r in results:
        assert isinstance(r, CheckResult)
        assert isinstance(r.name, str)
        assert isinstance(r.passed, bool)
        assert isinstance(r.residual, float)
        assert isinstance(r.tol, float)
        assert isinstance(r.detail, str)
        assert r.residual >= 0.0 or r.name  # residuals are magnitudes


def test_pass_fail_stable_across_seeds(battery):
    # randomized inputs vary with the seed; pass/fail must not
    baseline = {r.name: r.passed for r in battery(0)}
    for seed in range(1, 5):
        got = {r.name: r.passed for r in battery(seed)}
        assert got == baseline


@pytest.mark.parametrize("seed", range(5))
def test_all_checks_pass_with_series_residual_margin(battery, seed):
    results = {r.name: r for r in battery(seed)}
    assert all(r.passed for r in results.values())
    # the ring-summed series oracle stays two orders inside its 1e-7 tolerance
    assert results["kernels.hex_deriv_series"].residual <= 1e-9


def test_tiling_hits_match_scalar_membership():
    rng = np.random.default_rng(9)
    t1, t2 = rng.uniform(-4, 4, size=(2, 40))
    # the half-open edges t1 = -1, t1 = 1, t3 = 1 and t2 = 1 at translate 0
    t1 = np.concatenate([t1, [-1.0, 1.0, 0.0, 0.0]])
    t2 = np.concatenate([t2, [0.0, 0.0, -1.0, 1.0]])
    hits = _tiling_hits(t1, t2)
    assert hits.shape == (44, 121)
    want = [
        [_omega_mask(u, v, -u - v) for u, v in zip(a + _TILING_SHIFTS[0], b + _TILING_SHIFTS[1])]
        for a, b in zip(t1, t2)
    ]
    assert np.array_equal(hits, np.array(want))
    origin = np.flatnonzero((_TILING_SHIFTS[0] == 0) & (_TILING_SHIFTS[1] == 0))[0]
    assert hits[40:, origin].tolist() == [True, False, True, False]
    assert np.all(hits.sum(axis=1) == 1)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def _no_fd_left():
    """Every test here closes each file descriptor it opens, pipes included;
    not checked where /proc/self/fd does not list them."""
    fds = "/proc/self/fd"
    before = set(os.listdir(fds)) if os.path.isdir(fds) else None
    yield
    if before is not None:
        assert set(os.listdir(fds)) <= before


def _same_result(a, b):
    nan_pair = math.isnan(a.residual) and math.isnan(b.residual)
    return (
        (a.name, a.passed, a.tol, a.detail) == (b.name, b.passed, b.tol, b.detail)
        and type(a.residual) is type(b.residual) is float
        and (nan_pair or a.residual == b.residual)
    )


@pytest.mark.parametrize("seed", range(5))
def test_battery_equals_the_checks_run_one_by_one(battery, seed):
    results = battery(seed)
    _no_child_left()
    alone = [fn(np.random.default_rng([seed, i])) for i, fn in enumerate(ALL_CHECKS)]
    assert len(results) == len(alone)
    for a, b in zip(results, alone):
        assert _same_result(a, b), (a, b)


def _pass(rng):
    return verify._result("test.pass", rng.uniform(0.0, 1e-3), 1.0, "x")


def _nan(rng):
    return verify._result("test.nan", math.nan, 1.0, "residual nan")


def _inf(rng):
    return verify._result("test.inf", math.inf, 1.0, "\u00e9 and \"quotes\"")


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _wait_for(path, seconds=60.0):
    deadline = time.monotonic() + seconds
    while not path.exists():
        assert time.monotonic() < deadline, f"nothing made {path.name}"
        time.sleep(0.001)


def _gates(flag):
    """Two checks for the head of the queue.  Run in the caller, a gate waits
    until a helper has made flag; in a helper it passes at once.  The caller
    takes one of them and waits, so the helper takes the other and then every
    index up to the check that makes flag, whatever the timing."""
    caller = os.getpid()

    def gate(rng):
        if os.getpid() == caller:
            _wait_for(flag)
        return _pass(rng)

    return [gate, gate]


def _making(flag, check):
    """check, having first made flag."""

    def made(rng):
        flag.touch()
        return check(rng)

    return made


def test_helper_results_round_trip_every_field(monkeypatch, tmp_path):
    # after the gates, the NaN, inf and text results all run in the helper
    # and come back through its JSON reply
    _two_cpus(monkeypatch)
    flag = tmp_path / "done"
    checks = [*_gates(flag), _nan, _inf, _pass, _making(flag, _pass)]
    monkeypatch.setattr(verify, "ALL_CHECKS", checks)
    results = run_all_checks(7)
    _no_child_left()
    alone = [fn(np.random.default_rng([7, i])) for i, fn in enumerate(checks)]
    assert all(_same_result(a, b) for a, b in zip(results, alone))
    assert [r.passed for r in results] == [True, True, False, False, True, True]


def test_result_a_helper_cannot_write_is_rerun_in_the_caller(monkeypatch, tmp_path):
    # json.dumps raises on a bytes detail, so the helper writes no line for it
    def unwritable(rng):
        return CheckResult("test.bytes", True, 0.0, 1.0, b"not text")

    _two_cpus(monkeypatch)
    flag = tmp_path / "unwritable"
    checks = [*_gates(flag), _pass, _making(flag, unwritable), _pass]
    monkeypatch.setattr(verify, "ALL_CHECKS", checks)
    results = run_all_checks(6)
    _no_child_left()
    alone = [fn(np.random.default_rng([6, i])) for i, fn in enumerate(checks)]
    assert all(_same_result(a, b) for a, b in zip(results, alone))


def test_check_raising_in_a_helper_raises_in_the_caller(monkeypatch, tmp_path):
    def fails(rng):
        raise ZeroDivisionError("in the check")

    _two_cpus(monkeypatch)
    flag = tmp_path / "failing"
    monkeypatch.setattr(verify, "ALL_CHECKS", [*_gates(flag), _making(flag, fails), _pass])
    with pytest.raises(ZeroDivisionError, match="in the check"):
        run_all_checks(0)
    _no_child_left()


def test_caller_raising_still_reaps_its_helpers(monkeypatch):
    def fails(rng):
        raise KeyError("caller share")

    _two_cpus(monkeypatch)
    monkeypatch.setattr(verify, "ALL_CHECKS", [fails, fails, _pass, _pass])
    with pytest.raises(KeyError):
        run_all_checks(0)
    _no_child_left()


def test_killed_helper_has_its_checks_rerun(monkeypatch, tmp_path):
    caller = os.getpid()

    def killed_in_helper(rng):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return _pass(rng)

    _two_cpus(monkeypatch)
    flag = tmp_path / "killing"
    checks = [*_gates(flag), _making(flag, killed_in_helper), _pass]
    monkeypatch.setattr(verify, "ALL_CHECKS", checks)
    results = run_all_checks(3)
    _no_child_left()
    alone = [fn(np.random.default_rng([3, i])) for i, fn in enumerate(checks)]
    assert all(_same_result(a, b) for a, b in zip(results, alone))


def _logging(log, count):
    """count checks that each append 'index pid' to log as they run."""

    def logged(i):
        def check(rng):
            with open(log, "a") as fh:
                fh.write(f"{i} {os.getpid()}\n")
            return verify._result(f"test.logged{i}", 0.0, 1.0)

        return check

    return [logged(i) for i in range(count)]


def _log_rows(log):
    return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def test_each_index_runs_exactly_once_across_processes(monkeypatch, tmp_path):
    _two_cpus(monkeypatch)
    log, flag = tmp_path / "log", tmp_path / "helper"
    checks = [*_gates(flag), *_logging(log, 12)]
    checks[2] = _making(flag, checks[2])  # the caller waits until the helper is at index 2
    monkeypatch.setattr(verify, "ALL_CHECKS", checks)
    results = run_all_checks(5)
    _no_child_left()
    assert [r.name for r in results[2:]] == [f"test.logged{i}" for i in range(12)]
    rows = _log_rows(log)
    assert sorted(i for i, _ in rows) == list(range(12))
    assert {pid for _, pid in rows} != {os.getpid()}  # the helper took some


def test_dead_helper_keeps_its_finished_results(monkeypatch, tmp_path):
    # the helper logs checks 0..3, then is killed in check 4 after logging it;
    # only index 4 may run again, in the caller
    caller = os.getpid()
    log, flag = tmp_path / "log", tmp_path / "killing"
    logged = _logging(log, 6)

    def killed_in_helper(rng):
        result = logged[4](rng)
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return result

    _two_cpus(monkeypatch)
    checks = [*_gates(flag), *logged[:4], _making(flag, killed_in_helper), logged[5]]
    monkeypatch.setattr(verify, "ALL_CHECKS", checks)
    results = run_all_checks(4)
    _no_child_left()
    assert [r.name for r in results[2:]] == [f"test.logged{i}" for i in range(6)]
    rows = _log_rows(log)
    helper = rows[0][1]
    assert helper != caller
    assert sorted(rows) == sorted([(i, helper) for i in range(5)] + [(4, caller), (5, caller)])


def test_fork_failure_runs_everything_in_the_caller(monkeypatch, tmp_path):
    def no_fork():
        raise OSError("no process to be had")

    _two_cpus(monkeypatch)
    monkeypatch.setattr(os, "fork", no_fork)
    log = tmp_path / "log"
    monkeypatch.setattr(verify, "ALL_CHECKS", _logging(log, 6))
    results = run_all_checks(2)
    _no_child_left()
    assert [r.name for r in results] == [f"test.logged{i}" for i in range(6)]
    assert _log_rows(log) == [(i, os.getpid()) for i in range(6)]


def test_check_count_limited_to_one_byte_indices(monkeypatch):
    def no_pipe():
        raise AssertionError("made a pipe")

    _two_cpus(monkeypatch)
    monkeypatch.setattr(verify, "ALL_CHECKS", [_pass] * 257)
    with monkeypatch.context() as m:
        m.setattr(os, "pipe", no_pipe)
        with pytest.raises(ValueError):
            run_all_checks(0)
    _no_child_left()
    monkeypatch.setattr(verify, "ALL_CHECKS", [_pass] * 256)
    results = run_all_checks(0)
    _no_child_left()
    assert len(results) == 256 and all(r.passed for r in results)


@pytest.mark.parametrize("cpus", ["one", "unknown"])
def test_one_cpu_runs_in_process_without_a_fork(monkeypatch, cpus):
    if cpus == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(verify, "ALL_CHECKS", [_pass, _nan, _pass])
    results = run_all_checks(1)
    assert [r.name for r in results] == ["test.pass", "test.nan", "test.pass"]
