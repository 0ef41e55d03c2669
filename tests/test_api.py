import ast
import inspect
from pathlib import Path

import hexsum
import hexsum.cli

PUBLIC = [
    "BernsteinResult", "CheckResult", "FamilySpec", "GridFunction", "HexGrid",
    "KfunEstimate", "ResolutionWarning", "SpectralFormatError", "SpectralFunction",
    "__version__", "analyze", "apply_operator",
    "apply_operator_derivative_form", "basis_family", "bernstein_integral", "builtin_families",
    "classical_kernel_deriv", "from_cartesian", "index_shell", "kernel_family", "lambda_shells",
    "load_spectral", "lp_norm", "m_p", "make_grid", "min_resolution", "pairwise_sum",
    "poisson_integral_convolution", "poisson_integral_spectral", "polynomial_family",
    "product_integral", "radial_derivative", "random_spectrum", "remainder_coefficient_check",
    "remainder_integral_norm", "run_all_checks", "save_spectral", "scale_shells",
    "series_tail_bound", "shell_decay_family", "synthesize", "to_cartesian",
]


def test_public_names_resolve():
    assert sorted(hexsum.__all__) == PUBLIC
    for name in hexsum.__all__:
        assert hasattr(hexsum, name), name
    namespace = {}
    exec("from hexsum import *", namespace)
    assert set(hexsum.__all__) <= set(namespace)
    # scalar duplicates, one-point views and test-only constants are not public
    for gone in (
        "phi", "LATTICE", "HexPoint", "fold", "indices_up_to", "is_in_omega",
        "hex_kernel_closed", "hex_kernel_deriv", "deviation_l2_spectral", "kfun_estimate",
        "lambda_coeff", "lambda_complement", "deviation_norm", "auto_grid_size",
        "SummationParams", "HexIndex",
    ):
        assert gone not in hexsum.__all__
        assert not hasattr(hexsum, gone)
    # nor do they stay behind in the modules that held them
    for module, names in (
        (hexsum.lattice, ("HexPoint", "HexIndex", "fold", "indices_up_to", "is_in_omega")),
        (hexsum.kernels, (
            "hex_kernel_closed", "hex_kernel_deriv", "auto_grid_size",
            "hex_kernel_series_values", "shell_weighted_values",
        )),
        (hexsum.means, (
            "deviation_l2_spectral", "kfun_estimate", "lambda_coeff", "lambda_complement",
            "deviation_norm", "_lambda_shells", "_check_multiplier_args",
            "SummationParams", "_scale_occupied",
        )),
        (hexsum.SpectralFunction, ("coeff", "_coeffs", "_support", "_from_arrays", "_arrays")),
        (hexsum.verify, ("_reply_results", "_MAX_CHECKS")),
        (hexsum.cli, ("_Parser", "_build_parser")),
    ):
        for name in names:
            assert not hasattr(module, name), name


def test_keyword_options_no_caller_sets_are_gone():
    for fn, name in (
        (hexsum.remainder_integral_norm, "zeta_nodes"),
        (hexsum.scale_shells, "max_degree"),
        (hexsum.SpectralFunction.is_real_symmetric, "tol"),
        (hexsum.random_spectrum, "normalize"),
        (hexsum.random_spectrum, "real_symmetric"),
    ):
        assert name not in inspect.signature(fn).parameters, (fn.__name__, name)


def _named(tree: ast.AST) -> set[str]:
    """Every identifier a module names: variables, attributes, imports, definitions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_the_norm_plan_is_the_only_user_of_the_fourier_bin_privates():
    # the DFT bins, grid synthesis and shell groups stay behind fourier's
    # public names and its norm plan; means takes the plan, not its parts
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(hexsum.__file__).parent.glob("*.py"))
    }
    privates = {"_dft_bins", "_grid_function", "_shell_groups"}
    for name, tree in trees.items():
        if name != "fourier.py":
            assert not _named(tree) & privates, name
    assert privates <= _named(trees["fourier.py"])
    from_fourier = {
        alias.name
        for node in ast.walk(trees["means.py"])
        if isinstance(node, ast.ImportFrom) and node.module == "fourier"
        for alias in node.names
    }
    assert "_norm_plan" in from_fourier
    assert {n for n in from_fourier if n.startswith("_")} <= {"_norm_plan", "_QUIET"}


def test_the_store_is_entered_through_from_arrays_and_read_through_its_fields():
    # fourier alone writes the support arrays; every other module and test builds
    # a spectrum with from_arrays and reads the k1, k2, shell and coeffs fields,
    # except the families, which store spectra built on frequency_arrays unchecked
    src = sorted(Path(hexsum.__file__).parent.glob("*.py"))
    tests = sorted(Path(__file__).parent.glob("*.py"))
    named = {path: _named(ast.parse(path.read_text(encoding="utf-8"))) for path in src + tests}
    for path in src:
        if path.name != "fourier.py":
            assert not named[path] & {"_set_support", "_store"}, path.name
    assert {path.name for path in src + tests if "_built" in named[path]} == {
        "fourier.py", "families.py"
    }
    for path in src + tests:
        assert not named[path] & {"_support", "_from_arrays", "_arrays"}, path.name
    params = inspect.signature(hexsum.SpectralFunction.from_arrays).parameters
    assert list(params) == ["k1", "k2", "coeffs", "max_degree"]
