import hexsum


def test_public_names_resolve():
    for name in hexsum.__all__:
        assert hasattr(hexsum, name), name
    namespace = {}
    exec("from hexsum import *", namespace)
    assert set(hexsum.__all__) <= set(namespace)
    # scalar duplicates, one-point views and test-only constants are not public
    for gone in (
        "phi", "LATTICE", "HexPoint", "fold", "indices_up_to", "is_in_omega",
        "hex_kernel_closed", "hex_kernel_deriv", "deviation_l2_spectral", "kfun_estimate",
    ):
        assert gone not in hexsum.__all__
        assert not hasattr(hexsum, gone)
    # nor do they stay behind in the modules that held them
    for module, names in (
        (hexsum.lattice, ("HexPoint", "fold", "indices_up_to", "is_in_omega")),
        (hexsum.kernels, ("hex_kernel_closed", "hex_kernel_deriv")),
        (hexsum.means, ("deviation_l2_spectral", "kfun_estimate")),
        (hexsum.SpectralFunction, ("coeff", "_coeffs")),
    ):
        for name in names:
            assert not hasattr(module, name), name
