import hexsum


def test_public_names_resolve():
    for name in hexsum.__all__:
        assert hasattr(hexsum, name), name
    namespace = {}
    exec("from hexsum import *", namespace)
    assert set(hexsum.__all__) <= set(namespace)
    # scalar duplicates and test-only constants are not public
    for gone in ("phi", "LATTICE"):
        assert gone not in hexsum.__all__
        assert not hasattr(hexsum, gone)
