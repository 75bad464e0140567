import gsrecon


def test_public_names_resolve():
    # every name in __all__ exists, and a star import provides them all
    missing = [name for name in gsrecon.__all__ if not hasattr(gsrecon, name)]
    assert missing == []
    assert len(set(gsrecon.__all__)) == len(gsrecon.__all__)
    namespace = {}
    exec("from gsrecon import *", namespace)
    assert set(gsrecon.__all__) <= namespace.keys()
