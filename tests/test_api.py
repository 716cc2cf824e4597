"""The public names of the bimodconn package."""

import bimodconn


def test_all_names_resolve_and_star_import():
    assert len(set(bimodconn.__all__)) == len(bimodconn.__all__)
    for name in bimodconn.__all__:
        assert hasattr(bimodconn, name), name
    namespace = {}
    exec("from bimodconn import *", namespace)
    assert set(bimodconn.__all__) <= set(namespace)
