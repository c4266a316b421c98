"""The package's public API resolves."""

import rtga


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from rtga import *", namespace)
    assert [name for name in rtga.__all__ if not hasattr(rtga, name)] == []
    assert set(rtga.__all__) <= set(namespace)
