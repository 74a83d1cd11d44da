"""The package's public names."""

from __future__ import annotations

import trustsim


def test_every_public_name_resolves():
    assert len(set(trustsim.__all__)) == len(trustsim.__all__)
    assert [name for name in trustsim.__all__ if not hasattr(trustsim, name)] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from trustsim import *", namespace)
    assert {name: namespace[name] for name in trustsim.__all__} == {
        name: getattr(trustsim, name) for name in trustsim.__all__}
