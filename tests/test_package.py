"""Tests for the package's public surface."""

import types

import apsquares


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(apsquares).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(apsquares.__all__) == public


def test_every_listed_name_resolves():
    missing = [name for name in apsquares.__all__ if not hasattr(apsquares, name)]
    assert not missing, missing


def test_standard_library_wrappers_are_not_exported():
    # Library code calls math.isqrt and pow(a, -1, p) directly.
    for name in ("isqrt", "is_perfect_square", "modpow", "modinv"):
        assert not hasattr(apsquares, name), name
