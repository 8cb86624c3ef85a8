"""The package's public surface: every exported name exists."""

import hydrolimit


def test_every_exported_name_resolves():
    missing = [name for name in hydrolimit.__all__ if not hasattr(hydrolimit, name)]
    assert not missing, f"names in hydrolimit.__all__ with no definition: {missing}"
