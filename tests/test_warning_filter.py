"""pytest turns a RuntimeWarning raised in each checked layer into an error."""

import warnings

import pytest

LAYERS = ["oracle", "profile", "regimes", "constants", "reduction", "cli"]


@pytest.mark.parametrize("layer", LAYERS)
def test_runtime_warning_is_an_error(layer):
    # the pyproject.toml filter's module pattern has to match the whole name
    with pytest.raises(RuntimeWarning):
        warnings.warn_explicit("overflow", RuntimeWarning, "x.py", 1,
                               module=f"meangap.{layer}")
