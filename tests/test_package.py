"""The package's export list."""

import types

import mtunlearn
from mtunlearn import losses, model


def test_all_lists_every_public_name_once_and_each_resolves():
    """__init__ names each export twice (import and __all__); the two must
    agree, so a deleted or added export cannot drift."""
    defined = {name for name, value in vars(mtunlearn).items()
               if not name.startswith("_")
               and not isinstance(value, types.ModuleType)}
    assert len(set(mtunlearn.__all__)) == len(mtunlearn.__all__)
    assert set(mtunlearn.__all__) == defined | {"__version__"}
    for name in mtunlearn.__all__:
        assert getattr(mtunlearn, name) is not None


def test_per_sequence_npo_helpers_live_in_the_tests():
    """Only tests called the per-sequence npo functions; they are the
    tests' oracle for batched npo (conftest), not package API."""
    for name in ("npo_value", "npo_weight", "npo_grad"):
        assert not hasattr(losses, name) and name not in mtunlearn.__all__
    assert not hasattr(model, "grad_sequence_logprob")
