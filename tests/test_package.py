"""The package's export list and the README's library quick start."""

import os
import re
import types

import mtunlearn
from mtunlearn import curvature, losses, model


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
    """Only tests called the per-sequence npo functions, the log-space row
    losses and the bigram curvature blocks; the first two are the tests'
    oracles (conftest) for batched npo and the one-pass label kernel, not
    package API, and the dense assembly covers the bigram."""
    for name in ("npo_value", "npo_weight", "npo_grad", "ll_value_rows",
                 "ll_grad_rows", "nll_value_rows", "nll_grad_rows",
                 "nlul_value_rows", "nlul_grad_rows", "_ll_grad"):
        assert not hasattr(losses, name) and name not in mtunlearn.__all__
    assert not hasattr(model, "grad_sequence_logprob")
    assert not hasattr(curvature, "bigram_gnh_blocks")
    assert "bigram_gnh_blocks" not in mtunlearn.__all__


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def test_readme_quick_start_runs_as_documented(capsys):
    """The README's one Python block runs against the package as it is and
    prints what the text below it says: the forget split is no longer
    reproduced, its NLL rises from 0.003 to about 2.0, and the pretrain
    NLL is untouched."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "forget exact match 1.0 -> 0.0"
    before, after = map(float, re.fullmatch(r"forget nll (\S+) -> (\S+)",
                                             lines[1]).groups())
    assert before == 0.003 and 1.9 <= after <= 2.1
    pretrain = re.fullmatch(r"pretrain nll (\S+) -> (\S+)", lines[2]).groups()
    assert pretrain[0] == pretrain[1]
