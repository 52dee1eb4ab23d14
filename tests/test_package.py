"""The package's export list, the names the benchmark traces and the
README's library quick start."""

import ast
import importlib
import inspect
import os
import re
import types

import mtunlearn
from mtunlearn import (artifacts, cli, curvature, harness, linalg, losses, model,
                       optimizer)


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


# Exports no source under src/mtunlearn uses, each with its reason.
UNUSED_EXPORTS = {
    "__version__": "the distribution's version, read by its users",
    "default_unlearn_setup": "the unlearn-mlp testbed, named by the "
                             "benchmark (BENCHMARK.json, perfbench/workloads.py)",
}


def _used_names(tree):
    """The loaded names and attributes of a source tree, each skipped
    inside the body of a function or class of the same name."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and \
                isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in inside:
                used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def test_every_export_is_used_by_the_package():
    """No public API that only its own tests call: each name in __all__ is
    used in src/mtunlearn outside its definition and __init__, apart from
    the listed exceptions."""
    src = os.path.dirname(mtunlearn.__file__)
    used = set()
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py") and fname != "__init__.py":
            with open(os.path.join(src, fname), encoding="utf-8") as fh:
                used |= _used_names(ast.parse(fh.read()))
    unused = {name for name in mtunlearn.__all__ if name not in used}
    assert unused == set(UNUSED_EXPORTS)


def test_per_sequence_npo_helpers_live_in_the_tests():
    """Only tests called the per-sequence npo functions, the log-space row
    losses and the bigram curvature blocks; the first two are the tests'
    oracles (conftest) for batched npo and the one-pass label kernel, not
    package API, and the dense assembly covers the bigram.  The kernels
    take what their callers prepared: npo's base values come with the
    batch (losses.npo_pairs), backprop takes its forward pass's aux state,
    and the wrappers over prepared datasets and over the it row kernel
    are gone, as are the per-context Jacobian and square-root factor the
    dense assembly stacks now (model.logit_jacobians).  The step-by-step
    momentum iteration is the tests' oracle (conftest.momentum_iteration)
    for the exact per-eigenmode error verify lemma measures.  A result
    document's tables and summary are built in one place
    (cli.result_outputs).  Greedy decoding takes a matrix of prompts, so
    the single-context logits went with the per-prompt decode, which is
    the tests' oracle (conftest.greedy_oracle).  The sequence-level
    functions take only datasets of whole sequences, so the re-expanding
    sequence_pairs went, and the one-sequence log-probability is the
    tests' oracle (conftest.sequence_logprob); the it teacher serves only
    log-probabilities."""
    for name in ("npo_value", "npo_weight", "npo_grad", "ll_value_rows",
                 "ll_grad_rows", "nll_value_rows", "nll_grad_rows",
                 "nlul_value_rows", "nlul_grad_rows", "_ll_grad"):
        assert not hasattr(losses, name) and name not in mtunlearn.__all__
    assert not hasattr(model, "grad_sequence_logprob")
    for name in ("bigram_gnh_blocks", "ihvp_momentum", "IHVPConfig"):
        assert not hasattr(curvature, name) and name not in mtunlearn.__all__
    for module, name in ((model, "validate_dataset"), (losses, "it_value_rows"),
                         (losses, "it_rows"), (losses, "_rows"),
                         (model, "logit_jacobian"), (curvature, "_sqrt_factor"),
                         (harness, "render_result_tables"),
                         (harness, "result_tables"), (cli, "print_result_summary"),
                         (model, "logits"), (model, "sequence_pairs")):
        assert not hasattr(module, name) and name not in mtunlearn.__all__
    assert not hasattr(model.TokenDataset, "_take")
    assert not hasattr(losses.TeacherLogits, "batch")
    for fn in (losses.batch_loss, losses.batch_grad, losses.batch_value_and_grad):
        assert "base_theta" not in inspect.signature(fn).parameters
    params = inspect.signature(model.grad_from_logit_grads).parameters
    assert list(params) == ["spec", "theta", "G", "aux"]
    assert all(p.default is inspect.Parameter.empty for p in params.values())


def test_the_dense_curvature_pair_lives_in_the_tests():
    """The damped solves go through the curvature factor (the Gram matrix
    of its rows), so the dense F^T F assembly and the checked SPD solve are the
    tests' oracle (conftest.assemble_gnh, conftest.solve_spd), with the
    symmetry check and shape helpers they used: no module defines or
    exports them, and no source under src/ names them."""
    gone = {linalg: ("solve_spd", "check_symmetric", "SYMMETRY_ATOL",
                     "_as_matrix", "_as_vector"),
            curvature: ("assemble_gnh",)}
    for module, names in gone.items():
        for name in names:
            assert not hasattr(module, name) and name not in mtunlearn.__all__
    for fname, named in _source_names().items():
        assert not named & {"solve_spd", "check_symmetric", "assemble_gnh"}, fname


def test_lockstep_runs_is_the_one_run_entry():
    """Every run has a teacher and starts through optimizer.lockstep_runs,
    the package's one public run function.  The one-run wrappers, which
    only tests called, and the teacher-less reference rule they alone
    reached are gone: the tests' one-run oracle is a one-run lockstep_runs
    call (conftest.observed_run), and the step-by-step reference
    (conftest.damped_ngd_reference) is the oracle mt_ngd_deviations is
    pinned to."""
    gone = {"mt_run", "mt_run_batched", "ngd_run", "baseline_run", "_solo",
            "_DampedNGD", "has_teacher"}
    assert not gone & set(mtunlearn.__all__)
    for fname, named in _source_names().items():
        assert not named & gone, fname
    assert mtunlearn.lockstep_runs is optimizer.lockstep_runs
    runs = [name for name in mtunlearn.__all__ if name.endswith(("_run", "_runs"))]
    assert runs == ["lockstep_runs"]


def test_lockstep_runs_takes_one_observer():
    """One observer watches every run of a lockstep_runs call, so no
    per-run callback is left: lockstep_runs takes `observe`, no name,
    attribute or argument in the optimizer or the harness mentions a
    callback, and the stop rule's callback factory is gone."""
    names = _source_names()
    for fname in ("optimizer.py", "harness.py"):
        assert not [n for n in names[fname] if "callback" in n.lower()], fname
    assert not any("_stop_callback" in named for named in names.values())
    assert not hasattr(harness, "_stop_callback")
    with open(optimizer.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    fn, = [n for n in tree.body
           if isinstance(n, ast.FunctionDef) and n.name == "lockstep_runs"]
    assert [a.arg for a in fn.args.args] == ["spec", "theta0", "d_f", "d_pt",
                                             "runs", "observe"]


def _source_names():
    """Per file under src/mtunlearn, the names, attributes, arguments,
    imported and defined names its source mentions."""
    src = os.path.dirname(mtunlearn.__file__)
    out = {}
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            out[fname] = {getattr(n, key) for n in ast.walk(tree)
                          for key in ("id", "attr", "name", "asname", "arg")
                          if isinstance(getattr(n, key, None), str)}
    return out


PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench")


def _perfbench_constants(filename):
    """Module-level constants and class attributes holding literals in a
    perfbench source file, read without importing it."""
    with open(os.path.join(PERFBENCH, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name):
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                continue
            found.setdefault(node.targets[0].id, []).append(value)
    return found


def test_the_traced_benchmark_finds_the_layers_it_depends_on():
    """The tracer skips a function the package no longer has and reports 0
    calls for it, so a removed or renamed layer would silently break the
    traced benchmark: the workloads' reach checks (per-layer counts that
    must be above 0) must find every function they name.  The tracer's
    step count (STEP_FUNCTIONS) names the one-run wrappers the package no
    longer has, so optimizer.steps reads 0 until the benchmark counts the
    steps of lockstep_runs and mt_ngd_deviations instead."""
    needed = set()
    for reaches in _perfbench_constants("workloads.py")["reaches"]:
        needed.update(tuple(r.split(".")[:2]) for r in reaches)
    assert {("model", "sequence_logprob"), ("curvature", "bigram_damped_solve"),
            ("divergence", "damped_grad")} <= needed
    for mod, fname in sorted(needed):
        module = importlib.import_module(f"mtunlearn.{mod}")
        assert callable(getattr(module, fname, None)), f"{mod}.{fname}"


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_every_source_file_parses_as_python_3_10():
    """requires-python is >=3.10, so no file under src/ or tests/ may use
    syntax a later Python added (a `type` statement, PEP 695 generics,
    and the like)."""
    paths = [os.path.join(d, f) for top in ("src", "tests")
             for d, _, files in os.walk(os.path.join(ROOT, top))
             for f in files if f.endswith(".py")]
    assert len(paths) > 20
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), path, feature_version=(3, 10))


PYPROJECT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "pyproject.toml")


def test_distribution_is_named_after_the_package():
    """pip installs the distribution under the package's name, at the
    version run manifests record.  Read with a regex: tomllib is not in
    Python 3.10."""
    with open(PYPROJECT, encoding="utf-8") as fh:
        text = fh.read()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    fields = dict(re.findall(r'^(name|version) = "([^"]*)"$', project.group(1),
                             re.M))
    assert fields == {"name": "mtunlearn", "version": artifacts.TOOL_VERSION}


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
