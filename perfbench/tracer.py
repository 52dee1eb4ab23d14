"""Run one `mtunlearn` command with per-layer spans.

Usage (from the repository root, with the package on PYTHONPATH):

    python3 perfbench/tracer.py SPANS.json -- <mtunlearn arguments>

Before the command runs, every layer function listed in LAYERS is replaced
by a wrapper on its module.  The modules call each other through module
attributes (`M._forward`, `O.ngd_run`, ...) and call their own functions
through module globals, so one replacement catches every call.  Each
wrapper counts calls and accumulates inclusive and self time (inclusive
time minus the time of wrapped calls made inside it).  The totals are kept
in memory and written to SPANS.json when the command returns; the process
exits with the command's exit code.  A function a later version of the
package no longer has is skipped and reports zero calls.
"""

import functools
import importlib
import json
import sys
import time

# (module, function) pairs wrapped in the traced child.
LAYERS = (
    ("model", "_forward"),
    ("model", "batch_logits"),
    ("model", "grad_from_logit_grads"),
    ("model", "dataset_from_sequences"),
    ("model", "sequence_logprob"),
    ("model", "grad_sequence_logprob"),
    ("model", "greedy_continuation"),
    ("losses", "batch_loss"),
    ("losses", "batch_grad"),
    ("divergence", "damped_value"),
    ("divergence", "damped_grad"),
    ("curvature", "bigram_damped_solve"),
    ("curvature", "bigram_gnh_blocks"),
    ("linalg", "solve_spd"),
    ("optimizer", "mt_run"),
    ("optimizer", "mt_run_batched"),
    ("optimizer", "ngd_run"),
    ("optimizer", "baseline_run"),
    ("harness", "build_target"),
    ("harness", "memorization_report"),
    ("harness", "verify_theorem1"),
    ("harness", "gradient_dynamics_study"),
    ("harness", "unlearn_experiment"),
    ("artifacts", "write_csv"),
    ("artifacts", "write_trajectory_csv"),
    ("artifacts", "write_batch_log_csv"),
    ("artifacts", "save_params"),
    ("artifacts", "write_results_json"),
    ("artifacts", "write_manifest"),
    ("cli", "main"),
)

# Optimizer drivers return a Trajectory whose length is steps + 1.
STEP_FUNCTIONS = ("mt_run", "mt_run_batched", "ngd_run", "baseline_run")


class Spans:
    """Call counts and inclusive/self seconds per wrapped function."""

    def __init__(self):
        self.stats = {}        # name -> [calls, inclusive_s, self_s]
        self.steps = {}        # optimizer function -> steps taken
        self.qkl_grads = 0     # divergence.damped_grad calls with kind qkl
        self._open = []        # wrapped-child seconds of each open span

    def wrap(self, module, fname):
        fn = getattr(module, fname)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        opened = self._open
        clock = time.perf_counter
        counts_steps = fname in STEP_FUNCTIONS
        counts_qkl = name == "divergence.damped_grad"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_qkl and getattr(args[0], "tag", None) == "qkl":
                self.qkl_grads += 1
            opened.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = opened.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if opened:
                    opened[-1] += dt
            if counts_steps:
                self.steps[fname] = self.steps.get(fname, 0) + len(out) - 1
            return out

        setattr(module, fname, wrapper)

    def as_dict(self):
        return {"functions": {k: {"calls": v[0], "inclusive_s": v[1],
                                  "self_s": v[2]}
                              for k, v in sorted(self.stats.items())},
                "steps": dict(sorted(self.steps.items())),
                "qkl_grads": self.qkl_grads}


def install(spans):
    for mod_name, fname in LAYERS:
        module = importlib.import_module(f"mtunlearn.{mod_name}")
        if hasattr(module, fname):
            spans.wrap(module, fname)


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <mtunlearn arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    spans = Spans()
    install(spans)
    from mtunlearn import cli
    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(spans.as_dict(), fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
