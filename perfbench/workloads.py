"""Workload definitions: the inputs each workload generates from its seed,
the `mtunlearn` commands it runs, and the checks on their results.

A workload seed (any integer) selects one of PROGRAM_SEEDS program seeds,
`seed % PROGRAM_SEEDS`; reference results for every program seed are kept
in perfbench/reference/<workload>.json and recorded with
`python3 perfbench/run.py --record-reference --workload <name>`.
"""

import json
import math
import os

PROGRAM_SEEDS = 8

# results.json numbers must match the reference to |a - b| <= ATOL + RTOL|b|.
# Not byte identity: a faster closed form may change the last digits.
RTOL = 1e-6
ATOL = 1e-12
# Numeric lists longer than this are compared at this many evenly spaced
# indices plus their length, which keeps the reference files small.
LIST_SAMPLES = 16

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


class Workload:
    """One workload: `setup_commands` run before timing (set-up), then the
    `timed_commands`, run in sequence, make one timed operation; it is
    repeated against what set-up produced."""

    name = None
    why = None
    # Per-layer counts that must be above 0 on this workload and 0 on the
    # others: the layers the workload was chosen for.
    reaches = ()

    def setup_commands(self, work, pseed):
        """Write inputs under `work`; return the argument lists of the CLI
        commands set-up runs."""
        return []

    def timed_commands(self, work, pseed, out):
        """Argument lists of the CLI commands of one timed operation, each
        writing under `out`."""
        raise NotImplementedError

    def check_result(self, label, result):
        """Failure messages from workload-specific checks on one
        results.json; `label` is the command's `command_label`."""
        return []


def command_label(args):
    """The name a command's results are checked and recorded under:
    `verify <check>` or the subcommand."""
    return " ".join(args[:2]) if args[0] == "verify" else args[0]


class Verify(Workload):
    name = "verify"
    why = ("verify theorem1 then verify dynamics, defaults: the only workload "
           "on curvature and linalg (71640 damped 8x8 solves) and on the "
           "sequence-level npo path")
    reaches = ("curvature.bigram_damped_solve.calls",
               "model.sequence_logprob.calls")
    # theorem1: bigram V=8, 8 full-batch mt_run/ngd_run pairs.
    # dynamics: bigram V=16, 3000-epoch target, batched ll/npo/nlul/it runs.
    CHECKS = ("theorem1", "dynamics")

    def timed_commands(self, work, pseed, out):
        return [["verify", check, "--out", os.path.join(out, check),
                 "--seed", str(pseed)] for check in self.CHECKS]

    def check_result(self, label, result):
        return [] if result.get("passed") is True else [
            f"{label}: passed is {result.get('passed')!r}"]


MODEL = {"kind": "mlp-1hidden", "vocab_size": 32, "context_len": 2,
         "hidden_dim": 32}
REPORT = {"prompt_len": 4, "completion_len": 4}


def unlearn_methods(pseed):
    """The six methods: three mean-teacher variants (kl, qkl, 4-round
    sequential), two first-order baselines and the no-op control;
    600 + 600 + 4 x 200 + 600 + 600 = 3200 batched steps."""
    mt = {"eta": 0.05, "kappa": 0.5, "alpha": 0.5, "mu": 0.9, "T": 600,
          "clip": 1.0, "batch_forget": 32, "batch_pretrain": 32,
          "seed": 123 + pseed}
    nlul = {"loss": "nlul"}
    kl = {"divergence": "kl", "lambda": 0.1}
    return [
        {"name": "mt-nlul", "optimizer": "mt-batched", "loss": nlul,
         "divergence": kl, "mt": mt},
        {"name": "mt-nlul-qkl", "optimizer": "mt-batched", "loss": nlul,
         "divergence": {"divergence": "qkl", "lambda": 0.1}, "mt": mt},
        {"name": "mt-nlul-sequential", "optimizer": "mt-batched", "rounds": 4,
         "loss": nlul, "divergence": kl,
         "mt": dict(mt, T=200, alpha=0.2, kappa=0.2, seed=200 + pseed)},
        {"name": "momentum-sgd", "optimizer": "momentum-sgd", "loss": nlul,
         "divergence": kl, "mt": mt},
        {"name": "adamw", "optimizer": "adamw", "loss": nlul,
         "divergence": kl, "mt": mt, "adam": {"lr": 0.01}},
        {"name": "no-op", "optimizer": "noop"},
    ]


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)


class UnlearnMLP(Workload):
    name = "unlearn-mlp"
    why = ("train-target (set-up) then unlearn with six methods on the "
           "default_unlearn_setup MLP: backprop, nlul, every batched update "
           "rule, the qkl path and artifact writers; no curvature")
    reaches = ("divergence.damped_grad.qkl_calls",)

    def setup_commands(self, work, pseed):
        target = os.path.join(work, "target")
        os.makedirs(target, exist_ok=True)
        # The corpus and training settings of harness.default_unlearn_setup.
        _write_json(os.path.join(target, "train.json"), {
            "model": MODEL,
            "corpus": {"vocab_size": 32, "n_sequences": 24, "seq_len": 8,
                       "forget_fraction": 0.25, "generator": "patterned",
                       "period": 4, "seed": pseed},
            "train": {"epochs": 8000, "lr": 1.0, "momentum": 0.9,
                      "seed": pseed},
            "report": REPORT})
        _write_json(os.path.join(work, "unlearn.json"), {
            "model": MODEL,
            "target": os.path.join(target, "target.npy"),
            "data": {"forget": os.path.join(target, "forget.jsonl"),
                     "pretrain": os.path.join(target, "pretrain.jsonl")},
            "methods": unlearn_methods(pseed),
            "report": REPORT})
        return [["train-target", "train.json", "--out", target]]

    def timed_commands(self, work, pseed, out):
        return [["unlearn", os.path.join(work, "unlearn.json"), "--out", out]]

    def check_result(self, label, result):
        if result.get("check") != "unlearn":
            return []
        bad = []
        for row in result["rows"]:
            want = 1.0 if row["optimizer"] == "noop" else 0.0
            if row["status"] != "ok":
                bad.append(f"{label}: {row['name']} status {row['status']!r}")
            elif row["exact_match_after"] != want:
                bad.append(f"{label}: {row['name']} exact_match_after "
                           f"{row['exact_match_after']} != {want}")
        return bad


WORKLOADS = {w.name: w for w in (Verify(), UnlearnMLP())}


def flatten(obj, prefix="", out=None):
    """results.json as {path: leaf}; long numeric lists are sampled."""
    out = {} if out is None else out
    if isinstance(obj, dict):
        for k in sorted(obj):
            flatten(obj[k], f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(obj, list):
        numeric = all(_is_number(v) for v in obj)
        if numeric and len(obj) > LIST_SAMPLES:
            out[f"{prefix}.len"] = len(obj)
            n = len(obj) - 1
            for i in sorted({round(j * n / (LIST_SAMPLES - 1))
                             for j in range(LIST_SAMPLES)}):
                out[f"{prefix}[{i}]"] = obj[i]
        else:
            for i, v in enumerate(obj):
                flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = obj
    return out


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(label, got, want):
    """Failure messages for flattened results `got` against `want`."""
    if set(got) != set(want):
        diff = sorted(set(got) ^ set(want))[:5]
        return [f"{label}: result fields differ from reference: {diff}"]
    bad = []
    for key, ref in want.items():
        val = got[key]
        if _is_number(ref) and _is_number(val):
            if math.isnan(ref) and math.isnan(val):
                continue
            if not abs(val - ref) <= ATOL + RTOL * abs(ref):
                bad.append(f"{label}: {key} = {val!r}, reference {ref!r}")
        elif val != ref:
            bad.append(f"{label}: {key} = {val!r}, reference {ref!r}")
    return bad[:5]


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload, pseed):
    """{label: flattened results} recorded for one program seed, or None."""
    path = reference_path(workload)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(pseed))
