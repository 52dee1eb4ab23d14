"""End-to-end command-line flows, exit codes, and artifact reproducibility."""

import functools
import importlib.util
import inspect
import json
import os
import time

import numpy as np
import pytest

from mtunlearn import artifacts as A
from mtunlearn import cli
from mtunlearn import losses as L
from mtunlearn import model as M
from mtunlearn import optimizer as O
from mtunlearn.cli import main
from mtunlearn.errors import TrainingError

from conftest import artifact_mismatches


PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("MTUNLEARN_SEED", raising=False)


def write_cfg(directory, obj, name="cfg.json"):
    path = os.path.join(str(directory), name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def read_bytes(*path):
    """The bytes of the file at os.path.join(*path), read through `with`
    so that the file is closed."""
    with open(os.path.join(*path), "rb") as fh:
        return fh.read()


def target_cfg(epochs=400, **corpus_kw):
    corpus = dict(vocab_size=8, n_sequences=4, seq_len=12, period=2, seed=11)
    corpus.update(corpus_kw)
    return {"model": {"kind": "bigram-softmax", "vocab_size": corpus["vocab_size"]},
            "corpus": corpus,
            "train": {"epochs": epochs, "lr": 0.5, "momentum": 0.9, "seed": 11}}


def mt_method(name="mt", **mt_kw):
    mt = dict(eta=0.05, kappa=0.5, alpha=0.5, mu=0.9, T=80, clip=1.0,
              batch_forget=8, batch_pretrain=8, seed=42)
    mt.update(mt_kw)
    return {"name": name, "optimizer": "mt-batched",
            "loss": {"loss": "nlul"},
            "divergence": {"divergence": "kl", "lambda": 0.1},
            "mt": mt}


def unlearn_cfg(methods=None):
    cfg = target_cfg()
    del cfg["train"]
    cfg["target"] = "target.npy"
    cfg["methods"] = [mt_method()] if methods is None else methods
    return cfg


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """One target trained through the CLI, shared by the unlearn tests."""
    out = str(tmp_path_factory.mktemp("target_run"))
    cfg = write_cfg(out, target_cfg())
    assert main(["train-target", cfg, "--out", out]) == 0
    return out


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["train-target", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["train-target", str(path), "--out", str(tmp_path)]) == 2

    def test_root_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["train-target", str(path), "--out", str(tmp_path)]) == 2

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = target_cfg()
        cfg["corpus"]["temperature"] = 1.0
        path = write_cfg(tmp_path, cfg)
        assert main(["train-target", path, "--out", str(tmp_path)]) == 2
        assert "temperature" in capsys.readouterr().err

    def test_missing_required_field(self, tmp_path, capsys):
        cfg = target_cfg()
        del cfg["model"]["vocab_size"]
        path = write_cfg(tmp_path, cfg)
        assert main(["train-target", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "vocab_size" in err and "model" in err

    def test_wrong_field_type(self, tmp_path):
        cfg = target_cfg()
        cfg["model"]["vocab_size"] = "eight"
        path = write_cfg(tmp_path, cfg)
        assert main(["train-target", path, "--out", str(tmp_path)]) == 2

    def test_corpus_and_data_are_mutually_exclusive(self, tmp_path):
        cfg = target_cfg()
        cfg["data"] = {"forget": "f.jsonl", "pretrain": "p.jsonl"}
        path = write_cfg(tmp_path, cfg)
        assert main(["train-target", path, "--out", str(tmp_path)]) == 2
        cfg2 = target_cfg()
        del cfg2["corpus"]
        path2 = write_cfg(tmp_path, cfg2, "cfg2.json")
        assert main(["train-target", path2, "--out", str(tmp_path)]) == 2

    def test_epochs_must_be_positive(self, tmp_path):
        path = write_cfg(tmp_path, target_cfg(epochs=0))
        assert main(["train-target", path, "--out", str(tmp_path)]) == 2

    def test_contracting_teacher_rate_enforced_before_setup(self, tmp_path):
        path = write_cfg(tmp_path, {"eta": 0.5, "kappa": 4.0})
        assert main(["verify", "theorem1", path, "--out", str(tmp_path)]) == 2

    def test_theorem_alphas_validated(self, tmp_path):
        path = write_cfg(tmp_path, {"alphas": [0.5]})
        assert main(["verify", "theorem1", path, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("check,fields,text", [
        ("lemma", {"T": -1, "mus": [0.0], "lams": [1.0]},
         "T must be at least 1"),
        ("dynamics", {"target_epochs": 0}, "target_epochs must be at least 1"),
        # alpha = 1 once ran every trajectory and then died in np.polyfit.
        ("theorem1", {"alphas": [1.0, 0.5], "t_gamma": 0.01}, "alphas must be"),
        ("theorem1", {"alphas": [0.1, 0.1]}, "alphas must be a strictly"),
        # A repeated loss would run twice and be reported once.
        ("dynamics", {"loss_tags": ["ll", "nlul", "ll"], "target_epochs": 1},
         "loss_tags repeats a loss"),
        # A NaN noise scale once passed every cell.
        ("lemma", {"noise_scale": float("nan"), "T": 5}, "noise_scale"),
        ("lemma", {"eig_high": float("inf")}, "eig_high"),
        ("lemma", {"step_scale": 0.0, "T": 5}, "step_scale"),
        ("lemma", {"step_scale": -0.5, "T": 5}, "step_scale"),
        ("theorem1", {"slope_min": float("inf")}, "slope_min"),
        ("divergence-quadratic", {"decay_factor": 0.0}, "decay_factor"),
        ("divergence-quadratic", {"t_values": [float("inf"), 1e-2]},
         "t_values"),
        # Equal sizes once ran the check and reported it failed.
        ("divergence-quadratic", {"t_values": [0.01, 0.01]}, "t_values"),
        # These two once died in a traceback: 1/gamma with gamma = 0, and
        # an overflowing t^2.
        ("theorem1", {"kappa": 0.0}, "kappa"),
        ("divergence-quadratic", {"t_values": [1e200, 1e-4]}, "t_values"),
        # A step at or above 1/(lam_max + lam) once skipped every cell
        # and blamed the bound.
        ("lemma", {"step_scale": 1.0, "T": 5}, "step_scale"),
        ("lemma", {"step_scale": 1.5, "T": 5}, "step_scale"),
        # t_gamma / gamma overflowed to inf and died converting it to int.
        ("theorem1", {"t_gamma": 1e308}, "t_gamma"),
        # T = 0 once reported a pass with no step measured.
        ("lemma", {"T": 0}, "T must be at least 1"),
        # A square underflowing to 0 died in ZeroDivisionError.
        ("divergence-quadratic", {"t_values": [1e-2, 5e-324]}, "t_values"),
        ("divergence-quadratic", {"t_values": [1e-200, 1e-100]}, "t_values"),
        # Finite horizons past the step cap once ran without bound.
        ("theorem1", {"t_gamma": 1e18}, "t_gamma=1e+18"),
        ("theorem1", {"alphas": [1e-200, 1e-300]}, "alpha=1e-300"),
        # Lemma arrays past the entry cap once ran out of memory.
        ("lemma", {"dim": 5792, "T": 5794}, "T=5794 and dim=5792 give (T, dim)"),
        ("lemma", {"mus": [0.0] * 10_000, "T": 10 ** 6},
         "60000 cells of mus, lams and modes at T=1000000"),
    ])
    def test_verify_range_error_names_the_field(self, tmp_path, capsys, check,
                                                fields, text):
        path = write_cfg(tmp_path, fields)
        assert main(["verify", check, path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert text in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "results.json")

    @pytest.mark.parametrize("case", [
        "config-is-a-directory", "config-not-utf8", "repeated-key",
        "repeated-nested-key", "out-is-a-file", "file-on-out-path",
        "corpus-undrawable", "corpus-outside-vocabulary"])
    def test_unusable_config_or_out_exits_2_naming_it(self, tmp_path, capsys,
                                                      case):
        """Each once ended in a traceback (exit 1), or, for a key given
        twice, ran silently with the last value.  A corpus section the
        generator cannot draw (8 period-2 sequences over 3 tokens), or
        whose tokens the model cannot read, is rejected before training."""
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        command, text = ["verify", "lemma"], str(cfg)
        if case == "config-is-a-directory":
            cfg.mkdir()
        elif case == "config-not-utf8":
            cfg.write_bytes(b'{"T": 5, "note": "\xff"}')
        elif case == "repeated-key":
            cfg.write_text('{"T": 5, "T": 6}')
            text = "'T' is given twice"
        elif case == "repeated-nested-key":
            body = json.dumps(target_cfg())
            cfg.write_text(body.replace('"vocab_size": 8,',
                                        '"vocab_size": 8, "vocab_size": 9,', 1))
            command, text = ["train-target"], "'vocab_size' is given twice"
        elif case.startswith("corpus-"):
            body = target_cfg(vocab_size=3, n_sequences=8) \
                if case == "corpus-undrawable" else target_cfg(vocab_size=16)
            body["model"]["vocab_size"] = 3
            cfg.write_text(json.dumps(body))
            command, text = ["train-target"], "invalid section 'corpus'"
        else:
            cfg.write_text("{}")
            out = cfg if case == "out-is-a-file" else cfg / "out"
            text = f"--out {out}"
        assert main(command + [str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert text in err and "Traceback" not in err
        assert not (out / "results.json").exists()
        assert not (out / "target.npy").exists()

    @pytest.mark.parametrize("command,section,field,value", [
        ("unlearn", "mt", "batch_forget", 2 ** 70),
        ("unlearn", "mt", "batch_pretrain", 10 ** 12),
        ("train-target", "model", "vocab_size", 10 ** 6),
        ("train-target", "model", "hidden_dim", 2 ** 70),
        ("train-target", "model", "context_len", 2 ** 70),
        ("unlearn", "mt", "T", 10 ** 12),
        ("train-target", "train", "epochs", 10 ** 12),
        ("verify", "lemma", "T", 10 ** 12),
        ("verify", "lemma", "dim", 10 ** 12),
        ("verify", "lemma", "dim", 30_000),
        ("verify", "dynamics", "target_epochs", 10 ** 12),
        ("train-target", "corpus", "seq_len", 10 ** 9),
        ("train-target", "corpus", "n_sequences", 10 ** 7),
    ])
    def test_size_above_its_cap_exits_2_naming_it(self, tmp_path, capsys,
                                                  command, section, field,
                                                  value):
        """A batch size above optimizer.MAX_BATCH, a model above
        model.MAX_PARAMS parameters, a step count above optimizer.MAX_STEPS,
        a corpus above harness.MAX_CORPUS_TOKENS or a lemma instance above
        harness.LEMMA_MAX_ENTRIES once ended in a traceback, ran out of
        memory or ran without bound; each exits 2 naming the field, before
        any run."""
        cfg = unlearn_cfg() if command == "unlearn" else target_cfg()
        if command == "verify":
            command, cfg = f"verify {section}", {field: value}
        elif section == "mt":
            cfg["methods"][0]["mt"][field] = value
        elif section == "train":
            cfg["train"][field] = value
        elif section == "corpus":
            # n_sequences this large draws with the random generator only.
            cfg["corpus"].update({field: value, "generator": "random"})
        elif field != "vocab_size":
            cfg["model"] = {"kind": "mlp-1hidden", "vocab_size": 8,
                            "context_len": 2, "hidden_dim": 4, field: value}
        else:
            cfg["model"][field] = value
        out = tmp_path / "out"
        assert main(command.split() + [write_cfg(tmp_path, cfg),
                                       "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert field in err and "cap" in err and "Traceback" not in err
        assert not (out / "results.json").exists()

    @pytest.mark.parametrize("gate,code", [(0.9, 2), (0.0, 0)])
    def test_gate_lengths_must_fit_every_pretrain_sequence(
            self, tmp_path, capsys, gate, code):
        """The memorization gate decodes both splits: lengths that fit the
        forget sequences but not a 4-token pretrain one exit 2 before
        training, unless the gate is off."""
        (tmp_path / "forget.jsonl").write_text('{"tokens": [0, 1, 2, 3, 0, 1]}\n')
        (tmp_path / "pretrain.jsonl").write_text('{"tokens": [4, 5, 6, 7]}\n')
        cfg = target_cfg()
        del cfg["corpus"]
        cfg["data"] = {"forget": "forget.jsonl", "pretrain": "pretrain.jsonl"}
        cfg["train"]["require_exact_match"] = gate
        cfg["report"] = {"prompt_len": 3, "completion_len": 3}
        assert main(["train-target", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert ("exceeds the shortest sequence (4 tokens)" in err) == (code == 2)
        assert (tmp_path / "target.npy").exists() == (code == 0)

    def test_bad_seed_environment_value(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MTUNLEARN_SEED", "lots")
        path = write_cfg(tmp_path, {"mus": [0.0], "lams": [1.0], "T": 10})
        assert main(["verify", "lemma", path, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command,source", [
        (["train-target"], "flag"), (["verify", "lemma"], "env"),
        (["verify", "theorem1"], "flag"), (["unlearn"], "env")])
    def test_negative_seed_exits_2_naming_its_source(
            self, tmp_path, trained_dir, monkeypatch, capsys, command, source):
        if command[0] == "train-target":
            cfg = [write_cfg(tmp_path, target_cfg())]
        elif command[0] == "unlearn":
            ucfg = unlearn_cfg()
            ucfg["target"] = os.path.join(trained_dir, "target.npy")
            cfg = [write_cfg(tmp_path, ucfg)]
        else:
            cfg = []
        args = command + cfg + ["--out", str(tmp_path)]
        if source == "flag":
            args += ["--seed", "-1"]
        else:
            monkeypatch.setenv("MTUNLEARN_SEED", "-2")
        assert main(args) == 2
        err = capsys.readouterr().err
        want = "--seed must be nonnegative, got -1" if source == "flag" \
            else "MTUNLEARN_SEED must be nonnegative, got -2"
        assert want in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "results.json")

    @pytest.mark.parametrize("command", [["verify", "divergence-quadratic"],
                                         ["report"]],
                             ids=["divergence-quadratic", "report"])
    def test_seed_flag_without_a_seed_exits_2_naming_it(self, tmp_path, capsys,
                                                        command):
        """verify divergence-quadratic and report have no seed, so a --seed
        would do nothing: it is rejected before any file is written."""
        args = command + ["--out", str(tmp_path), "--seed", "5"]
        try:
            code = main(args)
        except SystemExit as exc:  # argparse: the flag is not report's
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_duplicate_method_names(self, tmp_path, trained_dir):
        cfg = unlearn_cfg([mt_method("same"), mt_method("same", seed=43)])
        cfg["target"] = os.path.join(trained_dir, "target.npy")
        path = write_cfg(tmp_path, cfg)
        assert main(["unlearn", path, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("methods, fname", [
        ([mt_method("a b"), mt_method("a_b")], "unlearned_a_b.npy"),
        ([dict(mt_method("x"), rounds=2), mt_method("x_round1")],
         "trajectory_x_round1.csv"),
    ], ids=["sanitized-name", "round-suffix"])
    def test_colliding_artifact_names(self, tmp_path, trained_dir, capsys,
                                      methods, fname):
        """Two methods that would write a file of the same name are
        rejected before any run, naming both."""
        cfg = unlearn_cfg([{"name": "skip", "optimizer": "noop"}] + methods)
        cfg["target"] = os.path.join(trained_dir, "target.npy")
        path = write_cfg(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["unlearn", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "methods[1]" in err and "methods[2]" in err and fname in err
        assert "Traceback" not in err
        assert os.listdir(out) == []

    def test_parameter_count_mismatch(self, tmp_path):
        A.save_params(str(tmp_path / "target.npy"), np.zeros(10))
        path = write_cfg(tmp_path, unlearn_cfg())
        assert main(["unlearn", path, "--out", str(tmp_path)]) == 2

    def test_methods_must_be_nonempty(self, tmp_path, trained_dir):
        cfg = unlearn_cfg([])
        cfg["target"] = os.path.join(trained_dir, "target.npy")
        path = write_cfg(tmp_path, cfg)
        assert main(["unlearn", path, "--out", str(tmp_path)]) == 2

    def test_rounds_above_forget_sequence_count(self, tmp_path, trained_dir,
                                                capsys):
        # The target corpus has 2 forget sequences; 3 rounds leave one empty.
        self._rounds_rejected(tmp_path, trained_dir, capsys, 3)

    def test_huge_rounds_rejected_quickly(self, tmp_path, trained_dir, capsys):
        """The count is checked before one file name per round is built,
        which once took unbounded time."""
        self._rounds_rejected(tmp_path, trained_dir, capsys, 10 ** 18)

    @staticmethod
    def _rounds_rejected(tmp_path, trained_dir, capsys, rounds):
        cfg = unlearn_cfg([{"name": "skip", "optimizer": "noop"},
                           dict(mt_method("split", T=5), rounds=rounds)])
        cfg["target"] = os.path.join(trained_dir, "target.npy")
        path = write_cfg(tmp_path, cfg)
        t0 = time.perf_counter()
        assert main(["unlearn", path, "--out", str(tmp_path)]) == 2
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert "'rounds'" in err and "methods[1]" in err
        assert "Traceback" not in err

    def test_bregman_on_an_mlp_exits_2_naming_the_method(self, tmp_path, capsys):
        """The bregman divergence needs the bigram model: an MLP method
        that asks for it is a config error, reported before any run."""
        model = {"kind": "mlp-1hidden", "vocab_size": 8, "context_len": 2,
                 "hidden_dim": 4}
        spec = M.ModelSpec(M.MLP, 8, 2, 4)
        A.save_params(str(tmp_path / "target.npy"),
                      np.zeros(M.param_count(spec)))
        method = mt_method("breg", T=5)
        method["divergence"] = {"divergence": "bregman", "lambda": 0.1}
        cfg = unlearn_cfg([{"name": "skip", "optimizer": "noop"}, method])
        cfg["model"] = model
        cfg["target"] = str(tmp_path / "target.npy")
        path = write_cfg(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["unlearn", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "methods[1]" in err and "'bregman'" in err
        assert "Traceback" not in err
        assert os.listdir(out) == []


    @pytest.mark.parametrize("command", ["train-target", "unlearn"])
    @pytest.mark.parametrize("bad,text", [
        (("forget", ""), "no sequences"),
        (("pretrain", "\n"), "no sequences"),
        (("forget", "5\n"), "not a JSON object"),
        (("forget", '{"tokens": null}\n'), "'tokens' must be"),
        (("pretrain", '{"tokens": [[0, 1]]}\n'), "'tokens' must be"),
        (("forget", '{"tokens": [0, 1e20]}\n'), "'tokens' must be"),
        (("forget", '{"tokens": [0, 1, 2.5, 3]}\n'), "'tokens' must be"),
        (("pretrain", '{"tokens": [true, false]}\n'), "'tokens' must be"),
        (("forget", '{"tokens": [0, 1] "x": 2}\n'), ":1: invalid JSON"),
        (("pretrain", '{"tokens": [4, 5]}\n{"tokens": [6]}\n'), ":2: a sequence needs"),
        (("forget", b'{"tokens": [0, 1]}\n{"tokens": [2, 3\xff]}\n'), ":2: not valid UTF-8"),
    ], ids=["empty-forget", "blank-pretrain", "not-object", "null", "nested",
            "overflow", "fraction", "bool", "not-json", "one-token", "not-utf8"])
    def test_malformed_jsonl_exits_2_naming_the_file(
            self, tmp_path, trained_dir, capsys, command, bad, text):
        files = {"forget": '{"tokens": [0, 1, 2, 3]}\n',
                 "pretrain": '{"tokens": [4, 5, 6, 7]}\n'}
        split, content = bad
        files[split] = content
        for name, body in files.items():
            body = body if isinstance(body, bytes) else body.encode()
            (tmp_path / f"{name}.jsonl").write_bytes(body)
        if command == "train-target":
            cfg = target_cfg()
        else:
            cfg = unlearn_cfg()
            cfg["target"] = os.path.join(trained_dir, "target.npy")
        del cfg["corpus"]
        cfg["data"] = {"forget": "forget.jsonl", "pretrain": "pretrain.jsonl"}
        path = write_cfg(tmp_path, cfg)
        assert main([command, path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / f"{split}.jsonl") in err and text in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "results.json")


    @pytest.mark.parametrize("command", ["train-target", "unlearn"])
    @pytest.mark.parametrize("split", ["forget", "pretrain"])
    def test_out_of_vocabulary_token_exits_2_naming_the_split(
            self, tmp_path, trained_dir, capsys, command, split):
        """The dataset's one id check runs at the boundary, with its
        message, before any training."""
        files = {"forget": '{"tokens": [0, 1, 2, 3]}\n',
                 "pretrain": '{"tokens": [4, 5, 6, 7]}\n'}
        files[split] = '{"tokens": [0, 1, 99, 3]}\n'
        for name, body in files.items():
            (tmp_path / f"{name}.jsonl").write_text(body)
        if command == "train-target":
            cfg = target_cfg()
        else:
            cfg = unlearn_cfg()
            cfg["target"] = os.path.join(trained_dir, "target.npy")
        del cfg["corpus"]
        cfg["data"] = {"forget": "forget.jsonl", "pretrain": "pretrain.jsonl"}
        path = write_cfg(tmp_path, cfg)
        assert main([command, path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        V = cfg["model"]["vocab_size"]
        assert f"invalid {split} data: token id out of vocabulary (V={V})" in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "results.json")


def adamw_method(**adam):
    return dict(mt_method("adamw"), optimizer="adamw", adam=adam)


NAN = float("nan")
INF = float("inf")

# (command, top-level config fields replaced, exit code, text in the message)
SCHEMA_CASES = [
    pytest.param("train-target", {"report": {"prompt_len": -1}}, 2,
                 "prompt_len", id="train-negative-prompt"),
    pytest.param("train-target", {"report": {"prompt_len": 100}}, 2,
                 "prompt_len (100)", id="train-prompt-above-sequence"),
    pytest.param("train-target", {"train": dict(target_cfg()["train"],
                                                require_exact_match=NAN)}, 2,
                 "require_exact_match", id="train-nan-gate"),
    *[pytest.param("train-target", {"train": dict(target_cfg()["train"],
                                                  **{field: value})}, 2,
                   f"{field} must", id=f"train-{field}-{value}")
      for field, value in [("lr", -0.5), ("lr", 0.0), ("lr", NAN),
                           ("momentum", 1.5), ("momentum", -1.0)]],
    pytest.param("unlearn", {"report": {"prompt_len": -1}}, 2,
                 "prompt_len", id="unlearn-negative-prompt"),
    pytest.param("unlearn", {"report": {"completion_len": 0}}, 2,
                 "completion_len", id="unlearn-zero-completion"),
    pytest.param("unlearn", {"report": {"prompt_len": 8, "completion_len": 8}},
                 2, "exceeds", id="unlearn-lengths-above-sequence"),
    pytest.param("unlearn", {"methods": [dict(
        mt_method(), divergence={"divergence": "kl", "lambda": NAN})]}, 2,
                 "lam", id="nan-lambda"),
    pytest.param("unlearn", {"methods": [dict(
        mt_method(), divergence={"divergence": "kl", "lambda": float("inf")})]},
                 2, "lam", id="infinite-lambda"),
    pytest.param("unlearn", {"methods": [mt_method(clip=NAN)]}, 2, "clip",
                 id="nan-clip"),
    pytest.param("unlearn", {"stop_rule": {"threshold": NAN}}, 2, "threshold",
                 id="nan-stop-threshold"),
    pytest.param("unlearn", {"methods": [adamw_method(lr=-0.01)]}, 2, "lr",
                 id="adam-negative-lr"),
    pytest.param("unlearn", {"methods": [adamw_method(eps=0.0)]}, 2, "eps",
                 id="adam-zero-eps"),
    pytest.param("unlearn", {"methods": [adamw_method(betas=[0.9, 1.0])]}, 2,
                 "betas", id="adam-beta-one"),
    pytest.param("unlearn", {"methods": [adamw_method(weight_decay=-0.1)]}, 2,
                 "weight_decay", id="adam-negative-decay"),
    pytest.param("unlearn", {"methods": [dict(mt_method(), adam={"lr": 0.01})]},
                 2, "methods[0]", id="adam-on-mt-batched"),
    pytest.param("unlearn", {"methods": [adamw_method(lr=0.01)]}, 0, "",
                 id="valid-adamw"),
    # Negative seeds, which numpy's generator would reject mid-run.
    pytest.param("train-target", {"corpus": dict(target_cfg()["corpus"], seed=-1)},
                 2, "seed must be nonnegative", id="corpus-negative-seed"),
    pytest.param("train-target", {"train": dict(target_cfg()["train"], seed=-1)},
                 2, "seed must be nonnegative", id="train-negative-seed"),
    pytest.param("unlearn", {"methods": [mt_method(seed=-1)]}, 2,
                 "seed must be nonnegative", id="mt-negative-seed"),
    # Non-finite settings, which once ran (or blamed another field).
    *[pytest.param("unlearn", {"methods": [adamw_method(**{field: INF})]}, 2,
                   f"{field} must be", id=f"adam-infinite-{field}")
      for field in ("lr", "eps", "weight_decay")],
    pytest.param("unlearn", {"methods": [dict(
        mt_method(), loss={"loss": "npo", "beta": INF})]}, 2,
                 "beta must be finite", id="npo-infinite-beta"),
    pytest.param("unlearn", {"methods": [mt_method(eta=INF, kappa=0.0)]}, 2,
                 "eta must be positive and finite", id="mt-infinite-eta"),
    # Settings the library no longer has: the clip formula and the nlul
    # clamp are fixed, so the fields are unknown.
    pytest.param("unlearn", {"methods": [mt_method(clip_formula="alg2")]}, 2,
                 "'clip_formula' in section 'mt'", id="mt-clip-formula"),
    pytest.param("unlearn", {"methods": [dict(
        mt_method(), loss={"loss": "nlul", "clamp_eps": 1e-10})]}, 2,
                 "'clamp_eps' in section 'loss'", id="loss-clamp-eps"),
]


class TestConfigSchema:
    @pytest.mark.parametrize("command,fields,code,text", SCHEMA_CASES)
    def test_documented_exit_code_without_traceback(
            self, tmp_path, trained_dir, capsys, command, fields, code, text):
        if command == "train-target":
            cfg = target_cfg()
        else:
            cfg = unlearn_cfg()
            cfg["target"] = os.path.join(trained_dir, "target.npy")
        cfg.update(fields)
        path = write_cfg(tmp_path, cfg)
        assert main([command, path, "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert text in err
        # A rejected config fails before any training or artifact.
        assert os.path.exists(tmp_path / "results.json") == (code == 0)


# Per verify check: an unknown field, a field of the wrong type, and a
# list entry of the wrong type, each with the field its message names.
VERIFY_SCHEMA_CASES = [
    pytest.param(check, fields, name, id=f"{check}-{kind}")
    for check, cases in {
        "theorem1": [({"gamma": 1.0}, "gamma"), ({"lambda": "big"}, "lambda"),
                     ({"alphas": [0.1, "x"]}, "alphas")],
        "lemma": [({"eig_mid": 2.0}, "eig_mid"), ({"T": 1.5}, "T"),
                  ({"mus": [0.0, None]}, "mus")],
        "dynamics": [({"epochs": 10}, "epochs"), ({"beta": True}, "beta"),
                     ({"loss_tags": ["ll", 3]}, "loss_tags")],
        "divergence-quadratic": [({"t": [0.1]}, "t"),
                                 ({"decay_factor": "0.1"}, "decay_factor"),
                                 ({"t_values": [0.1, [0.01]]}, "t_values")],
    }.items()
    for kind, (fields, name) in zip(("unknown", "type", "entry"), cases)
]

def float_settings():
    """(check, field, NaN value) for every float setting of every verify
    check, read from the signatures cmd_verify reads: NaN itself, or the
    default list with its last entry NaN."""
    for which, fns in sorted(cli.VERIFY_CHECKS.items()):
        for fn in filter(None, fns):
            for p in inspect.signature(fn).parameters.values():
                typ = cli._config_type(p, p.default)
                if typ is float:
                    value = float("nan")
                elif typ == [float]:
                    value = list(p.default[:-1]) + [float("nan")]
                else:
                    continue
                yield pytest.param(which, cli.VERIFY_RENAME.get(p.name, p.name),
                                   value, id=f"{which}-{p.name}")


class TestNaNSettings:
    @pytest.mark.parametrize("check,field,value", float_settings())
    def test_nan_exits_2_naming_the_field(self, tmp_path, capsys, check,
                                          field, value):
        # A one-epoch dynamics target: a setting is checked before the
        # saturation guard, which would otherwise exit 5.
        cfg = {"target_epochs": 1} if check == "dynamics" else {}
        path = write_cfg(tmp_path, dict(cfg, **{field: value}))
        assert main(["verify", check, path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "results.json")


# The config each verify check records in its manifest when run without one.
VERIFY_DEFAULTS = {
    "theorem1": {"eta": 5e-4, "kappa": 10.0, "lambda": 0.5, "mu": 0.9,
                 "alphas": [0.1, 0.05, 0.025, 0.0125], "t_gamma": 0.3,
                 "slope_min": 0.8, "seed": 11},
    "lemma": {"dim": 8, "eig_low": 0.5, "eig_high": 5.0, "seed": 14,
              "noise_scale": 0.01, "mus": [0.0, 0.5, 0.9],
              "lams": [0.1, 1.0, 10.0], "modes": ["zero", "const"], "T": 400,
              "step_scale": 0.5},
    "dynamics": {"seed": 5, "target_epochs": 3000, "beta": 0.1,
                 "saturation_min": 0.9, "ratio_min": 10.0, "raise_min": 1.0,
                 "hold_max": 0.1, "loss_tags": ["ll", "npo", "nlul", "it"]},
    "divergence-quadratic": {"t_values": [1e-2, 1e-3, 1e-4],
                             "decay_factor": 0.1},
}


@pytest.fixture
def stub_verify(monkeypatch):
    """Replace every verify builder and check by a stub with its signature
    that records its keyword arguments; the check returns a passing
    divergence-quadratic document with no rows."""
    calls = []

    def stub(fn, result):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            calls.append((fn.__name__, kwargs))
            return result
        return run

    doc = {"check": "divergence-quadratic", "rows": [], "passed": True}
    monkeypatch.setattr(cli, "VERIFY_CHECKS", {
        which: (build and stub(build, object()), stub(check, doc))
        for which, (build, check) in cli.VERIFY_CHECKS.items()})
    return calls


class TestVerifySchema:
    @pytest.mark.parametrize("check,fields,name", VERIFY_SCHEMA_CASES)
    def test_bad_field_exits_2_naming_it(self, tmp_path, capsys, stub_verify,
                                         check, fields, name):
        path = write_cfg(tmp_path, fields)
        assert main(["verify", check, path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"'{name}'" in err and "Traceback" not in err
        assert stub_verify == []

    @pytest.mark.parametrize("check", sorted(VERIFY_DEFAULTS))
    def test_manifest_config_pins_the_defaults(self, tmp_path, stub_verify,
                                               check):
        assert main(["verify", check, "--out", str(tmp_path)]) == 0
        manifest = A.read_manifest(str(tmp_path))
        assert manifest["config"] == VERIFY_DEFAULTS[check]
        assert manifest["seed"] == VERIFY_DEFAULTS[check].get("seed", -1)
        assert len(stub_verify) == (1 if check == "divergence-quadratic" else 2)


    def test_seed_variable_is_ignored_without_a_seed(self, tmp_path, monkeypatch,
                                                     stub_verify):
        monkeypatch.setenv("MTUNLEARN_SEED", "5")
        assert main(["verify", "divergence-quadratic", "--out", str(tmp_path)]) == 0
        assert A.read_manifest(str(tmp_path))["seed"] == -1


class TestFailureExitCodes:
    def test_undertrained_target_exits_3(self, tmp_path, capsys):
        path = write_cfg(tmp_path, target_cfg(epochs=2))
        assert main(["train-target", path, "--out", str(tmp_path)]) == 3
        assert "too weak" in capsys.readouterr().err

    def test_missing_target_exits_4(self, tmp_path):
        path = write_cfg(tmp_path, unlearn_cfg())
        assert main(["unlearn", path, "--out", str(tmp_path)]) == 4

    def test_non_finite_target_exits_5(self, tmp_path, trained_dir, capsys):
        theta = A.load_params(os.path.join(trained_dir, "target.npy"))
        theta[3] = np.nan
        A.save_params(str(tmp_path / "target.npy"), theta)
        path = write_cfg(tmp_path, unlearn_cfg())
        assert main(["unlearn", path, "--out", str(tmp_path)]) == 5
        err = capsys.readouterr().err
        assert str(tmp_path / "target.npy") in err and "finite" in err
        assert not os.path.exists(tmp_path / "results.json")

    @pytest.mark.parametrize("doc", [
        {"check": "dynamics", "series": {"ll": {
            "t": [0], "nll_forget": [1.0], "loss_grad_norm": [2.0]}}},
        {"check": "theorem1", "rows": [{"grad_lag": False, "alpha": 0.1,
                                        "T": 1, "gamma": 0.1, "lam_bar": 1.0,
                                        "deviation": 0.5}]},
    ], ids=["second-table", "summary"])
    def test_malformed_document_leaves_the_tables_as_they_were(
            self, tmp_path, capsys, doc):
        """A dynamics document whose series renders but which has no
        grad_norm0 for its second table, and a theorem1 document whose
        table renders but which has no summary: no table is rewritten."""
        tables = {name: f"{name} before report\n" for name in
                  ("dynamics.csv", "dynamics_summary.csv", "theorem1.csv")}
        for name, text in tables.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "results.json").write_text(json.dumps(doc))
        assert main(["report", "--out", str(tmp_path)]) == 4
        assert "malformed results document" in capsys.readouterr().err
        for name, text in tables.items():
            assert (tmp_path / name).read_text() == text

    def test_report_on_empty_directory_exits_4(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("body,text", [
        ("{}", "cannot render result of kind None"),
        ("{", "JSONDecodeError"),
        ('{"check": "theorem1"}', "KeyError: 'rows'"),
        ("[1, 2]", "not a JSON object"),
    ], ids=["empty-object", "invalid-json", "no-rows", "list"])
    def test_malformed_results_document_exits_4_naming_it(
            self, tmp_path, capsys, body, text):
        path = tmp_path / "results.json"
        path.write_text(body)
        assert main(["report", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert f"malformed results document {path}" in err and text in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("which", ["target", "teacher"])
    @pytest.mark.parametrize("content,code,text", [
        (np.zeros(10), 2, "parameter count (10,)"),
        (np.full(64, np.inf), 5, "not all finite"),
        (b"not an array", 4, "cannot read parameter file"),
        (np.array(["x"] * 64), 4, "numeric .npy array"),
    ], ids=["count", "non-finite", "not-npy", "strings"])
    def test_bad_parameter_file_exits_naming_it(
            self, tmp_path, trained_dir, capsys, which, content, code, text):
        """The target and an it teacher are checked alike, before any run."""
        bad = tmp_path / "bad.npy"
        if isinstance(content, bytes):
            bad.write_bytes(content)
        else:
            np.save(bad, content)
        method = dict(mt_method(), loss={"loss": "it", "teacher": "bad.npy"})
        cfg = unlearn_cfg([method] if which == "teacher" else None)
        cfg["target"] = "bad.npy" if which == "target" else \
            os.path.join(trained_dir, "target.npy")
        path = write_cfg(tmp_path, cfg)
        assert main(["unlearn", path, "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert str(bad) in err and text in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "results.json")

    def test_valid_teacher_file_runs(self, tmp_path, trained_dir):
        out = str(tmp_path)
        A.save_params(str(tmp_path / "teacher.npy"), np.zeros(64))
        cfg = unlearn_cfg([dict(mt_method(T=10), loss={"loss": "it",
                                                       "teacher": "teacher.npy"})])
        cfg["target"] = os.path.join(trained_dir, "target.npy")
        assert main(["unlearn", write_cfg(tmp_path, cfg), "--out", out]) == 0
        assert A.read_results_json(out)["rows"][0]["status"] == "ok"

    def test_missing_data_file_exits_4(self, tmp_path):
        cfg = target_cfg()
        del cfg["corpus"]
        cfg["data"] = {"forget": "f.jsonl", "pretrain": "p.jsonl"}
        path = write_cfg(tmp_path, cfg)
        assert main(["train-target", path, "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("command", ["train-target", "unlearn"])
    def test_data_path_that_is_a_directory_exits_4(self, tmp_path, trained_dir,
                                                   capsys, command):
        (tmp_path / "forget.jsonl").mkdir()
        (tmp_path / "pretrain.jsonl").write_text('{"tokens": [4, 5, 6, 7]}\n')
        if command == "train-target":
            cfg = target_cfg()
        else:
            cfg = unlearn_cfg()
            cfg["target"] = os.path.join(trained_dir, "target.npy")
        del cfg["corpus"]
        cfg["data"] = {"forget": "forget.jsonl", "pretrain": "pretrain.jsonl"}
        assert main([command, write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert f"cannot read data file {tmp_path / 'forget.jsonl'}" in err
        assert "Traceback" not in err

    def test_results_document_that_is_a_directory_exits_4(self, tmp_path, capsys):
        (tmp_path / "results.json").mkdir()
        assert main(["report", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert f"cannot read {tmp_path / 'results.json'}" in err
        assert "Traceback" not in err

    def test_unsaturated_dynamics_target_exits_5(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {"target_epochs": 25})
        assert main(["verify", "dynamics", path, "--out", str(tmp_path)]) == 5
        assert "not saturated" in capsys.readouterr().err

    def test_failed_verification_exits_1(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {"decay_factor": 1e-12})
        assert main(["verify", "divergence-quadratic", path,
                     "--out", str(tmp_path)]) == 1
        assert "verification failed" in capsys.readouterr().err
        assert A.read_results_json(str(tmp_path))["passed"] is False


class TestTrainTarget:
    def test_artifacts_and_memorization(self, trained_dir):
        for fname in ("target.npy", "forget.jsonl", "pretrain.jsonl",
                      "results.json", "target_report.csv", "manifest.json"):
            assert os.path.exists(os.path.join(trained_dir, fname)), fname
        result = A.read_results_json(trained_dir)
        assert result["check"] == "train-target"
        assert result["report"]["exact_match_rate"] == 1.0
        assert result["n_forget_sequences"] == 2
        manifest = A.read_manifest(trained_dir)
        assert manifest["command"] == "train-target"
        assert manifest["seed"] == 11

    def test_corpus_jsonl_round_trips(self, trained_dir):
        with open(os.path.join(trained_dir, "forget.jsonl")) as fh:
            rows = [json.loads(line) for line in fh]
        assert len(rows) == 2
        for row in rows:
            assert len(row["tokens"]) == 12
            assert all(0 <= t < 8 for t in row["tokens"])

    def test_rerun_is_bitwise_identical(self, tmp_path, trained_dir):
        out2 = str(tmp_path / "again")
        cfg = write_cfg(tmp_path, target_cfg())
        assert main(["train-target", cfg, "--out", out2]) == 0
        for fname in ("target.npy", "forget.jsonl", "pretrain.jsonl",
                      "results.json", "target_report.csv"):
            a = read_bytes(trained_dir, fname)
            b = read_bytes(out2, fname)
            assert a == b, fname
        m1 = A.read_manifest(trained_dir)
        m2 = A.read_manifest(out2)
        m1.pop("duration_s")
        m2.pop("duration_s")
        assert m1 == m2


class TestUnlearn:
    def test_full_flow_with_noop_and_rounds(self, tmp_path, trained_dir):
        out = str(tmp_path)
        cfg = unlearn_cfg([mt_method("mt nlul/a"),
                           {"name": "skip", "optimizer": "noop"},
                           dict(mt_method("split", T=40, seed=77),
                                rounds=2)])
        cfg["target"] = os.path.join(trained_dir, "target.npy")
        path = write_cfg(tmp_path, cfg)
        assert main(["unlearn", path, "--out", out]) == 0

        target = A.load_params(os.path.join(trained_dir, "target.npy"))
        noop = A.load_params(os.path.join(out, "unlearned_skip.npy"))
        np.testing.assert_array_equal(noop, target)
        assert os.path.exists(os.path.join(out, "unlearned_mt_nlul_a.npy"))
        assert os.path.exists(os.path.join(out, "trajectory_mt_nlul_a.csv"))
        assert os.path.exists(os.path.join(out, "trajectory_split_round1.csv"))
        assert os.path.exists(os.path.join(out, "trajectory_split_round2.csv"))
        assert os.path.exists(os.path.join(out, "unlearn.csv"))

        result = A.read_results_json(out)
        assert result["check"] == "unlearn"
        assert "thetas" not in result and "trajectories" not in result
        rows = {r["name"]: r for r in result["rows"]}
        assert rows["skip"]["drift"] == 0.0
        assert rows["mt nlul/a"]["nll_forget_after"] > \
            rows["mt nlul/a"]["nll_forget_before"]
        assert A.read_manifest(out)["seed"] == -1

    def test_round_suffix_follows_the_rounds_setting(self, tmp_path,
                                                     trained_dir, monkeypatch):
        """A 2-round method whose second round diverges writes its first
        round's trajectory as _round1, and no parameters."""
        run, calls = O.lockstep_runs, []

        def diverge_in_round_two(*args):
            calls.append(1)
            if len(calls) == 2:
                return [TrainingError("non-finite parameters at step 1")]
            return run(*args)

        monkeypatch.setattr(O, "lockstep_runs", diverge_in_round_two)
        out = str(tmp_path)
        cfg = unlearn_cfg([dict(mt_method("split", T=10), rounds=2)])
        cfg["target"] = os.path.join(trained_dir, "target.npy")
        path = write_cfg(tmp_path, cfg)
        assert main(["unlearn", path, "--out", out]) == 0
        row = A.read_results_json(out)["rows"][0]
        assert row["status"].startswith("diverged") and row["steps"] == 10
        written = sorted(f for f in os.listdir(out)
                         if f.startswith(("trajectory_", "unlearned_")))
        assert written == ["trajectory_split_round1.csv"]

    def test_grouped_methods_write_what_they_write_alone(self, tmp_path,
                                                         trained_dir,
                                                         monkeypatch):
        """Methods that draw the same batches run in one lockstep group,
        with two losses and one of them diverging: every artifact is
        byte-identical to the run with each method alone, and the diverged
        row reports the same status and steps."""
        methods = [mt_method("kl", T=40),
                   dict(mt_method("qkl", T=30, eta=0.03, alpha=0.3),
                        divergence={"divergence": "qkl", "lambda": 0.2}),
                   dict(mt_method("sgd", T=50, clip=0.0), optimizer="momentum-sgd"),
                   adamw_method(lr=0.01),
                   mt_method("explode", eta=1e160, kappa=0.0, mu=0.0, clip=0.0,
                             T=20),
                   dict(mt_method("ll", T=25), loss={"loss": "ll"})]
        cfg = unlearn_cfg(methods)
        cfg["target"] = os.path.join(trained_dir, "target.npy")
        path = write_cfg(tmp_path, cfg)
        grouped, alone = str(tmp_path / "grouped"), str(tmp_path / "alone")
        run, lockstep, sizes = O._run, O.lockstep_runs, []

        def counted(*args):
            sizes.append(len(args[4]))
            return run(*args)

        def each_alone(spec, theta0, d_f, d_pt, runs, observe):
            assert observe is None
            return [lockstep(spec, theta0, d_f, d_pt, [r])[0] for r in runs]

        with np.errstate(all="ignore"):
            with monkeypatch.context() as mp:
                mp.setattr(O, "_run", counted)
                assert main(["unlearn", path, "--out", grouped]) == 0
            monkeypatch.setattr(O, "lockstep_runs", each_alone)
            assert main(["unlearn", path, "--out", alone]) == 0
        assert sizes == [6]
        assert artifact_mismatches(grouped, alone) == []
        rows = {r["name"]: r for r in A.read_results_json(grouped)["rows"]}
        assert rows["explode"]["status"].startswith("diverged: non-finite")
        assert rows["explode"]["steps"] == 0
        assert [rows[n]["steps"] for n in ("kl", "qkl", "sgd", "adamw", "ll")] == \
            [40, 30, 50, 80, 25]

    def test_jsonl_data_sections_resolve_against_out(self, tmp_path,
                                                     trained_dir):
        out = str(tmp_path)
        cfg = unlearn_cfg([mt_method("mt", T=20)])
        del cfg["corpus"]
        cfg["data"] = {"forget": os.path.join(trained_dir, "forget.jsonl"),
                       "pretrain": "pretrain.jsonl"}
        cfg["target"] = os.path.join(trained_dir, "target.npy")
        with open(os.path.join(trained_dir, "pretrain.jsonl")) as src:
            (tmp_path / "pretrain.jsonl").write_text(src.read())
        path = write_cfg(tmp_path, cfg)
        assert main(["unlearn", path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "unlearned_mt.npy"))

    def test_stop_rule_shortens_run(self, tmp_path, trained_dir):
        out = str(tmp_path)
        cfg = unlearn_cfg([mt_method("mt", T=400)])
        cfg["target"] = os.path.join(trained_dir, "target.npy")
        cfg["stop_rule"] = {"metric": "nll_forget", "threshold": 0.5,
                            "comparison": "geq", "check_every": 5}
        path = write_cfg(tmp_path, cfg)
        assert main(["unlearn", path, "--out", out]) == 0
        row = A.read_results_json(out)["rows"][0]
        assert 0 < row["steps"] < 400


    def test_stop_rule_makes_one_call_per_partition_per_check(
            self, tmp_path, monkeypatch):
        """perfbench's seed-0 unlearn-mlp config with a stop rule: every
        check step of a partition makes one NLL call over the stack of its
        live runs, where it made one per run.  The four single-round
        methods share a partition; mt-nlul stops at 30 steps, mt-nlul-qkl
        at 120, and the sequential method's four rounds, each a partition
        of its own, take 250 steps in all."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        work = str(tmp_path)
        (command, _, _, target), = workloads.UnlearnMLP().setup_commands(work, 0)
        assert main([command, os.path.join(target, "train.json"),
                     "--out", target]) == 0
        with open(os.path.join(work, "unlearn.json"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["stop_rule"] = {"threshold": 3.0, "check_every": 10}
        loss, inside, calls = L.batch_loss, [], []

        def spy_loss(kind, spec, theta, batch, **kw):
            if inside and kind.tag == "nll":
                calls.append(np.shape(theta)[:-1])
            return loss(kind, spec, theta, batch, **kw)

        run = O._run

        def spy_run(*args):
            inside.append(1)
            try:
                return run(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(L, "batch_loss", spy_loss)
        monkeypatch.setattr(O, "_run", spy_run)
        out = os.path.join(work, "out")
        assert main(["unlearn", write_cfg(tmp_path, cfg), "--out", out]) == 0
        rows = A.read_results_json(out)["rows"]
        assert [r["steps"] for r in rows] == [30, 120, 250, 600, 600, 0]
        # Checks at t = 10, ..., 600 of the shared partition, 4, 3 and
        # then 2 runs live; then 25 checks of the one-run rounds.
        assert calls == [(4,)] * 3 + [(3,)] * 9 + [(2,)] * 48 + [(1,)] * 25


# A small config of each verify check.
SMALL_VERIFY = {
    "theorem1": {"alphas": [0.1, 0.05], "t_gamma": 0.1},
    "lemma": {"mus": [0.0], "lams": [1.0], "T": 20},
    "dynamics": {"target_epochs": 800, "saturation_min": 0.5,
                 "loss_tags": ["nlul", "ll"]},
    "divergence-quadratic": {"t_values": [1e-2, 1e-3], "decay_factor": 0.2},
}


class TestVerifyAndReport:
    @pytest.mark.parametrize("kind", ["train-target", "unlearn",
                                      *sorted(SMALL_VERIFY)])
    def test_report_reproduces_the_command(self, tmp_path, trained_dir, capsys,
                                           kind):
        """For every result kind, report rewrites each table the command
        wrote byte for byte and prints the command's summary.  The
        dynamics tables list their loss tags sorted, as results.json does,
        although the check ran them in another order."""
        out = str(tmp_path / "out")
        if kind == "train-target":
            command, cfg = ["train-target"], target_cfg()
        elif kind == "unlearn":
            command, cfg = ["unlearn"], unlearn_cfg()
            cfg["target"] = os.path.join(trained_dir, "target.npy")
        else:
            command, cfg = ["verify", kind], SMALL_VERIFY[kind]
        capsys.readouterr()
        assert main(command + [write_cfg(tmp_path, cfg), "--out", out]) == 0
        summary = capsys.readouterr().out
        tables = {}
        for name in os.listdir(out):
            if name.endswith(".csv") and not name.startswith("trajectory_"):
                with open(os.path.join(out, name), "rb") as fh:
                    tables[name] = fh.read()
                os.remove(os.path.join(out, name))
        assert tables
        assert main(["report", "--out", out]) == 0
        assert capsys.readouterr().out == summary
        for name, data in tables.items():
            with open(os.path.join(out, name), "rb") as fh:
                assert fh.read() == data, name

    def test_lemma_artifacts_and_report_rerender(self, tmp_path):
        out = str(tmp_path)
        path = write_cfg(tmp_path, {"mus": [0.0], "lams": [1.0], "T": 50})
        assert main(["verify", "lemma", path, "--out", out]) == 0
        table = os.path.join(out, "lemma.csv")
        original = read_bytes(table)
        os.remove(table)
        assert main(["report", "--out", out]) == 0
        assert read_bytes(table) == original

    def test_seed_flag_beats_environment(self, tmp_path, monkeypatch):
        out1 = str(tmp_path / "flag")
        out2 = str(tmp_path / "env")
        cfg = {"mus": [0.0], "lams": [1.0], "T": 20}
        p1 = write_cfg(tmp_path, cfg, "c1.json")
        monkeypatch.setenv("MTUNLEARN_SEED", "21")
        assert main(["verify", "lemma", p1, "--out", out1, "--seed", "20"]) == 0
        assert A.read_manifest(out1)["seed"] == 20
        assert main(["verify", "lemma", p1, "--out", out2]) == 0
        assert A.read_manifest(out2)["seed"] == 21

    def test_verbose_prints_rows(self, tmp_path, capsys):
        out = str(tmp_path)
        path = write_cfg(tmp_path, {"mus": [0.0], "lams": [1.0], "T": 20})
        assert main(["verify", "lemma", path, "--out", out, "-v"]) == 0
        captured = capsys.readouterr().out
        assert "PASS" in captured

    def test_verify_rerun_is_bitwise_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, {"t_values": [1e-2, 1e-3], "decay_factor": 0.2})
        out1 = str(tmp_path / "r1")
        out2 = str(tmp_path / "r2")
        assert main(["verify", "divergence-quadratic", cfg, "--out", out1]) == 0
        assert main(["verify", "divergence-quadratic", cfg, "--out", out2]) == 0
        for fname in ("results.json", "divergence_quadratic.csv"):
            a = read_bytes(out1, fname)
            b = read_bytes(out2, fname)
            assert a == b, fname


def test_heap_trim_threshold_is_set_where_the_c_library_has_mallopt(monkeypatch):
    calls = []

    class Glibc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Glibc())
    cli._keep_freed_heap()
    assert calls == [(-1, 64 << 20)]
    # Elsewhere nothing is set, and nothing fails.
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    cli._keep_freed_heap()
