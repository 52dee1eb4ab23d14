"""End-to-end command-line flows, exit codes, and artifact reproducibility."""

import json
import os

import numpy as np
import pytest

from mtunlearn import artifacts as A
from mtunlearn.cli import main


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("MTUNLEARN_SEED", raising=False)


def write_cfg(directory, obj, name="cfg.json"):
    path = os.path.join(str(directory), name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


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

    def test_bad_seed_environment_value(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MTUNLEARN_SEED", "lots")
        path = write_cfg(tmp_path, {"mus": [0.0], "lams": [1.0], "T": 10})
        assert main(["verify", "lemma", path, "--out", str(tmp_path)]) == 2

    def test_duplicate_method_names(self, tmp_path, trained_dir):
        cfg = unlearn_cfg([mt_method("same"), mt_method("same", seed=43)])
        cfg["target"] = os.path.join(trained_dir, "target.npy")
        path = write_cfg(tmp_path, cfg)
        assert main(["unlearn", path, "--out", str(tmp_path)]) == 2

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
        cfg = unlearn_cfg([{"name": "skip", "optimizer": "noop"},
                           dict(mt_method("split", T=5), rounds=3)])
        cfg["target"] = os.path.join(trained_dir, "target.npy")
        path = write_cfg(tmp_path, cfg)
        assert main(["unlearn", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "'rounds'" in err and "methods[1]" in err
        assert "Traceback" not in err


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

    def test_report_on_empty_directory_exits_4(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 4

    def test_missing_data_file_exits_4(self, tmp_path):
        cfg = target_cfg()
        del cfg["corpus"]
        cfg["data"] = {"forget": "f.jsonl", "pretrain": "p.jsonl"}
        path = write_cfg(tmp_path, cfg)
        assert main(["train-target", path, "--out", str(tmp_path)]) == 4

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
            a = open(os.path.join(trained_dir, fname), "rb").read()
            b = open(os.path.join(out2, fname), "rb").read()
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


class TestVerifyAndReport:
    def test_lemma_artifacts_and_report_rerender(self, tmp_path):
        out = str(tmp_path)
        path = write_cfg(tmp_path, {"mus": [0.0], "lams": [1.0], "T": 50})
        assert main(["verify", "lemma", path, "--out", out]) == 0
        table = os.path.join(out, "lemma.csv")
        original = open(table, "rb").read()
        os.remove(table)
        assert main(["report", "--out", out]) == 0
        assert open(table, "rb").read() == original

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
            a = open(os.path.join(out1, fname), "rb").read()
            b = open(os.path.join(out2, fname), "rb").read()
            assert a == b, fname
