"""Acceptance gate: one test per shipped guarantee, each printing a
single pass/fail line and enforcing its stated tolerance and runtime."""

import json
import os
import time

import numpy as np

from conftest import (artifact_mismatches, central_difference_gradient,
                      grad_sequence_logprob, relative_error)
from mtunlearn import curvature, harness
from mtunlearn import divergence as Dv
from mtunlearn import losses as L
from mtunlearn import model as M
from mtunlearn.cli import main as cli_main


def report(number, description, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({description}): {verdict}")
    assert ok, f"criterion {number} failed: {detail}"


def both_specs():
    return (M.ModelSpec(M.BIGRAM, 5),
            M.ModelSpec(M.MLP, 6, context_len=2, hidden_dim=4))


def random_pair_batch(rng, spec, n=8):
    return M.TokenDataset(rng.integers(0, spec.vocab_size, (n, spec.context_len)),
                          rng.integers(0, spec.vocab_size, n))


def test_criterion_1_gradient_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(301)
    worst = {"nlul": 0.0, "ll": 0.0, "it": 0.0, "npo": 0.0}
    ll, nll, it = L.LossKind("ll"), L.LossKind("nll"), L.LossKind("it")
    npo = L.LossKind("npo", beta=0.7)
    exact_ll = True
    for spec in both_specs():
        V = spec.vocab_size
        for _ in range(10):
            theta = rng.standard_normal(M.param_count(spec))
            pair = random_pair_batch(rng, spec, n=1)
            batch = random_pair_batch(rng, spec, n=6)

            # complement-likelihood gradient = (p_y / (1 - p_y)) * ll gradient
            p = M.softmax_rows(M.batch_logits(spec, theta, pair.contexts))[0]
            w = p[pair.nexts[0]] / (1.0 - p[pair.nexts[0]])
            g_nlul = L.batch_grad(L.LossKind("nlul"), spec, theta, pair)
            g_ll = L.batch_grad(ll, spec, theta, pair)
            worst["nlul"] = max(worst["nlul"],
                                float(np.max(np.abs(g_nlul - w * g_ll))))

            # likelihood ascent is the bitwise negation of the NLL descent
            gl = L.batch_grad(ll, spec, theta, batch)
            gn = L.batch_grad(nll, spec, theta, batch)
            exact_ll = exact_ll and np.array_equal(gl, -gn) and \
                L.batch_loss(ll, spec, theta, batch) == \
                -L.batch_loss(nll, spec, theta, batch)

            # uniform-teacher imitation value = log V - mean entropy
            P = M.softmax_rows(M.batch_logits(spec, theta, batch.contexts))
            entropy = float(np.mean(-np.sum(P * np.log(P), axis=1)))
            v_it = L.batch_loss(it, spec, theta, batch)
            worst["it"] = max(worst["it"], abs(v_it - (np.log(V) - entropy)))

            # sequence-preference gradient = 2 sigmoid(beta margin) grad logprob
            seq = list(rng.integers(0, V, 6))
            ds = M.dataset_from_sequences([seq], spec.context_len)
            base = rng.standard_normal(M.param_count(spec))
            lt = M.sequence_logprob(spec, theta, seq)
            lb = M.sequence_logprob(spec, base, seq)
            sig = np.exp(-np.logaddexp(0.0, -npo.beta * (lt - lb)))
            g_ref = 2.0 * sig * grad_sequence_logprob(spec, theta, seq)
            g_npo = L.batch_grad(npo, spec, theta, L.npo_pairs(spec, ds, base))
            worst["npo"] = max(worst["npo"], relative_error(g_npo, g_ref))
    elapsed = time.perf_counter() - t0
    ok = (worst["nlul"] <= 1e-10 and exact_ll and worst["it"] <= 1e-10
          and worst["npo"] <= 1e-6 and elapsed < 10.0)
    report(1, "gradient identities", ok,
           f"worst errors {worst}, ll exact {exact_ll}, {elapsed:.1f}s")


def test_criterion_2_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(302)
    worst = 0.0
    worst_pair = None
    for spec in both_specs():
        loss_kinds = [L.LossKind("nll"), L.LossKind("ll"), L.LossKind("nlul"),
                      L.LossKind("it"), L.LossKind("npo", beta=0.5)]
        for kind in loss_kinds:
            for _ in range(20):
                theta = 0.5 * rng.standard_normal(M.param_count(spec))
                if kind.tag == "npo":
                    seqs = [list(rng.integers(0, spec.vocab_size, 5))
                            for _ in range(3)]
                    batch = M.dataset_from_sequences(seqs, spec.context_len)
                else:
                    batch = random_pair_batch(rng, spec)
                base = 0.5 * rng.standard_normal(M.param_count(spec))
                if kind.tag == "npo":
                    batch = L.npo_pairs(spec, batch, base)
                g = L.batch_grad(kind, spec, theta, batch)
                fd = central_difference_gradient(
                    lambda th: L.batch_loss(kind, spec, th, batch), theta)
                err = relative_error(fd, g)
                if err > worst:
                    worst, worst_pair = err, (spec.kind, kind.tag)
        tags = ["kl", "qkl"] + (["bregman"] if spec.kind == M.BIGRAM else [])
        for tag in tags:
            kind = Dv.DivergenceKind(tag, 0.3)
            for _ in range(20):
                theta = 0.5 * rng.standard_normal(M.param_count(spec))
                ref = theta + 0.2 * rng.standard_normal(len(theta))
                batch = random_pair_batch(rng, spec)
                g = Dv.damped_grad(kind, spec, theta, ref, batch)
                fd = central_difference_gradient(
                    lambda th: Dv.damped_value(kind, spec, th, ref, batch),
                    theta)
                err = relative_error(fd, g)
                if err > worst:
                    worst, worst_pair = err, (spec.kind, tag)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    report(2, "finite-difference gradients", ok,
           f"worst relative error {worst:.3e} at {worst_pair}, {elapsed:.1f}s")


def test_criterion_3_curvature_assembly():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    max_asym, min_eig = 0.0, np.inf
    for spec in both_specs():
        for _ in range(5):
            theta = rng.standard_normal(M.param_count(spec))
            H = curvature.assemble_gnh(spec, theta, random_pair_batch(rng, spec))
            max_asym = max(max_asym, float(np.max(np.abs(H - H.T))))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(H)[0]))

    spec = M.ModelSpec(M.BIGRAM, 4)
    theta = 0.8 * rng.standard_normal(16)
    batch = random_pair_batch(rng, spec, n=10)
    H = curvature.assemble_gnh(spec, theta, batch)
    n_samples = 100_000
    table = theta.reshape(4, 4)
    rows, counts = np.unique(batch.contexts[:, -1], return_counts=True)
    alloc = np.floor(n_samples * counts / len(batch)).astype(int)
    alloc[0] += n_samples - int(alloc.sum())
    H_mc = np.zeros((16, 16))
    for r, n_r in zip(rows, alloc):
        p = M.softmax_rows(table[r][None, :])[0]
        ys = rng.choice(4, size=n_r, p=p)
        f = np.bincount(ys, minlength=4) / n_r
        S_mc = np.diag(f) - np.outer(f, p) - np.outer(p, f) + np.outer(p, p)
        H_mc[4 * r:4 * r + 4, 4 * r:4 * r + 4] = (n_r / n_samples) * S_mc
    mc_err = float(np.max(np.abs(H - H_mc)))
    elapsed = time.perf_counter() - t0
    ok = (max_asym <= 1e-12 and min_eig >= -1e-10 and mc_err <= 1e-2
          and elapsed < 120.0)
    report(3, "curvature symmetry, positivity, Fisher sampling", ok,
           f"asym {max_asym:.2e}, min eig {min_eig:.2e}, "
           f"mc err {mc_err:.2e}, {elapsed:.1f}s")


def test_criterion_4_quadratic_order():
    t0 = time.perf_counter()
    result = harness.verify_divergence_quadratic(t_values=(1e-2, 1e-3, 1e-4),
                                                 decay_factor=0.1)
    drops_ok = True
    detail = []
    for model in ("bigram-softmax", "mlp-1hidden"):
        for kind in ("kl", "qkl"):
            ratios = {r["t"]: r["ratio"] for r in result["rows"]
                      if r["model"] == model and r["kind"] == kind}
            drop = ratios[1e-4] <= 0.1 * ratios[1e-2]
            drops_ok = drops_ok and drop
            detail.append(f"{model}/{kind}: {ratios[1e-2]:.2e}->{ratios[1e-4]:.2e}")
    elapsed = time.perf_counter() - t0
    ok = drops_ok and result["passed"] and elapsed < 60.0
    report(4, "proximity terms locally quadratic", ok,
           "; ".join(detail) + f", {elapsed:.1f}s")


def test_criterion_5_momentum_iteration_bound():
    t0 = time.perf_counter()
    result = harness.verify_lemma()
    elapsed = time.perf_counter() - t0
    grid_full = len(result["rows"]) == 18 and result["n_skipped"] == 0
    ok = result["passed"] and grid_full and elapsed < 60.0
    report(5, "momentum iteration error bound on the full grid", ok,
           f"passed {result['passed']}, rows {len(result['rows'])}, "
           f"skipped {result['n_skipped']}, {elapsed:.1f}s")


def test_criterion_6_trajectory_approximation():
    t0 = time.perf_counter()
    setup = harness.default_theorem_setup()
    result = harness.verify_theorem1(setup,
                                     alphas=(0.1, 0.05, 0.025, 0.0125),
                                     t_gamma=0.3, slope_min=0.8)
    horizon_fixed = all(abs(r["T"] * r["gamma"] - 0.3) <= r["gamma"]
                        for r in result["rows"])
    elapsed = time.perf_counter() - t0
    ok = result["passed"] and horizon_fixed and elapsed < 600.0
    slopes = {lag: result["summary"][lag]["slope"]
              for lag in ("lag_false", "lag_true")}
    report(6, "mean-teacher tracks the damped reference", ok,
           f"passed {result['passed']}, slopes {slopes}, "
           f"fixed horizon {horizon_fixed}, {elapsed:.1f}s")


def test_criterion_7_unlearning_loss_dynamics():
    t0 = time.perf_counter()
    result = harness.gradient_dynamics_study(harness.default_dynamics_setup())
    ratio = result["ratios"]["nlul_over_ll"]
    d_nlul = result["delta_nll"]["nlul"]
    d_ll = result["delta_nll"]["ll"]
    elapsed = time.perf_counter() - t0
    ok = (ratio >= 10.0 and d_nlul >= 1.0 and d_ll <= 0.1
          and result["passed"] and elapsed < 300.0)
    report(7, "complement loss escapes saturation, plain loss stalls", ok,
           f"grad ratio {ratio:.1f}, delta nll nlul {d_nlul:+.3f}, "
           f"ll {d_ll:+.3f}, {elapsed:.1f}s")


def test_criterion_8_end_to_end_unlearning():
    t0 = time.perf_counter()
    setup = harness.default_unlearn_setup()
    result = harness.unlearn_experiment(setup.spec, setup.theta0, setup.d_f,
                                        setup.d_pt, setup.methods,
                                        prompt_len=setup.prompt_len,
                                        completion_len=setup.completion_len)
    rows = {r["name"]: r for r in result["rows"]}
    single, seq, noop = (rows["mt-nlul"], rows["mt-nlul-sequential"],
                         rows["no-op"])
    memorized = result["before"]["exact_match_rate"] >= 0.9
    forgotten = single["exact_match_after"] <= 0.2
    gentle = single["drift"] <= 0.1
    noop_inert = (np.array_equal(result["thetas"]["no-op"], setup.theta0)
                  and all(noop[f"{k}_after"] == noop[f"{k}_before"]
                          for k in ("exact_match", "lcs", "nll_forget",
                                    "nll_pretrain")))
    sequential_ok = seq["drift"] <= 2.0 * single["drift"]
    elapsed = time.perf_counter() - t0
    ok = (memorized and forgotten and gentle and noop_inert and sequential_ok
          and elapsed < 600.0)
    report(8, "end-to-end unlearning on the one-hidden-layer testbed", ok,
           f"em {result['before']['exact_match_rate']:.2f}->"
           f"{single['exact_match_after']:.2f}, drift {single['drift']:+.4f}, "
           f"sequential {seq['drift']:+.4f}, noop inert {noop_inert}, "
           f"{elapsed:.1f}s")


def test_criterion_9_reproducible_artifacts(tmp_path):
    t0 = time.perf_counter()

    def write_cfg(obj, name):
        path = os.path.join(str(tmp_path), name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    train_cfg = write_cfg(
        {"model": {"kind": "bigram-softmax", "vocab_size": 8},
         "corpus": {"vocab_size": 8, "n_sequences": 4, "seq_len": 12,
                    "period": 2, "seed": 11},
         "train": {"epochs": 400, "seed": 11}}, "train.json")
    target0 = str(tmp_path / "train0")
    assert cli_main(["train-target", train_cfg, "--out", target0]) == 0
    unlearn_cfg = write_cfg(
        {"model": {"kind": "bigram-softmax", "vocab_size": 8},
         "target": os.path.join(target0, "target.npy"),
         "corpus": {"vocab_size": 8, "n_sequences": 4, "seq_len": 12,
                    "period": 2, "seed": 11},
         "methods": [
             {"name": "mt", "loss": {"loss": "nlul"},
              "divergence": {"divergence": "kl", "lambda": 0.1},
              "mt": {"eta": 0.05, "kappa": 0.5, "alpha": 0.5, "mu": 0.9,
                     "T": 80, "clip": 1.0, "batch_forget": 8,
                     "batch_pretrain": 8, "seed": 42}},
             # The first method's seed and batch sizes: the two run in
             # one lockstep group.
             {"name": "mt-qkl", "loss": {"loss": "nlul"},
              "divergence": {"divergence": "qkl", "lambda": 0.1},
              "mt": {"eta": 0.03, "kappa": 0.5, "alpha": 0.5, "mu": 0.9,
                     "T": 60, "clip": 1.0, "batch_forget": 8,
                     "batch_pretrain": 8, "seed": 42}},
             {"name": "skip", "optimizer": "noop"}]}, "unlearn.json")
    lemma_cfg = write_cfg({"mus": [0.0, 0.5], "lams": [1.0], "T": 100},
                          "lemma.json")

    commands = [
        ("train-target", [train_cfg]),
        ("unlearn", [unlearn_cfg]),
        ("verify", ["lemma", lemma_cfg]),
        ("verify", ["divergence-quadratic"]),
    ]
    mismatches = []
    for i, (cmd, extra) in enumerate(commands):
        d1 = str(tmp_path / f"run{i}a")
        d2 = str(tmp_path / f"run{i}b")
        assert cli_main([cmd] + extra + ["--out", d1]) == 0
        assert cli_main([cmd] + extra + ["--out", d2]) == 0
        mismatches += [f"{cmd}: {m}" for m in artifact_mismatches(d1, d2)]
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    report(9, "rerun artifacts bitwise identical", ok,
           f"{mismatches}, {elapsed:.1f}s")
