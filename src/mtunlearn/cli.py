"""Command-line interface.

Subcommands:

  train-target CONFIG   memorize a synthetic corpus into a target model
  unlearn CONFIG        run unlearning methods against a trained target
  verify WHICH [CONFIG] run a verification suite (theorem1, lemma,
                        dynamics, divergence-quadratic)
  report                re-render the CSV tables of an output directory
                        from its results.json

Every command takes --out DIR; all artifacts are written there and every
non-absolute path in a config resolves against it.  --seed (or the
MTUNLEARN_SEED environment variable; the flag wins) overrides the
command's primary seed.  Outputs are bitwise reproducible given the same
resolved config and seed; only the manifest's duration field may differ
between reruns.

Exit codes: 0 success (verification passed), 1 a verification suite ran
to completion and failed, 2 configuration error, 3 training failure,
4 missing artifact, 5 precondition guard tripped.
"""

import argparse
import json
import os
import re
import sys
import time

import numpy as np

from . import artifacts
from . import divergence as Dmod
from . import harness
from . import losses as Lmod
from . import model as M
from . import optimizer as O
from .errors import ConfigError, MissingArtifactError, MTUError, PreconditionError

_REQUIRED = object()

_NUM = (int, float)


def _typename(types):
    if types == _NUM:
        return "a number"
    name = types.__name__ if not isinstance(types, tuple) else types[0].__name__
    return {"str": "a string", "int": "an integer", "list": "a list",
            "dict": "an object", "bool": "a boolean"}.get(name, name)


def _take(d, key, section, types, default=_REQUIRED):
    """Pop and type-check one config field; missing required fields and
    type mismatches raise ConfigError naming the field and section."""
    if key in d:
        v = d.pop(key)
    elif default is _REQUIRED:
        raise ConfigError(f"missing field '{key}' in section '{section}'")
    else:
        return default
    if types is not None:
        if isinstance(v, bool) and types is not bool:
            raise ConfigError(f"field '{key}' in section '{section}' must be "
                              f"{_typename(types)}, got a boolean")
        if not isinstance(v, types):
            raise ConfigError(f"field '{key}' in section '{section}' must be "
                              f"{_typename(types)}, got {type(v).__name__}")
    return v


def _done(d, section):
    if d:
        names = ", ".join(repr(k) for k in sorted(d))
        raise ConfigError(f"unknown field(s) {names} in section '{section}'")


def _section(cfg, name, required=False):
    if name not in cfg:
        if required:
            raise ConfigError(f"missing section '{name}'")
        return None
    v = cfg.pop(name)
    if not isinstance(v, dict):
        raise ConfigError(f"section '{name}' must be an object")
    return dict(v)


def _cfgval(build, what):
    """Run a constructor whose ValueError means invalid configuration."""
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _resolve(path, out_dir):
    return path if os.path.isabs(path) else os.path.join(out_dir, path)


def _load_config(path_arg, out_dir):
    path = _resolve(path_arg, out_dir)
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config root in {path} must be an object")
    return cfg, path


def _resolve_seed(args):
    """--seed, else MTUNLEARN_SEED, else None (config seeds apply)."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MTUNLEARN_SEED")
    if env is None or env == "":
        return None
    try:
        return int(env)
    except ValueError as exc:
        raise ConfigError(f"MTUNLEARN_SEED must be an integer, got {env!r}") \
            from exc


# ---------------------------------------------------------------------------
# Config section parsers
# ---------------------------------------------------------------------------

def _parse_model(cfg):
    d = _section(cfg, "model", required=True)
    kind = _take(d, "kind", "model", str)
    vocab = _take(d, "vocab_size", "model", int)
    ctx = _take(d, "context_len", "model", int, default=1)
    hid = _take(d, "hidden_dim", "model", int, default=0)
    _done(d, "model")
    return _cfgval(lambda: M.ModelSpec(kind, vocab, ctx, hid), "model")


def _parse_corpus(d):
    vocab = _take(d, "vocab_size", "corpus", int)
    n = _take(d, "n_sequences", "corpus", int)
    slen = _take(d, "seq_len", "corpus", int)
    frac = _take(d, "forget_fraction", "corpus", _NUM, default=0.5)
    gen = _take(d, "generator", "corpus", str, default="patterned")
    period = _take(d, "period", "corpus", int, default=2)
    seed = _take(d, "seed", "corpus", int, default=0)
    _done(d, "corpus")
    return _cfgval(lambda: harness.CorpusSpec(
        vocab_size=vocab, n_sequences=n, seq_len=slen, forget_fraction=frac,
        generator=gen, period=period, seed=seed), "corpus")


def _parse_data(spec, cfg, out_dir):
    """The corpus/data choice: generated corpus or JSONL files.

    Returns (d_f, d_pt, corpus_or_none, input_paths).
    """
    corpus_d = _section(cfg, "corpus")
    data_d = _section(cfg, "data")
    if (corpus_d is None) == (data_d is None):
        raise ConfigError("config needs exactly one of section 'corpus' "
                          "(generated) or 'data' (JSONL files)")
    if corpus_d is not None:
        corpus = _parse_corpus(corpus_d)
        d_f, d_pt = harness.corpus_datasets(spec, corpus)
        return d_f, d_pt, corpus, []
    fpath = _resolve(_take(data_d, "forget", "data", str), out_dir)
    ppath = _resolve(_take(data_d, "pretrain", "data", str), out_dir)
    _done(data_d, "data")
    for p in (fpath, ppath):
        if not os.path.exists(p):
            raise MissingArtifactError(f"data file not found: {p}")
    d_f = _cfgval(lambda: M.load_jsonl_dataset(fpath, spec.context_len, "forget"),
                  "forget data")
    d_pt = _cfgval(lambda: M.load_jsonl_dataset(ppath, spec.context_len, "pretrain"),
                   "pretrain data")
    for name, ds in (("forget", d_f), ("pretrain", d_pt)):
        _cfgval(lambda ds=ds: M.validate_dataset(spec, ds), f"{name} data")
    return d_f, d_pt, None, [fpath, ppath]


def _parse_report_lens(cfg):
    d = _section(cfg, "report")
    if d is None:
        return None, None
    plen = _take(d, "prompt_len", "report", int, default=None)
    clen = _take(d, "completion_len", "report", int, default=None)
    _done(d, "report")
    return plen, clen


def _parse_loss(d, spec, out_dir):
    tag = _take(d, "loss", "loss", str)
    beta = _take(d, "beta", "loss", _NUM, default=1.0)
    teacher = _take(d, "teacher", "loss", str, default="uniform")
    clamp = _take(d, "clamp_eps", "loss", _NUM, default=1e-12)
    _done(d, "loss")
    if teacher == "uniform":
        tl = Lmod.TeacherLogits()
    else:
        tpath = _resolve(teacher, out_dir)
        if not os.path.exists(tpath):
            raise MissingArtifactError(f"teacher parameter file not found: {tpath}")
        tl = Lmod.TeacherLogits(spec, artifacts.load_params(tpath))
    return _cfgval(lambda: Lmod.LossKind(tag, beta=float(beta), teacher=tl,
                                         clamp_eps=float(clamp)), "loss")


def _parse_divergence(d):
    tag = _take(d, "divergence", "divergence", str)
    lam = _take(d, "lambda", "divergence", _NUM)
    _done(d, "divergence")
    return _cfgval(lambda: Dmod.DivergenceKind(tag, float(lam)), "divergence"), \
        float(lam)


def _parse_adam(d, sec):
    lr = _take(d, "lr", "adam", _NUM, default=0.0)
    betas = _take(d, "betas", "adam", list, default=[0.9, 0.95])
    eps = _take(d, "eps", "adam", _NUM, default=1e-8)
    wd = _take(d, "weight_decay", "adam", _NUM, default=0.0)
    warmup = _take(d, "warmup", "adam", bool, default=True)
    _done(d, "adam")
    if len(betas) != 2 or not all(isinstance(b, _NUM) for b in betas):
        raise ConfigError("field 'betas' in section 'adam' must be a list "
                          "of two numbers")
    return _cfgval(lambda: O.AdamParams(
        lr=float(lr), betas=(float(betas[0]), float(betas[1])), eps=float(eps),
        weight_decay=float(wd), warmup=bool(warmup)), f"adam settings of {sec}")


def _parse_method(mj, i, spec, out_dir, seed_override):
    if not isinstance(mj, dict):
        raise ConfigError(f"entry {i} in section 'methods' must be an object")
    d = dict(mj)
    sec = f"methods[{i}]"
    name = _take(d, "name", sec, str, default=f"method{i}")
    optim = _take(d, "optimizer", sec, str, default="mt-batched")
    rounds = _take(d, "rounds", sec, int, default=1)
    if optim == "noop":
        _done(d, sec)
        return _cfgval(lambda: harness.MethodSpec(name, "noop"), sec)
    loss_d = d.pop("loss", None)
    div_d = d.pop("divergence", None)
    mt_d = d.pop("mt", None)
    adam_d = d.pop("adam", None)
    _done(d, sec)
    for part, val in (("loss", loss_d), ("divergence", div_d), ("mt", mt_d)):
        if not isinstance(val, dict):
            raise ConfigError(f"section '{sec}' needs an object field '{part}'")
    loss = _parse_loss(dict(loss_d), spec, out_dir)
    div, lam = _parse_divergence(dict(div_d))
    md = dict(mt_d)
    kw = {
        "eta": float(_take(md, "eta", "mt", _NUM)),
        "kappa": float(_take(md, "kappa", "mt", _NUM)),
        "alpha": float(_take(md, "alpha", "mt", _NUM)),
        "mu": float(_take(md, "mu", "mt", _NUM)),
        "T": _take(md, "T", "mt", int),
        "clip": float(_take(md, "clip", "mt", _NUM, default=0.0)),
        "batch_forget": _take(md, "batch_forget", "mt", int, default=1),
        "batch_pretrain": _take(md, "batch_pretrain", "mt", int, default=1),
        "seed": _take(md, "seed", "mt", int, default=0),
        "clip_formula": _take(md, "clip_formula", "mt", str, default="main"),
    }
    _done(md, "mt")
    if seed_override is not None:
        kw["seed"] = seed_override
    cfg = _cfgval(lambda: O.MTConfig(lam=lam, loss=loss, divergence=div, **kw),
                  f"mt settings of '{name}'")
    adam = _parse_adam(dict(adam_d), sec) if adam_d is not None else None
    return _cfgval(lambda: harness.MethodSpec(name, optim, cfg, rounds=rounds,
                                              adam=adam), sec)


def _parse_stop_rule(cfg):
    d = _section(cfg, "stop_rule")
    if d is None:
        return None
    metric = _take(d, "metric", "stop_rule", str, default="nll_forget")
    thr = _take(d, "threshold", "stop_rule", _NUM)
    comp = _take(d, "comparison", "stop_rule", str, default="geq")
    every = _take(d, "check_every", "stop_rule", int, default=10)
    _done(d, "stop_rule")
    return _cfgval(lambda: harness.StopRule(metric=metric, threshold=float(thr),
                                            comparison=comp, check_every=every),
                   "stop_rule")


def _safe_name(name):
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def _write_corpus_jsonl(out_dir, d_f, d_pt):
    for fname, ds in (("forget.jsonl", d_f), ("pretrain.jsonl", d_pt)):
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            for s in ds.sequences:
                fh.write(json.dumps({"tokens": [int(t) for t in s]}) + "\n")


# ---------------------------------------------------------------------------
# Summary printing
# ---------------------------------------------------------------------------

def _pf(flag):
    if flag is None:
        return "NOT EVALUATED"
    return "PASS" if flag else "FAIL"


def print_result_summary(result, verbose=False):
    check = result.get("check")
    if check == "theorem1":
        if verbose:
            for r in result["rows"]:
                print(f"  grad_lag={r['grad_lag']} alpha={r['alpha']:.4f} "
                      f"T={r['T']} deviation={r['deviation']:.6e}")
        for key, label in (("lag_false", "grad at current iterate"),
                           ("lag_true", "grad at previous iterate")):
            s = result["summary"][key]
            print(f"theorem1 [{label}]: slope={s['slope']:.3f} "
                  f"monotone={s['monotone']}")
        print(f"theorem1: {_pf(result['passed'])}")
    elif check == "lemma":
        rows = result["rows"]
        ok = sum(1 for r in rows if r["status"] == "ok" and r["holds"])
        ran = sum(1 for r in rows if r["status"] == "ok")
        if verbose:
            for r in rows:
                print(f"  mu={r['mu']} lam={r['lam']} mode={r['mode']}: "
                      f"max_ratio={r['max_ratio']:.6f} status={r['status']}")
        print(f"lemma: bound holds in {ok}/{ran} cells "
              f"({result['n_skipped']} skipped)")
        print(f"lemma: {_pf(result['passed'])}")
    elif check == "divergence-quadratic":
        if verbose:
            for r in result["rows"]:
                print(f"  {r['model']} {r['kind']} t={r['t']:.0e}: "
                      f"residual/t^2={r['ratio']:.6e}")
        print(f"divergence-quadratic: {_pf(result['passed'])}")
    elif check == "dynamics":
        for key, val in sorted(result["ratios"].items()):
            print(f"dynamics: grad norm ratio {key} = {val:.2f}")
        for tag, val in sorted(result["delta_nll"].items()):
            print(f"dynamics: delta forget NLL [{tag}] = {val:+.4f}")
        print(f"dynamics: {_pf(result['passed'])}")
    elif check == "unlearn":
        for r in result["rows"]:
            print(f"{r['name']}: exact match "
                  f"{r['exact_match_before']:.2f} -> {r['exact_match_after']:.2f}, "
                  f"drift {r['drift']:+.4f}, steps {r['steps']}, {r['status']}")
    elif check == "train-target":
        rep = result["report"]
        print(f"target: exact match {rep['exact_match_rate']:.3f}, "
              f"forget NLL {rep['nll_forget']:.6f}, "
              f"pretrain NLL {rep['nll_pretrain']:.6f}")
    else:
        raise ValueError(f"cannot summarize result of kind {check!r}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_train_target(args):
    t0 = time.perf_counter()
    out = args.out
    os.makedirs(out, exist_ok=True)
    raw, cfg_path = _load_config(args.config, out)
    cfg = dict(raw)
    spec = _parse_model(cfg)
    d_f, d_pt, corpus, inputs = _parse_data(spec, cfg, out)
    td = _section(cfg, "train", required=True)
    epochs = _take(td, "epochs", "train", int)
    lr = float(_take(td, "lr", "train", _NUM, default=0.5))
    momentum = float(_take(td, "momentum", "train", _NUM, default=0.9))
    seed = _take(td, "seed", "train", int, default=0)
    require = float(_take(td, "require_exact_match", "train", _NUM, default=0.9))
    _done(td, "train")
    plen, clen = _parse_report_lens(cfg)
    _done(cfg, "config")
    if epochs < 1:
        raise ConfigError("field 'epochs' in section 'train' must be >= 1")
    if not 0 <= require <= 1:
        raise ConfigError("field 'require_exact_match' in section 'train' "
                          "must lie in [0, 1]")
    # The memorization gate decodes every sequence, the report the forget ones.
    decoded = d_f.sequences + d_pt.sequences if require > 0 else d_f.sequences
    _cfgval(lambda: harness.report_lengths(decoded, plen, clen), "section 'report'")
    override = _resolve_seed(args)
    if override is not None:
        seed = override

    theta = harness.build_target(spec, (d_f, d_pt), epochs=epochs, seed=seed,
                                 lr=lr, momentum=momentum,
                                 require_exact_match=require,
                                 prompt_len=plen, completion_len=clen)
    rep = harness.memorization_report(spec, theta, (d_f, d_pt), plen, clen)
    artifacts.save_params(os.path.join(out, "target.npy"), theta)
    if corpus is not None:
        _write_corpus_jsonl(out, d_f, d_pt)
    result = {"check": "train-target", "report": rep.as_dict(),
              "n_forget_sequences": len(d_f.sequences),
              "n_pretrain_sequences": len(d_pt.sequences),
              "n_forget_pairs": len(d_f), "n_pretrain_pairs": len(d_pt)}
    artifacts.write_results_json(out, result)
    harness.render_result_tables(result, out)
    artifacts.write_manifest(out, "train-target", raw, seed,
                             time.perf_counter() - t0,
                             input_paths=[cfg_path] + inputs)
    print_result_summary(result, args.verbose)
    if args.verbose:
        print(f"artifacts written to {out}")
    return 0


def cmd_unlearn(args):
    t0 = time.perf_counter()
    out = args.out
    os.makedirs(out, exist_ok=True)
    raw, cfg_path = _load_config(args.config, out)
    cfg = dict(raw)
    spec = _parse_model(cfg)
    target_rel = _take(cfg, "target", "config", str)
    d_f, d_pt, _, inputs = _parse_data(spec, cfg, out)
    methods_j = _take(cfg, "methods", "config", list)
    stop_rule = _parse_stop_rule(cfg)
    plen, clen = _parse_report_lens(cfg)
    _done(cfg, "config")
    if not methods_j:
        raise ConfigError("section 'methods' must list at least one method")
    seed_override = _resolve_seed(args)
    methods = [_parse_method(mj, i, spec, out, seed_override)
               for i, mj in enumerate(methods_j)]
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ConfigError("method names must be unique")
    n_forget = len(d_f.sequences)
    for i, m in enumerate(methods):
        if m.rounds > n_forget:
            raise ConfigError(f"field 'rounds' in section 'methods[{i}]' is "
                              f"{m.rounds}, above the {n_forget} forget "
                              f"sequences (each round needs at least one)")
    _cfgval(lambda: harness.report_lengths(d_f.sequences, plen, clen),
            "section 'report'")

    target_path = _resolve(target_rel, out)
    theta_target = artifacts.load_params(target_path)
    if theta_target.shape != (M.param_count(spec),):
        raise ConfigError(
            f"target parameter count {theta_target.shape} does not match "
            f"the model ({M.param_count(spec)} parameters)")
    if not np.all(np.isfinite(theta_target)):
        raise PreconditionError(f"target parameters in {target_path} are "
                                f"not all finite")

    res = harness.unlearn_experiment(spec, theta_target, d_f, d_pt, methods,
                                     prompt_len=plen, completion_len=clen,
                                     stop_rule=stop_rule)
    for name, theta in res["thetas"].items():
        artifacts.save_params(
            os.path.join(out, f"unlearned_{_safe_name(name)}.npy"), theta)
    for name, trajs in res["trajectories"].items():
        base = f"trajectory_{_safe_name(name)}"
        for k, traj in enumerate(trajs):
            suffix = f"_round{k + 1}" if len(trajs) > 1 else ""
            artifacts.write_trajectory_csv(
                os.path.join(out, f"{base}{suffix}.csv"), traj)
    result = {k: v for k, v in res.items()
              if k not in ("thetas", "trajectories")}
    artifacts.write_results_json(out, result)
    harness.render_result_tables(result, out)
    seed_note = seed_override if seed_override is not None else -1
    artifacts.write_manifest(out, "unlearn", raw, seed_note,
                             time.perf_counter() - t0,
                             input_paths=[cfg_path, target_path] + inputs)
    print_result_summary(result, args.verbose)
    return 0


def _verify_theorem1(args, cfg, seed_override):
    d = cfg or {}
    eta = float(_take(d, "eta", "theorem1", _NUM, default=5e-4))
    kappa = float(_take(d, "kappa", "theorem1", _NUM, default=10.0))
    lam = float(_take(d, "lambda", "theorem1", _NUM, default=0.5))
    mu = float(_take(d, "mu", "theorem1", _NUM, default=0.9))
    alphas = _take(d, "alphas", "theorem1", list,
                   default=[0.1, 0.05, 0.025, 0.0125])
    t_gamma = float(_take(d, "t_gamma", "theorem1", _NUM, default=0.3))
    slope_min = float(_take(d, "slope_min", "theorem1", _NUM, default=0.8))
    seed = _take(d, "seed", "theorem1", int, default=11)
    _done(d, "theorem1")
    if seed_override is not None:
        seed = seed_override
    if (len(alphas) < 2 or any(not isinstance(a, _NUM) for a in alphas)
            or any(not (0 < a <= 1) for a in alphas)
            or sorted(alphas, reverse=True) != list(alphas)):
        raise ConfigError("field 'alphas' in section 'theorem1' must be a "
                          "decreasing list of at least two numbers in (0, 1]")
    if not t_gamma > 0:
        raise ConfigError("field 't_gamma' in section 'theorem1' must be "
                          "positive")
    base_cfg = _cfgval(lambda: O.MTConfig(
        eta=eta, kappa=kappa, alpha=float(alphas[0]), lam=lam, mu=mu, T=1,
        loss=Lmod.LossKind("it"), divergence=Dmod.DivergenceKind("kl")),
        "theorem1 settings")
    setup = harness.default_theorem_setup(seed=seed)
    setup.base_cfg = base_cfg
    resolved = {"eta": eta, "kappa": kappa, "lambda": lam, "mu": mu,
                "alphas": [float(a) for a in alphas], "t_gamma": t_gamma,
                "slope_min": slope_min, "seed": seed}
    result = harness.verify_theorem1(setup, alphas=[float(a) for a in alphas],
                                     t_gamma=t_gamma, slope_min=slope_min)
    return result, resolved, seed


def _verify_lemma(args, cfg, seed_override):
    d = cfg or {}
    dim = _take(d, "dim", "lemma", int, default=8)
    lo = float(_take(d, "eig_low", "lemma", _NUM, default=0.5))
    hi = float(_take(d, "eig_high", "lemma", _NUM, default=5.0))
    seed = _take(d, "seed", "lemma", int, default=harness.LEMMA_FAMILY_SEED)
    noise = float(_take(d, "noise_scale", "lemma", _NUM, default=0.01))
    mus = _take(d, "mus", "lemma", list, default=[0.0, 0.5, 0.9])
    lams = _take(d, "lams", "lemma", list, default=[0.1, 1.0, 10.0])
    modes = _take(d, "modes", "lemma", list, default=["zero", "const"])
    T = _take(d, "T", "lemma", int, default=400)
    step_scale = float(_take(d, "step_scale", "lemma", _NUM, default=0.5))
    _done(d, "lemma")
    if seed_override is not None:
        seed = seed_override
    family = _cfgval(lambda: harness.LemmaFamily(
        dim=dim, eig_low=lo, eig_high=hi, seed=seed, noise_scale=noise),
        "lemma family")
    for fname, vals, typ in (("mus", mus, _NUM), ("lams", lams, _NUM),
                             ("modes", modes, str)):
        if not vals or any(not isinstance(v, typ) for v in vals):
            raise ConfigError(f"field '{fname}' in section 'lemma' must be a "
                              f"non-empty list of {_typename(typ)} entries")
    if any(m not in ("zero", "const") for m in modes):
        raise ConfigError("field 'modes' in section 'lemma' may only contain "
                          "'zero' and 'const'")
    resolved = {"dim": dim, "eig_low": lo, "eig_high": hi, "seed": seed,
                "noise_scale": noise, "mus": mus, "lams": lams,
                "modes": modes, "T": T, "step_scale": step_scale}
    result = harness.verify_lemma(family, mus=mus, lams=lams, modes=modes,
                                  T=T, step_scale=step_scale)
    return result, resolved, seed


def _verify_dynamics(args, cfg, seed_override):
    d = cfg or {}
    seed = _take(d, "seed", "dynamics", int, default=5)
    epochs = _take(d, "target_epochs", "dynamics", int, default=3000)
    beta = float(_take(d, "beta", "dynamics", _NUM, default=0.1))
    sat = float(_take(d, "saturation_min", "dynamics", _NUM, default=0.9))
    ratio_min = float(_take(d, "ratio_min", "dynamics", _NUM, default=10.0))
    raise_min = float(_take(d, "raise_min", "dynamics", _NUM, default=1.0))
    hold_max = float(_take(d, "hold_max", "dynamics", _NUM, default=0.1))
    tags = _take(d, "loss_tags", "dynamics", list,
                 default=["ll", "npo", "nlul", "it"])
    _done(d, "dynamics")
    if seed_override is not None:
        seed = seed_override
    if not tags or any(t not in Lmod.LOSS_TAGS for t in tags):
        raise ConfigError(f"field 'loss_tags' in section 'dynamics' must be a "
                          f"non-empty list drawn from {Lmod.LOSS_TAGS}")
    if epochs < 1:
        raise ConfigError("field 'target_epochs' in section 'dynamics' must "
                          "be >= 1")
    resolved = {"seed": seed, "target_epochs": epochs, "beta": beta,
                "saturation_min": sat, "ratio_min": ratio_min,
                "raise_min": raise_min, "hold_max": hold_max,
                "loss_tags": tags}
    setup = harness.default_dynamics_setup(seed=seed, target_epochs=epochs)
    result = harness.gradient_dynamics_study(
        setup, loss_tags=tuple(tags), beta=beta, saturation_min=sat,
        ratio_min=ratio_min, raise_min=raise_min, hold_max=hold_max)
    return result, resolved, seed


def _verify_divq(args, cfg, seed_override):
    d = cfg or {}
    ts = _take(d, "t_values", "divergence-quadratic", list,
               default=[1e-2, 1e-3, 1e-4])
    decay = float(_take(d, "decay_factor", "divergence-quadratic", _NUM,
                        default=0.1))
    _done(d, "divergence-quadratic")
    if (len(ts) < 2 or any(not isinstance(t, _NUM) for t in ts)
            or any(not t > 0 for t in ts)):
        raise ConfigError("field 't_values' in section 'divergence-quadratic' "
                          "must be a list of at least two positive numbers")
    resolved = {"t_values": [float(t) for t in ts], "decay_factor": decay}
    result = harness.verify_divergence_quadratic(
        t_values=[float(t) for t in ts], decay_factor=decay)
    return result, resolved, seed_override if seed_override is not None else -1


_VERIFY_DISPATCH = {
    "theorem1": _verify_theorem1,
    "lemma": _verify_lemma,
    "dynamics": _verify_dynamics,
    "divergence-quadratic": _verify_divq,
}


def cmd_verify(args):
    t0 = time.perf_counter()
    out = args.out
    os.makedirs(out, exist_ok=True)
    inputs = []
    cfg = None
    if args.config is not None:
        cfg, cfg_path = _load_config(args.config, out)
        inputs.append(cfg_path)
    seed_override = _resolve_seed(args)
    result, resolved, seed = _VERIFY_DISPATCH[args.which](args, cfg,
                                                          seed_override)
    artifacts.write_results_json(out, result)
    harness.render_result_tables(result, out)
    artifacts.write_manifest(out, f"verify {args.which}", resolved,
                             seed if isinstance(seed, int) else -1,
                             time.perf_counter() - t0, input_paths=inputs)
    print_result_summary(result, args.verbose)
    passed = result.get("passed")
    if passed is False:
        print("verification failed", file=sys.stderr)
        return 1
    return 0


def cmd_report(args):
    result = artifacts.read_results_json(args.out)
    harness.render_result_tables(result, args.out)
    print_result_summary(result, args.verbose)
    if args.verbose:
        print(f"tables re-rendered in {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mtunlearn",
        description="Mean-teacher proximal unlearning: training, unlearning "
                    "runs, and verification suites on small softmax models.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True,
                        help="output directory (config paths resolve "
                             "against it)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the command's primary seed (also "
                             "settable via MTUNLEARN_SEED; the flag wins)")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="print per-row detail")
    sub = parser.add_subparsers(dest="command", required=True)

    pt = sub.add_parser("train-target", parents=[common],
                        help="memorize a corpus into a target model")
    pt.add_argument("config", help="JSON config (model, corpus|data, train)")
    pt.set_defaults(func=cmd_train_target)

    pu = sub.add_parser("unlearn", parents=[common],
                        help="run unlearning methods against a target")
    pu.add_argument("config",
                    help="JSON config (model, target, corpus|data, methods)")
    pu.set_defaults(func=cmd_unlearn)

    pv = sub.add_parser("verify", parents=[common],
                        help="run a verification suite")
    pv.add_argument("which", choices=sorted(_VERIFY_DISPATCH),
                    help="which suite to run")
    pv.add_argument("config", nargs="?", default=None,
                    help="optional JSON config overriding suite defaults")
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("report", parents=[common],
                        help="re-render tables from results.json")
    pr.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MTUError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
