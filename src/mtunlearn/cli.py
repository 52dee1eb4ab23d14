"""Command-line interface.

Subcommands:

  train-target CONFIG   memorize a synthetic corpus into a target model
  unlearn CONFIG        run unlearning methods against a trained target
  verify WHICH [CONFIG] run a verification suite (theorem1, lemma,
                        dynamics, divergence-quadratic)
  report                re-render the CSV tables and summary of an output
                        directory from its results.json, byte for byte
                        as the command that wrote it

Every command takes --out DIR; all artifacts are written there and every
non-absolute path in a config resolves against it.  --seed (or the
MTUNLEARN_SEED environment variable; the flag wins) overrides the
command's primary seed; report and verify divergence-quadratic have no
seed, reject the flag and ignore the variable.  Outputs are bitwise
reproducible given the same resolved config and seed; only the
manifest's duration field may differ between reruns.

Exit codes: 0 success (verification passed), 1 a verification suite ran
to completion and failed, 2 configuration error, 3 training failure,
4 missing or unreadable artifact, 5 precondition guard tripped.
"""

import argparse
import ctypes
import inspect
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

_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number",
               bool: "a boolean", list: "a list"}


def _typed(v, typ, what):
    """v checked against a config type: str, int, bool, float (which takes
    integers and returns a float) or [entry type] (a list, checked entry by
    entry).  A mismatch raises ConfigError naming `what`."""
    if isinstance(typ, list):
        if not isinstance(v, list):
            raise ConfigError(f"{what} must be a list, got {type(v).__name__}")
        return [_typed(x, typ[0], f"entry {j} of {what}") for j, x in enumerate(v)]
    if isinstance(v, bool) != (typ is bool) or \
            not isinstance(v, (int, float) if typ is float else typ):
        got = "a boolean" if isinstance(v, bool) else type(v).__name__
        raise ConfigError(f"{what} must be {_TYPE_NAMES[typ]}, got {got}")
    return float(v) if typ is float else v


def _take(d, key, section, typ, default=inspect.Parameter.empty):
    """Pop and type-check one config field; a missing required field or a
    type mismatch raises ConfigError naming the field and section."""
    if key not in d:
        if default is inspect.Parameter.empty:
            raise ConfigError(f"missing field '{key}' in section '{section}'")
        return default
    return _typed(d.pop(key), typ, f"field '{key}' in section '{section}'")


def _config_type(p, default):
    """A parameter's config type: a list of its first entry's type for a
    tuple or list default, else its annotation, else its default's type."""
    if isinstance(default, (tuple, list)):
        return [type(default[0])]
    return type(default) if p.annotation is p.empty else p.annotation


def _read(d, section, *fns, rename=None, skip=(), required=(), defaults=None):
    """Pop section `d`'s fields, one per keyword parameter of each callable
    in `fns` (a dataclass or harness function), and reject any field left.

    A field is named after its parameter (`rename` maps parameter to field
    names for the exceptions) and takes the parameter's type and default;
    `skip` names parameters that are not fields, `required` fields that
    must be given although the parameter has a default, and `defaults`
    supplies a default for a parameter that has none.  Returns one kwargs
    dict per callable, keyed by parameter name.
    """
    rename, defaults, out = rename or {}, defaults or {}, []
    for fn in fns:
        kw = {}
        for p in inspect.signature(fn).parameters.values():
            if p.name in skip:
                continue
            key = rename.get(p.name, p.name)
            default = p.empty if key in required else defaults.get(p.name, p.default)
            kw[p.name] = _take(d, key, section, _config_type(p, default), default)
        out.append(kw)
    _done(d, section)
    return out


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


def _construct(d, section, cls, what=None, extra=None, **overrides):
    """cls built from section `d` read as by _read, plus the keyword
    arguments in `extra`; a ValueError from cls is a ConfigError naming
    `what` (default: the section)."""
    kw = dict(_read(d, section, cls, **overrides)[0], **(extra or {}))
    return _cfgval(lambda: cls(**kw), what or section)


def _cfgval(build, what):
    """Run a constructor or argument check whose ValueError means invalid
    configuration."""
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _resolve(path, out_dir):
    return path if os.path.isabs(path) else os.path.join(out_dir, path)


def _out_dir(args):
    """The --out directory, created if missing; a path that cannot be made
    a directory (a file, or a file on its path) is a ConfigError naming
    the flag."""
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {args.out} is not a usable directory: "
                          f"{exc}") from exc
    return args.out


def _load_config(path_arg, out_dir):
    """The config object at path_arg and its resolved path.  A file that
    is missing, unreadable, not UTF-8 JSON or not an object, and a key
    given twice in any object of it, are ConfigErrors naming the file."""
    path = _resolve(path_arg, out_dir)
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")

    def unique_keys(pairs):
        obj = {}
        for k, v in pairs:
            if k in obj:
                raise ConfigError(f"key {k!r} is given twice in {path}")
            obj[k] = v
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config root in {path} must be an object")
    return cfg, path


def _resolve_seed(args):
    """--seed, else MTUNLEARN_SEED, else None (config seeds apply); a
    negative seed is a ConfigError naming the flag or variable."""
    seed, what = args.seed, "--seed"
    if seed is None:
        env, what = os.environ.get("MTUNLEARN_SEED"), "MTUNLEARN_SEED"
        if env is None or env == "":
            return None
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"MTUNLEARN_SEED must be an integer, got {env!r}") \
                from exc
    if seed < 0:
        raise ConfigError(f"{what} must be nonnegative, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# Config section parsers
# ---------------------------------------------------------------------------

def _parse_model(cfg):
    return _construct(_section(cfg, "model", required=True), "model", M.ModelSpec)


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
        corpus = _construct(corpus_d, "corpus", harness.CorpusSpec)
        d_f, d_pt = _cfgval(lambda: harness.corpus_datasets(spec, corpus),
                           "section 'corpus'")
        for ds in (d_f, d_pt):
            _cfgval(lambda: ds.inputs(spec), "section 'corpus'")
        return d_f, d_pt, corpus, []
    fpath = _resolve(_take(data_d, "forget", "data", str), out_dir)
    ppath = _resolve(_take(data_d, "pretrain", "data", str), out_dir)
    _done(data_d, "data")
    for p in (fpath, ppath):
        if not os.path.exists(p):
            raise MissingArtifactError(f"data file not found: {p}")
    datasets = []
    for name, p in (("forget", fpath), ("pretrain", ppath)):
        try:
            ds = _cfgval(lambda: M.load_jsonl_dataset(p, spec.context_len),
                         f"{name} data")
        except OSError as exc:
            raise MissingArtifactError(f"cannot read data file {p}: {exc}") \
                from exc
        _cfgval(lambda: ds.inputs(spec), f"{name} data")
        datasets.append(ds)
    return (*datasets, None, [fpath, ppath])


def _parse_report(cfg):
    """The report section as report_lengths keyword arguments."""
    return _read(_section(cfg, "report") or {}, "report", harness.report_lengths,
                 skip=("sequences",))[0]


def _load_params(path, spec, what):
    """Parameter vector of the model `spec` from the .npy file `path`,
    named `what` in messages: exit 4 if the file is missing or unreadable,
    2 if its parameter count does not match the model, 5 if a value is not
    finite."""
    theta = artifacts.load_params(path)
    n = M.param_count(spec)
    if theta.shape != (n,):
        raise ConfigError(f"{what} parameter count {theta.shape} in {path} "
                          f"does not match the model ({n} parameters)")
    if not np.all(np.isfinite(theta)):
        raise PreconditionError(f"{what} parameters in {path} are not all "
                                f"finite")
    return theta


def _parse_loss(d, spec, out_dir):
    teacher = _take(d, "teacher", "loss", str, default="uniform")
    if teacher == "uniform":
        tl = Lmod.TeacherLogits()
    else:
        tpath = _resolve(teacher, out_dir)
        tl = Lmod.TeacherLogits(spec, _load_params(tpath, spec, "teacher"))
    return _construct(d, "loss", Lmod.LossKind, extra={"teacher": tl},
                      rename={"tag": "loss"}, skip=("teacher",))


def _parse_method(mj, i, spec, out_dir, seed_override):
    if not isinstance(mj, dict):
        raise ConfigError(f"entry {i} in section 'methods' must be an object")
    d = dict(mj)
    sec = f"methods[{i}]"
    parts = {k: d.pop(k) for k in ("loss", "divergence", "mt", "adam") if k in d}
    head = _read(d, sec, harness.MethodSpec, skip=("config", "adam"),
                 defaults={"name": f"method{i}"})[0]
    if head["optimizer"] == "noop":
        _done(parts, sec)
        return _cfgval(lambda: harness.MethodSpec(**head), sec)
    for part in ("loss", "divergence", "mt") + (("adam",) if "adam" in parts else ()):
        if not isinstance(parts.get(part), dict):
            raise ConfigError(f"section '{sec}' needs an object field '{part}'")
    loss = _parse_loss(dict(parts["loss"]), spec, out_dir)
    div = _construct(dict(parts["divergence"]), "divergence", Dmod.DivergenceKind,
                     rename={"tag": "divergence", "lam": "lambda"})
    extra = {"loss": loss, "divergence": div}
    if seed_override is not None:
        extra["seed"] = seed_override
    cfg = _construct(dict(parts["mt"]), "mt", O.MTConfig,
                     f"mt settings of '{head['name']}'", extra=extra,
                     skip=("loss", "divergence"))
    adam = None
    if "adam" in parts:
        adam = _construct(dict(parts["adam"]), "adam", O.AdamParams,
                          f"adam settings of {sec}")
    return _cfgval(lambda: harness.MethodSpec(config=cfg, adam=adam, **head), sec)


def _parse_stop_rule(cfg):
    d = _section(cfg, "stop_rule")
    if d is None:
        return None
    return _construct(d, "stop_rule", harness.StopRule, required=("threshold",))


def _safe_name(name):
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def _method_artifacts(method):
    """The files `unlearn` may write for a method: its parameters and one
    trajectory per round, suffixed _roundK when it has several rounds."""
    name = _safe_name(method.name)
    rounds = [""] if method.rounds == 1 else \
        [f"_round{k + 1}" for k in range(method.rounds)]
    return [f"unlearned_{name}.npy"] + [f"trajectory_{name}{r}.csv" for r in rounds]


def _check_artifact_names(methods):
    """Reject two methods that would write a file of the same name."""
    owner = {}
    for i, m in enumerate(methods):
        for fname in _method_artifacts(m):
            j = owner.setdefault(fname, i)
            if j != i:
                raise ConfigError(f"methods[{j}] ({methods[j].name!r}) and "
                                  f"methods[{i}] ({m.name!r}) would both "
                                  f"write {fname}")


def _write_corpus_jsonl(out_dir, d_f, d_pt):
    for fname, ds in (("forget.jsonl", d_f), ("pretrain.jsonl", d_pt)):
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            for s in ds.sequences:
                fh.write(json.dumps({"tokens": [int(t) for t in s]}) + "\n")


# ---------------------------------------------------------------------------
# Result documents
# ---------------------------------------------------------------------------

def _pf(flag):
    if flag is None:
        return "NOT EVALUATED"
    return "PASS" if flag else "FAIL"


def _table(name, header, rows):
    """A CSV table whose columns are the rows' fields of the same names; a
    field holding None is an empty cell."""
    return (name, header, [["" if r[h] is None else r[h] for h in header]
                           for r in rows])


def result_outputs(result, verbose=False):
    """The outputs of a result document, fresh or reloaded from its
    results.json: its CSV tables as (file name, header, rows) and its
    summary lines, with per-row detail when verbose.  Both are built in
    memory, with one dispatch on the document's "check" field.  Tables
    keyed by loss tag list the tags sorted, the order results.json keeps."""
    check = result.get("check")
    lines = []
    if check == "theorem1":
        tables = [_table("theorem1.csv", ["grad_lag", "alpha", "T", "gamma",
                                          "lam_bar", "deviation"],
                         result["rows"])]
        if verbose:
            lines += [f"  grad_lag={r['grad_lag']} alpha={r['alpha']:.4f} "
                      f"T={r['T']} deviation={r['deviation']:.6e}"
                      for r in result["rows"]]
        for key, label in (("lag_false", "grad at current iterate"),
                           ("lag_true", "grad at previous iterate")):
            s = result["summary"][key]
            lines.append(f"theorem1 [{label}]: slope={s['slope']:.3f} "
                         f"monotone={s['monotone']}")
    elif check == "lemma":
        rows = result["rows"]
        tables = [_table("lemma.csv", ["mu", "lam", "mode", "eta", "T",
                                       "u0_dist", "max_ratio", "floor_step",
                                       "min_margin", "holds"], rows)]
        if verbose:
            lines += [f"  mu={r['mu']} lam={r['lam']} mode={r['mode']}: "
                      f"max_ratio={r['max_ratio']:.6f} "
                      f"floor_step={r['floor_step']}" for r in rows]
        lines.append(f"lemma: bound holds in "
                     f"{sum(r['holds'] for r in rows)}/{len(rows)} cells")
    elif check == "divergence-quadratic":
        tables = [_table("divergence_quadratic.csv",
                         ["model", "kind", "t", "residual", "ratio"],
                         result["rows"])]
        if verbose:
            lines += [f"  {r['model']} {r['kind']} t={r['t']:.0e}: "
                      f"residual/t^2={r['ratio']:.6e}" for r in result["rows"]]
    elif check == "dynamics":
        series, grad0 = result["series"], result["grad_norm0"]
        rows = []
        for tag in sorted(series):
            entry = series[tag]
            klv = entry.get("kl_to_teacher")
            rows += [[tag, t, entry["nll_forget"][i], entry["loss_grad_norm"][i],
                      "" if klv is None else klv[i]]
                     for i, t in enumerate(entry["t"])]
        tables = [("dynamics.csv", ["loss", "t", "nll_forget", "loss_grad_norm",
                                    "kl_to_teacher"], rows),
                  ("dynamics_summary.csv",
                   ["loss", "grad_norm_initial", "delta_nll_forget"],
                   [[tag, grad0[tag], result["delta_nll"][tag]]
                    for tag in sorted(grad0)])]
        lines += [f"dynamics: grad norm ratio {key} = {val:.2f}"
                  for key, val in sorted(result["ratios"].items())]
        lines += [f"dynamics: delta forget NLL [{tag}] = {val:+.4f}"
                  for tag, val in sorted(result["delta_nll"].items())]
    elif check == "unlearn":
        tables = [_table("unlearn.csv", [
            "name", "optimizer", "rounds", "steps", "exact_match_before",
            "exact_match_after", "lcs_before", "lcs_after", "nll_forget_before",
            "nll_forget_after", "nll_pretrain_before", "nll_pretrain_after",
            "drift", "status"], result["rows"])]
        lines += [f"{r['name']}: exact match {r['exact_match_before']:.2f} -> "
                  f"{r['exact_match_after']:.2f}, drift {r['drift']:+.4f}, "
                  f"steps {r['steps']}, {r['status']}" for r in result["rows"]]
    elif check == "train-target":
        rep = result["report"]
        tables = [_table("target_report.csv", ["exact_match_rate", "lcs_ratio",
                                               "nll_forget", "nll_pretrain"],
                         [rep])]
        lines.append(f"target: exact match {rep['exact_match_rate']:.3f}, "
                     f"forget NLL {rep['nll_forget']:.6f}, "
                     f"pretrain NLL {rep['nll_pretrain']:.6f}")
    else:
        raise ValueError(f"cannot render result of kind {check!r}")
    if check in VERIFY_CHECKS:
        lines.append(f"{check}: {_pf(result['passed'])}")
    return tables, lines


def _write_tables(out_dir, tables):
    for name, header, rows in tables:
        artifacts.write_csv(os.path.join(out_dir, name), header, rows)


def _finish(args, result, command, config, seed, t0, inputs):
    """A command's shared tail: its results.json, tables and manifest, then
    its summary printed.  The outputs are built before the first write."""
    tables, lines = result_outputs(result, args.verbose)
    artifacts.write_results_json(args.out, result)
    _write_tables(args.out, tables)
    artifacts.write_manifest(args.out, command, config, seed,
                             time.perf_counter() - t0, input_paths=inputs)
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_train_target(args):
    t0 = time.perf_counter()
    out = _out_dir(args)
    raw, cfg_path = _load_config(args.config, out)
    cfg = dict(raw)
    spec = _parse_model(cfg)
    d_f, d_pt, corpus, inputs = _parse_data(spec, cfg, out)
    kw = _read(_section(cfg, "train", required=True), "train",
               harness.build_target, skip=("spec", "datasets", "prompt_len",
                                           "completion_len"),
               defaults={"seed": 0})[0]
    lens = _parse_report(cfg)
    _done(cfg, "config")
    _cfgval(lambda: harness.report_lengths(d_f.sequences, **lens),
            "section 'report'")
    override = _resolve_seed(args)
    if override is not None:
        kw["seed"] = override
    seed = kw["seed"]

    theta = harness.build_target(spec, (d_f, d_pt), **kw, **lens)
    rep = harness.memorization_report(spec, theta, (d_f, d_pt), **lens)
    artifacts.save_params(os.path.join(out, "target.npy"), theta)
    if corpus is not None:
        _write_corpus_jsonl(out, d_f, d_pt)
    result = {"check": "train-target", "report": rep.as_dict(),
              "n_forget_sequences": len(d_f.sequences),
              "n_pretrain_sequences": len(d_pt.sequences),
              "n_forget_pairs": len(d_f), "n_pretrain_pairs": len(d_pt)}
    _finish(args, result, "train-target", raw, seed, t0, [cfg_path] + inputs)
    if args.verbose:
        print(f"artifacts written to {out}")
    return 0


def cmd_unlearn(args):
    t0 = time.perf_counter()
    out = _out_dir(args)
    raw, cfg_path = _load_config(args.config, out)
    cfg = dict(raw)
    spec = _parse_model(cfg)
    target_rel = _take(cfg, "target", "config", str)
    d_f, d_pt, _, inputs = _parse_data(spec, cfg, out)
    methods_j = _take(cfg, "methods", "config", list)
    stop_rule = _parse_stop_rule(cfg)
    lens = _parse_report(cfg)
    _done(cfg, "config")
    seed_override = _resolve_seed(args)
    methods = [_parse_method(mj, i, spec, out, seed_override)
               for i, mj in enumerate(methods_j)]
    # Rounds are checked against the forget sequences before
    # _check_artifact_names builds one file name per round.
    harness.check_methods(spec, methods, d_f)
    _check_artifact_names(methods)
    _cfgval(lambda: harness.report_lengths(d_f.sequences, **lens),
            "section 'report'")

    target_path = _resolve(target_rel, out)
    theta_target = _load_params(target_path, spec, "target")

    res = harness.unlearn_experiment(spec, theta_target, d_f, d_pt, methods,
                                     stop_rule=stop_rule, **lens)
    for m in methods:
        params, *trajectories = _method_artifacts(m)
        if m.name in res["thetas"]:
            artifacts.save_params(os.path.join(out, params), res["thetas"][m.name])
        for fname, traj in zip(trajectories, res["trajectories"][m.name]):
            artifacts.write_trajectory_csv(os.path.join(out, fname), traj)
    result = {k: v for k, v in res.items()
              if k not in ("thetas", "trajectories")}
    _finish(args, result, "unlearn", raw,
            -1 if seed_override is None else seed_override, t0,
            [cfg_path, target_path] + inputs)
    return 0


# Each verify check: its testbed builder (None if it has none) and the
# check run on the testbed.  The check's config section holds the keyword
# parameters of both.  A builder trains only its fixed corpus, so a
# ValueError from it is a rejected argument.
VERIFY_CHECKS = {
    "theorem1": (harness.default_theorem_setup, harness.verify_theorem1),
    "lemma": (harness.LemmaFamily, harness.verify_lemma),
    "dynamics": (harness.default_dynamics_setup, harness.gradient_dynamics_study),
    "divergence-quadratic": (None, harness.verify_divergence_quadratic),
}
# Config field names of the verify parameters not named as their field.
VERIFY_RENAME = {"lam": "lambda"}


def cmd_verify(args):
    t0 = time.perf_counter()
    out = _out_dir(args)
    inputs = []
    cfg = {}
    if args.config is not None:
        cfg, cfg_path = _load_config(args.config, out)
        inputs.append(cfg_path)
    build, check = VERIFY_CHECKS[args.which]
    kws = _read(dict(cfg), args.which,
                *((check,) if build is None else (build, check)),
                rename=VERIFY_RENAME, skip=("setup", "family"))
    testbed, seed = (), -1
    if build is not None:
        override = _resolve_seed(args)
        if override is not None:
            kws[0]["seed"] = override
        seed = kws[0]["seed"]
        testbed = (_cfgval(lambda: build(**kws[0]), f"{args.which} settings"),)
    elif args.seed is not None:
        raise ConfigError(f"--seed does not apply to verify {args.which}, "
                          f"which has no seed")
    result = check(*testbed, **kws[-1])
    resolved = {VERIFY_RENAME.get(k, k): v for kw in kws for k, v in kw.items()}
    _finish(args, result, f"verify {args.which}", resolved, seed, t0, inputs)
    passed = result.get("passed")
    if passed is False:
        print("verification failed", file=sys.stderr)
        return 1
    return 0


def cmd_report(args):
    path = os.path.join(args.out, "results.json")
    try:
        result = artifacts.read_results_json(args.out)
        if not isinstance(result, dict):
            raise TypeError("the document is not a JSON object")
        # Built before the first write: a malformed document changes no file.
        tables, lines = result_outputs(result, args.verbose)
    except (LookupError, TypeError, ValueError) as exc:
        raise MissingArtifactError(f"malformed results document {path}: "
                                   f"{type(exc).__name__}: {exc}") from exc
    _write_tables(args.out, tables)
    for line in lines:
        print(line)
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
    common.add_argument("-v", "--verbose", action="store_true",
                        help="print per-row detail")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None,
                        help="override the command's primary seed (also "
                             "settable via MTUNLEARN_SEED; the flag wins)")
    sub = parser.add_subparsers(dest="command", required=True)

    pt = sub.add_parser("train-target", parents=[seeded],
                        help="memorize a corpus into a target model")
    pt.add_argument("config", help="JSON config (model, corpus|data, train)")
    pt.set_defaults(func=cmd_train_target)

    pu = sub.add_parser("unlearn", parents=[seeded],
                        help="run unlearning methods against a target")
    pu.add_argument("config",
                    help="JSON config (model, target, corpus|data, methods)")
    pu.set_defaults(func=cmd_unlearn)

    pv = sub.add_parser("verify", parents=[seeded],
                        help="run a verification suite")
    pv.add_argument("which", choices=sorted(VERIFY_CHECKS),
                    help="which suite to run")
    pv.add_argument("config", nargs="?", default=None,
                    help="optional JSON config overriding suite defaults")
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("report", parents=[common],
                        help="re-render tables and summary from "
                             "results.json")
    pr.set_defaults(func=cmd_report)
    return parser


# glibc's mallopt parameter for the size of free memory at the top of the
# heap above which free() returns it to the system.
_M_TRIM_THRESHOLD = -1


def _keep_freed_heap():
    """Let the C allocator keep up to 64 MB of freed heap for reuse.

    A lockstep step of `unlearn` allocates and frees several hundred KB of
    stacked temporaries.  At glibc's default (128 KB) the heap shrinks
    after every step and the next step faults the pages back in: one
    `unlearn` of perfbench's unlearn-mlp config took 44 000 minor page
    faults, against 5 700 with this setting.  Peak memory is unchanged.
    Without a mallopt (a C library other than glibc) nothing is set.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None):
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MTUError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
