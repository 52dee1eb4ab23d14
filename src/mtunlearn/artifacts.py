"""Deterministic artifact IO: run manifests, CSV tables, parameter dumps.

Reproducibility contract: rerunning a command with the same resolved
config and seed produces bitwise-identical CSV and parameter files.  CSV
floats are therefore written with repr() (shortest round-trip form), and
parameter dumps use the raw .npy format (whose bytes depend only on the
array, never on timestamps).  The manifest records the resolved config,
a content hash over it and any input files, the seed, the tool version,
and the wall-clock duration; the duration field is the one part of an
output directory that legitimately differs between reruns.
"""

import csv
import hashlib
import json
import os

import numpy as np

from .errors import MissingArtifactError

TOOL_VERSION = "0.1.0"
MANIFEST_NAME = "manifest.json"


def format_cell(x):
    """Canonical CSV cell: repr for floats (round-trip exact), str otherwise."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path, header, rows):
    """Write a CSV table with canonical cell formatting and unix newlines."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(x) for x in row])


def write_trajectory_csv(path, traj):
    """Trajectory export with columns t, grad_norm, loss, divergence,
    clip_scale and gap (the teacher-student distance ||theta_t -
    theta'_t||, an empty cell for a run without a teacher).  Row t's loss
    and divergence are taken where step t + 1's gradient is: see
    optimizer.Trajectory."""
    header = ["t", "grad_norm", "loss", "divergence", "clip_scale", "gap"]
    rows = [[t, traj.grad_norms[i], traj.loss_values[i],
             traj.divergence_values[i], traj.clip_scales[i],
             "" if traj.gaps[i] is None else traj.gaps[i]]
            for i, t in enumerate(traj.ts)]
    write_csv(path, header, rows)


def save_params(path, theta):
    """Parameter dump as .npy (content-deterministic bytes)."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    np.save(path, np.asarray(theta, dtype=float))


def load_params(path):
    """The numeric array of a .npy parameter dump; a missing file, or one
    that is not a numeric .npy array, raises MissingArtifactError naming
    it."""
    if not os.path.exists(path):
        raise MissingArtifactError(f"parameter file not found: {path}")
    try:
        with open(path, "rb") as fh:
            theta = np.load(fh)
    except (OSError, ValueError, EOFError) as exc:
        raise MissingArtifactError(f"cannot read parameter file {path}: {exc}") \
            from exc
    if not isinstance(theta, np.ndarray) or theta.dtype.kind not in "iuf":
        raise MissingArtifactError(f"parameter file {path} does not hold a "
                                   f"numeric .npy array")
    return theta


def _jsonable(obj):
    """Coerce numpy scalars and arrays the way their Python values would
    serialize; anything else is a genuine type error."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def canonical_json(obj):
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_jsonable)


def content_hash(config, input_paths=()):
    """sha256 over the canonical config plus the bytes of input files."""
    h = hashlib.sha256()
    h.update(canonical_json(config).encode("utf-8"))
    for p in input_paths:
        h.update(b"\x00")
        h.update(os.path.basename(p).encode("utf-8"))
        h.update(b"\x00")
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def write_manifest(out_dir, command, config, seed, duration_s, input_paths=()):
    """Write the single manifest for an output directory."""
    manifest = {
        "command": command,
        "config": config,
        "content_hash": content_hash(config, input_paths),
        "seed": seed,
        "version": TOOL_VERSION,
        "duration_s": float(duration_s),
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")
    return manifest


def read_manifest(out_dir):
    path = os.path.join(out_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise MissingArtifactError(f"no manifest found in {out_dir}")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_results_json(out_dir, results):
    """Raw results document the `report` command re-renders tables from."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "results.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")
    return path


def read_results_json(out_dir):
    path = os.path.join(out_dir, "results.json")
    if not os.path.exists(path):
        raise MissingArtifactError(f"no results.json found in {out_dir}")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
