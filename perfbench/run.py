"""Benchmark of the `mtunlearn` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every operation is one `mtunlearn` command
in a fresh interpreter (`python3 -m mtunlearn.cli`, with the repository's
`src/` on PYTHONPATH and BLAS limited to one thread), run in a closed loop:
one client, one command at a time.

--trace 0 measures end-to-end metrics.  Set-up (an import probe that also
byte-compiles the package, the workload's configs and, for unlearn-mlp,
the train-target run) is done SETUP_REPS times and `setup_s` is its
median.  The set-ups are interleaved with timed operations (the
workload's timed commands, run in sequence), which repeat until their
wall times add up to S seconds.  `wall_s` is the timed operations' total
wall time over their count, and `peak_rss_mb` the median over operations
of their largest child.

--trace 1 runs the set-up and timed commands TRACE_PASSES times under
perfbench/tracer.py, which wraps each layer function, plus one untraced
timed operation, and reports per-layer metrics and the tracing overhead.
Call counts, steps and ratios must repeat exactly between the passes.

Every command's results.json is checked (see workloads.py); a command
fails if it exits non-zero or a check fails.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The lines before it give the run environment and each metric with its
unit.  Without `src/mtunlearn` the benchmark exits 2 and prints no result.

    python3 perfbench/run.py --record-reference --workload NAME

records reference results for every program seed instead.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import tracer
import workloads as W

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "mtunlearn")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

SETUP_REPS = 3
TRACE_PASSES = 2
BLAS_THREADS = "1"
# Every child is killed at this many seconds after the benchmark started.
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("MTUNLEARN_SEED", None)
    return env


class Op:
    """One finished child process."""

    def __init__(self, wall_s, rss_mb, exit_code, log_tail=""):
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.exit_code = exit_code
        self.log_tail = log_tail


class Runner:
    """Starts children one at a time, records every CLI operation and the
    failures its checks find."""

    def __init__(self, work, started, record=False):
        self.work = work
        self.deadline = started + DEADLINE_S
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # With record=True, flattened results are kept here by subcommand
        # instead of being compared with the reference.
        self.recorded = {} if record else None
        self._logs = 0

    def spawn(self, argv):
        """Run argv to completion; wall time from launch to exit, peak RSS
        from the child's rusage.  Killed at the deadline."""
        self._logs += 1
        log = os.path.join(self.work, f"child{self._logs}.log")
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=fh,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.deadline - t0, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        tail = ""
        if proc.returncode != 0:
            with open(log, "rb") as fh:
                tail = fh.read()[-600:].decode("utf-8", "replace")
        return Op(wall, usage.ru_maxrss / 1024.0, proc.returncode, tail)

    def cli(self, args, spans=None):
        prefix = ([sys.executable, TRACER, spans, "--"] if spans
                  else [sys.executable, "-m", "mtunlearn.cli"])
        return self.spawn(prefix + list(args))

    def operation(self, workload, args, pseed, spans=None):
        """One CLI command with its correctness checks."""
        self.attempted += 1
        op = self.cli(args, spans)
        label = W.command_label(args)
        bad = []
        if op.exit_code != 0:
            bad.append(f"{label}: exit code {op.exit_code}: {op.log_tail}")
        else:
            out = args[args.index("--out") + 1]
            with open(os.path.join(out, "results.json"), encoding="utf-8") as fh:
                result = json.load(fh)
            bad += workload.check_result(label, result)
            ref = W.load_reference(workload.name, pseed)
            if self.recorded is not None:
                self.recorded[label] = W.flatten(result)
            elif ref is None or label not in ref:
                bad.append(f"{label}: no reference for program seed {pseed}")
            else:
                bad += W.compare(label, W.flatten(result), ref[label])
        if bad:
            self.failed += 1
            self.problems += bad
        return op

    def time_left(self):
        return self.deadline - time.perf_counter()


def probe(runner):
    """Import the package in a fresh interpreter (byte-compiling it)."""
    op = runner.spawn([sys.executable, "-c", "import mtunlearn.cli"])
    if op.exit_code != 0:
        sys.stderr.write("cannot import mtunlearn from src/:\n"
                         + op.log_tail + "\n")
        sys.exit(2)


def setup(runner, workload, pseed, work, spans=None):
    """Set-up once: probe, configs, set-up commands.  Returns seconds."""
    t0 = time.perf_counter()
    probe(runner)
    os.makedirs(work, exist_ok=True)
    for i, args in enumerate(workload.setup_commands(work, pseed)):
        runner.operation(workload, args, pseed,
                         spans=spans and f"{spans}.setup{i}")
    return time.perf_counter() - t0


def timed(runner, workload, pseed, work, k, spans=None):
    """One timed operation: the workload's timed commands in sequence.
    Returns their Ops."""
    out = os.path.join(work, f"out{k}")
    ops = [runner.operation(workload, args, pseed,
                            spans=spans and f"{spans}{i}")
           for i, args in enumerate(workload.timed_commands(work, pseed, out))]
    shutil.rmtree(out, ignore_errors=True)
    return ops


def measure(runner, workload, pseed, seconds):
    """SETUP_REPS set-ups interleaved with timed operations (set-up,
    timed, set-up, timed, ...), with timed operations until their wall
    times add up to `seconds`."""
    setup_s, walls, rss, parts = [], [], [], []
    more = lambda: sum(walls) < seconds
    while len(setup_s) < SETUP_REPS or more():
        if len(setup_s) < SETUP_REPS:
            work = os.path.join(runner.work, f"setup{len(setup_s)}")
            setup_s.append(setup(runner, workload, pseed, work))
        if walls and runner.time_left() < 2 * walls[-1]:
            break
        if more():
            ops = timed(runner, workload, pseed, work, len(walls))
            walls.append(sum(o.wall_s for o in ops))
            rss.append(max(o.rss_mb for o in ops))
            parts.append("+".join(f"{o.wall_s:.3f}" for o in ops))
    print("timed walls " + " ".join(parts))
    print("setup walls " + " ".join(f"{t:.3f}" for t in setup_s))
    return {
        "wall_s": (sum(walls) / len(walls), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }, len(walls)


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

# Metrics derived from the wrapped functions, after their calls and self_s.
DERIVED = (
    "optimizer.steps",
    "optimizer.steps_per_s",
    "divergence.damped_grad.qkl_calls",
    "artifacts.total_s",
    "cli.self_s",
    "ratio.forward_per_step",
    "ratio.loss_evals_per_step",
    "ratio.solves_per_ngd_step",
    "ratio.seq_expansions_per_step",
    "trace.overhead_s",
)


def per_layer_names():
    """Per-layer metric names, in the order BENCHMARK.json lists them."""
    names = []
    for mod, fname in tracer.LAYERS:
        if mod not in ("artifacts", "cli"):
            names += [f"{mod}.{fname}.calls", f"{mod}.{fname}.self_s"]
    return names + list(DERIVED)


def unit(name):
    if name.startswith("ratio."):
        return "calls/step"
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def is_exact(name):
    """Counts and ratios of counts, which must repeat exactly."""
    return unit(name) in ("count", "calls/step")


def _merge(files):
    """Sum the span files of one pass (set-up and timed commands)."""
    fns, steps, qkl = {}, {}, 0
    for path in files:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        for name, s in d["functions"].items():
            acc = fns.setdefault(name, {"calls": 0, "inclusive_s": 0.0,
                                        "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]
        for name, n in d["steps"].items():
            steps[name] = steps.get(name, 0) + n
        qkl += d["qkl_grads"]
    return fns, steps, qkl


def pass_metrics(fns, steps, qkl):
    """Per-layer metrics of one traced pass, except trace.overhead_s."""
    zero = {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
    get = lambda name: fns.get(name, zero)
    per = lambda n, d: n / d if d else 0.0
    out = {}
    for mod, fname in tracer.LAYERS:
        name = f"{mod}.{fname}"
        out[f"{name}.calls"] = get(name)["calls"]
        out[f"{name}.self_s"] = get(name)["self_s"]
    n_steps = sum(steps.values())
    opt_s = sum(get(f"optimizer.{f}")["inclusive_s"]
                for f in tracer.STEP_FUNCTIONS)
    out.update({
        "optimizer.steps": n_steps,
        "optimizer.steps_per_s": per(n_steps, opt_s),
        "divergence.damped_grad.qkl_calls": qkl,
        "artifacts.total_s": sum(s["self_s"] for n, s in fns.items()
                                 if n.startswith("artifacts.")),
        "cli.self_s": get("cli.main")["self_s"],
        "ratio.forward_per_step": per(get("model._forward")["calls"], n_steps),
        "ratio.loss_evals_per_step": per(get("losses.batch_loss")["calls"],
                                         n_steps),
        "ratio.solves_per_ngd_step": per(get("linalg.solve_spd")["calls"],
                                         steps.get("ngd_run", 0)),
        "ratio.seq_expansions_per_step": per(
            get("model.dataset_from_sequences")["calls"], n_steps),
    })
    return out


def reach_problems(workload, counts):
    """Each workload must reach the layers it was chosen for, and only it."""
    bad = []
    for other in W.WORKLOADS.values():
        for name in other.reaches:
            n = counts[name]
            if other is workload and n == 0:
                bad.append(f"{name} is 0")
            if other is not workload and n != 0:
                bad.append(f"{name} is {n} (expected 0 off {other.name})")
    return bad


def measure_traced(runner, workload, pseed):
    """TRACE_PASSES traced passes with one untraced timed operation after
    the first; times are medians over passes, counts must repeat."""
    passes, traced_wall, untraced_wall = [], [], None
    for p in range(TRACE_PASSES):
        work = os.path.join(runner.work, f"pass{p}")
        spans = os.path.join(runner.work, f"spans{p}")
        setup(runner, workload, pseed, work, spans=spans)
        ops = timed(runner, workload, pseed, work, 0, spans=f"{spans}.timed")
        traced_wall.append(sum(o.wall_s for o in ops))
        files = sorted(os.path.join(runner.work, f)
                       for f in os.listdir(runner.work)
                       if f.startswith(f"spans{p}."))
        passes.append(pass_metrics(*_merge(files)))
        if p == 0:
            untraced_wall = sum(o.wall_s for o in
                                timed(runner, workload, pseed, work, 1))
    first = passes[0]
    for other in passes[1:]:
        diff = [k for k in first if is_exact(k) and first[k] != other[k]]
        if diff:
            runner.problems.append(f"traced counts differ between passes: "
                                   f"{diff[:6]}")
    runner.problems += reach_problems(workload, first)
    metrics = {k: (first[k] if is_exact(k)
                   else statistics.median(p[k] for p in passes))
               for k in first}
    metrics["trace.overhead_s"] = (statistics.median(traced_wall)
                                   - untraced_wall)
    return {k: (metrics[k], unit(k)) for k in per_layer_names()}


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------

def environment(workload, seed, pseed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "program_seed": pseed,
    }


def record_reference(workload, work):
    """Run set-up and one timed operation per program seed and store their
    flattened results as the reference."""
    refs = {}
    for pseed in range(W.PROGRAM_SEEDS):
        seed_work = os.path.join(work, f"seed{pseed}")
        os.makedirs(seed_work)
        runner = Runner(seed_work, time.perf_counter(), record=True)
        setup(runner, workload, pseed, seed_work)
        timed(runner, workload, pseed, seed_work, 0)
        if runner.problems:
            sys.exit(f"program seed {pseed}: " + "; ".join(runner.problems))
        refs[str(pseed)] = runner.recorded
        print(f"{workload.name} program seed {pseed} recorded", flush=True)
    os.makedirs(W.REFERENCE_DIR, exist_ok=True)
    with open(W.reference_path(workload.name), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    started = time.perf_counter()
    # SIGTERM unwinds like an interrupt, so the running child is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        sys.stderr.write(f"no mtunlearn package under {SRC}\n")
        return 2
    workload = W.WORKLOADS[args.workload]
    pseed = args.seed % W.PROGRAM_SEEDS
    work = os.path.join(WORK_ROOT, f"{workload.name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.record_reference:
            record_reference(workload, work)
            return 0
        runner = Runner(work, started)
        if args.trace:
            metrics = measure_traced(runner, workload, pseed)
            n_timed = TRACE_PASSES + 1
        else:
            metrics, n_timed = measure(runner, workload, pseed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print("env " + json.dumps(environment(workload.name, args.seed, pseed),
                              sort_keys=True))
    print(f"timed operations {n_timed}, commands {runner.attempted}, "
          f"{time.perf_counter() - started:.1f} s in all")
    for name, (value, u) in metrics.items():
        print(f"{name} {value:.6g} {u}")
    print(f"ops_failed {runner.failed}/{runner.attempted} count")
    for msg in runner.problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
