"""bentchain benchmark.

    python3 perfbench/run.py --workload optimize --seed 1 --seconds 30 --trace 0

Run from the repository root: it imports bentchain from ./src.  With
``--trace 0`` it repeats passes of the workload until ``--seconds`` is spent
and reports the end-to-end metrics; with ``--trace 1`` it runs a fixed
number of passes untraced and then traced, asserts that both produce
bit-identical outputs, and reports per-layer metrics.  Both modes check the
outputs against an independent oracle.  The last line of standard output is
one JSON object; the lines before it are for people.  See perfbench/NOTES.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

# one single-threaded process: BLAS threads would compete for the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5  # this process plus four fresh ones
ORACLE_ARRIVALS = 12  # reference/arrival claims checked per run
ORACLE_OPTIMAL = 6  # q_opt >= q(delta=0) claims checked per run
# gates for a wrong answer, not for precision: a different peak moves q and
# t by far more; precision is reported as err_q / err_t
ERR_Q_GATE = 1e-3
ERR_T_GATE = 1e-3
OPTIMAL_SLACK = 1e-9


def parse_args(argv):
    p = argparse.ArgumentParser(description="bentchain benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print the set-up time and exit")
    return p.parse_args(argv)


def load_program():
    """Import bentchain from this checkout's source tree, never from
    elsewhere on the path."""
    pkg = SRC / "bentchain"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: {pkg} not found; run from a bentchain checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import bentchain

    if Path(bentchain.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported bentchain from {bentchain.__file__}, not {pkg}")
    return bentchain


def set_up(name, seed, workdir):
    load_program()
    import workloads

    if name not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.setup()
    wl.warm_up()
    return wl


def setup_samples(args, own: float) -> list[float]:
    """Set-up time of this process and of fresh processes doing the same."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def blas_info(np) -> tuple:
    name = threads = None
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        pass
    try:
        import ctypes

        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
        for lib in sorted(libs):
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(dll, sym):
                    threads = int(getattr(dll, sym)())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return name, threads


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def environment(args) -> dict:
    import numpy as np

    import bentchain

    blas, threads = blas_info(np)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "compiled": getattr(bentchain, "COMPILED", None),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


@dataclass
class PassResult:
    wall: float
    latencies: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    failed: dict = field(default_factory=dict)  # task index -> problems
    records: list = field(default_factory=list)  # (index, task, inspection), pass 0 only


def run_pass(wl, r: int, mode: str, keep: bool) -> PassResult:
    from workloads import Inspection

    wl.mode = mode
    tasks = wl.tasks(r)
    res = PassResult(wall=0.0)
    start = time.perf_counter()
    for idx, task in enumerate(tasks):
        a = time.perf_counter()
        try:
            out = task.call()
            err = None
        except Exception as exc:  # a failing task is counted, not fatal
            err = f"{task.kind}: raised {type(exc).__name__}: {exc}"
        res.latencies.append(time.perf_counter() - a)
        if err is None:
            try:
                insp = task.inspect(out)
            except Exception as exc:
                insp = Inspection("", [f"{task.kind}: output check raised "
                                       f"{type(exc).__name__}: {exc}"])
            del out
        else:
            insp = Inspection("", [err])
        res.digests.append(insp.digest)
        if insp.problems:
            res.failed[idx] = insp.problems
        if keep:
            for claim in insp.claims:
                claim.task = idx
            res.records.append((idx, task, insp))
    res.wall = time.perf_counter() - start
    return res


def oracle_check(wl, bc, claims, seed):
    """Recompute a seeded sample of claims with the independent oracle.
    Returns (err_q, err_t, [(task index, problem)])."""
    from oracle import Oracle

    oracle = Oracle(bc)
    rng = random.Random(f"oracle:{wl.name}:{seed}")
    scored = [c for c in claims if c.kind in ("reference", "arrival")]
    optimal = [c for c in claims if c.kind == "optimal"]
    sample = (rng.sample(scored, min(ORACLE_ARRIVALS, len(scored)))
              + rng.sample(optimal, min(ORACLE_OPTIMAL, len(optimal)))
              + [c for c in claims if c.kind == "trace"])
    err_q = err_t = 0.0
    problems = []
    for c in sample:
        if c.kind == "reference":
            p0, t0 = oracle.reference(c.spec, c.ref_window)
            eq, et = abs(c.values[0] - p0), abs(c.values[1] - t0) / t0
        elif c.kind == "arrival":
            q, s = oracle.normalized_arrival(c.spec, c.bend, c.ref_window)
            eq, et = abs(c.values[0] - q), abs(c.values[1] - s)
        elif c.kind == "optimal":
            q0, _ = oracle.normalized_arrival(c.spec, c.bend, c.ref_window)
            if not c.values[0] >= q0 - OPTIMAL_SLACK:
                problems.append((c.task, f"q_opt={c.values[0]!r} below q(delta=0)={q0!r} "
                                         f"for N={c.spec.n_sites} {c.bend}"))
            continue
        else:  # trace
            times, p_end = c.values
            lam, w = oracle.spectrum(c.spec, c.bend)
            eq, et = float(abs(p_end - oracle.end_probability(lam, w, times)).max()), 0.0
        err_q, err_t = max(err_q, eq), max(err_t, et)
        if not (eq <= ERR_Q_GATE and et <= ERR_T_GATE):
            problems.append((c.task, f"{c.kind} N={c.spec.n_sites} {c.bend}: "
                                     f"err_q={eq:.3g} err_t={et:.3g} against the oracle"))
    return err_q, err_t, problems


def percentile(values, pct):
    """Harrell-Davis estimate of the pct-th percentile: a Beta-weighted mean
    of all order statistics.  With a few dozen latencies of mixed task
    kinds it varies far less between runs than a single order statistic."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    q = pct / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    if a < 1.0 or b < 1.0:  # too few samples for the weights to be finite
        return float(np.percentile(x, pct))
    grid = np.linspace(0.0, 1.0, 20 * n + 1)
    inner = grid[1:-1]
    logpdf = (a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
    pdf = np.concatenate([[0.0], np.exp(logpdf - logpdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))])
    edges = np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1])
    return float(np.diff(edges) @ x)


def untraced(wl, seconds):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, len(passes), "u", keep=not passes))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall for p in passes) > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, peak_mb


def traced(wl):
    import spans

    tracer = spans.Tracer()
    plain, mismatched = [], []
    traced_wall = 0.0
    for r in range(wl.trace_passes):
        u = run_pass(wl, r, "u", keep=(r == 0))
        tracer.install()
        try:
            t = run_pass(wl, r, "t", keep=False)
        finally:
            tracer.uninstall()
        plain.append(u)
        traced_wall += t.wall
        for idx, (du, dt) in enumerate(zip(u.digests, t.digests)):
            if du != dt and idx not in u.failed:
                mismatched.append(f"pass {r} task {idx}: traced output differs")
        for idx, probs in t.failed.items():
            u.failed.setdefault(idx, probs)
    layers = tracer.layer_metrics(traced_wall)
    layers["trace.overhead_s"] = (traced_wall - sum(p.wall for p in plain), "s")
    layers["trace.wall_s"] = (traced_wall, "s")
    return plain, tracer, layers, mismatched


def main(argv=None):
    args = parse_args(argv)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = set_up(args.workload, args.seed, workdir)
        own_setup = time.perf_counter() - T_START
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        return measure(args, wl, own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, own_setup):
    import bentchain as bc

    env = environment(args)
    print("env " + json.dumps(env))

    if args.trace:
        passes, tracer, layers, mismatched = traced(wl)
    else:
        passes, peak_mb = untraced(wl, args.seconds)
        mismatched = []

    # correctness checks on pass 0, outside every timed region
    records = passes[0].records
    claims = wl.setup_claims() + [c for _, _, insp in records for c in insp.claims]
    post_problems, post_claims = wl.post_check(records)
    err_q, err_t, oracle_problems = oracle_check(wl, bc, claims + post_claims, args.seed)
    for idx, msg in post_problems + oracle_problems:
        passes[0].failed.setdefault(idx, []).append(msg)

    attempted = sum(len(p.latencies) for p in passes)
    failed = min(attempted, sum(len(p.failed) for p in passes) + len(wl.problems))
    problems = wl.problems + mismatched + [
        f"pass {r} task {i}: {m}" for r, p in enumerate(passes) for i, ms in p.failed.items()
        for m in ms]
    for msg in problems[:20]:
        print("problem: " + msg, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {attempted} tasks, "
          f"{failed} failed")
    quality = {
        "failed_frac": (failed / attempted, "fraction"),
        "err_q": (err_q, "1"),
        "err_t": (err_t, "1"),
    }
    if args.trace:
        metrics = {**layers, **quality}
        if tracer.absent:
            print("absent layers (reported as 0): " + ", ".join(tracer.absent))
        if tracer.broken_counters:
            print("counters that no longer match their layer: "
                  + ", ".join(sorted(tracer.broken_counters)))
        path = WORK / f"spans-{args.workload}.json"
        tracer.dump(path, {"environment": env, "trace_passes": len(passes)})
        print(f"spans written to {path}")
    else:
        setup = setup_samples(args, own_setup)
        latencies = [x for p in passes for x in p.latencies]
        tail_pct = wl.tail_percentile
        tail = percentile(latencies, tail_pct)
        print(f"tail is p{tail_pct}, with {sum(x > tail for x in latencies)} tasks above it; "
              f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
        metrics = {
            "wall_s": (statistics.median(p.wall for p in passes), "s"),
            "task_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
            "task_tail_ms": (tail * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    for name, (value, unit) in {**metrics, **quality}.items():
        if args.trace == 0 or name in quality:
            print(f"  {name:14s} {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
