"""urnsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One workload runs in one process and one thread.  With --trace 0 it times
ops for S seconds, checks their outputs and prints the end-to-end metrics;
with --trace 1 it times ops untraced for S/2 seconds, replays the same ops
with wrappers installed around urnsim's layers, and prints the per-layer
metrics.  Times are scaled to a reference host speed measured between ops
(speed.py).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  ``--workload all`` runs every
workload in its own process, one after another, and prints a summary.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
NAMES = ("traj_1e7_pair", "traj_1e6_pair", "series_sweep")
# setup_s is the median of this many set-ups: this process and the probes
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 600
UNITS = {"setup_s": "s", "op_p50_s": "s", "op_p90_s": "s", "ops_per_s": "1/s",
         "peak_rss_mb": "MB"}


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_urnsim() -> None:
    if not (SRC / "urnsim" / "__init__.py").is_file():
        _fail(f"no urnsim sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import urnsim
    if Path(urnsim.__file__).resolve().parent != SRC / "urnsim":
        _fail(f"imported urnsim from {urnsim.__file__}, not from {SRC}")


def _setup(name: str, seed: int):
    _import_urnsim()
    import workloads
    wl = workloads.WORKLOADS[name]()
    wl.setup(seed)
    return workloads, wl


def _timed_phase(wl, seed: int, probe, seconds: float | None, count: int | None = None,
                 tracer=None):
    """Run ops until ``seconds`` have passed (stopping at the block boundary
    nearest to that time) or until ``count`` ops ran.  Between ops the speed
    probe samples the host, outside every timed interval.

    Returns per op its start time, its wall time, its slot (the op plus the
    input generation before it, such as a pass's builds) and its result.
    """
    clock = time.perf_counter
    starts, walls, slots, results = [], [], [], []
    gen = wl.ops(seed)
    probe.sample()
    while True:
        n = len(results)
        if n and n % wl.block == 0:
            if count is not None:
                if n >= count:
                    break
            elif sum(slots) * (1.0 + 0.5 / (n // wl.block)) >= seconds:
                break
        probe.maybe_sample()
        s0 = clock()
        op = next(gen)
        if tracer is not None:
            tracer.op = n
        t = clock()
        res = op()
        end = clock()
        if tracer is not None:
            tracer.op = None
        starts.append(t)
        walls.append(end - t)
        slots.append(end - s0)
        results.append(res)
    probe.sample()
    return starts, walls, slots, results


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _provenance(seed: int) -> dict:
    import numpy
    import scipy
    import urnsim
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "urnsim": urnsim.__version__, "commit": _git_commit(), "seed": seed}


def _setup_probe(name: str, seed: int) -> tuple[float, float]:
    """(raw, reference-speed) set-up time of a fresh process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    raw, scaled = out.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scaled)


def _quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the
    order statistics.  A pass mixes op kinds whose costs differ by steps, and
    a single order statistic jumps between those steps from run to run."""
    import numpy as np
    from scipy.special import betainc
    x = np.sort(np.asarray(values))
    n = x.size
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ x)


def _print_metrics(metrics: dict) -> None:
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<{width}}  {value:.6g} {unit}")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    workloads, wl = _setup(name, seed)
    setup_self = time.perf_counter() - _T0
    import speed
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    if not trace:
        probe = speed.SpeedProbe()
        starts, walls, slots, results = _timed_phase(wl, seed, probe, seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, lines = wl.check(results)
        # the phase's first burst follows the set-up directly
        setups = [(setup_self, probe.scale([starts[0]], [setup_self])[0])]
        setups += [_setup_probe(name, seed) for _ in range(SETUP_SAMPLES - 1)]
        scaled = probe.scale(starts, walls)
        n = len(walls)
        raw = {"op_p50_s": _quantile(walls, 0.5), "op_p90_s": _quantile(walls, 0.9),
               "ops_per_s": n / sum(slots)}
        metrics = {
            "setup_s": statistics.median(s for _, s in setups),
            "op_p50_s": _quantile(scaled, 0.5),
            "op_p90_s": _quantile(scaled, 0.9),
            "ops_per_s": n / sum(probe.scale(starts, slots)),
            "peak_rss_mb": peak_mb,
        }
        metrics = {k: (v, UNITS[k]) for k, v in metrics.items()}
        beyond = sum(w > metrics["op_p90_s"][0] for w in scaled)
        print(f"ops {n} in {sum(slots):.3f} s; {beyond} ops lie beyond op_p90_s"
              + ("" if beyond >= 10 else " (fewer than 10: op_p90_s is near the maximum)"))
        print(f"host speed: kernel median {1e3 * statistics.median(probe.samples):.3f} ms "
              f"over {len(probe.samples)} samples; reference {1e3 * speed.REF_KERNEL_S:.3f} ms")
        print("as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
              + "; setup " + ", ".join(f"{r:.3f}" for r, _ in setups) + " s")
    else:
        import tracing
        base_probe, probe = speed.SpeedProbe(), speed.SpeedProbe()
        base_starts, _, base_slots, results = _timed_phase(wl, seed, base_probe,
                                                           seconds / 2.0)
        n = len(results)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            starts, walls, slots, replay = _timed_phase(wl, seed, probe, None, count=n,
                                                        tracer=tracer)
        finally:
            tracer.uninstall()
        failed, lines = wl.check(results)
        same = [workloads.fingerprint(a) == workloads.fingerprint(b)
                for a, b in zip(results, replay)]
        lines.append(f"check replay: {sum(same)} of {n} traced ops reproduce the untraced "
                     f"outputs")
        failed = [f or not s for f, s in zip(failed, same)]
        f = probe.factor()
        metrics = {k: (v * f if u in ("s", "ns") else v, u)
                   for k, (v, u) in tracing.layer_metrics(tracer.spans, walls).items()}
        base_ref = sum(base_probe.scale(base_starts, base_slots))
        traced_ref = sum(probe.scale(starts, slots))
        metrics["trace.overhead_frac"] = ((traced_ref - base_ref) / base_ref, "frac")
        OUT_DIR.mkdir(exist_ok=True)
        dump = OUT_DIR / f"trace-{name}-seed{seed}.json"
        dump.write_text(json.dumps({
            "workload": name, "seed": seed, "speed_factor": f,
            "untraced_wall_s": sum(base_slots), "traced_wall_s": sum(slots),
            "op_walls_s": walls,
            "span_fields": ["name", "start", "end", "parent", "op", "counts", "nested"],
            "spans": tracer.spans,
            "metrics": {k: v for k, (v, _) in metrics.items()}}))
        print(f"ops {n}: untraced {sum(base_slots):.3f} s, traced {sum(slots):.3f} s; "
              f"{len(tracer.spans)} spans written to {dump.relative_to(ROOT)}")
    for line in lines:
        print(line)
    n_failed = sum(failed)
    print(f"failed_frac {n_failed / len(failed):.6g} ({n_failed} of {len(failed)} ops)")
    _print_metrics(metrics)
    print(json.dumps({"provenance": _provenance(seed)}))
    print(_result_line(n_failed == 0, len(failed), n_failed, metrics))


def run_all(seed: int, seconds: float, trace: bool) -> None:
    summary = {}
    for name in NAMES:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        print(out.stdout, end="")
        if out.returncode != 0:
            print(out.stderr, end="", file=sys.stderr)
            _fail(f"workload {name} exited with code {out.returncode}")
        summary[name] = json.loads(out.stdout.strip().splitlines()[-1])
    print("summary")
    for name, res in summary.items():
        print(f"{name}: correct {res['correct']}, {res['failed']} of {res['attempted']} "
              f"ops failed")
        for key, m in res["metrics"].items():
            print(f"  {key} {m['value']:.6g} {m['unit']}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seed < 0:
        _fail("--seed must be >= 0")
    if args.seconds <= 0:
        _fail("--seconds must be > 0")
    if args.setup_probe:
        _setup(args.workload, args.seed)
        setup = time.perf_counter() - _T0
        import speed
        probe = speed.SpeedProbe()
        probe.sample(15)
        print(setup, probe.scale([0.0], [setup])[0])
    elif args.workload == "all":
        run_all(args.seed, args.seconds, bool(args.trace))
    else:
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
