"""Benchmark for nlsurf: one CLI workload, timed end to end or traced by layer.

    python3 bench/run.py --workload adj-mc --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: the package is imported from
./src and every file the run writes goes under ./.bench_run.  Each operation
is one `nlsurf.cli.run(argv)` call in this process, with a result file that
is parsed and checked afterwards.

--trace 0 reports the end-to-end metrics: the median wall time of the
operations, the set-up time of a fresh interpreter running the command at
its smallest legal size, and peak memory.  --trace 1 times the same command
untraced, then once more in a single process with every layer's public
functions wrapped (see spans.py), and reports per-layer counts and self
times; it also runs the tracing self-test.  Where the workload uses a pool,
the untraced single-process command is timed as well, so that the tracing
overhead compares like with like.  The lines printed first give each metric
by name and unit, the operations' fail ratio and, where the workload has a
headline estimate, the seconds to a 1% relative standard error.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

BLAS_THREADS = 1  # pool size x BLAS threads stays within the core count
MAX_WORKERS = 2
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
RSS_PERIOD_S = 0.02
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); from nlsurf.cli import run; sys.exit(run(sys.argv[1:]))"

# traced, this must enumerate 8000 grid points x 18 parameter variants in 36 calls
SELFTEST_COMMAND = "adjacency --dim 1 --L 2 --x 0.8 --method quadrature --t-nodes 16".split()
SELFTEST_ROWS, SELFTEST_CALLS = 144_000, 36


class PeakRss:
    """Peak resident memory of this process plus its live children (pool workers).

    A thread samples /proc every RSS_PERIOD_S; the process's own high-water
    mark from getrusage covers spikes between samples.  Shared pages of forked
    workers count once per process.
    """

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _rss(self, pid: int) -> int:
        try:
            with open(f"/proc/{pid}/statm", "rb") as f:
                return int(f.read().split()[1]) * self._page
        except (OSError, IndexError, ValueError):
            return 0

    def _tree(self, pid: int) -> list[int]:
        pids = [pid]
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children", "rb") as f:
                    for child in f.read().split():
                        pids += self._tree(int(child))
        except OSError:
            pass
        return pids

    def _sample(self):
        while not self._stop.wait(RSS_PERIOD_S):
            self.peak = max(self.peak, sum(self._rss(p) for p in self._tree(os.getpid())))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def megabytes(self) -> float:
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        return max(self.peak, own) / 2**20


def environment(workers: int) -> dict:
    """Software and hardware the numbers were taken on."""
    import platform

    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": _blas_threads(np),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        env["cpu"] = platform.processor() or "unknown"
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / n).read_text().strip() for n in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    env["caches"] = caches
    return env


def _blas_threads(np) -> int | None:
    """Thread count the bundled OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) + sorted(libs.glob("libopenblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Bench:
    """Runs operations of one workload and keeps what their checks found."""

    def __init__(self, root: Path, workload, seed: int):
        import nlsurf.cli

        self.cli = nlsurf.cli
        self.workload = workload
        self.seed = seed
        self.out = root / ".bench_run" / workload.name / "result.json"
        self.out.parent.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_bytes: dict[tuple, bytes] = {}

    def _outputs(self) -> list[Path]:
        return [self.out, self.out.with_suffix(".csv"), self.out.with_name(self.out.stem + ".manifest.json")]

    def _clear(self):
        for p in self._outputs():
            p.unlink(missing_ok=True)

    def _read(self, rc: int, check, key: tuple) -> dict:
        """Parse and check the files one operation wrote; count it."""
        self.attempted += 1
        facts: dict = {}
        if not self.out.exists():
            problems = [f"exit code {rc} and no result file"]
        else:
            data = self.out.read_bytes()
            csv = self._outputs()[1]
            csv_text = csv.read_text() if csv.exists() else None
            try:
                problems, facts = check(json.loads(data), csv_text, rc)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable result: {exc!r}"]
            facts["bytes_written"] = sum(p.stat().st_size for p in self._outputs() if p.exists())
            if self.first_bytes.setdefault(key, data) != data:
                problems.append("result bytes differ between runs of the same command")
        if problems:
            self.failed += 1
            self.problems += problems
        return facts

    def operation(self, argv: list[str], check=None) -> tuple[float, dict]:
        """One in-process CLI call; returns its wall time and checked facts."""
        self._clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            # looked up per call, so a traced operation enters through the wrapped cli.run
            rc = self.cli.run(argv + ["--out", str(self.out)])
            elapsed = time.perf_counter() - t0
        # results must not depend on the worker count, so it is not part of the key
        key = tuple(a for i, a in enumerate(argv) if "--workers" not in argv[max(i - 1, 0) : i + 1])
        facts = self._read(rc, check or self.workload.check, key)
        facts["poor_mixing_warnings"] = sum(w.category.__name__ == "PoorMixingWarning" for w in caught)
        return elapsed, facts

    def repeat(self, argv: list[str], seconds: float) -> tuple[list[float], dict]:
        """Operations back to back until the next one would end past `seconds`."""
        times: list[float] = []
        facts: dict = {}
        start = time.perf_counter()
        while not times or time.perf_counter() - start + statistics.median(times) <= seconds:
            elapsed, facts = self.operation(argv)
            times.append(elapsed)
        return times, facts

    def setup_times(self, argv: list[str]) -> list[float]:
        """Fresh interpreters running the command at its smallest legal size."""
        times = []
        for _ in range(SETUP_REPEATS):
            self._clear()
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, *argv, "--out", str(self.out)],
                capture_output=True,
                timeout=SETUP_TIMEOUT_S,
            )
            times.append(time.perf_counter() - t0)
            self._read(proc.returncode, _setup_check, tuple(argv))
        return times


def _setup_check(result: dict, csv_text: str | None, rc: int) -> tuple[list[str], dict]:
    # tiny grids may fail the verify checks (exit 1); the run must still write its result
    return ([] if rc in (0, 1) else [f"set-up exit code {rc}"]), {}


def _rel_se(headline: dict | None) -> float | None:
    if not headline or not headline.get("value"):
        return None
    return headline["std_error"] / abs(headline["value"])


def _tail(times: list[float]) -> str:
    """The highest percentile with ten operations slower than it."""
    n = len(times)
    if n < 20:
        return f"no tail percentile above the median: it needs 10 slower operations out of at least 20, not {n}"
    p = 100.0 * (1.0 - 10.0 / n)
    return f"p{p:.0f} {sorted(times)[n - 11]:.4f} s over {n} operations"


def _s_to_1pct_se(wall: float, facts: dict) -> float:
    """Time to a 1% relative std error on the headline estimate; 0 where there is none."""
    rel = _rel_se(facts.get("headline"))
    return wall * (rel / 0.01) ** 2 if rel is not None else 0.0


def untraced(bench: Bench, seconds: float, workers: int) -> dict[str, tuple[float, str]]:
    wl = bench.workload
    argv = wl.command(bench.seed, workers)
    print(f"  command      {' '.join(argv)}")
    setup = bench.setup_times(wl.setup_command(workers))
    with PeakRss() as rss:
        times, facts = bench.repeat(argv, seconds)
    wall = statistics.median(times)
    metrics = {"wall_s": (wall, "s"), "setup_s": (statistics.median(setup), "s"), "peak_rss_mb": (rss.megabytes(), "MB")}
    print(f"  wall_s       {wall:.4f} s  median of {len(times)} operations; {_tail(times)}")
    print(f"  operations   {' '.join(f'{t:.3f}' for t in times)} s")
    print(f"  setup_s      {metrics['setup_s'][0]:.4f} s  median of {len(setup)} fresh interpreters")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
    if facts.get("headline"):
        print(f"  s_to_1pct_se {_s_to_1pct_se(wall, facts):.4f} s  (headline relative std error {_rel_se(facts['headline']):.3e})")
    if "miss_bound" in facts:
        print(f"  verify misses {facts['misses']} (an operation fails above {facts['miss_bound']})")
    if facts.get("poor_mixing_warnings"):
        print(f"  PoorMixingWarning x{facts['poor_mixing_warnings']}")
    return metrics


def traced(bench: Bench, seconds: float, workers: int) -> dict[str, tuple[float, str]]:
    from spans import Tracer, per_layer

    # the workload's own command sets s_to_1pct_se; the trace runs in one
    # process, since spans recorded inside pool workers would not come back
    own = bench.workload.command(bench.seed, workers)
    single = bench.workload.command(bench.seed, 1)
    print(f"  command      {' '.join(own)}")
    if own == single:
        own_times, facts = bench.repeat(own, seconds)
        single_times = own_times
    else:
        print(f"  traced as    {' '.join(single)}")
        own_times, facts = bench.repeat(own, seconds / 2)
        single_times, _ = bench.repeat(single, seconds / 2)
    tracer = Tracer()
    with tracer.install():
        traced_wall, traced_facts = bench.operation(single)
    _require_one_cli_span(bench, tracer)
    m = per_layer(tracer)
    untraced_wall = statistics.median(single_times)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["cli.bytes_written"] = (traced_facts.get("bytes_written", 0), "B")
    m["s_to_1pct_se"] = (_s_to_1pct_se(statistics.median(own_times), facts), "s")
    print(f"  {len(tracer.spans)} spans; traced {traced_wall:.4f} s, untraced median {untraced_wall:.4f} s")
    selftest(bench)
    return m


def _require_one_cli_span(bench: Bench, tracer) -> None:
    """Every traced span must descend from the one cli.run span of the operation."""
    from spans import top_level

    roots = top_level(tracer)
    if roots != ["cli.run"]:
        bench.failed += 1
        bench.problems.append(f"traced operation has top-level spans {roots[:5]}, expected one cli.run")


def selftest(bench: Bench) -> None:
    """Wrapping must reach every module that imported a function by name."""
    from spans import Tracer, per_layer

    def check(result, csv_text, rc):
        return ([] if rc == 0 else [f"self-test exit code {rc}"]), {}

    bench.operation(SELFTEST_COMMAND, check)
    tracer = Tracer()
    with tracer.install():
        bench.operation(SELFTEST_COMMAND, check)  # bytes must match the untraced run
    _require_one_cli_span(bench, tracer)
    m = per_layer(tracer)
    rows, calls = m["exact.batch_gibbs.f64.rows"][0], m["exact.batch_gibbs.f64.calls"][0]
    if (rows, calls) != (SELFTEST_ROWS, SELFTEST_CALLS):
        bench.failed += 1
        bench.problems.append(f"self-test traced {rows} f64 rows in {calls} calls, expected {SELFTEST_ROWS} in {SELFTEST_CALLS}")
    print(f"  self-test: {rows} f64 rows in {calls} calls")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nlsurf" / "cli.py").is_file():
        sys.stderr.write(f"no nlsurf source tree under {root}/src: run from the root of a checkout\n")
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads, here and in every child
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}\n")
        return 2
    import nlsurf.cli

    if Path(nlsurf.__file__).resolve().parent != (root / "src" / "nlsurf").resolve():
        sys.stderr.write(f"imported nlsurf from {nlsurf.__file__}, not from this checkout\n")
        return 2

    workers = max(1, min(MAX_WORKERS, (os.cpu_count() or 1) // BLAS_THREADS))
    print("environment " + json.dumps(environment(workers), sort_keys=True))
    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        values = traced(bench, args.seconds, workers)
    else:
        values = untraced(bench, args.seconds, workers)
    for problem in bench.problems:
        print(f"  FAILED: {problem}")
    print(f"  fail_ratio   {bench.failed / bench.attempted:.4g} ({bench.failed} of {bench.attempted} operations)")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    result = {"correct": not bench.problems, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
