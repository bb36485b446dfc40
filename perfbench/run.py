"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload catalog_plain --seed 1 \\
        --seconds 15 --trace 0

Runs from the root of a source checkout (``src/repro`` must exist) and
needs nothing built.  With ``--trace 0`` the run is ``WORKERS`` fresh
worker processes (``worker.py``) one after the other.  Each sets the
workload up, runs a timed phase of ``--seconds / WORKERS`` and checks
its share of a seeded sample of answers against the scalar oracle.
``setup_s`` is the median of their setup times; the latency
percentiles and the throughput are taken over the pooled requests of
all timed phases (at least ``MIN_REQUESTS``).  Every timing is scaled to the
host-speed reference measured beside it (``hostref.py``); the figures as
measured are printed on the human-readable lines and kept in
``result.json``.  With ``--trace 1`` one worker sets up once, runs an
untraced and a traced timed phase of ``--seconds`` each, and the
per-layer metrics are printed instead.

Human-readable lines come first; the last stdout line is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is non-zero on any correctness mismatch or failed worker.  Every run
gets a fresh directory under ``.perfbench/runs/`` holding worker and
server stderr, span dumps and the environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from hostref import REF_MS  # noqa: E402
from metrics import END_TO_END, PER_LAYER, Phase  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh workers per untraced run; ``setup_s`` is the median of their
#: setups, and each measures a share of the run's timed seconds.
WORKERS = 3
#: Least timed requests per run, so at least 10 lie beyond p90
#: (``--tiny`` smoke runs only need a handful).
MIN_REQUESTS = 100
TINY_MIN_REQUESTS = 10
#: Whole-run budget; a worker still running after it is killed.
RUN_BUDGET_S = 170.0


class LineReader:
    """Line reader over a child's stdout pipe with a deadline."""

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.buf = b""
        self.eof = False
        self.sel = selectors.DefaultSelector()
        self.sel.register(proc.stdout, selectors.EVENT_READ)

    def readline(self, deadline: float) -> Optional[str]:
        """The next line, or None at EOF; raises TimeoutError."""
        while b"\n" not in self.buf and not self.eof:
            left = deadline - time.monotonic()
            if left <= 0 or not self.sel.select(left):
                raise TimeoutError("worker did not answer in time")
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            self.eof = not chunk
            self.buf += chunk
        if not self.buf:
            return None
        line, _, self.buf = self.buf.partition(b"\n")
        return line.decode()

    def close(self) -> None:
        self.sel.close()
        self.proc.stdout.close()


def environment() -> Dict[str, Any]:
    """What a result depends on besides the workload and seed."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def run_worker(args, run_dir: Path, index: int, workers: int,
               deadline: float):
    """Worker ``index`` of ``workers``: ``(setup_s, result)``."""
    least = TINY_MIN_REQUESTS if args.tiny else MIN_REQUESTS
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / workers),
           "--min-requests", str(-(-least // workers)),
           "--worker", str(index), "--workers", str(workers),
           "--trace", str(args.trace), "--run-dir", str(run_dir)]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, TMPDIR=str(run_dir))
    stderr_path = run_dir / f"worker-{index}.stderr"
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                cwd=str(ROOT), env=env)
    reader = LineReader(proc)
    setup_s = None
    lines: List[str] = []
    try:
        while True:
            line = reader.readline(deadline)
            if line is None:
                break
            if line.startswith("SETUP_DONE"):
                # The serve client reports server-spawn-to-warm itself.
                reported = line.split()[1:]
                setup_s = (float(reported[0]) if reported
                           else time.perf_counter() - t0)
            else:
                lines.append(line)
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except (TimeoutError, subprocess.TimeoutExpired):
        raise SystemExit(f"worker {index} timed out (see {stderr_path})")
    finally:
        reader.close()
        if proc.poll() is None:
            # SIGTERM first: the worker then stops its own server.
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or setup_s is None:
        tail = stderr_path.read_text(errors="replace")[-2000:]
        raise SystemExit(f"worker {index} failed "
                         f"(exit {proc.returncode}):\n{tail}")
    return setup_s, json.loads(lines[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: small circuits, one setup")
    args = parser.parse_args(argv)
    # Terminated runs unwind, so every child process is stopped too.
    signal.signal(signal.SIGTERM,
                  lambda signum, _frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no source tree at {ROOT / 'src' / 'repro'}; run from a "
              f"repository checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = (ROOT / ".perfbench" / "runs" /
               f"{args.workload}-seed{args.seed}-trace{args.trace}-"
               f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    run_dir.mkdir(parents=True)
    env = environment()
    (run_dir / "env.json").write_text(json.dumps(env, indent=1))

    workers = 1 if args.trace or args.tiny else WORKERS
    setups, raw_setups, results, phases, pooled = [], [], [], [], Phase()
    for i in range(workers):
        setup_s, result = run_worker(args, run_dir, i, workers, deadline)
        phases.append(Phase.from_json(result["phase"]))
        pooled.merge(phases[-1])
        results.append(result)
        # Set-up is scaled by the bursts just before and just after it.
        around = (result["start_ref_ms"] + phases[-1].ref_ms[0]) / 2
        raw_setups.append(setup_s)
        setups.append(setup_s * REF_MS / around)
    mismatches = [why for r in results for why in r["mismatches"]]
    failed = pooled.failed + len(mismatches)
    latency = pooled.latency_ms()
    raw_latency = pooled.latency_ms(scaled=False)
    per_worker = [(p.latency_ms()["p50"], p.latency_ms()["p90"],
                   p.throughput_rps()) for p in phases]
    raw = {"setup_s": statistics.median(raw_setups),
           "latency_p50_ms": raw_latency["p50"],
           "latency_p90_ms": raw_latency["p90"],
           "throughput_rps": pooled.throughput_rps(scaled=False)}
    ref_ms = statistics.median(pooled.ref_ms)

    if args.trace:
        units = dict(PER_LAYER)
        values = results[0]["layers"]
        sources = results[0]["sources"]
    else:
        units = dict(END_TO_END)
        values = {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": latency["p50"],
            "latency_p90_ms": latency["p90"],
            "throughput_rps": pooled.throughput_rps(),
            "ok_frac": 1.0 - failed / pooled.attempted,
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in results),
        }
        sources = {}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    summary = {"correct": not mismatches, "attempted": pooled.attempted,
               "failed": failed, "metrics": metrics}

    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{pooled.attempted} requests in {pooled.elapsed_s:.2f} s "
          f"over {workers} worker(s), {latency['beyond_p90']} beyond the "
          f"pooled p90, "
          f"setups {[round(s, 3) for s in setups]} s")
    print(f"# host reference: median {ref_ms:.4f} ms per call over "
          f"{len(pooled.ref_ms)} bursts (scale to {REF_MS} ms); "
          f"as measured: " + ", ".join(f"{k} {v:.4f}"
                                       for k, v in raw.items()))
    for i, (phase, (p50, p90, rps)) in enumerate(zip(phases, per_worker)):
        print(f"#   worker {i} (vCPU {results[i]['cpu']}): "
              f"{phase.attempted} requests in "
              f"{phase.elapsed_s:.2f} s, p50 {p50:.3f} ms, p90 {p90:.3f} ms, "
              f"{rps:.3f} req/s")
    cumulative = 0.0
    for key, (share, median_ms) in pooled.bands().items():
        cumulative += share
        print(f"#   band {key:22s} share {share:6.3f} cum {cumulative:6.3f} "
              f"median {median_ms:9.3f} ms")
    for name, metric in metrics.items():
        source = f"  ({sources[name]})" if sources else ""
        print(f"{name:42s} {metric['value']:14.4f} {metric['unit']}{source}")
    for why in mismatches:
        print(f"MISMATCH {why}", file=sys.stderr)
    (run_dir / "result.json").write_text(json.dumps(
        dict(summary, setups_s=setups, as_measured=raw,
             host_ref_ms=ref_ms, sources=sources, env=env), indent=1))
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
