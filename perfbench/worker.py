"""One workload process: set up, run the timed phase(s), check answers.

Started by ``run.py`` in a fresh process per setup.  It prints
``SETUP_DONE [seconds]`` once every circuit of the mix has answered once
and one warm-up pass has run, then runs one timed phase of ``--seconds``
(at least ``--min-requests`` requests, whole round-robin cycles), checks
its share of the sampled answers and prints one JSON object as its last
line: the phase's latencies and their host scale, which ``run.py`` pools
across workers.  The process pins itself, and so the server it starts,
to one vCPU and times the host-speed reference there (``hostref.py``):
once at start, and between requests throughout each timed phase.

In-process workloads drive ``AnalysisEngine.submit`` from one caller.
The serve workload starts ``repro serve --tcp`` as a subprocess and
drives it over several closed-loop connections.  With ``--trace 1`` the
process runs the timed phase twice, untraced then traced, and reports
per-layer metrics from the traced phase.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import selectors
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, sleep
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import metrics as m  # noqa: E402
from hostref import HostRef, pin_one_cpu  # noqa: E402
from probe import run_probe  # noqa: E402
from spans import ENCODE, SpanRecorder, load_records  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    EditSession,
    RequestStream,
    Workload,
    tiny,
)

#: Registry capacity above the largest mix, so no session is evicted.
MAX_SESSIONS = 16
#: Seconds to wait for the server to start, answer, or stop.
SERVER_TIMEOUT_S = 60.0
#: After a reference burst in the serve phase, how much later than the
#: other connections the burst's own connection sends again.
RESUME_LAG_S = 0.002


class Sampler:
    """Seeded reservoir of one answer per key, for the correctness check."""

    def __init__(self, seed: int, label: str):
        self.rng = random.Random(f"perfbench-sample:{seed}:{label}")
        self.kept: Dict[Tuple, Tuple[Dict, Dict]] = {}
        self.seen: Dict[Tuple, int] = {}

    def offer(self, meta: Dict[str, Any], envelope: Dict[str, Any]) -> None:
        key = (meta["kind"], meta["circuit"], meta.get("session"))
        self.seen[key] = self.seen.get(key, 0) + 1
        if self.rng.random() * self.seen[key] < 1.0:
            self.kept[key] = (meta, envelope)


def _record(phase: m.Phase, sampler: Sampler, request: Dict[str, Any],
            meta: Dict[str, Any], envelope: Dict[str, Any],
            latency_s: float) -> None:
    phase.latency_s.append(latency_s)
    phase.rtt_s[request["id"]] = latency_s
    phase.keys.append(f"{meta['kind']}:{meta['circuit']}")
    if envelope.get("ok"):
        sampler.offer(meta, envelope)
        telemetry = envelope.get("telemetry") or {}
        phase.envelope_kernel_ms.append(telemetry.get("kernel_ms", 0.0))
    else:
        phase.failed += 1
        if "overload" in envelope:
            phase.rejected += 1


def _setup_failed(envelope: Dict[str, Any]) -> None:
    raise SystemExit(f"setup request failed: {envelope.get('error')}")


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------

def _inprocess_phase(engine, stream: RequestStream, seconds: float,
                     min_requests: int, sampler: Sampler, host: HostRef,
                     recorder: Optional[SpanRecorder],
                     envelopes: Optional[List] = None) -> m.Phase:
    """Closed loop, one caller: a request is ``submit`` + ``to_dict``.
    Each ``(id, envelope)`` is kept in ``envelopes`` when given."""
    phase = m.Phase(seconds, min_requests)
    phase.calibrate(host)
    traffic = stream.timed()
    while True:
        request, meta = next(traffic)
        if recorder is not None:
            recorder.tag = request["id"]
        t0 = perf_counter()
        envelope = engine.submit(request).to_dict()
        t1 = perf_counter()
        _record(phase, sampler, request, meta, envelope, t1 - t0)
        if envelopes is not None:
            envelopes.append((request["id"], envelope))
        if phase.completed(stream.at_cycle_end):
            phase.calibrate(host)
            return phase
        if phase.due():
            phase.calibrate(host)


def _replay_encode(recorder: SpanRecorder, envelopes: List,
                   phase: m.Phase) -> None:
    """Encode each timed envelope as the serve tier would (``json.dumps``
    + newline), outside the timing, so the encode rows have the same
    meaning in process as over TCP."""
    encode = recorder.wrap(json.dumps, ENCODE, lambda *_a, **_k: (None, 0))
    for rid, envelope in envelopes:
        recorder.tag = rid
        phase.reply_bytes.append(len((encode(envelope) + "\n").encode()))
    recorder.tag = None


def run_inprocess(workload: Workload, args,
                  host: HostRef) -> Dict[str, Any]:
    from repro.engine import AnalysisEngine

    recorder = SpanRecorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    engine = AnalysisEngine(max_sessions=MAX_SESSIONS)
    stream = RequestStream(workload, args.seed, args.worker, 0)
    for _ in range(2):  # first answers, then one warm-up pass
        for request, _meta in stream.setup_pass():
            if recorder is not None:
                recorder.tag = request["id"]
            envelope = engine.submit(request).to_dict()
            if not envelope["ok"]:
                _setup_failed(envelope)
    if recorder is not None:
        recorder.uninstall()
    print("SETUP_DONE", flush=True)

    sampler = Sampler(args.seed, "untraced")
    phase = _inprocess_phase(engine, stream, args.seconds, args.min_requests,
                             sampler, host, None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samplers = [sampler]
    layers = None
    if recorder is not None:
        traced_sampler = Sampler(args.seed, "traced")
        envelopes: List = []
        recorder.install()
        traced = _inprocess_phase(engine, stream, args.seconds,
                                  args.min_requests, traced_sampler, host,
                                  recorder, envelopes)
        _replay_encode(recorder, envelopes, traced)
        run_probe(recorder, workload.name)
        recorder.uninstall()
        samplers.append(traced_sampler)
        layers = m.layer_metrics(workload.name, recorder.to_records(),
                                 recorder.plan_counts, traced, phase)
    engine.close()
    mismatches = _check(workload, samplers, {}, args)
    return _result(phase, peak_rss_mb, mismatches, layers)


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------

class Server:
    """``repro serve --tcp`` as a subprocess, stderr captured to a file."""

    def __init__(self, run_dir: Path, label: str, traced: bool):
        self.run_dir = run_dir
        self.stderr_path = run_dir / f"server-{label}.stderr"
        self.trace_path = (run_dir / f"server-{label}-spans.json"
                           if traced else None)
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        serve_args = ["serve", "--tcp", "127.0.0.1:0",
                      "--max-sessions", str(MAX_SESSIONS)]
        if self.trace_path is None:
            cmd = [sys.executable, "-m", "repro"] + serve_args
        else:
            cmd = [sys.executable, str(HERE / "serve_launcher.py"),
                   "--trace-out", str(self.trace_path)] + serve_args
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   TMPDIR=str(self.run_dir))
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err,
                cwd=str(self.run_dir), env=env)
        line = self._readline(SERVER_TIMEOUT_S)
        if not line.startswith("serving on "):
            self.stop()
            raise SystemExit(f"server did not start (see {self.stderr_path})")
        self.port = int(line.rsplit(":", 1)[1])

    def _readline(self, timeout: float) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                return ""
        return self.proc.stdout.readline().decode().strip()

    def stop(self) -> None:
        """Interrupt (the server's clean shutdown path) and reap it."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=SERVER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Connection:
    """One blocking line-protocol connection; ``call`` is one round trip."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=SERVER_TIMEOUT_S)
        self.reader = self.sock.makefile("rb")

    def call(self, request: Dict[str, Any]) -> Tuple[Dict, float, int]:
        data = (json.dumps(request) + "\n").encode()
        t0 = perf_counter()
        self.sock.sendall(data)
        reply = self.reader.readline()
        rtt = perf_counter() - t0
        if not reply:
            raise ConnectionError("server closed the connection")
        return json.loads(reply), rtt, len(reply)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _serve_phase(conns: List[Connection], streams: List[RequestStream],
                 seconds: float, min_requests: int, sampler: Sampler,
                 host: HostRef) -> m.Phase:
    """One closed-loop thread per connection until time and count are met.

    Any connection's cycle end can close the phase.  The phase ends for
    all connections at once: replies that arrive after it are not
    counted, so no connection runs on alone.  When a reference burst is
    due, no connection sends until the requests in flight are answered;
    the last reply then runs the burst, with the server idle.  After it
    the other connections send first and the burst's own connection
    ``RESUME_LAG_S`` later, as in the steady closed loop, where one
    request arrives while the other is being answered; two requests sent
    together would be merged into one batch far more often than the
    steady loop merges them.
    """
    cond = threading.Condition()
    phase = m.Phase(seconds, min_requests)
    phase.calibrate(host)
    state = {"inflight": 0, "pause": False, "over": False}
    errors: List[BaseException] = []

    def drive(k: int) -> None:
        traffic = streams[k].timed()
        try:
            while True:
                request, meta = next(traffic)
                with cond:
                    while state["pause"] and not state["over"]:
                        cond.wait()
                    if state["over"]:
                        return
                    state["inflight"] += 1
                envelope, rtt, size = conns[k].call(request)
                with cond:
                    state["inflight"] -= 1
                    if state["over"]:
                        return
                    _record(phase, sampler, request, meta, envelope, rtt)
                    phase.reply_bytes.append(size)
                    if phase.completed(streams[k].at_cycle_end):
                        state["over"] = True
                        cond.notify_all()
                        return
                    state["pause"] = state["pause"] or phase.due()
                    lag = state["pause"] and state["inflight"] == 0
                    if lag:
                        phase.calibrate(host)
                        state["pause"] = False
                        cond.notify_all()
                if lag:
                    sleep(RESUME_LAG_S)
        except (OSError, ValueError) as exc:
            with cond:
                errors.append(exc)
                state["over"] = True
                cond.notify_all()

    threads = [threading.Thread(target=drive, args=(k,)) for k in
               range(len(conns))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise SystemExit(f"serve client failed: {errors[0]!r}")
    phase.calibrate(host)
    return phase


def _serve_round(workload: Workload, args, host: HostRef,
                 gate_types: Dict[str, str], label: str, traced: bool):
    """Start a server, set it up, run one timed phase, stop it.

    Returns ``(setup_s, phase, sampler, edit_logs, server)``.
    """
    server = Server(Path(args.run_dir), label, traced)
    t0 = perf_counter()
    server.start()
    conns = [Connection(server.port) for _ in range(workload.connections)]
    sessions = [EditSession(f"edit{k}", workload.edit_circuit, gate_types)
                for k in range(workload.connections)]
    streams = [RequestStream(workload, args.seed, args.worker, k,
                             sessions[k])
               for k in range(workload.connections)]
    try:
        for _ in range(2):  # first answers, then one warm-up pass
            for k, stream in enumerate(streams):
                for request, _meta in stream.setup_pass(circuits=k == 0):
                    envelope = conns[k].call(request)[0]
                    if not envelope["ok"]:
                        _setup_failed(envelope)
        setup_s = perf_counter() - t0
        sampler = Sampler(args.seed, label)
        phase = _serve_phase(conns, streams, args.seconds,
                             args.min_requests, sampler, host)
    finally:
        for conn in conns:
            conn.close()
        server.stop()
    return setup_s, phase, sampler, {s.name: s.log for s in sessions}, server


def run_serve(workload: Workload, args, host: HostRef) -> Dict[str, Any]:
    from repro.circuits import get_benchmark

    circuit = get_benchmark(workload.edit_circuit)
    gate_types = {g: circuit.node(g).gate_type.value for g in circuit.gates}
    setup_s, phase, sampler, logs, _ = _serve_round(
        workload, args, host, gate_types, "untraced", False)
    print(f"SETUP_DONE {setup_s!r}", flush=True)
    # The server is this process's only child, so this is its peak RSS.
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    mismatches = _check(workload, [sampler], logs, args)
    layers = None
    if args.trace:
        _, traced, traced_sampler, traced_logs, server = _serve_round(
            workload, args, host, gate_types, "traced", True)
        mismatches += _check(workload, [traced_sampler], traced_logs, args)
        records, plans = load_records(str(server.trace_path))
        # The probe runs here in the client; its spans join the server's.
        recorder = SpanRecorder()
        recorder.install()
        run_probe(recorder, workload.name)
        recorder.uninstall()
        for record in recorder.to_records():
            if record["parent"] is not None:
                record["parent"] += len(records)
            records.append(record)
        for key, counts in recorder.plan_counts.items():
            plans.setdefault(key, counts)
        layers = m.layer_metrics(workload.name, records, plans, traced,
                                 phase)
    return _result(phase, peak_rss_mb, mismatches, layers)


# ----------------------------------------------------------------------
# Shared tail
# ----------------------------------------------------------------------

def _check(workload: Workload, samplers: List[Sampler],
           edit_logs: Dict[str, List[Dict[str, str]]], args) -> List[str]:
    """Check this worker's share of the sampled answers against the
    scalar oracle: of the sampled keys in sorted order, those whose
    index is ``--worker`` modulo ``--workers``.  Every worker
    of a run samples every key, so the run checks each key once."""
    from oracle import Oracle

    oracle = Oracle(workload.options)
    found = []
    for sampler in samplers:
        keys = sorted(sampler.kept, key=repr)
        for key in keys[args.worker::args.workers]:
            meta, envelope = sampler.kept[key]
            why = oracle.mismatch(meta, envelope, workload.correlation,
                                  edit_logs)
            if why is not None:
                found.append(why)
    return found


def _result(phase: m.Phase, peak_rss_mb: float, mismatches: List[str],
            layers: Optional[Tuple[Dict[str, float], Dict[str, str]]]
            ) -> Dict[str, Any]:
    values, sources = layers if layers is not None else (None, None)
    return {"phase": phase.to_json(), "mismatches": mismatches,
            "peak_rss_mb": peak_rss_mb, "layers": values,
            "sources": sources}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-requests", type=int, required=True)
    parser.add_argument("--worker", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    # Terminated runs unwind, so every child process is stopped too.
    signal.signal(signal.SIGTERM,
                  lambda signum, _frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    cpu = pin_one_cpu()
    host = HostRef()
    start_ref_ms = host.burst()
    run = run_inprocess if workload.kind == "inprocess" else run_serve
    result = run(workload, args, host)
    result.update(cpu=cpu, start_ref_ms=start_ref_ms)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
