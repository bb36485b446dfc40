"""Workload definitions and seeded request generation.

Each workload's circuit mix is a fixed weighted round-robin: one cycle
holds every circuit as many times as its weight.  The workload seed only
shuffles the order inside a cycle, draws the eps values and picks the
edit targets, so a seed change cannot move which circuit a latency
percentile falls on.  The weights are chosen so that p50 and p90 each
fall inside one circuit's latency band (see README.md, "Workloads").

This module generates plain request dicts; it imports nothing from the
analyzer, so the serve client can build its traffic without loading it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

#: Session seed of the weight estimator, fixed on every workload (the
#: workload seed never reaches the estimator).
SESSION_SEED = 0

#: Estimator pinned as in the repository's perf benchmarks: sampled
#: weights from 2**14 patterns, no weight disk cache.
PLAIN_OPTIONS = {"weights": "sampled", "n_patterns": 1 << 14,
                 "seed": SESSION_SEED}
CORRELATED_OPTIONS = dict(PLAIN_OPTIONS, level_gap=6)

#: Points per serve sweep request.
SWEEP_POINTS = 32

#: Circuits whose kernels get per-circuit per-layer rows (small, middle,
#: largest), and the circuit every named edit session starts from.
PLAIN_KERNEL_CIRCUITS = ("i10", "c499", "b9")
CORR_KERNEL_CIRCUITS = ("i10", "c1355", "b9")
EDIT_CIRCUIT = "i10"

#: Gate-type swaps that keep a gate's arity: ``swap_gate`` edits flip a
#: gate to its complement, so every edit is a type-only swap.
COMPLEMENT = {"and": "nand", "nand": "and", "or": "nor", "nor": "or",
              "xor": "xnor", "xnor": "xor", "not": "buf", "buf": "not"}


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"inprocess"`` (AnalysisEngine.submit) or ``"serve"`` (TCP).
    kind: str
    #: circuit -> copies per round-robin cycle.
    mix: Dict[str, int]
    correlation: bool
    options: Dict[str, object]
    #: Serve only: closed-loop connections, and the circuit every
    #: connection's named edit session starts from (each cycle then
    #: holds one edit + reanalyze pair).
    connections: int = 1
    edit_circuit: Optional[str] = None

    @property
    def circuits(self) -> List[str]:
        return list(self.mix)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="catalog_plain", kind="inprocess",
        # Sorted by warm latency; p50 falls in b9's block, p90 in c3540's.
        mix={"x2": 2, "c499": 2, "cu": 2, "c1355": 2, "b9": 4,
             "c2670": 2, "frg2": 1, "c1908": 1, "c3540": 3, "i10": 1},
        correlation=False, options=PLAIN_OPTIONS),
    Workload(
        name="catalog_correlated", kind="inprocess",
        # c1908, c2670, frg2 and c3540 are dropped: their correlated
        # plans and warm points (0.4-2.2 s each) do not fit the run.
        # p50 falls low in c499's block (0.40-0.80), p90 mid-way in
        # c1355's (0.85-0.95); each block's upper neighbour is about 2x
        # slower, so a worker slowed by host noise does not carry them.
        mix={"x2": 4, "cu": 4, "c499": 8, "b9": 1, "c1355": 2, "i10": 1},
        correlation=True, options=CORRELATED_OPTIONS),
    Workload(
        name="serve_sweep_edit", kind="serve",
        mix={"x2": 1, "cu": 1, "b9": 1, "c499": 1, "c1355": 1,
             "c1908": 1, "c2670": 1, "frg2": 1, "c3540": 1, "i10": 1},
        correlation=False, options=PLAIN_OPTIONS,
        connections=2, edit_circuit=EDIT_CIRCUIT),
)}

#: Reduced mixes for the smoke test (``--tiny``): same shapes, small
#: circuits only, so every workload runs in seconds.
TINY_MIX = {
    "catalog_plain": {"x2": 1, "c499": 1},
    "catalog_correlated": {"x2": 1, "cu": 1},
    "serve_sweep_edit": {"x2": 1, "c499": 1},
}
TINY_EDIT_CIRCUIT = "x2"


def tiny(workload: Workload) -> Workload:
    return replace(workload, mix=TINY_MIX[workload.name],
                   edit_circuit=(TINY_EDIT_CIRCUIT if workload.edit_circuit
                                 else None))


def connection_rng(seed: int, worker: int,
                   connection: int) -> random.Random:
    """The seeded generator behind one connection's (or caller's) traffic
    in one worker of a run.  The workers of a run draw different
    sequences, so a run averages over three draws of cycle orders, eps
    values and edit targets: when every worker replayed one sequence,
    the serve p90 of a seed repeated within 1-2% while two seeds
    differed by 15%."""
    return random.Random(f"perfbench:{seed}:{worker}:{connection}")


def cycle_items(workload: Workload) -> List[Tuple[str, str]]:
    """One round-robin cycle as ``(kind, circuit)`` items, unshuffled."""
    items = [("analyze" if workload.kind == "inprocess" else "sweep", c)
             for c, copies in workload.mix.items() for _ in range(copies)]
    if workload.edit_circuit is not None:
        items.append(("edit", workload.edit_circuit))
    return items


def eps_point(rng: random.Random) -> float:
    return rng.uniform(0.001, 0.1)


def eps_sweep(rng: random.Random) -> List[float]:
    return sorted(rng.uniform(0.001, 0.2) for _ in range(SWEEP_POINTS))


class EditSession:
    """Client-side view of one named edit session: its gate types and the
    edit log the server has been sent, for the from-scratch check."""

    def __init__(self, name: str, circuit: str,
                 gate_types: Dict[str, str]):
        self.name = name
        self.circuit = circuit
        self.gate_types = dict(gate_types)
        self.swappable = sorted(g for g, t in gate_types.items()
                                if t in COMPLEMENT)
        self.log: List[Dict[str, str]] = []

    def next_edit(self, rng: random.Random) -> Dict[str, str]:
        gate = rng.choice(self.swappable)
        new_type = COMPLEMENT[self.gate_types[gate]]
        self.gate_types[gate] = new_type
        edit = {"kind": "swap_gate", "gate": gate, "gate_type": new_type}
        self.log.append(edit)
        return edit


class RequestStream:
    """The seeded request sequence of one caller / connection.

    Yields ``(request, meta)`` pairs; ``meta`` carries what the
    correctness check needs (kind, circuit, eps, edit-log length).
    An ``edit`` cycle item expands to an ``edit`` then a ``reanalyze``
    on the connection's own named session.
    """

    def __init__(self, workload: Workload, seed: int, worker: int,
                 connection: int,
                 edit_session: Optional[EditSession] = None):
        self.workload = workload
        self.rng = connection_rng(seed, worker, connection)
        self.edit_session = edit_session
        self._ids = 0
        self.prefix = f"c{connection}"
        self.at_cycle_end = False

    def _id(self, phase: str) -> str:
        self._ids += 1
        return f"{phase}:{self.prefix}:{self._ids}"

    def request(self, kind: str, circuit: str, phase: str
                ) -> List[Tuple[Dict[str, object], Dict[str, object]]]:
        w = self.workload
        if kind == "analyze":
            eps = eps_point(self.rng)
            req = {"id": self._id(phase), "op": "analyze", "circuit": circuit,
                   "eps": eps, "correlation": w.correlation,
                   "options": w.options}
            return [(req, {"kind": kind, "circuit": circuit, "eps": [eps]})]
        if kind == "sweep":
            eps = eps_sweep(self.rng)
            req = {"id": self._id(phase), "op": "sweep", "circuit": circuit,
                   "eps": eps, "correlation": w.correlation,
                   "options": w.options}
            return [(req, {"kind": kind, "circuit": circuit, "eps": eps})]
        session = self.edit_session
        edit = session.next_edit(self.rng)
        eps = eps_point(self.rng)
        return [
            ({"id": self._id(phase), "op": "edit", "session": session.name,
              "circuit": session.circuit, "options": w.options,
              "edits": [edit]},
             {"kind": "edit", "circuit": session.circuit}),
            ({"id": self._id(phase), "op": "reanalyze",
              "session": session.name, "eps": eps,
              "correlation": w.correlation},
             {"kind": "reanalyze", "circuit": session.circuit, "eps": [eps],
              "session": session.name, "log_len": len(session.log)}),
        ]

    def setup_pass(self, circuits: bool = True
                   ) -> Iterator[Tuple[Dict[str, object], Dict[str, object]]]:
        """Every circuit once (unless ``circuits`` is false), then one
        edit + reanalyze when this stream has an edit session."""
        kind = "analyze" if self.workload.kind == "inprocess" else "sweep"
        for circuit in (self.workload.circuits if circuits else ()):
            yield from self.request(kind, circuit, "s")
        if self.edit_session is not None:
            yield from self.request("edit", self.workload.edit_circuit, "s")

    def timed(self) -> Iterator[Tuple[Dict[str, object], Dict[str, object]]]:
        """Endless timed traffic: shuffled round-robin cycles.

        ``at_cycle_end`` is true while the last request of a cycle is
        out, so callers can stop on whole cycles and every run measures
        the mix in its exact proportions.
        """
        while True:
            items = cycle_items(self.workload)
            self.rng.shuffle(items)
            pairs = [pair for kind, circuit in items
                     for pair in self.request(kind, circuit, "t")]
            for i, pair in enumerate(pairs):
                self.at_cycle_end = i == len(pairs) - 1
                yield pair
