"""Wall-clock spans around the public entry points of each layer.

Nothing under ``src/`` knows about this file.  :func:`install` puts a
timing wrapper on a fixed list of public entry points — class methods
by ``setattr`` on the class, module-level functions by rebinding the
name in every loaded ``repro.*`` module that holds the same object —
and :func:`uninstall` puts the originals back.  A wrapper records a
span (name, start, end, parent) only while its :class:`Tracer` is
recording; spans stay in memory until the run ends.

A layer's *self time* is the duration of its spans minus the part of
that interval covered by child spans (of any layer).  The measured
phase itself is the root span, so the self times of all names sum to
the traced wall time exactly; what is left on the root is the
*unattributed* share (benchmark driver code and public calls that are
not on the list).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

ROOT_SPAN = "measured_phase"

#: (module, class, method, layer) — patched by ``setattr`` on the class.
CLASS_ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.gateway.transport", "SimNetTransport", "submit", "gateway"),
    ("repro.gateway.fleet", "GatewayFleet", "submit", "gateway"),
    ("repro.gateway.fleet", "GatewayFleet", "flush", "gateway"),
    ("repro.chain.mempool", "Mempool", "add", "chain.mempool"),
    ("repro.chain.mempool", "Mempool", "take", "chain.mempool"),
    ("repro.net.sim", "Simulator", "run", "net"),
    ("repro.net.transport", "Network", "send", "net"),
    ("repro.net.transport", "Network", "broadcast", "net"),
    ("repro.chain.chain", "Chain", "produce_block", "chain"),
    ("repro.chain.executor", "TransactionExecutor", "execute", "chain.executor"),
    ("repro.runtime.runtime", "Runtime", "call", "runtime"),
    ("repro.chain.chain", "Chain", "prove_contract_at", "core"),
    ("repro.core.proofs", "ContractStateProof", "verify_against_root", "core"),
    ("repro.chain.lightclient", "LightClient", "add_header", "chain.lightclient"),
    ("repro.chain.lightclient", "LightClient", "valid_state_root", "chain.lightclient"),
    ("repro.ibc.bridge", "IBCBridge", "move_contract", "ibc"),
    ("repro.statedb.state", "WorldState", "commit", "statedb"),
    ("repro.statedb.state", "WorldState", "prove_account", "statedb"),
    ("repro.merkle.iavl", "IAVLTree", "set", "merkle"),
    ("repro.merkle.iavl", "IAVLTree", "prove", "merkle"),
    ("repro.merkle.proof", "MembershipProof", "computed_root", "merkle"),
)

#: (home module, function, layer) — rebound in every loaded ``repro.*``
#: module whose namespace holds the same function object.
MODULE_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.chain.tx", "sign_transaction", "chain.tx"),
    ("repro.core.move", "apply_move1", "core"),
    ("repro.core.move", "validate_move2", "core"),
    ("repro.core.move", "apply_move2", "core"),
    ("repro.statedb.state", "build_storage_trie", "statedb"),
    ("repro.statedb.state", "compute_storage_root", "statedb"),
    ("repro.merkle.proof", "verify_proof", "merkle"),
)

#: counted, never timed: one call costs about as much as a span would
COUNTED_FUNCTION = ("repro.crypto.hashing", "keccak")

#: spans that also add a number taken from the call to ``tallies``
TALLIES: Dict[str, Callable[[tuple, object], int]] = {
    # events processed, as Simulator.run reports them
    "Simulator.run": lambda args, result: result,
    # receipts that came back failed
    "TransactionExecutor.execute": lambda args, result: not result.success,
    # sibling digests folded by one proof verification
    "MembershipProof.computed_root": lambda args, result: len(args[0].steps),
}

LAYER_OF: Dict[str, str] = {
    f"{cls}.{method}": layer for _mod, cls, method, layer in CLASS_ENTRY_POINTS
}
LAYER_OF.update({name: layer for _mod, name, layer in MODULE_ENTRY_POINTS})

#: every layer that reports a ``<layer>.self_share``
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(LAYER_OF.values()))


class Tracer:
    """In-memory span store for one traced measured phase."""

    def __init__(self) -> None:
        self.recording = False
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = [-1]
        self.tallies: Dict[str, List[int]] = {name: [0] for name in TALLIES}
        self.keccak_calls = [0]
        self._keccak_at_begin = 0

    def name_id(self, name: str) -> int:
        known = self._name_ids.get(name)
        if known is None:
            known = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return known

    def begin(self) -> None:
        """Open the root span and start recording."""
        self.recording = True
        self._keccak_at_begin = self.keccak_calls[0]
        self.span_name.append(self.name_id(ROOT_SPAN))
        self.span_parent.append(-1)
        self.span_end.append(0.0)
        self._stack.append(0)
        self.span_start.append(time.perf_counter())

    def end(self) -> None:
        """Close the root span and stop recording."""
        self.span_end[0] = time.perf_counter()
        self._stack.pop()
        self.recording = False
        self.keccak_calls[0] -= self._keccak_at_begin

    # -- wrappers ------------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call while recording is one span."""
        tracer = self
        name_id = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tally = TALLIES.get(name)
        tally_cell = self.tallies.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if tally is not None:
                tally_cell[0] += tally(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn: Callable) -> Callable:
        """``fn`` wrapped to count calls (the total since install;
        :meth:`end` reduces it to the calls made while recording)."""
        cell = self.keccak_calls

        def wrapper(*chunks):
            cell[0] += 1
            return fn(*chunks)

        wrapper.__wrapped__ = fn
        return wrapper


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _rebind_everywhere(old: Callable, new: Callable) -> None:
    for module in _repro_modules():
        namespace = vars(module)
        for attr in [key for key, value in namespace.items() if value is old]:
            namespace[attr] = new


def install(tracer: Tracer) -> None:
    """Wrap every listed entry point.  Call with the workload's modules
    already imported; modules imported later pick the wrappers up from
    the home modules and :func:`uninstall` finds them there too."""
    for module_name, cls_name, method, _layer in CLASS_ENTRY_POINTS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, tracer.span(f"{cls_name}.{method}", original))
    for module_name, name, _layer in MODULE_ENTRY_POINTS:
        original = getattr(importlib.import_module(module_name), name)
        _rebind_everywhere(original, tracer.span(name, original))
    module_name, name = COUNTED_FUNCTION
    original = getattr(importlib.import_module(module_name), name)
    _rebind_everywhere(original, tracer.counter(original))


def uninstall() -> None:
    """Put every original back (a no-op when nothing is installed)."""
    for module_name, cls_name, method, _layer in CLASS_ENTRY_POINTS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        current = cls.__dict__[method]
        if hasattr(current, "__wrapped__"):
            setattr(cls, method, current.__wrapped__)
    functions = [(mod, name) for mod, name, _layer in MODULE_ENTRY_POINTS]
    for module_name, name in functions + [COUNTED_FUNCTION]:
        current = getattr(importlib.import_module(module_name), name)
        if hasattr(current, "__wrapped__"):
            _rebind_everywhere(current, current.__wrapped__)


class SpanTotals:
    """Per-name totals of one or more traced measured phases."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.count: Counter = Counter()
        self.total: Counter = Counter()  # inclusive seconds
        self.self_time: Counter = Counter()  # exclusive seconds
        #: (parent span name, child span name) -> direct children
        self.children: Counter = Counter()
        self.tallies: Counter = Counter()
        self.keccak_calls = 0

    def add(self, tracer: Tracer) -> None:
        """Fold one finished tracer in."""
        name_of = tracer.names
        ids, parents = tracer.span_name, tracer.span_parent
        starts, ends = tracer.span_start, tracer.span_end
        n = len(ids)
        durations = [ends[i] - starts[i] for i in range(n)]
        covered = [0.0] * n
        # A span is appended when it opens, so a parent's index is
        # always lower than its children's.
        for i in range(1, n):
            parent = parents[i]
            covered[parent] += durations[i]
            self.children[(name_of[ids[parent]], name_of[ids[i]])] += 1
        for i in range(n):
            name = name_of[ids[i]]
            self.count[name] += 1
            self.total[name] += durations[i]
            self.self_time[name] += durations[i] - covered[i]
        self.wall += durations[0]
        for name, cell in tracer.tallies.items():
            self.tallies[name] += cell[0]
        self.keccak_calls += tracer.keccak_calls[0]

    def layer_self(self, layer: str) -> float:
        return sum(
            seconds for name, seconds in self.self_time.items()
            if LAYER_OF.get(name) == layer
        )

    def mean_us(self, *names: str, exclusive: bool = False) -> float:
        """Mean microseconds of the named spans per call of the first
        one; 0.0 when there was no such call."""
        source = self.self_time if exclusive else self.total
        calls = self.count[names[0]]
        return 1e6 * sum(source[name] for name in names) / calls if calls else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: SpanTotals, ops: int, untraced_wall: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of BENCHMARK.json as name -> (value, unit).

    ``ops`` is the number of ops the traced phases completed and
    ``untraced_wall`` the wall time of the same phases run untraced.
    """
    t, count = totals, totals.count
    moves = count["apply_move2"]
    executed = count["TransactionExecutor.execute"]
    blocks = count["Chain.produce_block"]
    flushed = t.children[("GatewayFleet.flush", "Mempool.add")]
    out: Dict[str, Tuple[float, str]] = {
        f"{layer}.self_share": (ratio(t.layer_self(layer), t.wall), "share")
        for layer in LAYERS
    }
    out.update({
        "chain.tx.sign_us": (t.mean_us("sign_transaction"), "us"),
        "chain.tx.signs_per_op": (ratio(count["sign_transaction"], ops), "count"),
        "gateway.submit_us": (
            t.mean_us("GatewayFleet.submit", "SimNetTransport.submit"), "us"),
        "gateway.flush_us_per_tx": (
            1e6 * ratio(t.self_time["GatewayFleet.flush"], flushed), "us"),
        "gateway.txs_per_flush": (ratio(flushed, count["GatewayFleet.flush"]), "count"),
        "chain.mempool.add_us": (t.mean_us("Mempool.add"), "us"),
        "chain.mempool.take_us_per_tx": (
            1e6 * ratio(t.total["Mempool.take"], executed), "us"),
        "net.sim_us_per_event": (
            1e6 * ratio(t.self_time["Simulator.run"], t.tallies["Simulator.run"]), "us"),
        "net.events_per_op": (ratio(t.tallies["Simulator.run"], ops), "count"),
        "net.messages_per_block": (ratio(count["Network.send"], blocks), "count"),
        "chain.produce_block_self_ms": (
            t.mean_us("Chain.produce_block", exclusive=True) / 1e3, "ms"),
        "chain.txs_per_block": (ratio(executed, blocks), "count"),
        "chain.executor.execute_self_us": (
            t.mean_us("TransactionExecutor.execute", exclusive=True), "us"),
        "chain.executor.failed_receipts": (
            t.tallies["TransactionExecutor.execute"], "count"),
        "runtime.call_self_us": (t.mean_us("Runtime.call", exclusive=True), "us"),
        "runtime.calls_per_op": (ratio(count["Runtime.call"], ops), "count"),
        "core.move1_us": (t.mean_us("apply_move1"), "us"),
        "core.move2_us": (t.mean_us("apply_move2"), "us"),
        "core.proof_build_us": (t.mean_us("Chain.prove_contract_at"), "us"),
        "core.proof_verify_us": (
            t.mean_us("ContractStateProof.verify_against_root"), "us"),
        "core.moves_per_op": (ratio(moves, ops), "count"),
        "chain.lightclient.add_header_us": (t.mean_us("LightClient.add_header"), "us"),
        "ibc.bridge_self_us_per_move": (
            t.mean_us("IBCBridge.move_contract", exclusive=True), "us"),
        "statedb.commit_ms_per_block": (
            1e3 * ratio(t.total["WorldState.commit"], blocks), "ms"),
        "statedb.commit_us_per_tx": (
            1e6 * ratio(t.total["WorldState.commit"], executed), "us"),
        "statedb.prove_account_us": (t.mean_us("WorldState.prove_account"), "us"),
        "statedb.storage_trie_builds_per_move": (
            ratio(count["build_storage_trie"], moves), "count"),
        "merkle.set_us": (t.mean_us("IAVLTree.set"), "us"),
        "merkle.sets_per_tx": (ratio(count["IAVLTree.set"], executed), "count"),
        "merkle.prove_us": (t.mean_us("IAVLTree.prove"), "us"),
        "merkle.verify_us": (t.mean_us("MembershipProof.computed_root"), "us"),
        "merkle.proof_steps_mean": (
            ratio(t.tallies["MembershipProof.computed_root"],
                  count["MembershipProof.computed_root"]), "count"),
        "crypto.keccak_calls_per_op": (ratio(t.keccak_calls, ops), "count"),
        "trace.overhead_share": (ratio(t.wall, untraced_wall) - 1.0, "share"),
        "trace.unattributed_share": (ratio(t.self_time[ROOT_SPAN], t.wall), "share"),
    })
    return out


#: spans of one phase written to the Chrome trace file; more than this
#: and the viewers (chrome://tracing, ui.perfetto.dev) stop loading it
TRACE_FILE_SPANS = 200_000


def write_chrome_trace(tracer: Tracer, path) -> int:
    """Write the head of ``tracer``'s spans as Chrome ``trace_event``
    JSON (complete events, microseconds from the phase start).  Returns
    how many spans were written."""
    origin = tracer.span_start[0]
    n = min(len(tracer.span_name), TRACE_FILE_SPANS)
    events = []
    for i in range(n):
        name = tracer.names[tracer.span_name[i]]
        # The root span ends last; spans cut off by the cap keep their
        # recorded end, so every written event is complete.
        events.append({
            "name": name,
            "cat": LAYER_OF.get(name, "bench"),
            "ph": "X",
            "ts": round(1e6 * (tracer.span_start[i] - origin), 3),
            "dur": round(1e6 * (tracer.span_end[i] - tracer.span_start[i]), 3),
            "pid": 1,
            "tid": 1,
            "args": {"span": i, "parent": tracer.span_parent[i]},
        })
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return n
