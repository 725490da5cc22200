"""Outside-in layer tracer for the layered benchmark.

The tracer replaces public callables of ``repro`` with thin wrappers that
record one span per call: (callable, start, end).  Spans live in one flat
``array`` and are folded into per-callable and per-layer *self* time after
the timed phase; a layer's self time is its spans' durations minus the
part covered by their child spans.  A span's parent is recovered from how
the intervals nest, and the request (operation) it ran in from the span
index at which each request started.

The program itself is not modified: wrappers are installed on the class
or module attribute inside the benchmark's own workload process only, and
:meth:`Tracer.uninstall` restores the originals.

Wrappers are generated with the wrapped function's own signature, so a
call costs no extra argument packing; that roughly halves their cost next
to a generic ``(*args, **kwargs)`` wrapper.  What remains is calibrated
once per run on a no-op method and subtracted in the fold (see
:meth:`Tracer.fold`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from array import array
from bisect import bisect_right
from typing import Callable, Dict, Iterable, List, Tuple

#: layer -> [(module, attribute path)], attribute path "Class.method" or
#: "function".  ``Class.*`` / ``Class.on_*`` expand to the public methods
#: (with that prefix) and ``CONTROLLERS`` to the hooks of every registered
#: rate controller, at install time (see :func:`_expand`).
LAYER_TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "kernels.viterbi": [
        ("repro.phy.viterbi", "ViterbiDecoder.decode"),
        ("repro.phy.viterbi", "ViterbiDecoder.decode_many"),
    ],
    "kernels.demap": [
        ("repro.phy.modulation", "Modulation.demap_soft"),
        ("repro.phy.modulation", "Modulation.demap_hard"),
    ],
    "phy.tx": [("repro.phy.transmitter", "Transmitter.transmit")],
    "phy.rx": [
        ("repro.phy.receiver", "Receiver.observe"),
        ("repro.phy.receiver", "Receiver.observe_many"),
        ("repro.phy.receiver", "Receiver.decode"),
        ("repro.phy.receiver", "Receiver.decode_many"),
    ],
    "channel": [
        ("repro.channel.link", "IndoorChannel.transmit"),
        ("repro.channel.link", "IndoorChannel.evolve"),
    ],
    "cos": [
        ("repro.cos.link", "CosLink.exchange"),
        ("repro.cos.link", "CosTransmitter.build"),
        ("repro.cos.link", "CosReceiver.receive"),
        ("repro.cos.energy", "EnergyDetector.detect"),
        ("repro.cos.selection", "SubcarrierSelector.select"),
    ],
    "net.build": [("repro.net.simulator", "NetSimulator.__init__")],
    "net.scheduler": [
        ("repro.net.scheduler", "EventScheduler.run"),
        ("repro.net.scheduler", "EventScheduler.at"),
        ("repro.net.scheduler", "EventScheduler.after"),
        ("repro.net.scheduler", "EventScheduler.cancel"),
    ],
    "net.medium": [
        ("repro.net.medium", "Medium.begin"),
        ("repro.net.medium", "Medium.locally_busy"),
        ("repro.net.medium", "Medium.sensed_power_mw"),
    ],
    "net.topology": [
        ("repro.net.topology", "Topology.rx_power_dbm"),
        ("repro.net.topology", "Topology.neighbors_of"),
    ],
    "net.sinr": [("repro.net.sinr", "ReceptionModel.decide")],
    "net.mac": [("repro.net.mac", "NodeMac.on_*"), ("repro.net.mac", "NodeMac.enqueue")],
    "net.control": [
        ("repro.net.control", "ControlPlane.*"),
        ("repro.net.control", "ControlRouter.*"),
    ],
    "ratectl": [("repro.ratectl", "CONTROLLERS")],
    # ``ProcessExecutor.run`` is a generator function: its span is only the
    # generator's creation, but its call count is the number of pool starts.
    "engine": [
        ("repro.engine.core", "run_trials"),
        ("repro.engine.executors", "ProcessExecutor.run"),
    ],
    "engine.store": [
        ("repro.engine.store", "ResultStore.key_for"),
        ("repro.engine.store", "ResultStore.get"),
        ("repro.engine.store", "ResultStore.put"),
    ],
}

LAYERS: Tuple[str, ...] = tuple(LAYER_TARGETS)

#: Layers wrapped in sweep workloads.  Their trials run in forked pool
#: workers, which would inherit (and pay for) every other wrapper while
#: their spans are lost with the worker.
SWEEP_LAYERS: Tuple[str, ...] = ("engine", "engine.store")

_RATECTL_HOOKS = ("select_rate", "on_tx_result", "on_feedback")

#: Floats per span in :attr:`Tracer.spans`: name id, start, end.
SPAN_WIDTH = 3


def _defining_class(cls: type, name: str) -> type:
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    raise AttributeError(f"{cls.__qualname__} has no attribute {name!r}")


def _public_methods(cls: type, prefix: str = "") -> List[str]:
    return sorted(
        name for name, value in vars(cls).items()
        if callable(value) and not isinstance(value, (staticmethod, classmethod, type))
        and not name.startswith("_") and name.startswith(prefix)
    )


def _expand(module_name: str, path: str) -> List[Tuple[object, str]]:
    """Resolve one target entry to ``(owner, attribute)`` pairs."""
    module = importlib.import_module(module_name)
    if path == "CONTROLLERS":
        owners = []
        for cls in module.CONTROLLERS.values():
            for hook in _RATECTL_HOOKS:
                pair = (_defining_class(cls, hook), hook)
                if pair not in owners:
                    owners.append(pair)
        return owners
    if "." not in path:
        return [(module, path)]
    cls_name, attr = path.split(".", 1)
    cls = getattr(module, cls_name)
    if attr.endswith("*"):
        return [(cls, name) for name in _public_methods(cls, attr[:-1])]
    return [(_defining_class(cls, attr), attr)]


def _label(owner: object, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__qualname__}.{attr}"
    return attr


def _signature(fn: Callable) -> Tuple[str, str, Dict[str, object]]:
    """(parameter list, call arguments, defaults) copying ``fn``'s signature."""
    kind = inspect.Parameter
    decl, call, defaults = [], [], {}
    star = False
    for i, p in enumerate(inspect.signature(fn).parameters.values()):
        default = ""
        if p.default is not kind.empty:
            defaults[f"_lt_default{i}"] = p.default
            default = f"=_lt_default{i}"
        if p.kind is kind.VAR_POSITIONAL:
            decl.append(f"*{p.name}")
            call.append(f"*{p.name}")
            star = True
        elif p.kind is kind.VAR_KEYWORD:
            decl.append(f"**{p.name}")
            call.append(f"**{p.name}")
        elif p.kind is kind.KEYWORD_ONLY:
            if not star:
                decl.append("*")
                star = True
            decl.append(p.name + default)
            call.append(f"{p.name}={p.name}")
        else:
            decl.append(p.name + default)
            call.append(p.name)
    return ", ".join(decl), ", ".join(call), defaults


# Each wrapper appends (name id, start, end) to the flat span array; the
# parent of a span is recovered from the nesting of the intervals.
_WRAPPER = """
def traced({decl}):
    _lt_i = len(_lt_spans)
    _lt_append(_lt_name)
    _lt_append(_lt_clock())
    _lt_append(0.0)
    try:
        return _lt_fn({call})
    finally:
        _lt_spans[_lt_i + 2] = _lt_clock()
"""


class Tracer:
    """Span recorder plus the wrapper installer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []  # callable label per name id
        self.layer_of: List[str] = []  # layer per name id
        self.spans = array("d")  # SPAN_WIDTH floats per span, in start order
        self.op_starts: List[int] = []  # first span index of each request
        self._installed: List[Tuple[object, str, object, Callable]] = []
        self.call_cost_s = 0.0  # full wrapper cost per call
        self.inner_cost_s = 0.0  # part of it between the span's two clock reads

    # -- spans --------------------------------------------------------

    def reset(self) -> None:
        """Drop every recorded span (start of the timed phase)."""
        del self.spans[:]
        del self.op_starts[:]

    def __len__(self) -> int:
        return len(self.spans) // SPAN_WIDTH

    def begin_op(self) -> None:
        """Mark the start of the next request; later spans belong to it."""
        self.op_starts.append(len(self))

    def wrap(self, fn: Callable, label: str, layer: str) -> Callable:
        """A recording wrapper around ``fn``, with ``fn``'s signature."""
        self.names.append(label)
        self.layer_of.append(layer)
        decl, call, defaults = _signature(fn)
        namespace = {
            "_lt_spans": self.spans, "_lt_append": self.spans.append,
            "_lt_clock": self.clock, "_lt_fn": fn,
            "_lt_name": float(len(self.names) - 1), **defaults,
        }
        exec(_WRAPPER.format(decl=decl, call=call), namespace)
        return functools.wraps(fn)(namespace["traced"])

    def parents(self) -> List[int]:
        """The parent span index of every span (-1 at top level).

        Calls on one thread nest, so a span's parent is the innermost
        earlier span whose interval has not closed when it starts.
        """
        spans = self.spans
        out: List[int] = []
        open_spans: List[int] = []
        for k in range(len(self)):
            start = spans[k * SPAN_WIDTH + 1]
            while open_spans and spans[open_spans[-1] * SPAN_WIDTH + 2] <= start:
                open_spans.pop()
            out.append(open_spans[-1] if open_spans else -1)
            open_spans.append(k)
        return out

    # -- installation -------------------------------------------------

    def install(self, layers: Iterable[str] = LAYERS) -> None:
        """Build wrappers for every target of ``layers`` and attach them."""
        for layer in layers:
            for module_name, path in LAYER_TARGETS[layer]:
                for owner, attr in _expand(module_name, path):
                    original = vars(owner)[attr]
                    wrapped = self.wrap(original, _label(owner, attr), layer)
                    self._installed.append((owner, attr, original, wrapped))
                    if not isinstance(owner, type):
                        # A package re-exporting a module function.
                        package = importlib.import_module(owner.__name__.rpartition(".")[0])
                        if vars(package).get(attr) is original:
                            self._installed.append((package, attr, original, wrapped))
        self.attach()

    def attach(self) -> None:
        """Put the wrappers in place (calls record spans)."""
        for owner, attr, _, wrapped in self._installed:
            setattr(owner, attr, wrapped)

    def detach(self) -> None:
        """Put the originals back (calls run untraced)."""
        for owner, attr, original, _ in reversed(self._installed):
            setattr(owner, attr, original)

    def uninstall(self) -> None:
        """Restore every wrapped attribute and forget the wrappers."""
        self.detach()
        self._installed.clear()

    # -- calibration --------------------------------------------------

    def calibrate(self, n_calls: int = 20000, repeats: int = 9) -> None:
        """Measure the wrapper's per-call cost on a no-op method.

        ``call_cost_s`` is the full extra wall time per wrapped call;
        ``inner_cost_s`` the part that falls between the span's start and
        end reads (and so lands in the wrapped callable's own self time).
        The rest lands in the caller's self time.  Each is the median over
        ``repeats`` rounds: the timed phase runs under the same machine
        noise, so its typical round, not its quietest, is the one to match.
        """

        class Plain:
            def noop(self, a, b, c=None):
                return None

        class Wrapped(Plain):
            pass

        probe_tracer = Tracer(self.clock)
        Wrapped.noop = probe_tracer.wrap(Plain.noop, "noop", "calibration")
        plain, wrapped = Plain(), Wrapped()
        clock = self.clock
        totals, inners = [], []
        for _ in range(repeats):
            probe_tracer.reset()
            t0 = clock()
            for _ in range(n_calls):
                plain.noop(1, 2)
            base = clock() - t0
            t0 = clock()
            for _ in range(n_calls):
                wrapped.noop(1, 2)
            traced = clock() - t0
            spans = probe_tracer.spans
            inner = sum(spans[i + 2] - spans[i + 1] for i in range(0, len(spans), SPAN_WIDTH))
            totals.append((traced - base) / n_calls)
            inners.append(inner / n_calls)
        self.call_cost_s = max(statistics.median(totals), 0.0)
        self.inner_cost_s = min(max(statistics.median(inners), 0.0), self.call_cost_s)

    # -- folding ------------------------------------------------------

    def fold(self, wall_s: float) -> Dict:
        """Fold the recorded spans into per-callable and per-layer totals.

        ``wall_s`` is the traced timed phase's wall time.  Returns raw and
        calibrated figures; calibration removes ``inner_cost_s`` per call
        from the callable itself, ``call_cost_s - inner_cost_s`` per call
        from whichever span (or the unattributed remainder, for top-level
        calls) encloses it, and ``call_cost_s`` per call from the wall.
        The unattributed remainder is the wall minus the top-level spans.
        """
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        child_calls = [0] * n_names
        top_s = 0.0
        top_calls = 0
        spans = self.spans
        for k, parent in enumerate(self.parents()):
            i = k * SPAN_WIDTH
            duration = spans[i + 2] - spans[i + 1]
            name = int(spans[i])
            calls[name] += 1
            self_s[name] += duration
            if parent >= 0:
                parent_name = int(spans[parent * SPAN_WIDTH])
                self_s[parent_name] -= duration
                child_calls[parent_name] += 1
            else:
                top_s += duration
                top_calls += 1

        outer = self.call_cost_s - self.inner_cost_s
        n_calls = sum(calls)
        unattributed = wall_s - top_s
        callables = {}
        layers: Dict[str, Dict] = {}
        for name in range(n_names):
            if not calls[name]:
                continue
            cal = self_s[name] - calls[name] * self.inner_cost_s - child_calls[name] * outer
            callables[self.names[name]] = {
                "layer": self.layer_of[name],
                "calls": calls[name],
                "self_s": self_s[name],
                "self_s_calibrated": cal,
            }
            entry = layers.setdefault(
                self.layer_of[name], {"calls": 0, "self_s": 0.0, "self_s_calibrated": 0.0}
            )
            entry["calls"] += calls[name]
            entry["self_s"] += self_s[name]
            entry["self_s_calibrated"] += cal
        return {
            "wall_s": wall_s,
            "calibrated_wall_s": wall_s - n_calls * self.call_cost_s,
            "unattributed_s": unattributed,
            "unattributed_s_calibrated": unattributed - top_calls * outer,
            "n_spans": len(self),
            "call_cost_s": self.call_cost_s,
            "inner_cost_s": self.inner_cost_s,
            "layers": layers,
            "callables": callables,
        }

    # -- export -------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines: a header, then one span per line.

        ``parent`` is the parent's span index (-1 at top level) and ``op``
        the index of the latest request started before the span (-1 before
        the first).
        """
        spans = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "names": self.names,
                "layers": self.layer_of,
                "fields": ["name", "start_s", "end_s", "parent", "op"],
            }) + "\n")
            for k, parent in enumerate(self.parents()):
                i = k * SPAN_WIDTH
                row = [int(spans[i]), spans[i + 1], spans[i + 2], parent,
                       bisect_right(self.op_starts, k) - 1]
                fh.write(json.dumps(row) + "\n")

