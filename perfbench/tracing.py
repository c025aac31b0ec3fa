"""Per-layer tracing of avnlab from outside the package.

`Tracer.install()` replaces every public function and public method of the
eight avnlab layers with a timing wrapper, at every module or class
attribute that holds it: the defining module and every module that
imported the name (`avnlab.simulate.born_probabilities`,
`avnlab.cli.parse`, ...), so whichever binding a caller resolves, the call
is seen.  `uninstall()` puts the originals back.  The package source is
not edited.

A span is `(name, start, end, parent)`, with `parent` the index of the
enclosing span within the same op or -1.  Spans are kept in memory per op
and written out only when the benchmark ends.  Self time is a span's
duration minus the durations of its direct child spans.  Calls, inclusive
time, self time and work counters are aggregated for every traced op; the
raw spans of only the first `SPAN_OPS_KEPT` ops are kept, because one
certify op makes about ten thousand of them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

SPAN_OPS_KEPT = 8

LAYERS = ("pauli", "states", "functional", "kernels", "lhv", "ks", "simulate", "cli")


def layer_of(module_name: str):
    """'avnlab.kernels._pure' -> 'kernels'; None outside the eight layers."""
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "avnlab" and parts[1] in LAYERS:
        return parts[1]
    return None


def _avnlab_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "avnlab" or name.startswith("avnlab."))
    ]


def _public_callable(name, obj) -> bool:
    if name.startswith("_") or inspect.isclass(obj) or inspect.ismodule(obj):
        return False
    return callable(obj) and layer_of(getattr(obj, "__module__", "") or "") is not None


class OpTrace:
    """Aggregates and spans of one traced op."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []

    def to_json(self) -> dict:
        return {
            "op": self.op_id,
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "spans": self.spans,
        }

    @classmethod
    def from_json(cls, data) -> "OpTrace":
        op = cls(data["op"])
        op.calls.update(data["calls"])
        op.total_s.update(data["total_s"])
        op.self_s.update(data["self_s"])
        op.counters.update(data["counters"])
        op.spans = [tuple(span) for span in data["spans"]]
        return op

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def _count_assignments(op, args, kwargs, result):
    n_vars = kwargs["n_vars"] if "n_vars" in kwargs else args[2]
    op.counters["kernels.assignments"] += 1 << n_vars


def _count_shots(op, args, kwargs, result):
    op.counters["simulate.shots_requested"] += result.shots_requested
    op.counters["simulate.shots_retained"] += result.shots_retained


# Work counters taken where the work happens, keyed by span name.
_COUNTERS = {
    "kernels.satisfaction_histogram": _count_assignments,
    "kernels.max_weighted_parity": _count_assignments,
    "simulate.run_experiment": _count_shots,
}


class Tracer:
    def __init__(self):
        self.ops = []
        self._op = None
        self._stack = []
        self._child_s = []
        self._restore = []

    # -- binding -----------------------------------------------------------

    def install(self):
        """Wrap every public function and method of the eight layers."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _avnlab_modules()
        wrappers = {}
        for module in modules:
            for name, obj in vars(module).items():
                if _public_callable(name, obj) and id(obj) not in wrappers:
                    span = f"{layer_of(obj.__module__)}.{obj.__name__}"
                    wrappers[id(obj)] = (obj, self._wrap(span, obj), span)
                if inspect.isclass(obj) and layer_of(obj.__module__):
                    for attr, member in vars(obj).items():
                        if attr.startswith("_") or id(member) in wrappers:
                            continue
                        span = f"{layer_of(obj.__module__)}.{obj.__name__}.{attr}"
                        if isinstance(member, classmethod):
                            wrapped = classmethod(self._wrap(span, member.__func__))
                        elif inspect.isfunction(member):
                            wrapped = self._wrap(span, member)
                        else:
                            continue
                        wrappers[id(member)] = (member, wrapped, span)
        # Rebind at every attribute holding an original, aliases included
        # (PauliString.__mul__ is PauliString.multiply).
        owners = list(modules)
        for module in modules:
            owners.extend(
                obj for obj in vars(module).values()
                if inspect.isclass(obj) and layer_of(obj.__module__)
            )
        for owner in dict.fromkeys(owners):
            for attr, value in list(vars(owner).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((owner, attr, value))
                    setattr(owner, attr, entry[1])
        missing = set(LAYERS) - {span.split(".")[0] for _, _, span in wrappers.values()}
        if missing:
            self.uninstall()
            raise RuntimeError(f"no traceable function found in layers {sorted(missing)}")

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def _wrap(self, name, fn):
        tracer = self
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer._op
            if op is None:
                return fn(*args, **kwargs)
            stack, child_s = tracer._stack, tracer._child_s
            index = len(op.spans)
            op.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                inner = child_s.pop()
                duration = end - start
                if child_s:
                    child_s[-1] += duration
                op.spans[index] = (name, start, end, parent)
                op.calls[name] += 1
                op.total_s[name] += duration
                op.self_s[name] += duration - inner
            if counter is not None:
                counter(op, args, kwargs, result)
            return result

        return wrapper

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op_id):
        self._op = OpTrace(op_id)
        self._stack.clear()
        self._child_s.clear()

    def end_op(self) -> OpTrace:
        op, self._op = self._op, None
        self.add_op(op)
        return op

    def add_op(self, op: OpTrace):
        if len(self.ops) >= SPAN_OPS_KEPT:
            op.spans = []
        self.ops.append(op)


def layer_calls(op: OpTrace, layer: str) -> int:
    prefix = layer + "."
    return sum(n for name, n in op.calls.items() if name.startswith(prefix))


def layer_metrics(op: OpTrace) -> dict:
    """The per-layer metrics of one traced op, by benchmark metric name."""
    calls = op.calls
    ms = {name: 1e3 * seconds for name, seconds in op.total_s.items()}
    count = op.counters
    kernel_ms = ms.get("kernels.satisfaction_histogram", 0.0) + ms.get(
        "kernels.max_weighted_parity", 0.0
    )
    shots = count["simulate.shots_requested"]
    return {
        "kernels.histogram_calls": calls["kernels.satisfaction_histogram"],
        "kernels.histogram_ms": ms.get("kernels.satisfaction_histogram", 0.0),
        "kernels.maxparity_calls": calls["kernels.max_weighted_parity"],
        "kernels.maxparity_ms": ms.get("kernels.max_weighted_parity", 0.0),
        "kernels.assignments": count["kernels.assignments"],
        "kernels.ns_per_assignment": (
            1e6 * kernel_ms / count["kernels.assignments"]
            if count["kernels.assignments"] else 0.0
        ),
        "ks.certificate_ms": ms.get("ks.certificate", 0.0),
        "ks.structure_ms": ms.get("ks.verify_table_structure", 0.0),
        "ks.prove_ms": ms.get("ks.prove_ks_contradiction", 0.0),
        "ks.sweep_ms": ms.get("ks.eigenfamily_sweep", 0.0),
        "ks.self_ms": 1e3 * op.layer_self_s("ks"),
        "lhv.certificate_ms": ms.get("lhv.certificate", 0.0),
        "lhv.prove_ms": ms.get("lhv.prove_no_valid_assignment", 0.0),
        "lhv.local_bound_calls": calls["lhv.local_bound"],
        "lhv.local_bound_ms": ms.get("lhv.local_bound", 0.0),
        "lhv.self_ms": 1e3 * op.layer_self_s("lhv"),
        "functional.nine_terms_calls": calls["functional.nine_terms"],
        "functional.nine_terms_ms": ms.get("functional.nine_terms", 0.0),
        "functional.verify_calls": calls["functional.verify_nine_identities"],
        "functional.verify_ms": ms.get("functional.verify_nine_identities", 0.0),
        "functional.value_ms": ms.get("functional.BellFunctional.value", 0.0),
        "pauli.parse_calls": calls["pauli.parse"],
        "pauli.parse_ms": ms.get("pauli.parse", 0.0),
        "pauli.multiply_calls": calls["pauli.PauliString.multiply"],
        "states.apply_calls": calls["states.apply"],
        "states.expectation_calls": calls["states.expectation"],
        "states.born_calls": calls["states.born_probabilities"],
        "states.born_ms": ms.get("states.born_probabilities", 0.0),
        "simulate.estimate_F_ms": ms.get("simulate.estimate_F", 0.0),
        "simulate.run_experiment_calls": calls["simulate.run_experiment"],
        "simulate.run_experiment_ms": ms.get("simulate.run_experiment", 0.0),
        "simulate.sampling_ms": 1e3 * op.self_s.get("simulate.run_experiment", 0.0),
        "simulate.shots_requested": shots,
        "simulate.shots_retained": count["simulate.shots_retained"],
        "simulate.retained_ratio": count["simulate.shots_retained"] / shots if shots else 0.0,
        "simulate.ns_per_shot": (
            1e6 * ms.get("simulate.run_experiment", 0.0) / shots if shots else 0.0
        ),
        "cli.main_ms": ms.get("cli.main", 0.0),
        "cli.self_ms": 1e3 * op.layer_self_s("cli"),
        "cli.report_bytes": count["cli.report_bytes"],
    }
