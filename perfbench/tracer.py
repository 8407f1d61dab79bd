"""Spans recorded from outside the program, around calls into each module's
public functions.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``qkdrates`` module namespace that holds it: cli, keyrate, scenario
and simulator import by name, so patching only the defining module would
miss their calls.  Spans stay in memory and are written when the pass ends;
``layer_metrics`` computes self times from the written file.

Two hot functions are not spans, to keep the span count and the tracing
cost bounded: ``binary_entropy`` is a timed leaf (its time is charged to
the enclosing span as child time) and ``conditional_phase_entropy``, the
worst-case objective, is only counted.  Each span records how many calls of
each happened beneath it.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, attribute, span name).  A dotted attribute is a method.
SPANS = (
    ("qkdrates.cli", "main", "cli.main"),
    ("qkdrates.keyrate", "rate_shor_preskill", "keyrate.rates"),
    ("qkdrates.keyrate", "rate_gllp", "keyrate.rates"),
    ("qkdrates.keyrate", "rate_bob", "keyrate.rates"),
    ("qkdrates.keyrate", "rate_alice", "keyrate.rates"),
    ("qkdrates.keyrate", "rate_improved", "keyrate.rates"),
    ("qkdrates.keyrate", "threshold_bit_error", "keyrate.threshold"),
    ("qkdrates.keyrate", "max_distance", "keyrate.reach"),
    ("qkdrates.entropy", "worst_case_conditional_phase_entropy", "entropy.worst_case"),
    ("qkdrates.scenario", "breakdown", "scenario.breakdown"),
    ("qkdrates.scenario", "Scenario.at_length", "scenario.at_length"),
    ("qkdrates.scenario", "distance_sweep", "scenario.distance_sweep"),
    ("qkdrates.simulator", "run_simulation", "simulator.run"),
    ("qkdrates.simulator", "compare_to_analytic", "simulator.compare"),
)
LEAF = ("qkdrates.entropy", "binary_entropy")
COUNTED = ("qkdrates.entropy", "conditional_phase_entropy")


def _simulation_note(args, result) -> dict:
    """Pulses and useful outcomes of one ``run_simulation`` call."""
    return {
        "pulses": result.n_pulses,
        "conclusive": result.conclusive_count,
        "source": args[0].source.kind.value,
    }


# Span record fields, in file order.
NAME, START, END, PARENT, RUN, LEAF_S, LEAF_CALLS, OBJECTIVE_CALLS, NOTE = range(9)


class Tracer:
    """Records spans for one pass.  ``run_id`` tags spans with the op."""

    def __init__(self) -> None:
        self.spans: list = []
        self.run_id = 0
        self.leaf_calls = 0
        self.leaf_s = 0.0
        self.objective_calls = 0
        # Open frames: [span id, leaf seconds directly inside, leaf calls
        # at open, objective calls at open].
        self._stack: list[list] = []

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, name=name: self._span(name, fn))
        self._patch(*LEAF, self._leaf)
        self._patch(*COUNTED, self._counted)

    def _patch(self, module_name: str, attr: str, make_wrapper) -> None:
        # A function a later version of the program no longer has is skipped;
        # its metrics then read zero.
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            return
        wrapper = make_wrapper(original)
        if path:
            setattr(owner, leaf, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qkdrates" and not mod_name.startswith("qkdrates."):
                continue
            holders = [k for k, v in vars(mod).items() if v is original]
            for key in holders:
                setattr(mod, key, wrapper)

    def _span(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        note_of = _simulation_note if name == "simulator.run" else None

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0, self.leaf_calls, self.objective_calls]
            spans.append(None)
            stack.append(frame)
            note = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note_of is not None:
                    note = note_of(args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[frame[0]] = (
                    name,
                    start,
                    end,
                    parent,
                    self.run_id,
                    frame[1],
                    self.leaf_calls - frame[2],
                    self.objective_calls - frame[3],
                    note,
                )

        return wrapper

    def _leaf(self, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.leaf_calls += 1
                self.leaf_s += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            self.objective_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: str, header: dict) -> None:
        """Write a header line, then one JSON array per span."""
        header = dict(
            header,
            binary_entropy_calls=self.leaf_calls,
            binary_entropy_s=self.leaf_s,
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def read_spans(path: str) -> tuple[dict, list]:
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = [json.loads(line) for line in handle]
    return header, spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(header: dict, spans: list) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus cross-check figures.

    A span's self time is its duration minus its child spans' durations and
    the leaf time spent directly inside it.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START]

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    leaf_calls: dict[str, int] = {}
    objective_calls: dict[str, int] = {}
    breakdowns_in_reach = 0
    miss_s = misses = 0.0
    sim: dict[str, list[float]] = {}
    for i, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + duration - child_s[i] - span[LEAF_S]
        total_s[name] = total_s.get(name, 0.0) + duration
        leaf_calls[name] = leaf_calls.get(name, 0) + span[LEAF_CALLS]
        objective_calls[name] = objective_calls.get(name, 0) + span[OBJECTIVE_CALLS]
        if name == "entropy.worst_case" and span[OBJECTIVE_CALLS] > 1:
            misses += 1
            miss_s += duration
        if name == "scenario.breakdown":
            parent = span[PARENT]
            while parent >= 0 and spans[parent][NAME] != "keyrate.reach":
                parent = spans[parent][PARENT]
            breakdowns_in_reach += parent >= 0
        if name == "simulator.run" and span[NOTE] is not None:
            note = span[NOTE]
            entry = sim.setdefault(note["source"], [0.0, 0.0, 0.0])
            entry[0] += note["pulses"]
            entry[1] += note["conclusive"]
            entry[2] += duration

    def count(name):
        return calls.get(name, 0)

    def secs(name):
        return self_s.get(name, 0.0)

    pulses = sum(v[0] for v in sim.values())
    metrics = {
        "entropy.worst_case.calls": count("entropy.worst_case"),
        "entropy.worst_case.self_s": secs("entropy.worst_case"),
        "entropy.worst_case.objective_evals_per_call": _ratio(
            objective_calls.get("entropy.worst_case", 0), count("entropy.worst_case")
        ),
        "entropy.binary_entropy.calls": header["binary_entropy_calls"],
        "entropy.binary_entropy.self_s": header["binary_entropy_s"],
        "keyrate.rates.calls": count("keyrate.rates"),
        "keyrate.rates.self_s": secs("keyrate.rates"),
        "keyrate.threshold.calls": count("keyrate.threshold"),
        "keyrate.threshold.self_s": secs("keyrate.threshold"),
        "keyrate.threshold.entropy_calls_per_solve": _ratio(
            leaf_calls.get("keyrate.threshold", 0), count("keyrate.threshold")
        ),
        "keyrate.reach.calls": count("keyrate.reach"),
        "keyrate.reach.self_s": secs("keyrate.reach"),
        "keyrate.reach.breakdowns_per_solve": _ratio(
            breakdowns_in_reach, count("keyrate.reach")
        ),
        "scenario.breakdown.calls": count("scenario.breakdown"),
        "scenario.breakdown.self_s": secs("scenario.breakdown"),
        "scenario.at_length.calls": count("scenario.at_length"),
        "scenario.distance_sweep.self_s": secs("scenario.distance_sweep"),
        "cli.main.calls": count("cli.main"),
        "cli.self_s": secs("cli.main"),
        "cli.output_bytes": header["output_bytes"],
        "simulator.run.calls": count("simulator.run"),
        "simulator.run.self_s": secs("simulator.run"),
        "simulator.run.pulses_per_s": _ratio(pulses, total_s.get("simulator.run", 0.0)),
        "simulator.conclusive_per_pulse": _ratio(
            sum(v[1] for v in sim.values()), pulses
        ),
        "simulator.compare.self_s": secs("simulator.compare"),
    }
    crosscheck = {"entropy.worst_case.uncached_ms": _ratio(1e3 * miss_s, misses)}
    for source, (n, _, seconds) in sim.items():
        crosscheck[f"simulator.run.pulses_per_s.{source}"] = _ratio(n, seconds)
    return metrics, crosscheck
