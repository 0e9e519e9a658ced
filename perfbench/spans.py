"""Spans recorded from outside the program.

``traced(tracer)`` rebinds the names the program's callers look up (for
example ``weylcdma.cli.sweep`` or ``weylcdma.sim.aperiodic_table``) to
wrappers that record one span per call, and restores them on exit; nothing
under ``src/`` changes.  A span holds its name, start, end, parent span and
run id; spans stay in memory until ``write`` dumps them.  Every traced call
runs on the main thread (the engine's worker threads only run chunk
kernels), so one stack gives each span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from weylcdma import cli, correlation, phase_opt, sim, snr

# (module, attribute, span name).  A name may be bound in several modules;
# each binding is what one caller looks up.
SPANS = (
    (cli, "run_preset", "cli.run_preset"),
    (cli, "sweep", "sim.sweep"),
    (sim, "run_ber", "sim.run_ber"),
    (sim, "build_pool", "sim.build_pool"),
    (sim, "optimal_weyl_sequence", "sequences"),
    (sim, "fzc_family_sequence", "sequences"),
    (sim, "gold_family", "sequences"),
    (sim, "aperiodic_table", "correlation.aperiodic_table"),
    (correlation, "r_ik", "correlation.r_ik"),
    (snr, "r_ik", "correlation.r_ik"),
    (correlation, "correlation_profile", "correlation.correlation_profile"),
    (snr, "pursley_snr", "snr.pursley_snr"),
    (phase_opt, "global_solution", "phase_opt.kkt"),
    (phase_opt, "construct_multipliers", "phase_opt.kkt"),
    (phase_opt, "kkt_residual", "phase_opt.kkt"),
    (phase_opt, "verify_optimality_by_sampling", "phase_opt.sampling"),
)

# Counted but not timed: a timing wrapper per call would swamp these.
COUNTS = ((correlation, "aperiodic_c", "correlation.aperiodic_c.calls"),)

# Work delivered, read off a span's return value: span name -> (count, amount).
RESULT_COUNTS = {
    "sim.run_ber": ("sim.decisions", lambda result: result.bit_count),
    "phase_opt.sampling": ("phase_opt.samples", lambda result: result.n_samples),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []

    def span(self, name: str, fn):
        tally = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if tally:
                    self.counts[tally[0]] += tally[1](result)
                return result
            finally:
                record[2] = perf_counter()
                self._stack.pop()

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> tuple[dict, Counter]:
        """Summed self time and call count per span name."""
        child = defaultdict(float)
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for index, (name, start, end, _parent, _run) in enumerate(self.spans):
            self_s[name] += end - start - child[index]
            calls[name] += 1
        return dict(self_s), calls

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "run")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Rebind every traced name for the duration of the block."""
    saved = []
    try:
        for module, attr, name in SPANS:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.span(name, getattr(module, attr)))
        for module, attr, name in COUNTS:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.counter(name, getattr(module, attr)))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
