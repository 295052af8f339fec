"""Spans around the calls into covlss's layers, recorded from outside the package.

A layer boundary is a call from one module into a function that another
module (or the same module's public API) provides.  :class:`Tracer`
rebinds that name in the calling module's namespace to a wrapper that
records a span, so no code under ``src/`` changes.  Names that a later
version of the package no longer has are skipped, and their metrics read 0
with 0 samples.

Spans are ``[name, start, end, parent]`` rows (``parent`` indexes the
enclosing span, -1 at the top) kept in memory and handed back when the
traced call ends; the caller adds the run id.
"""

from __future__ import annotations

import importlib
import pickle
from collections import Counter
from time import perf_counter


def _values_drawn(dist, stream_seed, count):
    return count


def _assignments(task):
    return len(task.dist.support) ** task.num_vars


# (module, attribute, span name, optional counter name and counting function)
_BOUNDARIES = [
    # set-up
    ("covlss.harness", "build_experiment_model", "harness.build_experiment_model", None),
    ("covlss.harness", "moment_set", "moments.moment_set", None),
    ("covlss.harness", "check_covariance", "inference.check_covariance", None),
    ("covlss.harness", "derive_seed", "seeding.derive_seed", None),
    ("covlss.population", "haar_orthogonal", "population.haar_orthogonal", None),
    ("covlss.population", "assemble_model", "population.assemble_model", None),
    ("covlss.population", "trace_set", "symmat.trace_set", None),
    # replications
    ("covlss.harness", "run_replications", "harness.run_replications", None),
    ("covlss.harness", "run_replication", "lss.run_replication", None),
    ("covlss.lss", "derive_seed", "seeding.derive_seed", None),
    ("covlss.lss", "sample_block", "innovations.sample_block", ("values", _values_drawn)),
    # run_replication's p-side stages (Sigma^1/2 X; YY' and traces) and the
    # Gram-side helpers that generate_gram and centered_lss share with it
    ("covlss.lss", "_half_times", "lss.half_times", None),
    ("covlss.lss", "_traces_p_side", "lss.traces_p_side", None),
    ("covlss.lss", "_gram", "lss.generate_gram", None),
    ("covlss.lss", "SymMatrix", "symmat.symmatrix", None),
    ("covlss.lss", "lss_traces", "lss.lss_traces", None),
    ("covlss.lss", "_centered_from_gram", "lss.centered_lss", None),
    # statistics and reports
    ("covlss.harness", "whiten", "inference.whiten", None),
    ("covlss.harness", "qq_report", "inference.qq_report", None),
    # verification
    ("covlss.harness", "assemble_model", "population.assemble_model", None),
    ("covlss.harness", "verify_quadratic_covariance", "enumeration.quadratic_covariance", None),
    ("covlss.harness", "verify_fourth_moment", "enumeration.fourth_moment", None),
    ("covlss.harness", "verify_triple_product", "enumeration.triple_product", None),
    ("covlss.harness", "verify_finite_n_moments", "enumeration.finite_n_moments", None),
    ("covlss.enumeration", "exact_expectation", "enumeration.exact_expectation",
     ("assignments", _assignments)),
    ("covlss.enumeration", "exact_variance", "enumeration.exact_variance",
     ("assignments", _assignments)),
]


class Tracer:
    """Installs span-recording wrappers; :meth:`close` restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> "Tracer":
        for module_name, attr, name, counter in _BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if callable(original):
                setattr(module, attr, self._wrap(original, name, counter))
                self._undo.append((module, attr, original))
        harness = importlib.import_module("covlss.harness")
        if hasattr(harness, "ProcessPoolExecutor"):
            self._undo.append((harness, "ProcessPoolExecutor", harness.ProcessPoolExecutor))
            harness.ProcessPoolExecutor = self._counting_pool(harness.ProcessPoolExecutor)
        return self

    def close(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def _wrap(self, fn, name, counter):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            idx = len(spans)
            row = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(row)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row[1], row[2] = start, perf_counter()
                stack.pop()
                if counter is not None:
                    counters[counter[0]] += counter[1](*args, **kwargs)

        return traced

    def _counting_pool(self, base):
        counters = self.counters

        class CountingPool(base):
            """Counts the jobs sent to workers and their pickled size."""

            def map(self, fn, *iterables, **kwargs):
                jobs = list(zip(*iterables))
                counters["jobs"] += len(jobs)
                counters["job_pickle_bytes"] += sum(
                    len(pickle.dumps((fn, job))) for job in jobs
                )
                return super().map(fn, *zip(*jobs), **kwargs)

        return CountingPool
