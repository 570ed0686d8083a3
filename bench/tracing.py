"""Spans around springkick's public functions, recorded from outside.

A traced round replaces, for its duration only, the names that each calling
module binds (springkick.runner.stroboscopic_evolve, springkick.ensemble.
metric_arrays, ...) with wrappers that record a span: id, name, start, end,
parent id, round, and a few counts taken from the arguments or the result.
Spans are kept in memory and written out as JSON when the run ends;
per-layer figures are derived from them afterwards (see layers.py).

numpy.random.Generator.normal is a Cython method: sys.setprofile sees no
event for it and its type is immutable.  So the RNG is timed by swapping
numpy.random.default_rng, which springkick.ensemble looks up on every call,
for one that builds a Generator subclass over the same PCG64 bit generator;
its draws are the same numbers.
"""

from __future__ import annotations

import inspect
import itertools
import json
import resource
import threading
import time

import numpy as np

import springkick.cli
import springkick.ensemble
import springkick.runner


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _arg(fn, name):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        return sig.bind(*args, **kwargs).arguments[name]

    return get


def _uniform(times) -> bool:
    # the same test intracavity_amplitude uses to pick its lfilter branch
    h = np.diff(times)
    return bool(np.allclose(h, h[0], rtol=1e-12, atol=0.0))


def _info(name, fn):
    """Counts recorded with a span, from (args, kwargs, result)."""
    if name in ("moments.stroboscopic_evolve", "moments.squeezing_onset"):
        kicks = _arg(fn, "n_kicks")
        return lambda a, k, r: {"kicks": kicks(a, k)}
    if name == "moments.intra_period_trace":
        n = _arg(fn, "n_samples")
        return lambda a, k, r: {"samples": n(a, k)}
    if name == "ensemble.run_ensemble":
        n_traj, n_kicks = _arg(fn, "n_traj"), _arg(fn, "n_kicks")
        return lambda a, k, r: {"traj_kicks": n_traj(a, k) * n_kicks(a, k)}
    if name == "pulses.theta_from_physical":
        return lambda a, k, r: {
            "grid_points": int(r[1].times.size),
            "uniform_grid": int(_uniform(r[1].times)),
        }
    if name == "runner.write_trajectory_csv":
        samples = _arg(fn, "samples")
        return lambda a, k, r: {"rows": len(samples(a, k))}
    if name == "runner.write_ensemble_csv":
        stats = _arg(fn, "stats")
        return lambda a, k, r: {"rows": len(stats(a, k).kick_indices)}
    if name == "runner.write_intra_csv":
        trace = _arg(fn, "trace")
        return lambda a, k, r: {"rows": len(trace(a, k))}
    return None


# (module, attribute, span name).  Each is the name the calling module binds.
PATCHES = (
    (springkick.cli, "read_config", "config.read_config"),
    (springkick.cli, "run_config", "runner.run_config"),
    (springkick.runner, "resolve_kick", "runner.resolve_kick"),
    (springkick.runner, "theta_from_physical", "pulses.theta_from_physical"),
    (springkick.runner, "regime_check", "pulses.regime_check"),
    (springkick.runner, "cycle_map", "moments.cycle_map"),
    (springkick.runner, "steady_state", "moments.steady_state"),
    (springkick.runner, "stroboscopic_evolve", "moments.stroboscopic_evolve"),
    (springkick.runner, "squeezing_onset", "moments.squeezing_onset"),
    (springkick.runner, "state_metrics", "moments.state_metrics"),
    (springkick.runner, "intra_period_trace", "moments.intra_period_trace"),
    (springkick.runner, "run_ensemble", "ensemble.run_ensemble"),
    (springkick.runner, "write_trajectory_csv", "runner.write_trajectory_csv"),
    (springkick.runner, "write_ensemble_csv", "runner.write_ensemble_csv"),
    (springkick.runner, "write_intra_csv", "runner.write_intra_csv"),
    (springkick.ensemble, "cycle_map", "moments.cycle_map"),
    (springkick.ensemble, "state_metrics", "moments.state_metrics"),
    (springkick.ensemble, "metric_arrays", "moments.metric_arrays"),
)

# Names the worker calls directly (library workloads and the CLI entry).
API_SPANS = {
    "main": "cli.main",
    "run_ensemble": "ensemble.run_ensemble",
    "steady_tail_mean": "ensemble.steady_tail_mean",
    "write_ensemble_csv": "runner.write_ensemble_csv",
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, round, info)
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []
        self._round = -1
        # RNG draws on pool threads have no stack of their own; they belong
        # to the innermost open run_ensemble span.
        self._ensemble_span = -1

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name, fn):
        info = _info(name, fn)
        is_ensemble = name == "ensemble.run_ensemble"
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._stack()
            parent = st[-1] if st else -1
            sid = next(tracer._ids)
            st.append(sid)
            extra = {}
            if is_ensemble:
                outer = tracer._ensemble_span
                tracer._ensemble_span = sid
                extra["cpu0"] = _cpu_s()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.pop()
                if is_ensemble:
                    extra["cpu1"] = _cpu_s()
                    tracer._ensemble_span = outer
            if info is not None:
                extra.update(info(args, kwargs, result))
            tracer.spans.append((sid, name, t0, t1, parent, tracer._round, extra))
            return result

        return wrapper

    def wrap_api(self, api: dict) -> dict:
        return {k: self.wrap(API_SPANS[k], fn) for k, fn in api.items()}

    def _default_rng(self):
        tracer = self

        class TimedGenerator(np.random.Generator):
            def normal(self, *args, **kwargs):
                st = tracer._stack()
                parent = st[-1] if st else tracer._ensemble_span
                sid = next(tracer._ids)
                t0 = time.perf_counter()
                out = super().normal(*args, **kwargs)
                t1 = time.perf_counter()
                tracer.spans.append((sid, "rng.normal", t0, t1, parent, tracer._round, {}))
                return out

        def default_rng(seed=None):
            return TimedGenerator(np.random.PCG64(seed))

        return default_rng

    def install(self, round_index: int) -> None:
        self._round = round_index
        self._saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]
        self._saved.append((np.random, "default_rng", np.random.default_rng))
        for mod, attr, name in PATCHES:
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        np.random.default_rng = self._default_rng()

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    dict(id=s[0], name=s[1], start=s[2], end=s[3], parent=s[4], round=s[5], **s[6])
                    for s in self.spans
                ],
                fh,
            )
