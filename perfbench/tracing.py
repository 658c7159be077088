"""In-memory span recorder and the layer wrappers of a traced run.

A traced run wraps the public functions of each layer where their
callers look them up: on the class that defines a method, or on every
loaded ``repro`` module that holds a module function under a name
(``experiments`` imports ``monte_carlo_inverter_delay`` by name, the
server imports ``scheme_failure_grid`` by name).  Each call records one
span: name, start, end, thread, its parent on that thread and the
request id the thread is working for.  Per-access functions are *hot*:
they add a call count and a total time to the enclosing span instead of
recording a span each.  :func:`install` returns the patches and
:func:`uninstall` puts every original object back.

Self time has the semantics of :func:`repro.obs.report.aggregate_spans`
(duration minus the durations of child spans); :meth:`Recorder.records`
emits the spans in that function's record format, with each span's hot
time as one synthetic child, and :func:`self_times` runs it.

The recorder is not :class:`repro.obs.Tracer`: that keeps one span
stack for all threads, and the server runs jobs and HTTP on different
threads.  The engine profiler stays off too, because it switches the
engines onto their profiled twin loops.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


class Span:
    """One finished (or open) call of a wrapped function."""

    __slots__ = (
        "id", "name", "fn", "start", "end", "thread", "parent", "request",
        "hot_ns",
    )

    def __init__(self, span_id, name, fn, start, thread, parent, request):
        self.id = span_id
        self.name = name
        self.fn = fn
        self.start = start
        self.end: Optional[int] = None
        self.thread = thread
        self.parent = parent
        self.request = request
        self.hot_ns: Dict[str, int] = {}

    @property
    def duration_s(self) -> float:
        return ((self.end or self.start) - self.start) / 1e9


class _ThreadState:
    __slots__ = ("thread", "stack", "finished", "hot", "counts", "request",
                 "in_hot")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.stack: List[Span] = []
        self.finished: List[Span] = []
        self.hot: Dict[str, List[int]] = {}
        self.counts: Dict[str, int] = {}
        self.request: Optional[str] = None
        self.in_hot = False


class Recorder:
    """Span recorder with one stack per thread, kept in memory.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: List[_ThreadState] = []

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            self._threads.append(state)
        return state

    # -- spans -----------------------------------------------------------
    def open(self, state: _ThreadState, name: str, fn: str = "") -> Span:
        parent = state.stack[-1].id if state.stack else None
        span = Span(next(self._ids), name, fn, self.clock(), state.thread,
                    parent, state.request)
        state.stack.append(span)
        return span

    def close(self, state: _ThreadState, span: Span) -> None:
        span.end = self.clock()
        # Pop through the span even if a callee leaked an open child.
        while state.stack:
            if state.stack.pop() is span:
                break
        state.finished.append(span)

    def span(self, name: str, fn: str = "") -> "_SpanContext":
        """Context manager recording one span on the calling thread."""
        return _SpanContext(self, name, fn)

    def set_request(self, request: Optional[str]) -> Optional[str]:
        """Set the calling thread's request id; returns the previous one."""
        state = self.state()
        previous, state.request = state.request, request
        return previous

    def retag(self, old: str, new: str) -> None:
        """Give every span of request ``old`` the id ``new``."""
        for state in list(self._threads):
            for span in state.finished + state.stack:
                if span.request == old:
                    span.request = new

    # -- hot calls and counts --------------------------------------------
    def add_hot(self, state: _ThreadState, name: str, elapsed: int) -> None:
        entry = state.hot.get(name)
        if entry is None:
            state.hot[name] = [1, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed
        if state.stack:
            top = state.stack[-1].hot_ns
            top[name] = top.get(name, 0) + elapsed

    @staticmethod
    def count(state: _ThreadState, name: str, n: int) -> None:
        state.counts[name] = state.counts.get(name, 0) + int(n)

    # -- read-out ----------------------------------------------------------
    def spans(self) -> List[Span]:
        out: List[Span] = []
        for state in list(self._threads):
            out.extend(state.finished)
        out.sort(key=lambda span: span.id)
        return out

    def hot_totals(self) -> Dict[str, List[int]]:
        """``name -> [calls, ns]`` over all threads."""
        totals: Dict[str, List[int]] = {}
        for state in list(self._threads):
            for name, (calls, ns) in state.hot.items():
                entry = totals.setdefault(name, [0, 0])
                entry[0] += calls
                entry[1] += ns
        return totals

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for state in list(self._threads):
            for name, n in state.counts.items():
                totals[name] = totals.get(name, 0) + n
        return totals

    def records(self) -> List[Dict[str, Any]]:
        """Finished spans as ``span_start``/``span_end`` trace records.

        Each span's hot time becomes one synthetic child span per hot
        name, so :func:`repro.obs.report.aggregate_spans` subtracts it
        from the span's self time like any other child.
        """
        records: List[Dict[str, Any]] = []
        synthetic = itertools.count(-1, -1)
        for span in self.spans():
            records.append({
                "kind": "span_start", "span": span.id, "parent": span.parent,
                "name": span.name, "fn": span.fn, "thread": span.thread,
                "request": span.request, "t_ns": span.start,
            })
            records.append({
                "kind": "span_end", "span": span.id,
                "dur_s": span.duration_s, "t_ns": span.end,
            })
            for name, ns in span.hot_ns.items():
                child = next(synthetic)
                records.append({
                    "kind": "span_start", "span": child, "parent": span.id,
                    "name": name, "fn": "hot", "thread": span.thread,
                    "request": span.request,
                })
                records.append(
                    {"kind": "span_end", "span": child, "dur_s": ns / 1e9}
                )
        return records


class _SpanContext:
    __slots__ = ("_recorder", "_name", "_fn", "_state", "_span")

    def __init__(self, recorder: Recorder, name: str, fn: str) -> None:
        self._recorder = recorder
        self._name = name
        self._fn = fn

    def __enter__(self) -> Span:
        self._state = self._recorder.state()
        self._span = self._recorder.open(self._state, self._name, self._fn)
        return self._span

    def __exit__(self, *exc: Any) -> None:
        self._recorder.close(self._state, self._span)


def trace_path(root: Path, workload: str, seed: int) -> Path:
    """Where a traced run leaves its spans (ignored by git)."""
    return root / ".perfbench-work" / "traces" / f"{workload}-seed{seed}.ndjson"


def write_records(path: Path, records: List[Dict[str, Any]]) -> None:
    """Write trace records as NDJSON, readable by
    :func:`repro.obs.report.aggregate_trace_file`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def self_times(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self seconds per span name, via ``aggregate_spans``."""
    from repro.obs.report import aggregate_spans

    totals: Dict[str, float] = {}

    def walk(node) -> None:
        for child in node.children.values():
            totals[child.name] = totals.get(child.name, 0.0) + child.self_s
            walk(child)

    walk(aggregate_spans(records))
    return totals


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
Probe = Callable[[Recorder, _ThreadState, tuple, Any, Any], None]


@dataclass(frozen=True)
class Target:
    """A function to wrap: where it lives, what it records."""

    owner: Any                  # module or class holding the function
    attr: str
    name: str                   # span or hot-call name
    hot: bool = False
    before: Optional[Callable[[tuple], Any]] = None
    after: Optional[Probe] = None


def _span_wrapper(recorder: Recorder, original, target: Target):
    name, fn = target.name, target.attr
    before, after = target.before, target.after

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        state = recorder.state()
        span = recorder.open(state, name, fn)
        token = before(args) if before is not None else None
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            recorder.close(state, span)
            if after is not None:
                after(recorder, state, args, result, token)

    return wrapper


def _hot_wrapper(recorder: Recorder, original, target: Target):
    name, clock, after = target.name, recorder.clock, target.after

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        state = recorder.state()
        if state.in_hot:
            # A hot function called from another (a batch sampler
            # replaying forced masks, a detect-only codec decoding
            # through its inner codec): the outer call owns the time.
            return original(*args, **kwargs)
        state.in_hot = True
        start = clock()
        try:
            return original(*args, **kwargs)
        finally:
            state.in_hot = False
            recorder.add_hot(state, name, clock() - start)
            if after is not None:
                after(recorder, state, args, None, None)

    return wrapper


def _request_wrapper(recorder: Recorder, original, target: Target):
    """Run the call with the thread's request id set to ``job.id``."""

    @functools.wraps(original)
    def wrapper(self, job, *args, **kwargs):
        previous = recorder.set_request(job.id)
        try:
            return original(self, job, *args, **kwargs)
        finally:
            recorder.set_request(previous)

    return wrapper


def _instructions(name: str, read: Callable[[Any], int]):
    def before(args: tuple) -> int:
        return read(args[0])

    def after(recorder, state, args, result, token) -> None:
        recorder.count(state, name, read(args[0]) - token)

    return before, after


def _accesses(recorder, state, args, result, token) -> None:
    if result is not None:
        counts = result.sim.access_counts.values()
        recorder.count(state, "soc.memory.accesses",
                       sum(reads + writes for reads, writes in counts))


def _batch_words(recorder, state, args, result, token) -> None:
    recorder.count(state, "ecc.batch.words", len(args[1]))


#: ``experiments`` function -> exhibit label.
EXHIBITS = {
    "table1_comparison": "table1",
    "table2_minimum_voltages": "table2",
    "fig1_energy_per_cycle": "fig1",
    "fig3_retention_maps": "fig3",
    "fig4_retention_ber": "fig4",
    "fig5_access_ber": "fig5",
    "fig8_power_breakdown": "fig8",
    "fig9_power_breakdown": "fig9",
    "fig10_finfet_delay": "fig10",
    "headline_claims": "claims",
}


def _subclasses(cls) -> list:
    seen, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in seen:
            seen.append(klass)
            todo.extend(klass.__subclasses__())
    return seen


def _methods(base, attr: str, name: str, **kwargs) -> List[Target]:
    """One target per class in ``base``'s tree that defines ``attr``."""
    targets = []
    for klass in _subclasses(base):
        function = klass.__dict__.get(attr)
        if function is None or getattr(function, "__isabstractmethod__", False):
            continue
        targets.append(Target(klass, attr, name, **kwargs))
    return targets


def targets(server: bool = False) -> List[Target]:
    """Every function a traced run wraps (``server`` adds job request ids)."""
    import repro.analysis.batch as batch
    import repro.analysis.campaign as campaign
    import repro.analysis.experiments as experiments
    import repro.core.fit_solver as fit_solver
    import repro.ecc as ecc
    import repro.mitigation as mitigation
    import repro.resilience.executor as executor
    import repro.serve.durability as durability
    import repro.serve.server as server_module
    import repro.soc.cpu as cpu
    import repro.soc.fastlane as fastlane
    import repro.soc.faults as faults
    import repro.soc.platform as platform
    import repro.soc.ports  # noqa: F401  (registers DetectOnlyCodec)
    import repro.soc.simd as simd
    import repro.store.keys as keys
    import repro.store.pipeline as pipeline
    import repro.store.store as store
    import repro.tech.delay as delay
    import repro.workloads.fft as fft

    out: List[Target] = [
        Target(experiments, attr, f"analysis.exhibit.{label}")
        for attr, label in EXHIBITS.items()
    ]
    out += [
        Target(batch.BatchCampaign, "access_ber_grid", "analysis.batch"),
        Target(batch.BatchCampaign, "retention_failure_curve",
               "analysis.batch"),
        Target(campaign, "run_campaign", "analysis.campaign"),
        Target(campaign, "_campaign_run_one", "analysis.campaign"),
        Target(campaign, "_campaign_run_lane_block", "analysis.campaign"),
        Target(pipeline, "scheme_failure_grid", "analysis.campaign"),
        Target(delay, "monte_carlo_inverter_delay", "tech.delay_mc"),
        Target(fit_solver, "minimum_voltage", "core.fit_solver"),
        Target(fft, "build_fft_program", "workloads.build_fft"),
        Target(fft.FftProgram, "expected_output", "workloads.build_fft"),
        Target(executor.ResilientExecutor, "run", "resilience.executor"),
    ]
    runner = mitigation.base.SchemeRunner
    out += _methods(runner, "build_platform", "mitigation.build_platform")
    out += _methods(runner, "execute", "mitigation.execute")
    out += _methods(runner, "execute_lanes", "mitigation.execute")
    out += _methods(runner, "collect_outcome", "mitigation.collect_outcome",
                    after=_accesses)
    scalar = _instructions("soc.engine.scalar.instructions",
                           lambda cpu_: cpu_.state.instructions)
    fast = _instructions("soc.engine.fast_lane.instructions",
                         lambda engine: engine._cpu.state.instructions)
    lanes = _instructions("soc.engine.simd.lane_instructions",
                          lambda block: int(block._instructions.sum()))
    out += [
        Target(platform.Platform, "load_program", "soc.load"),
        Target(platform.Platform, "load_data", "soc.load"),
        Target(cpu.Cpu, "run", "soc.engine.scalar",
               before=scalar[0], after=scalar[1]),
        Target(fastlane.FastLaneEngine, "run", "soc.engine.fast_lane",
               before=fast[0], after=fast[1]),
        # ``LaneBlock.demand`` only marks lanes runnable; the lockstep
        # work happens in the service round the next lane run triggers.
        Target(simd.LaneBlock, "_service", "soc.engine.simd",
               before=lanes[0], after=lanes[1]),
        Target(faults.VoltageFaultModel, "sample_mask", "faults.sample_mask",
               hot=True),
    ]
    out += [
        Target(faults.VoltageFaultModel, attr, "faults.batch", hot=True)
        for attr in ("sample_masks", "clean_run_length", "consume_clean")
    ]
    codec = ecc.base.Codec
    for attr in ("encode", "decode"):
        out += _methods(codec, attr, "ecc.scalar", hot=True)
    for attr in ("encode_batch", "decode_batch"):
        out += _methods(codec, attr, "ecc.batch", hot=True,
                        after=_batch_words)
    out += [
        Target(store.ResultStore, "__init__", "store.open"),
        Target(store.ResultStore, "get", "store.get"),
        Target(store.ResultStore, "put", "store.put"),
        Target(pipeline, "campaign_point_key", "store.key"),
        Target(keys.PointKey, "fingerprint", "store.key"),
        Target(pipeline, "encode_campaign_result", "store.codec"),
        Target(pipeline, "decode_campaign_result", "store.codec"),
    ]
    out += [
        Target(durability.JobJournal, attr, "serve.journal")
        for attr in sorted(vars(durability.JobJournal))
        if attr.startswith("record_")
    ]
    if server:
        out.append(Target(server_module.CampaignJobServer, "_run_job",
                          "request"))
    return out


@dataclass
class Patch:
    owner: Any
    attr: str
    original: Any


def _lookup_sites(target: Target) -> List[Any]:
    """Owners through which callers reach ``target``'s function."""
    if isinstance(target.owner, type):
        return [target.owner]
    function = target.owner.__dict__[target.attr]
    return [
        module for name, module in sorted(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and module is not None
        and getattr(module, "__dict__", {}).get(target.attr) is function
    ]


def install(recorder: Recorder, server: bool = False) -> List[Patch]:
    """Wrap every target; returns the patches :func:`uninstall` undoes."""
    patches: List[Patch] = []
    wrapped: Dict[int, Any] = {}
    try:
        for target in targets(server):
            original = target.owner.__dict__[target.attr]
            if target.name == "request":
                factory = _request_wrapper
            elif target.hot:
                factory = _hot_wrapper
            else:
                factory = _span_wrapper
            wrapper = wrapped.get(id(original))
            if wrapper is None:
                wrapper = factory(recorder, original, target)
                wrapped[id(original)] = wrapper
            for owner in _lookup_sites(target):
                patches.append(Patch(owner, target.attr,
                                     owner.__dict__[target.attr]))
                setattr(owner, target.attr, wrapper)
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: List[Patch]) -> None:
    """Restore every patched attribute to its original object."""
    for patch in reversed(patches):
        setattr(patch.owner, patch.attr, patch.original)
    patches.clear()
