"""The ``serve`` workload: a ``repro serve --journal`` process and one
closed-loop client.

The client sends ``/curve``; a 200 is an answer straight from the store
(warm), a 202 means the server submitted a job, which the client polls
on ``/status`` every :data:`POLL_S` seconds before fetching
``/result`` (cold).  Each caller waits for its answer before sending
the next request, like a ``repro submit`` user.  One client only: a
second one makes the cold-latency median much noisier on a 2-core host.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import time
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional

import calibrate
import checks
import inputs
import tracing
from procs import HERE, Child, python

POLL_S = 0.05
REQUEST_DEADLINE_S = 60.0
START_TIMEOUT_S = 60.0


class Server:
    """One server process on a fresh store and journal under ``work``."""

    def __init__(self, work: Path, tag: str,
                 summary_out: Optional[Path] = None) -> None:
        args = ["--store", str(work / f"{tag}.sqlite"),
                "--journal", str(work / f"{tag}.journal.ndjson"),
                "--port", "0"]
        if summary_out is None:
            argv = [python(), "-m", "repro", "serve"] + args
        else:
            argv = [python(), str(HERE / "serve_launcher.py"),
                    str(summary_out)] + args
        self.child = Child(argv)
        try:
            line = self.child.expect(lambda l: "listening on" in l,
                                     START_TIMEOUT_S)
            match = re.search(r"http://[^\s]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"unexpected server banner: {line}")
            self.url = f"http://127.0.0.1:{match.group(1)}"
            with urllib.request.urlopen(self.url + "/healthz",
                                        timeout=START_TIMEOUT_S) as reply:
                if reply.status != 200:
                    raise RuntimeError(f"/healthz answered {reply.status}")
        except BaseException:
            self.child.stop()
            raise
        #: Process start until the server answered ``/healthz``.
        self.setup = (self.child.started, time.perf_counter())

    def stop(self) -> int:
        return self.child.stop()


class _NoSpan:
    name = ""

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


def drive(url: str, requests: List[inputs.ServeRequest],
          seconds: Optional[float], reference: Dict[str, Any],
          recorder: Optional[tracing.Recorder] = None) -> Dict[str, Any]:
    """Send ``requests`` in a closed loop until ``seconds`` have passed
    (or all of them, with ``seconds=None``), checking every answer.

    Each request's ``(sent, answered)`` interval is kept under its kind
    (``warm``, ``cold``) and in ``intervals``; :func:`measure` scales
    them to the reference host speed.
    """
    from repro.serve.client import ServeClient, ServeClientError

    client = ServeClient(url)

    def span(name: str):
        return recorder.span(name) if recorder is not None else _NoSpan()

    first: Dict[tuple, str] = {}
    latencies: Dict[str, List[tuple]] = {"warm": [], "cold": []}
    intervals: List[tuple] = []
    tally = {"requests": 0, "warm": 0, "cold": 0, "polls": 0, "refused": 0,
             "failed": 0, "injected": 0}
    start = time.perf_counter()
    for index, request in enumerate(requests):
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        tally["requests"] += 1
        tag = f"request-{index}"
        if recorder is not None:
            recorder.set_request(tag)
        sent = time.perf_counter()
        kind = None
        try:
            kind, problems = _one(client, request, span, recorder, tag,
                                  tally, sent, first, reference)
        except ServeClientError as exc:
            tally["refused"] += 1
            problems = [f"refused: {exc}"]
        except TimeoutError as exc:
            problems = [str(exc)]
        interval = (sent, time.perf_counter())
        intervals.append(interval)
        if kind is not None:
            tally[kind] += 1
            latencies[kind].append(interval)
        if problems:
            tally["failed"] += 1
            print(f"serve request {index} {request}: {'; '.join(problems)}",
                  file=sys.stderr, flush=True)
    if recorder is not None:
        recorder.set_request(None)
    if latencies["cold"] and tally["injected"] == 0:
        # Not vacuous: the TYPICAL law must inject faults below ~0.30 V.
        tally["failed"] += 1
    return {"intervals": intervals, "latencies": latencies, **tally}


def _one(client, request, span, recorder, tag, tally, sent, first,
         reference):
    """One request; returns ("warm" | "cold" | None, problems)."""
    with span("serve.http.curve") as curve:
        code, body = client.curve(**request.spec())
    if code == 200:
        problems = [] if request.new_points == 0 else [
            f"{request.new_points} new points answered from the store"]
        return "warm", problems + _results(
            request, body.get("results"), first, reference, tally)
    if code != 202:
        if code == 429 or code >= 500:
            tally["refused"] += 1
        return None, [f"/curve answered {code}: {body.get('error')}"]
    curve.name = "serve.http.submit"
    job = body["job"]
    if recorder is not None:
        recorder.retag(tag, job)
        recorder.set_request(job)
    while True:
        time.sleep(POLL_S)
        with span("serve.http.status"):
            status = client.status(job)
        tally["polls"] += 1
        if status["state"] in ("done", "failed", "timed-out"):
            break
        if time.perf_counter() - sent > REQUEST_DEADLINE_S:
            raise TimeoutError(f"job {job} still {status['state']}")
    with span("serve.http.result"):
        code, body = client.result(job)
    if code != 200:
        return "cold", [f"/result answered {code}: {body.get('error')}"]
    problems = []
    shared = len(request.vdds) - request.new_points
    if (body["hits"], body["executed_points"]) != (shared, request.new_points):
        problems.append(f"hits/executed {body['hits']}/"
                        f"{body['executed_points']}, expected "
                        f"{shared}/{request.new_points}")
    return "cold", problems + _results(request, body.get("results"), first,
                                       reference, tally)


def _results(request, results, first, reference, tally) -> List[str]:
    """Check each point; a point answered before must be byte-identical."""
    if not isinstance(results, list) or len(results) != len(request.vdds):
        return [f"expected {len(request.vdds)} results, got {results!r}"]
    problems = []
    for point, payload in zip(request.points(), results):
        scheme, _, vdd = point
        problems += checks.payload_problems(payload, scheme, vdd,
                                            inputs.SERVE_RUNS)
        text = json.dumps(payload, sort_keys=True)
        if point in first:
            if first[point] != text:
                problems.append(f"{point} changed: {text} != {first[point]}")
            continue
        first[point] = text
        tally["injected"] += int(payload["total_injected_bits"])
        want = reference.get(point_key(point))
        if want is not None and json.loads(text) != want:
            problems.append(f"{point} {text} != reference {want}")
    return problems


def point_key(point) -> str:
    scheme, seed, vdd = point
    return f"{scheme}:{seed}:{vdd!r}"


def serve_reference(seed: int) -> Dict[str, Any]:
    reference = checks.load_reference()["serve"]
    return reference["points"] if seed == reference["seed"] else {}


def measure(drive_result: Dict[str, Any],
            speed: calibrate.Speed) -> Dict[str, Any]:
    """Throughput and latency medians at the reference host speed."""
    elapsed = sum(speed.scale(*interval)
                  for interval in drive_result["intervals"])
    out: Dict[str, Any] = {
        "elapsed_s": elapsed,
        "throughput_per_s": drive_result["requests"] / elapsed,
    }
    for kind, intervals in drive_result["latencies"].items():
        scaled = [speed.scale(*interval) for interval in intervals]
        raw = [end - start for start, end in intervals]
        out[f"{kind}_s"] = scaled
        out[f"{kind}_p50_s"] = statistics.median(scaled) if scaled else float("nan")
        out[f"{kind}_raw_p50_s"] = statistics.median(raw) if raw else float("nan")
    return out
