"""``repro serve`` / ``repro submit`` — server and client CLIs.

``repro serve`` runs the campaign job server in the foreground with
the crash-safety surface wired up: a durable job journal
(``--journal``), watchdog deadlines (``--job-deadline``), admission
control (``--max-inflight`` / ``--queue-depth``), and a graceful
drain on SIGTERM/SIGINT that finishes or checkpoints in-flight jobs
before exiting.

``repro submit`` is the matching client exhibit: it submits a grid
spec through :class:`~repro.serve.client.ServeClient` (deterministic
capped backoff, idempotent resubmission by provenance fingerprint),
waits for completion, and prints the result JSON.  A bad flag, a
server that stays unreachable through the retry budget, a refused
submit or an elapsed ``--deadline`` ends in one ``repro submit: …``
line and exit 1; a job that settles failed prints its status JSON and
exits 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
from typing import List, Optional

from repro.mitigation import SCHEME_RUNNERS
from repro.serve.client import JobFailedError, ServeClient, ServeClientError
from repro.serve.server import CampaignJobServer, normalize_spec
from repro.store import ResultStore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="serve campaign curves from a content-addressed "
        "result store (submit/status/result/curve over HTTP)",
    )
    parser.add_argument(
        "--store",
        required=True,
        metavar="PATH",
        help="result store file (created if missing)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8437)
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="campaign worker threads (default 2)",
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="durable NDJSON job journal; a restarted server replays "
        "it, rebuilds its job table, and resumes incomplete jobs warm "
        "from the store",
    )
    parser.add_argument(
        "--job-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog: wall-clock budget per running job before it "
        "is moved to timed-out and its fingerprint evicted",
    )
    parser.add_argument(
        "--progress-stale",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog: maximum silence between progress updates of a "
        "running job (default: no staleness probe)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="admission control: cap on queued+running jobs; overflow "
        "is answered 429 with Retry-After",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="admission control: cap on queued jobs alone",
    )
    parser.add_argument(
        "--max-body-bytes",
        type=int,
        default=1 << 20,
        metavar="BYTES",
        help="reject request bodies larger than this with 413 "
        "(default 1 MiB)",
    )
    parser.add_argument(
        "--drain-deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="graceful shutdown waits at most this long for in-flight "
        "jobs before abandoning them to the journal (default 30)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    store = ResultStore(args.store)
    server = CampaignJobServer(
        store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        journal=args.journal,
        job_deadline_s=args.job_deadline,
        progress_stale_s=args.progress_stale,
        max_inflight_jobs=args.max_inflight,
        max_queue_depth=args.queue_depth,
        max_body_bytes=args.max_body_bytes,
        drain_deadline_s=args.drain_deadline,
    )

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        stop_requested = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_requested.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await server.start()
        recovered = server._stats()["recovered_jobs"]
        print(
            f"repro serve: listening on http://{server.host}:{server.port} "
            f"(store: {args.store}, {len(store)} cached points, "
            f"journal: {args.journal or 'none'}, "
            f"{recovered} jobs recovered)",
            flush=True,
        )
        serving = asyncio.ensure_future(server.serve_forever())
        stopping = asyncio.ensure_future(stop_requested.wait())
        try:
            await asyncio.wait(
                {serving, stopping},
                return_when=asyncio.FIRST_COMPLETED,
            )
        except asyncio.CancelledError:
            pass
        finally:
            serving.cancel()
            stopping.cancel()
            summary = await server.stop(drain=True)
            print(
                "repro serve: drained "
                f"(clean={summary['clean']}, "
                f"abandoned={summary['abandoned']})",
                flush=True,
            )

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down")
    return 0


def build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="submit a campaign grid to a running repro serve "
        "instance and wait for the result (idempotent: identical "
        "specs share one server-side job)",
    )
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8437",
        help="server base URL (default http://127.0.0.1:8437)",
    )
    parser.add_argument(
        "--scheme",
        default="secded",
        choices=tuple(SCHEME_RUNNERS),
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--vdd", type=float, help="single grid point")
    group.add_argument(
        "--vdds",
        help="comma-separated voltage grid, e.g. 0.44,0.46,0.48",
    )
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument(
        "--lanes",
        type=int,
        default=1,
        metavar="N",
        help="seeds per task and store row (default 1); every run "
        "executes on the fast lane",
    )
    parser.add_argument("--fft", type=int, default=64)
    parser.add_argument(
        "--no-wait",
        action="store_true",
        help="submit and print the job handle without polling",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up waiting after this long (default: wait forever)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=5,
        help="transport retry budget (default 5, capped exponential "
        "backoff)",
    )
    return parser


def submit_main(argv: Optional[List[str]] = None) -> int:
    args = build_submit_parser().parse_args(argv)
    spec: dict = {
        "scheme": args.scheme,
        "runs": args.runs,
        "seed": args.seed,
        "lanes": args.lanes,
        "fft": args.fft,
    }
    if args.vdds is not None:
        spec["vdds"] = [v for v in args.vdds.split(",") if v]
    else:
        spec["vdd"] = args.vdd
    try:
        spec = normalize_spec(spec)
        if args.deadline is not None and not args.deadline > 0:
            raise ValueError(
                f"deadline must be positive, got {args.deadline:g}"
            )
        client = ServeClient(args.url, max_retries=args.max_retries)
    except ValueError as error:
        raise SystemExit(f"repro submit: {error}") from None
    try:
        submitted = client.submit(spec)
        if args.no_wait:
            print(json.dumps(submitted, indent=2))
            return 0
        result = client.wait(
            submitted["job"], deadline_s=args.deadline
        )
    except JobFailedError as error:
        print(json.dumps(error.status, indent=2))
        return 1
    except ServeClientError as error:
        raise SystemExit(f"repro submit: {error}") from None
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
