"""``repro cache`` — inspect and maintain a result store."""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Optional

from repro.store.store import ResultStore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="inspect and maintain a content-addressed campaign "
        "result store",
    )
    parser.add_argument(
        "--store",
        required=True,
        metavar="PATH",
        help="result store file (created if missing)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ls", help="list cached points (insertion order)")
    sub.add_parser("stats", help="row count and operation counters")
    gc = sub.add_parser(
        "gc", help="keep the newest N points, drop the rest"
    )
    gc.add_argument("--keep", type=int, required=True, metavar="N")
    export = sub.add_parser("export", help="export rows to NDJSON")
    export.add_argument("path", metavar="FILE")
    imp = sub.add_parser("import", help="merge rows from an NDJSON export")
    imp.add_argument("path", metavar="FILE")
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    return parser


def _describe(entry: Dict[str, Any]) -> str:
    provenance = entry["provenance"]
    kind = entry["kind"]
    if kind == "scheme-campaign":
        detail = (
            f"scheme={provenance.get('scheme')} "
            f"vdd={provenance.get('vdd')} runs={provenance.get('runs')}"
        )
    elif kind == "campaign-task":
        detail = (
            f"scheme={provenance.get('scheme')} "
            f"vdd={provenance.get('vdd')} "
            f"first_seed={provenance.get('first_seed')} "
            f"count={provenance.get('count')} "
            f"lanes={provenance.get('lanes')}"
        )
    elif kind == "fig5-point":
        detail = (
            f"vdd={provenance.get('vdd')} "
            f"accesses={provenance.get('accesses')} "
            f"seed={provenance.get('seed')} i={provenance.get('index')}"
        )
    elif kind == "fig4-die":
        detail = (
            f"die={provenance.get('die_index')}/"
            f"{provenance.get('n_dies')} seed={provenance.get('seed')}"
        )
    else:
        detail = ""
    return f"{entry['fingerprint'][:16]}  {kind:<16} {detail}"


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    store = ResultStore(args.store)
    if args.command == "ls":
        entries = store.entries()
        if args.json:
            print(json.dumps(entries, indent=2))
        else:
            for entry in entries:
                print(_describe(entry))
            print(f"{len(entries)} cached point(s) in {args.store}")
        return 0
    if args.command == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats, indent=2))
        else:
            for key in sorted(stats):
                print(f"{key:<20} {stats[key]}")
        return 0
    if args.command == "gc":
        removed = store.gc(keep=args.keep)
        print(
            f"repro cache gc: removed {removed} point(s), "
            f"{len(store)} kept"
        )
        return 0
    if args.command == "export":
        count = store.export_ndjson(args.path)
        print(f"repro cache export: wrote {count} point(s) to {args.path}")
        return 0
    if args.command == "import":
        count = store.import_ndjson(args.path)
        print(
            f"repro cache import: merged {count} point(s) from "
            f"{args.path} ({len(store)} total)"
        )
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
