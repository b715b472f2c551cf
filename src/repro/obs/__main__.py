"""CLI for trace files: ``python -m repro.obs report <trace.json>``.

``report`` prints the hot-span tree of a Chrome-trace JSON file written by
``compile(..., trace=...)``, ``write_chrome_trace`` or the server's
``--trace-dir``; ``summary`` prints the flat per-span aggregate table.
"""

from __future__ import annotations

import argparse
import sys

from .export import build_tree, format_tree, load_chrome_trace, summarize
from .trace import SpanRecord


def _cmd_report(args: argparse.Namespace, records: list[SpanRecord]) -> int:
    roots = build_tree(records)
    print(
        format_tree(
            roots, min_fraction=args.min_fraction, counters=not args.no_counters
        )
    )
    return 0


def _cmd_summary(args: argparse.Namespace, records: list[SpanRecord]) -> int:
    summary = summarize(records)
    rows = sorted(summary.items(), key=lambda item: item[1]["wall_ns"], reverse=True)
    print(f"{'span':<42} {'count':>6} {'wall ms':>10} {'self ms':>10}")
    for name, entry in rows:
        print(
            f"{name:<42} {entry['count']:>6} "
            f"{entry['wall_ns'] / 1e6:>10.3f} {entry['self_ns'] / 1e6:>10.3f}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__
    )
    commands = parser.add_subparsers(dest="command", required=True)

    report = commands.add_parser("report", help="print the hot-span tree of a trace")
    report.add_argument("trace", help="Chrome-trace JSON file")
    report.add_argument(
        "--min-fraction",
        type=float,
        default=0.0,
        help="hide non-root spans below this fraction of total wall (default 0)",
    )
    report.add_argument(
        "--no-counters", action="store_true", help="omit counter attachments"
    )
    report.set_defaults(func=_cmd_report)

    summary = commands.add_parser("summary", help="flat per-span aggregate table")
    summary.add_argument("trace", help="Chrome-trace JSON file")
    summary.set_defaults(func=_cmd_summary)

    args = parser.parse_args(argv)
    expected = "expected a Chrome-trace JSON file (compile(..., trace=) or --trace-dir writes one)"
    try:
        records = load_chrome_trace(args.trace)
    except OSError as error:
        parser.error(f"cannot read trace {args.trace!r} ({error.strerror}); {expected}")
    except (ValueError, LookupError, TypeError, AttributeError):
        # Not JSON at all, or JSON of some other shape.
        parser.error(f"{args.trace!r} is not a trace; {expected}")
    if not records:
        print("trace is empty", file=sys.stderr)
        return 1
    return args.func(args, records)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
