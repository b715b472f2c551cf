"""Regenerate the golden cycles corpus (``tests/golden/cycles.json``).

Usage::

    PYTHONPATH=src python tests/golden/regenerate_cycles.py [--reschedule]

Without ``--reschedule`` the stored schedules are kept and only the numbers
(reports, execution statistics, array digests) are re-evaluated; with it the
experiment sessions run again and the stored schedules are refreshed too.
Run it only when a change of the simulated cycles is *intended*; commit the
JSON diff together with the change.  The pytest in
``tests/test_golden_cycles.py`` fails on any drift against this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TESTS_DIR))
sys.path.insert(0, str(TESTS_DIR.parent / "src"))

from test_golden_cycles import GOLDEN_PATH, capture_corpus  # noqa: E402


def main() -> int:
    corpus = capture_corpus(reschedule="--reschedule" in sys.argv[1:])
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(
        f"wrote {GOLDEN_PATH}: {len(corpus['cases'])} cases, "
        f"{len(corpus['evaluations'])} distinct evaluations"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
