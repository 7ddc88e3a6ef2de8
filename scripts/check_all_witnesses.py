"""Run every registered witness suite at a configurable size.

    python scripts/check_all_witnesses.py [seeds]

Negative controls are expected to report refutations; everything else must
come back clean.  Each line ends with the suite's fuel: every step its judges
took.
"""

import sys

from baire.reductions import witness_library


def main(seeds: int = 30) -> int:
    failures = 0
    for name, entry in sorted(witness_library().items()):
        report = entry.run_check(seeds=seeds)
        ok = report.ok()
        expected_dirty = entry.kind == "negative-control"
        verdict = "ok" if ok != expected_dirty else "UNEXPECTED"
        if verdict == "UNEXPECTED":
            failures += 1
        print(
            f"{name:24s} kind={entry.kind:18s} refuted={report.refutations:3d} "
            f"consistent={report.count('consistent'):3d} fuel={report.fuel_spent} -> {verdict}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 30))
