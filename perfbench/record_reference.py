#!/usr/bin/env python3
"""Record the verdicts and decoded-output digests the benchmark checks against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs every input in each workload's pool once, untraced, and rewrites those
workloads' entries in perfbench/reference.json. Every run of the benchmark
reports how many of its decoded outputs match these digests, and fails an
instance whose checker verdict differs from the recorded one. Re-record
only when a change to misrecon deliberately alters a seeded output stream,
and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

from run import load_misrecon


def main(argv: list[str]) -> int:
    load_misrecon()
    from workloads import REFERENCE, REGIMES, Workload, load_reference

    reference = load_reference()
    for name in argv or list(REGIMES):
        wl = Workload(name, REGIMES[name], None)
        expected = {}
        for inst in wl.pool():
            output = wl.execute(inst)
            outcome = wl.check(inst, output, None)
            if outcome.errors:
                raise SystemExit(f"{name} {inst.key} fails its checks: {outcome.errors}")
            if inst.unit == "cff" and output is None:
                # a failed verification ends early; keep unit (a) a full check
                raise SystemExit(f"{name} {inst.key}: family is not cover-free")
            expected[inst.key] = (
                outcome.digest if outcome.digest is not None else wl.verdict(inst, output)
            )
        reference[name] = {"regime": wl.regime, "expected": expected}
        print(f"{name}: {len(expected)} inputs recorded", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
