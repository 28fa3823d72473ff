#!/usr/bin/env python3
"""Run the bundled social proximity scenarios and print what happened."""

from __future__ import annotations

import sys
from pathlib import Path

from chorenforce import load_scenario, run_scenario
from chorenforce.oracle import verdict_histogram

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SCENARIOS = [
    ("scenario_inorder.json", "roundrobin", 0),
    ("scenario_shuffled.json", "random", 3),
    ("scenario_adversarial.json", "random", 7),
    ("scenario_share_disabled.json", "roundrobin", 0),
]


def main() -> int:
    ok = True
    for name, policy, seed in SCENARIOS:
        scenario = load_scenario(FIXTURES / name)
        result = run_scenario(scenario, policy=policy, seed=seed)
        count, bound = result.overhead
        print(f"== {name} ({policy}, seed {seed})")
        print(f"   outcome      {result.outcome}")
        print(f"   conformant   {result.conformant}")
        print(f"   verdicts     {verdict_histogram(result.verdicts)}")
        print(f"   coordination {count} messages (bound {bound})")
        print(f"   operations   {' -> '.join(result.projection)}")
        ok = ok and result.ok()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
