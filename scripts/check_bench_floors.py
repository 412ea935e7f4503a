#!/usr/bin/env python3
"""Check bench JSON artifacts against the CI gates in bench/ci_floors.json.

Usage: check_bench_floors.py BENCH [BENCH ...] [--dir DIR] [--floors FILE]

BENCH names a section of the floors file (engine_microbench,
comm_microbench, scale_projection, serve_loadgen); its artifact is read from
DIR (default: the current directory). Each section may hold:

  floors              {key: minimum}     value must be >= minimum
  ceilings            {key: maximum}     value must be <= maximum
  ceilings_if_present {key: maximum}     as ceilings, skipped when absent
  equal               {key: value}       value must equal exactly
  true                [key, ...]         value must be true

A key may name other artifact values in braces ("rate_{sweep_max_ranks}").
A required key missing from the artifact fails the gate. Exits 1 if any
gate fails, 2 on a usage error.
"""

import argparse
import json
import sys
from pathlib import Path

DEFAULT_FLOORS = Path(__file__).resolve().parent.parent / "bench" / "ci_floors.json"


def resolve(key, bench):
    return key.format(**bench)


def check_section(name, section, bench):
    """Returns the list of failure messages for one artifact."""
    failures = []

    def value_of(key):
        if key not in bench:
            failures.append(f"{name}: {key} missing from the artifact")
            return None
        return bench[key]

    for key in section.get("true", []):
        value = value_of(key)
        print(f"{name}: {key} = {value}")
        if value is not None and value is not True:
            failures.append(f"{name}: {key} is {value}, expected true")
    for key, want in section.get("equal", {}).items():
        value = value_of(key)
        print(f"{name}: {key} = {value} (must equal {want})")
        if value is not None and value != want:
            failures.append(f"{name}: {key} is {value}, expected {want}")
    for key, floor in section.get("floors", {}).items():
        key = resolve(key, bench)
        value = value_of(key)
        if value is None:
            continue
        print(f"{name}: {key} = {value:,.2f} (floor {floor:,})")
        if value < floor:
            failures.append(f"{name}: {key} {value:,.2f} below floor {floor:,}")
    ceilings = dict(section.get("ceilings", {}))
    for key, ceiling in section.get("ceilings_if_present", {}).items():
        if resolve(key, bench) in bench:
            ceilings[key] = ceiling
    for key, ceiling in ceilings.items():
        key = resolve(key, bench)
        value = value_of(key)
        if value is None:
            continue
        print(f"{name}: {key} = {value:,} (ceiling {ceiling:,})")
        if value > ceiling:
            failures.append(f"{name}: {key} {value:,} above ceiling {ceiling:,}")
    return failures


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("benches", nargs="+")
    parser.add_argument("--dir", type=Path, default=Path("."))
    parser.add_argument("--floors", type=Path, default=DEFAULT_FLOORS)
    args = parser.parse_args(argv)

    floors = json.loads(args.floors.read_text())
    failures = []
    for name in args.benches:
        section = floors.get(name)
        if not isinstance(section, dict) or "artifact" not in section:
            parser.error(f"no gate section named {name!r} in {args.floors}")
        path = args.dir / section["artifact"]
        try:
            bench = json.loads(path.read_text())
        except (OSError, ValueError) as e:
            failures.append(f"{name}: cannot read {path}: {e}")
            continue
        failures += check_section(name, section, bench)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
