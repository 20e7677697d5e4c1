#!/usr/bin/env python3
"""Checks JSON output with a parser independent of the Rust codec.

Usage: python3 scripts/check_json.py FILE...

Every non-empty line of every FILE must be one strict JSON value
(NaN and Infinity are rejected). Exits 1 naming each bad line, or if a
FILE is missing or holds no line at all.
"""
import json
import sys


def reject_constant(name):
    raise ValueError(f"non-standard constant {name}")


bad = 0
for path in sys.argv[1:]:
    try:
        with open(path, encoding="utf-8") as f:
            lines = [(n, l) for n, l in enumerate(f, 1) if l.strip()]
    except OSError as e:
        print(f"{path}: {e}")
        bad += 1
        continue
    if not lines:
        print(f"{path}: no JSON line")
        bad += 1
    for n, line in lines:
        try:
            json.loads(line, parse_constant=reject_constant)
        except ValueError as e:
            print(f"{path}:{n}: {e}")
            bad += 1
print(f"check_json: {len(sys.argv) - 1} file(s), {bad} problem(s)")
sys.exit(1 if bad or len(sys.argv) < 2 else 0)
