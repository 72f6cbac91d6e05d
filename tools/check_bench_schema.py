#!/usr/bin/env python3
"""Bench sidecar schema guard.

Compares committed BENCH_<name>.json sidecars against freshly generated
ones and fails on SCHEMA drift: top-level keys, the per-record shape,
the set of record names, and each record's param-key list. Numbers are
deliberately ignored — timings differ per machine; the shape must not.
Committed sidecars must additionally come from an unperturbed build:
one stamped "build": {"lockdep": true, ...} or a nonempty sanitizer
fails the check outright (instrumented numbers are not comparable).

Usage:
  check_bench_schema.py --committed DIR --generated DIR name [name ...]

Exit status: 0 when every named sidecar matches, 1 on any drift (or a
missing/unparsable file).
"""

import argparse
import json
import os
import sys

RECORD_KEYS = ["name", "params", "wall_us", "rows_examined"]
TOP_KEYS = ["bench", "quick_mode", "build", "records", "metrics"]
BUILD_KEYS = ["lockdep", "sanitizer"]


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f), None
    except (OSError, json.JSONDecodeError) as err:
        return None, "%s: %s" % (path, err)


def check_shape(doc, label, errors):
    """Structural invariants any sidecar must satisfy on its own."""
    if sorted(doc.keys()) != sorted(TOP_KEYS):
        errors.append("%s: top-level keys %s != %s"
                      % (label, sorted(doc.keys()), sorted(TOP_KEYS)))
        return
    if sorted(doc["build"].keys()) != sorted(BUILD_KEYS):
        errors.append("%s: build keys %s != %s"
                      % (label, sorted(doc["build"].keys()),
                         sorted(BUILD_KEYS)))
    for rec in doc["records"]:
        if sorted(rec.keys()) != sorted(RECORD_KEYS):
            errors.append("%s: record %r keys %s != %s"
                          % (label, rec.get("name", "?"),
                             sorted(rec.keys()), sorted(RECORD_KEYS)))


def check_committed_build(doc, label, errors):
    """Committed numbers must come from an unperturbed build.

    A lockdep or sanitizer build measures the instrumentation, not the
    engine; such a sidecar may be generated locally but never committed.
    """
    build = doc.get("build", {})
    if build.get("lockdep") is not False:
        errors.append("%s: measured with the lockdep witness compiled in "
                      "(build.lockdep=%r) — regenerate from a plain release "
                      "build" % (label, build.get("lockdep")))
    if build.get("sanitizer", "") != "":
        errors.append("%s: measured under -DNEBULA_SANITIZE=%s — regenerate "
                      "from a plain release build"
                      % (label, build.get("sanitizer")))


def record_schema(doc):
    """name -> ordered param-key list, for cross-file comparison."""
    return {rec["name"]: list(rec["params"].keys())
            for rec in doc["records"]}


def compare(name, committed_dir, generated_dir, errors):
    fname = "BENCH_%s.json" % name
    committed, err = load(os.path.join(committed_dir, fname))
    if err:
        errors.append("committed " + err)
        return
    generated, err = load(os.path.join(generated_dir, fname))
    if err:
        errors.append("generated " + err)
        return
    check_shape(committed, "committed " + fname, errors)
    check_shape(generated, "generated " + fname, errors)
    check_committed_build(committed, "committed " + fname, errors)
    if committed.get("bench") != generated.get("bench"):
        errors.append("%s: bench field %r != %r"
                      % (fname, committed.get("bench"),
                         generated.get("bench")))

    want = record_schema(committed)
    got = record_schema(generated)
    for missing in sorted(set(want) - set(got)):
        errors.append("%s: committed record %r not produced by the bench"
                      % (fname, missing))
    for extra in sorted(set(got) - set(want)):
        errors.append("%s: bench produced new record %r — re-commit the "
                      "sidecar" % (fname, extra))
    for rec_name in sorted(set(want) & set(got)):
        if want[rec_name] != got[rec_name]:
            errors.append("%s: record %r param keys %s != committed %s"
                          % (fname, rec_name, got[rec_name], want[rec_name]))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--committed", required=True,
                        help="directory holding the committed sidecars")
    parser.add_argument("--generated", required=True,
                        help="directory holding freshly generated sidecars")
    parser.add_argument("names", nargs="+",
                        help="bench names, e.g. fig12_execution")
    args = parser.parse_args()

    errors = []
    for name in args.names:
        compare(name, args.committed, args.generated, errors)
    if errors:
        for e in errors:
            print("schema drift:", e, file=sys.stderr)
        return 1
    print("bench sidecar schema ok: %s" % ", ".join(args.names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
