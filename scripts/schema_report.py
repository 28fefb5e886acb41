#!/usr/bin/env python3
"""Full analysis report for a syntactic schema.

Prints the exported grammar, each node's class, the findings of
`wordtree schema check` (with one witness per stuck cycle), the
propagated label pairs per node, each node's count of one-step
expansions, and the verdict.
Defaults to the built-in Turingol schema; pass --schema to analyze a
schema stored as JSON.
"""

import argparse
import sys
from pathlib import Path

from wordtree.schema import analyze, export_grammar, schema_from_json, turingol_schema


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--schema", help="path to a schema JSON file")
    args = parser.parse_args()

    schema = (
        schema_from_json(Path(args.schema).read_text())
        if args.schema
        else turingol_schema()
    )

    print("grammar")
    print("-------")
    print(export_grammar(schema))
    print()

    report = analyze(schema)
    print("structure")
    print("---------")
    for name in schema.names():
        print(f"  {name}: {report.structure.classes[name]}")
    print()

    print("conditions")
    print("----------")
    *findings, verdict = report.summary()
    for line in findings:
        print(f"  {line}")
    if report.pairs is not None and report.pairs.ok:
        print()
        print("settled pairs per node")
        for name in schema.names():
            carried = sorted(
                f"({origin}, {spec.to_text()})" for origin, spec in report.pairs.pairs[name]
            )
            print(f"  {name}: {', '.join(carried) if carried else '(none)'}")
    print()

    print("expansion counts")
    print("----------------")
    for name in schema.names():
        optional = sum(1 for a in schema.and_arrows(src=name) if a.optional)
        print(f"  {name}: {max(1, len(schema.or_targets(name))) << optional}")
    print()

    print(verdict)
    return 0 if report.uni_labeled else 1


if __name__ == "__main__":
    sys.exit(main())
