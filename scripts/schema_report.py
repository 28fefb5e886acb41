#!/usr/bin/env python3
"""Full analysis report for a syntactic schema.

Prints the exported grammar, each node's class, the findings of
`wordtree schema check` (with one witness per stuck cycle), the
propagated label pairs per node, each node's count of one-step
expansions, and the verdict.
Defaults to the built-in Turingol schema; pass --schema to analyze a
schema stored as JSON. A file that cannot be read, a refused one and a
schema without numbering print the one-line refusal that
`wordtree schema grammar` prints, and the script exits with 1.
"""

import argparse
import sys

from wordtree.cli import Refusal, grammar_text, load_schema
from wordtree.schema import analyze


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--schema", help="path to a schema JSON file")
    args = parser.parse_args()

    try:
        schema = load_schema(args.schema)
        grammar = grammar_text(schema)
    except Refusal as refusal:
        print(refusal, file=sys.stderr)
        return 1

    print("grammar")
    print("-------")
    print(grammar)
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
