#!/usr/bin/env python3
"""Generate a corpus of random programs and summarize their findings.

Grows one tree per seed from the built-in Turingol schema, renders each
to program text, runs the full check pipeline over it, and tallies the
diagnostic codes. With --out the programs are also written to numbered
files so other tools can pick them up.
"""

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

from wordtree.cli import positive_int
from wordtree.frontend import render_program, to_canonical
from wordtree.graph import check_uni_labeled
from wordtree.pipeline import check_program
from wordtree.schema import BudgetExceeded, generate_sytr, turingol_schema


def main() -> int:
    parser = argparse.ArgumentParser(description="generate and check random programs")
    parser.add_argument("--count", type=positive_int, default=50)
    parser.add_argument("--seed", type=int, default=0, help="first seed; seeds count up")
    parser.add_argument("--budget", type=positive_int, default=200, help="node budget per tree")
    parser.add_argument("--out", help="directory to write the programs into")
    args = parser.parse_args()

    out_dir = None
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    schema = turingol_schema()
    codes = Counter()
    clean = 0
    sizes = []
    for offset in range(args.count):
        seed = args.seed + offset
        try:
            grown = generate_sytr(schema, "P", random.Random(seed), node_budget=args.budget)
        except BudgetExceeded as failure:
            print(failure, file=sys.stderr)
            return 1
        assert check_uni_labeled(grown.graph) == [], f"seed {seed} broke uni-labeledness"
        text = render_program(to_canonical(grown))
        result = check_program(text)
        sizes.append(result.tree.graph.node_count - (result.stop is not None))  # less the stop node
        for finding in result.diagnostics:
            codes[finding.code] += 1
        if result.ok:
            clean += 1
        if out_dir is not None:
            (out_dir / f"generated_{seed:04d}.tgl").write_text(text + "\n")

    print(f"programs: {args.count} (seeds {args.seed}..{args.seed + args.count - 1})")
    print(f"node counts: min {min(sizes)}, max {max(sizes)}")
    print(f"error-free: {clean}")
    print("findings by code:")
    for code, count in sorted(codes.items()):
        print(f"  {code}: {count}")
    if out_dir is not None:
        print(f"written to: {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
