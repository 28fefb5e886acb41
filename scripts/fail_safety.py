#!/usr/bin/env python3
"""Randomized fail-safety experiment.

A program that passes every check is claimed never to crash the
executor, whatever tape it is connected to. This script attacks that
claim from two sides: the binary increment program is run against many
random tapes and start cells, and a batch of schema-generated programs
is repaired until check-clean and then run on random tapes. Tape cells
are drawn from the program's declared words and statement labels and
from ``OTHER_TAPE_WORDS``, which holds the program root's own word.
Every run must end in a stop or in budget exhaustion; any crash fails
the experiment.
"""

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

from wordtree.cli import positive_int
from wordtree.executor import CRASHED, initialize, run
from wordtree.frontend import render_program, to_canonical
from wordtree.graph import SYNTACTIC
from wordtree.pipeline import check_program, execute_program, make_executable
from wordtree.schema import analyze, generate_sytr, turingol_schema
from wordtree.semantics import STATEMENT, classify
from wordtree.tape import parse_tape

INCREMENT = Path(__file__).resolve().parent.parent / "programs" / "increment.tgl"

# Tape words drawn besides a program's own: the root's word, the stop
# node's, two undeclared words and the empty word.
OTHER_TAPE_WORDS = ("tape-alphabet", "stop", "a", "zz", '""')


def fresh_word(rng, taken):
    while True:
        word = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(4))
        if word not in taken:
            return word


def tape_vocabulary(result):
    """Words for the cells of a checked program's random tapes, sorted.

    The program's declared words and statement labels, and
    ``OTHER_TAPE_WORDS``.
    """
    g = result.tree.graph
    points = result.points
    words = {g.node_label(node) for node in points.declarations + points.targets}
    return sorted(words | set(OTHER_TAPE_WORDS))


def repair(tree, rng):
    """Relabel a generated program in place until its checks can pass.

    Declarations are deduplicated, tape-word usages are pointed at
    declared words, duplicate label targets get fresh words, and
    dangling go to references are retargeted, preferring later
    statements so the jump goes forward and cannot close a cycle.
    """
    g = tree.graph
    # The relabels below change labels, not structure, so the points hold.
    points = classify(tree)

    seen = set()
    for node in points.declarations:
        if g.node_label(node) in seen:
            g.set_node_label(node, fresh_word(rng, seen))
        seen.add(g.node_label(node))
    declared = sorted(seen)

    for usage in points.usages:
        if g.node_label(usage) not in declared:
            g.set_node_label(usage, rng.choice(declared))

    words = set()
    for target in points.targets:
        if g.node_label(target) in words:
            g.set_node_label(target, fresh_word(rng, words | seen))
        words.add(g.node_label(target))

    rises = {
        g.node_label(target): g.chain(target, "-", ":")[-1]
        for target in points.targets
    }

    for usage in points.gotos:
        if g.node_label(usage) in rises:
            continue
        owner = g.ends(usage, "-", "to")[0]
        if rises:
            forward = [w for w, stmt in rises.items() if stmt > owner]
            g.set_node_label(usage, rng.choice(sorted(forward) or sorted(rises)))
        else:
            hosts = [n for n, c in enumerate(points.classes) if c == STATEMENT and n != owner] or [owner]
            host = rng.choice(hosts)
            word = fresh_word(rng, set(rises) | seen)
            label = g.add_node(word)
            g.add_arrow(host, ":", label, SYNTACTIC)
            rises[word] = host
            g.set_node_label(usage, word)


def random_tape(rng, vocabulary):
    return " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 6)))


def random_start(rng, tape_text):
    cells = len(tape_text.split())
    return rng.choice(["first", "last", rng.randrange(cells)])


def sweep_increment(runs, rng, max_steps):
    text = INCREMENT.read_text()
    vocabulary = tape_vocabulary(check_program(text))
    outcomes = Counter()
    for _ in range(runs):
        tape_text = random_tape(rng, vocabulary)
        start = random_start(rng, tape_text)
        outcomes[execute_program(text, tape_text, start, max_steps).outcome] += 1
    return outcomes


def sweep_generated(schema, count, rng, max_steps, budget):
    outcomes = Counter()
    collected = 0
    seed = 0
    rejected = 0
    while collected < count:
        seed += 1
        grown = generate_sytr(schema, "P", random.Random(seed), node_budget=budget)
        tree = to_canonical(grown)
        repair(tree, rng)
        result = check_program(render_program(tree))
        if not result.runnable:
            rejected += 1
            continue
        collected += 1
        instructions = make_executable(result)
        tape_text = random_tape(rng, tape_vocabulary(result))
        state = initialize(
            result.tree, parse_tape(tape_text), random_start(rng, tape_text), instructions
        )
        outcomes[run(state, max_steps).outcome] += 1
    return outcomes, seed, rejected


def main() -> int:
    parser = argparse.ArgumentParser(description="randomized fail-safety experiment")
    parser.add_argument("--program-runs", type=int, default=1000,
                        help="random tape/start runs of the increment program")
    parser.add_argument("--generated", type=int, default=200,
                        help="check-clean generated programs to run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-steps", type=int, default=10_000)
    parser.add_argument("--budget", type=positive_int, default=120,
                        help="node budget for generated programs")
    args = parser.parse_args()

    schema = turingol_schema()
    if analyze(schema).structure.sizes["P"] > args.budget:  # as ``generate_sytr`` refuses it
        print(f"no expansion of P fits within {args.budget} nodes", file=sys.stderr)
        return 1

    rng = random.Random(args.seed)
    print(f"increment program: {args.program_runs} random (tape, start) runs")
    fixed = sweep_increment(args.program_runs, rng, args.max_steps)
    for outcome, count in sorted(fixed.items()):
        print(f"  {outcome}: {count}")

    print(f"generated programs: {args.generated} check-clean programs, one tape each")
    generated, seeds_tried, rejected = sweep_generated(
        schema, args.generated, rng, args.max_steps, args.budget
    )
    print(f"  (generation used {seeds_tried} seeds, {rejected} rejected after repair)")
    for outcome, count in sorted(generated.items()):
        print(f"  {outcome}: {count}")

    crashes = fixed[CRASHED] + generated[CRASHED]
    print(f"crashes: {crashes}")
    return 0 if crashes == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
