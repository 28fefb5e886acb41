"""The counting generator and the least sizes against what they replaced, and their cost.

``generate_sytr`` draws each expansion by rank from a count table, where
``reference_schema.generate_sytr`` lists every expansion and filters the
list. On every schema both must grow the same tree from the same seed,
refuse with the same text, and leave the generator in the same state.
``_min_sizes`` settles each name once where ``reference_schema.min_sizes``
repeats rounds; both must give every name the same size.
"""

import gc
import hashlib
import itertools
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_schema
from wordtree.graph import export_json
from wordtree.schema import (
    Alternation,
    BudgetExceeded,
    Literal,
    LowerWord,
    Schema,
    _min_sizes,
    _subset_counts,
    analyze,
    disjoint,
    generate_sytr,
    turingol_schema,
)

# Two-letter arrow words, each used once per schema, so every AND-arrow
# pattern is disjoint from every other and pair propagation finds no clash.
ARROW_WORDS = ["".join(pair) for pair in itertools.product("abcdefgh", repeat=2)]
NODE_LABELS = (Literal("n"), Literal(""), LowerWord(), Alternation({"p", "q", "r"}))


@st.composite
def small_schemas(draw):
    """Up to 6 names, each with up to 8 optional AND arrows to any name, up to 2
    mandatory AND arrows and OR arrows to later names only, so every name has a
    finite tree. Arrows get a literal word or a one-of of two words, never shared."""
    count = draw(st.integers(1, 6))
    names = [f"N{i}" for i in range(count)]
    words = iter(ARROW_WORDS)
    s = Schema()
    or_targets = [
        draw(st.lists(st.sampled_from(names[i + 1:]), unique=True, max_size=3)) if i + 1 < count else []
        for i in range(count)
    ]
    for name, targets in zip(names, or_targets):
        label = Literal("") if targets else draw(st.sampled_from(NODE_LABELS))
        s.add_node(name, label, number=1)
    for i, name in enumerate(names):
        later = names[i + 1:]
        optional = draw(st.lists(st.sampled_from(names), max_size=8))
        mandatory = draw(st.lists(st.sampled_from(later), max_size=2)) if later else []
        arrows = [(dst, True) for dst in optional] + [(dst, False) for dst in mandatory]
        for dst, is_optional in draw(st.permutations(arrows)):
            word = next(words)
            label = Alternation({word + "a", word + "b"}) if draw(st.booleans()) else Literal(word)
            s.add_and_arrow(name, dst, label, optional=is_optional)
        for target in or_targets[i]:
            s.add_or_arrow(name, target)
    return s, draw(st.sampled_from(names))


def outcome(generate, schema, root, seed, budget):
    """The grown tree's export, or the refusal's type and text, and the generator state."""
    rng = random.Random(seed)
    try:
        grown = export_json(generate(schema, root, rng, node_budget=budget).graph)
    except (BudgetExceeded, ValueError) as refusal:
        grown = (type(refusal).__name__, str(refusal))
    return grown, rng.getstate()


@settings(deadline=None, max_examples=300)
@given(small_schemas(), st.integers(1, 60), st.integers(0, 2**32))
def test_counting_generator_draws_like_the_listing_one(drawn, budget, seed):
    schema, root = drawn
    assert outcome(generate_sytr, schema, root, seed, budget) == outcome(
        reference_schema.generate_sytr, schema, root, seed, budget
    )



# sha256 over the seeds' ``export_json`` texts, each followed by a newline
# (a refusal counts as "BudgetExceeded: " and its text), as the listing
# generator grew them from ``turingol_schema()`` at root P.
LISTING_DIGESTS = {
    (300, 500): "670703a38ade80299b8acb18429223dbf8e55f96b9614ab2cdda967390a84a52",
    (200, 4): "99cda366eaf0e0c21ada6b15bc56beb4222562f3b5a95bea0bddc38162d642d8",
    (200, 10): "e86b5be8aa22f66bae216132bdffd2ebd08da1fd0a80ee5ff864be0cec47fc6a",
    (200, 40): "a4975444cf74502b7d9ee76bfb072d4ccc7ac6fd1947244114f739df3fc23efb",
    (200, 120): "94204ca8ffa4883b560a1eb08f933a1f94d4e124151ba243c96f937e8b2c79da",
    (200, 500): "94204ca8ffa4883b560a1eb08f933a1f94d4e124151ba243c96f937e8b2c79da",
}


@pytest.mark.parametrize("seeds, budget", sorted(LISTING_DIGESTS))
def test_turingol_trees_match_the_listing_generator(seeds, budget):
    schema = turingol_schema()
    digest = hashlib.sha256()
    for seed in range(seeds):
        try:
            digest.update(export_json(generate_sytr(schema, "P", random.Random(seed), node_budget=budget).graph).encode())
        except BudgetExceeded as refusal:
            digest.update(f"BudgetExceeded: {refusal}".encode())
        digest.update(b"\n")
    assert digest.hexdigest() == LISTING_DIGESTS[seeds, budget]


def wide_schema(k: int) -> Schema:
    """Root P with k optional AND arrows to literal leaves, each arrow with its own word."""
    s = Schema()
    s.add_node("P", Literal("p"), number=1)
    for i in range(k):
        s.add_node(f"N{i}", Literal("n"), number=1)
        s.add_and_arrow("P", f"N{i}", Literal("x" * (i + 1)), optional=True, order=i + 2)
    return s


def test_sixty_four_optional_arrows_generate_in_polynomial_time_and_space():
    schema = wide_schema(64)
    tracemalloc.start()
    began = time.perf_counter()
    try:
        trees = [generate_sytr(schema, "P", random.Random(seed)) for seed in range(5)]
        elapsed = time.perf_counter() - began
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 50 * 2**20
    assert len({tree.graph.node_count for tree in trees}) > 1


def test_subset_counts_match_enumeration():
    rng = random.Random(5)
    for _ in range(50):
        weights = [rng.randint(1, 6) for _ in range(rng.randint(0, 7))]
        limit = rng.randint(0, 30)
        rows = _subset_counts(weights, limit)
        for j, row in enumerate(rows):
            total = sum(weights[:j])
            assert len(row) == min(total, limit) + 1
            sums = [sum(subset) for r in range(j + 1) for subset in itertools.combinations(weights[:j], r)]
            assert row == [sum(1 for s in sums if s <= b) for b in range(len(row))]


def test_rows_stop_at_the_budget_when_least_sizes_are_huge():
    """Each level doubles the least size, so N0's optional arrows weigh 2**40."""
    s = Schema()
    for i in range(41):
        s.add_node(f"N{i}", Literal("n"), number=1)
    for i in range(40):
        s.add_and_arrow(f"N{i + 1}", f"N{i}", Literal("l"), order=2)
        s.add_and_arrow(f"N{i + 1}", f"N{i}", Literal("r"), order=3)
    s.add_node("P", Literal("p"), number=1)
    for i, word in enumerate(("a", "b", "c")):
        s.add_and_arrow("P", "N40", Literal(word), optional=True, order=i + 2)
    assert analyze(s).structure.sizes["N40"] == 2**41 - 1
    tree = generate_sytr(s, "P", random.Random(0), node_budget=100)
    assert tree.graph.node_count == 1
    rows = analyze(s).counts["P"].rows
    assert [len(row) for row in rows] == [1, 101, 101, 101]


@st.composite
def any_schemas(draw):
    """Up to 6 names with AND arrows, mandatory or optional, and OR arrows between any two.

    Self-loops, cycles, parallel arrows and names with no finite tree
    all occur; labels play no part in the sizes.
    """
    names = [f"N{i}" for i in range(draw(st.integers(1, 6)))]
    s = Schema()
    for name in names:
        s.add_node(name)
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    for (src, dst), optional in draw(st.lists(st.tuples(pairs, st.booleans()), max_size=10)):
        s.add_and_arrow(src, dst, optional=optional)
    for src, dst in draw(st.lists(pairs, max_size=8)):
        s.add_or_arrow(src, dst)
    return s


@given(any_schemas() | small_schemas().map(lambda drawn: drawn[0]))
@settings(deadline=None, max_examples=200)
def test_least_sizes_equal_the_round_by_round_fixed_point(schema):
    assert _min_sizes(schema) == reference_schema.min_sizes(schema)


def test_least_sizes_of_the_builtin_schema_equal_the_fixed_point():
    schema = turingol_schema()
    sizes = _min_sizes(schema)
    assert sizes == reference_schema.min_sizes(schema)
    assert all(type(size) is int for size in sizes.values())


def mandatory_chain(n: int) -> Schema:
    """n names, each with one mandatory AND arrow to the next, declared in forward order."""
    s = Schema()
    names = [f"N{i}" for i in range(n)]
    for name in names[:-1]:
        s.add_node(name, Literal("n"))
    s.add_node(names[-1], Literal("z"))
    for src, dst in zip(names, names[1:]):
        s.add_and_arrow(src, dst, Literal("x"))
    return s


def test_analyze_time_per_name_is_flat_on_a_forward_mandatory_chain():
    """Within 2x from 250 to 8 000 names, best of 3 with the collector off."""

    def per_name(n: int) -> float:
        best = math.inf
        for _ in range(3):
            schema = mandatory_chain(n)
            began = time.perf_counter()
            report = analyze(schema)
            best = min(best, time.perf_counter() - began)
        assert report.structure.sizes["N0"] == n
        return best / n

    enabled = gc.isenabled()
    gc.disable()
    try:
        small = per_name(250)
        for n in (1000, 8000):  # a quadratic analysis fails at 1 000, before 8 000 takes minutes
            assert per_name(n) < 2 * small, n
    finally:
        if enabled:
            gc.enable()


PATTERN_WORDS = ["", "a", "ab", "a-b", ":", "'", "is", "X1", "z"]
PATTERNS = (
    [Literal(word) for word in PATTERN_WORDS]
    + [
        Alternation(words)
        for size in (1, 2, 3)
        for words in itertools.combinations(PATTERN_WORDS, size)
    ]
    + [LowerWord()]
)


def test_disjoint_answers_as_the_case_table_on_every_pair():
    """Every ordered pair of 139 patterns: literals, one-ofs of one to three words, ``LowerWord``."""
    assert len(PATTERNS) == 139
    differ = [
        (a, b)
        for a, b in itertools.product(PATTERNS, repeat=2)
        if disjoint(a, b) != reference_schema.disjoint(a, b)
    ]
    assert differ == []


def test_disjoint_refuses_what_is_no_pattern_as_the_case_table_does():
    for a, b in [(Literal("a"), "a"), ("a", LowerWord()), (None, None)]:
        with pytest.raises(TypeError) as refused:
            disjoint(a, b)
        with pytest.raises(TypeError) as expected:
            reference_schema.disjoint(a, b)
        assert str(refused.value) == str(expected.value)
