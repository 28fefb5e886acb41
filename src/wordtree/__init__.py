"""Programs as uni-labeled word trees.

A small library and CLI around one idea: a program can live as an
oriented tree of words, with the words sitting on nodes and arrows, and
arrows leaving any node labeled pairwise differently. The package
provides the labeled-graph kernel, syntactic schemas that generate tree
families, a Turingol frontend, well-formedness checks, control-flow
link construction, a word tape, and a graph-walking executor whose
instructions are stored in nodes as data.
"""

__version__ = "0.1.0"

from .graph import LabeledGraph, Tree  # noqa: F401
from .frontend import parse_text, render_program  # noqa: F401
from .pipeline import CheckResult, check_program, execute_program  # noqa: F401

# Schema code loads on first use: no check or run needs it.
_SCHEMA_NAMES = frozenset({"generate_sytr", "turingol_schema", "uni_labeled_family"})


def __getattr__(name: str):
    """Forward the schema names to ``wordtree.schema``, imported on demand.

    Nothing is cached here, so a name always reads what the schema module
    holds at that moment.
    """
    if name in _SCHEMA_NAMES:
        from . import schema

        return getattr(schema, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(_SCHEMA_NAMES.union(globals()))
