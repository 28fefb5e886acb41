"""What ``import wordtree`` loads, checked in fresh interpreters.

The check and run path needs no dataclass machinery, no JSON, no
``copy`` module and no schema code, so importing the package loads
none of them; the schema names still resolve through the package,
imported on first use. The schema module's records are slotted classes,
and it imports ``json`` only where a schema is read or written, so
building, analysing and growing a schema loads none of them either.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import wordtree
from wordtree import schema

SRC = Path(__file__).resolve().parent.parent / "src"
FORWARDED = ("generate_sytr", "turingol_schema", "uni_labeled_family")


def fresh(code: str) -> str:
    """Run ``code`` with ``src/`` first on the path and no site packages; return stdout."""
    prelude = "import sys\nsys.path.insert(0, sys.argv[1])\n"
    child = subprocess.run(
        [sys.executable, "-S", "-c", prelude + code, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return child.stdout


def test_import_loads_no_dataclasses_json_or_schema_code():
    out = fresh(
        "import wordtree, wordtree.executor\n"
        "unwanted = ('copy', 'dataclasses', 'inspect', 'json', 'wordtree.schema')\n"
        "print([name for name in unwanted if name in sys.modules])\n"
        "print(type(wordtree.turingol_schema()).__name__)\n"
        "from wordtree import generate_sytr\n"
        "print(generate_sytr.__module__, 'wordtree.schema' in sys.modules)\n"
        f"print([name for name in {FORWARDED!r} if name in dir(wordtree)])\n"
    )
    assert out.splitlines() == [
        "[]",
        "Schema",
        "wordtree.schema True",
        str(list(FORWARDED)),
    ]


def test_cli_import_loads_no_schema_code():
    assert fresh("import wordtree.cli\nprint('wordtree.schema' in sys.modules)") == "False\n"


def test_forwarded_names_read_the_schema_module_each_time(monkeypatch):
    """Nothing is cached in the package, so a wrapper put into the schema module shows."""
    for name in FORWARDED:
        assert getattr(wordtree, name) is getattr(schema, name)
        assert name not in vars(wordtree)
    wrapper = object()
    monkeypatch.setattr(schema, "generate_sytr", wrapper)
    assert wordtree.generate_sytr is wrapper


def test_unknown_names_are_refused():
    with pytest.raises(AttributeError, match="module 'wordtree' has no attribute 'no_such_name'"):
        wordtree.no_such_name


def test_schema_work_loads_no_dataclasses_or_json():
    out = fresh(
        "import random\n"
        "from wordtree.schema import analyze, generate_sytr, schema_from_json, schema_to_json\n"
        "from wordtree.schema import turingol_schema\n"
        "schema = turingol_schema()\n"
        "tree = generate_sytr(schema, 'P', random.Random(1))\n"
        "print(analyze(schema).uni_labeled, tree.graph.node_count > 1)\n"
        "print([name for name in ('dataclasses', 'inspect', 'json') if name in sys.modules])\n"
        "text = schema_to_json(schema)\n"
        "print(schema_to_json(schema_from_json(text)) == text, 'json' in sys.modules)\n"
    )
    assert out.splitlines() == ["True True", "[]", "True True"]
