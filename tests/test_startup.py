"""What ``import wordtree`` loads, checked in fresh interpreters.

The check and run path needs no dataclass machinery, no JSON, no
``copy`` module and no schema code, so importing the package loads
none of them; the schema names still resolve through the package,
imported on first use. A check runs no code of ``executor`` or
``tape``, so the package, a check and the CLI's ``check`` load neither;
the first run loads them, and so does a first read of
``wordtree.executor`` or ``wordtree.tape``. The pipeline calls them
through their modules, so a wrapper put into a module's namespace
sees the runs. The schema module's records are slotted classes, and it
imports ``json`` only where a schema is read or written, so building,
analysing and growing a schema loads none of them either.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import wordtree
from wordtree import pipeline, schema

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
INCREMENT = ROOT / "programs" / "increment.tgl"
FORWARDED = ("generate_sytr", "turingol_schema", "uni_labeled_family")
RUN_MODULES = ("wordtree.executor", "wordtree.tape")
CHECK_MODULES = (
    "wordtree.graph", "wordtree.frontend", "wordtree.semantics", "wordtree.control_flow",
    "wordtree.pipeline",
)


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


def test_a_check_loads_no_run_code():
    out = fresh(
        "import wordtree\n"
        f"print([name for name in {RUN_MODULES!r} if name in sys.modules])\n"
        f"result = wordtree.check_program(open({str(INCREMENT)!r}).read())\n"
        "print(result.runnable, result.stop is not None)\n"
        f"print([name for name in {RUN_MODULES!r} if name in sys.modules])\n"
        f"print([name for name in {CHECK_MODULES!r} if name in sys.modules])\n"
    )
    assert out.splitlines() == ["[]", "True True", "[]", str(list(CHECK_MODULES))]


def test_the_cli_loads_run_code_only_for_run():
    out = fresh(
        "import wordtree.cli as cli\n"
        f"print([name for name in {RUN_MODULES!r} if name in sys.modules])\n"
        f"code = cli.main(['check', {str(INCREMENT)!r}])\n"
        f"print(code, [name for name in {RUN_MODULES!r} if name in sys.modules])\n"
        f"code = cli.main(['run', {str(INCREMENT)!r}, '--tape', 'one one'])\n"
        f"print(code, [name for name in {RUN_MODULES!r} if name in sys.modules])\n"
    )
    lines = out.splitlines()
    assert lines[0] == "[]"
    assert lines[2:4] == ["0 errors, 1 warnings", "0 []"]  # after the one warning
    assert lines[-2:] == ["stopped", f"0 {list(RUN_MODULES)}"]


def test_the_run_modules_resolve_through_the_package_before_any_run():
    out = fresh(
        "import wordtree\n"
        "print([name in dir(wordtree) for name in ('executor', 'tape')])\n"
        f"print([name for name in {RUN_MODULES!r} if name in sys.modules])\n"
        "print(wordtree.executor is sys.modules['wordtree.executor'])\n"
        "print(wordtree.tape is sys.modules['wordtree.tape'])\n"
        f"result = wordtree.execute_program(open({str(INCREMENT)!r}).read(), 'one one')\n"
        "print(result.outcome, wordtree.executor.final_tape(result.state))\n"
        "try:\n"
        "    wordtree.runner\n"
        "except AttributeError as refusal:\n"
        "    print(refusal)\n"
    )
    assert out.splitlines() == [
        "[True, True]",
        "[]",
        "True",
        "True",
        "stopped one zero point",
        "module 'wordtree' has no attribute 'runner'",
    ]


def test_runs_call_the_run_modules_through_their_namespaces(monkeypatch):
    """A wrapper put into ``executor`` or ``tape`` sees each call ``execute_program`` makes,
    also after earlier runs, so nothing keeps the functions it first called."""
    text = INCREMENT.read_text()
    assert wordtree.execute_program(text, "one").outcome == "stopped"
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("install_instructions", "initialize", "run"):
        counted(wordtree.executor, name)
    counted(wordtree.tape, "parse_tape")
    pipeline._executable.cache_clear()
    for tape in ("one", "one one", "zero one"):
        assert wordtree.execute_program(text, tape).outcome == "stopped"
    assert calls == ["install_instructions"] + ["parse_tape", "initialize", "run"] * 3


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
