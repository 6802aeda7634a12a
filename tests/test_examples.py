"""Every example script runs to completion on the public API."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def _load_and_run(path: pathlib.Path) -> None:
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(path, capsys):
    _load_and_run(path)
    out = capsys.readouterr().out
    assert out.strip(), f"{path.stem} printed nothing"


def test_examples_exist():
    assert len(EXAMPLES) >= 3, "the deliverable requires >= 3 examples"
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names


def test_extend_protocol_example_is_a_clean_table():
    """The protocol-extension template defines its protocol as a
    transition table, which the linter passes."""
    from repro.lint.rules import lint_table
    from repro.protocols.table import TableProtocol, TransitionTable

    path = EXAMPLES[0].parent / "extend_protocol.py"
    spec = importlib.util.spec_from_file_location("example_extend", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert issubclass(module.MsiProtocol, TableProtocol)
    assert isinstance(module.MsiProtocol.table, TransitionTable)
    assert lint_table(module.MsiProtocol.table) == []
