"""Docstring examples must stay executable; the API reference built from
the docstrings must render the same text on every run, and that text
must be the committed ``docs/API.md``."""

import doctest
import importlib.util
import pathlib

import pytest

import repro.circuits.visualize
import repro.linalg.bitvec
import repro.problems.io

MODULES = [
    repro.linalg.bitvec,
    repro.problems.io,
    repro.circuits.visualize,
]

GEN_API_DOCS = pathlib.Path(__file__).parent.parent / "tools" / "gen_api_docs.py"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_api_reference_renders_deterministically():
    spec = importlib.util.spec_from_file_location("gen_api_docs", GEN_API_DOCS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    first = module.render()
    assert first == module.render()
    assert "at 0x" not in first
    assert first == module.OUTPUT.read_text(), (
        "docs/API.md is stale: run `python tools/gen_api_docs.py`"
    )
