"""RunConfig: the seed and the monoid cap, each a knob some code reads."""

import ast
from dataclasses import fields
from pathlib import Path

import colorpart
from colorpart.config import RunConfig, from_env


def test_every_config_field_is_read():
    read = set()
    for path in Path(colorpart.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "cfg"):
                read.add(node.attr)
    assert {f.name for f in fields(RunConfig)} - read == set()


def test_run_config_holds_only_the_seed_and_the_monoid_cap(monkeypatch):
    # the sweep sizes are fixed in the checks; no variable shrinks them
    assert [f.name for f in fields(RunConfig)] == ["seed", "monoid_cap"]
    monkeypatch.setenv("COLORPART_XT_SIZE_MAX", "1")
    monkeypatch.setenv("COLORPART_SEED", "7")
    assert from_env() == RunConfig(seed=7)
