"""Every RunConfig field is a knob some code reads."""

import ast
from dataclasses import fields
from pathlib import Path

import colorpart
from colorpart.config import RunConfig


def test_every_config_field_is_read():
    read = set()
    for path in Path(colorpart.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "cfg"):
                read.add(node.attr)
    assert {f.name for f in fields(RunConfig)} - read == set()
