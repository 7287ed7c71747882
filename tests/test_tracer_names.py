"""The names the benchmark's per-layer tracer wraps resolve in colorpart.

perfbench/tracer.py looks functions up by name; a renamed or deleted
function would silently read 0 calls there."""

import importlib
import importlib.util
import re
from pathlib import Path

from click.testing import CliRunner

from colorpart import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# xt_act left characters when the X^t oracle moved to class sums
RETIRED = {"characters.xt_act"}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves_on_its_module():
    tracer = _tracer_module()
    unresolved = set()
    for layer, metrics in tracer.FUNCTIONS.items():
        module = importlib.import_module("colorpart." + layer)
        for _, names, _ in metrics:
            for name in names:
                obj = module
                for attr in name.split("."):
                    obj = getattr(obj, attr, None)
                if obj is None:
                    unresolved.add(layer + "." + name)
    assert unresolved - RETIRED == set()


def test_every_module_function_the_tracer_wraps_resolves():
    # install() wraps a few functions by name outside FUNCTIONS, such as
    # config.from_env, which it counts under cli
    names = re.findall(r'mods\["(\w+)"\]\.(\w+)', TRACER.read_text())
    assert ("config", "from_env") in names
    unresolved = {module + "." + name for module, name in names
                  if not callable(getattr(importlib.import_module(
                      "colorpart." + module), name, None))}
    assert unresolved == set()


def test_a_traced_request_counts_the_group_and_its_callback():
    # the traced benchmark pass sets main.main and rewraps each callback:
    # the group must run through both
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        res = CliRunner().invoke(cli.main, ["count", "--k", "3", "--r", "2"])
    finally:
        tracer.uninstall()
    assert res.exit_code == 0, res.output
    assert tracer.stats["cli.main"].calls == 1
    assert tracer.stats["cli.cmd_count"].calls == 1
