"""Golden parser actions of the CLI, and their drift from the specs.

``--help`` prints no defaults and no value types, so a flag whose
default or type drifts is invisible to ``test_cli_help.py``.  This pins
every action of every subcommand — option strings, dest, default,
choices, nargs, metavar and type name — against
``tests/golden/cli_actions.json``.  Regenerate with
``PYTHONPATH=src python tests/test_cli_actions.py`` only when a parser
change is intentional.

The drift checks hold every flag that sets a spec field to that field's
default and to its module's choice set, unless its row lists an
override that differs from the spec on purpose.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser
from repro.continuous.spec import WINDOW_MODES
from repro.core.resiliency import STRATEGIES
from repro.plan.compile import OPTIMIZER_COST, OPTIMIZER_PINNED
from repro.workload.spec import ARRIVAL_PROCESSES

GOLDEN = Path(__file__).parent / "golden" / "cli_actions.json"


def describe(action: argparse.Action) -> dict:
    """The parse-relevant attributes of one action, JSON-safe."""
    choices = action.choices
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": repr(action.default),
        "choices": None if choices is None else [repr(c) for c in choices],
        "nargs": repr(action.nargs),
        "metavar": action.metavar,
        "type": None if action.type is None else action.type.__name__,
        "action": type(action).__name__,
    }


def subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (sub,) = (
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return dict(sub.choices)


def render() -> dict[str, list[dict]]:
    """Every subcommand's actions in declaration (``--help``) order."""
    return {
        name: [describe(action) for action in command._actions]
        for name, command in subparsers(build_parser()).items()
    }


def test_parser_actions_match_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = render()
    assert list(actual) == list(expected)
    for name, actions in expected.items():
        assert actual[name] == actions, name


#: spec field -> the constant its spec module checks it against
SPEC_CHOICES = {
    "arrival_process": ARRIVAL_PROCESSES,
    "window": WINDOW_MODES,
    "optimizer": (OPTIMIZER_PINNED, OPTIMIZER_COST),
}

#: (command, dest) pairs that name a spec field without setting it
UNRELATED_DESTS = {
    # --rows counts the synthetic rows ScenarioConfig.rows then holds
    ("run", "rows"),
    ("kmeans", "rows"),
}


def spec_field(spec: type, name: str) -> dataclasses.Field:
    (found,) = (f for f in dataclasses.fields(spec) if f.name == name)
    return found


def actions_by_dest(command: str) -> dict[str, argparse.Action]:
    parser = subparsers(build_parser())[command]
    return {action.dest: action for action in parser._actions}


@pytest.mark.parametrize("command", list(cli._FLAGS))
def test_field_flags_take_the_spec_default_and_choices(command):
    actions = actions_by_dest(command)
    for flag in cli._FLAGS[command].flags:
        if not flag.specs:
            continue
        action = actions[flag.dest]
        declared = [spec_field(spec, flag.field) for spec in flag.specs]
        defaults = {f.default for f in declared if f.default is not dataclasses.MISSING}
        assert len(defaults) <= 1, f"{flag.spelling}: its specs disagree"
        if flag.convert is not None:
            # a spelling of the field: its parsed default spells the field's
            assert {flag.convert(action.default)} == defaults, flag.spelling
            continue
        assert "choices" not in flag.options, flag.spelling
        assert action.choices == SPEC_CHOICES.get(flag.field), flag.spelling
        if "default" in flag.options:
            assert {action.default} != defaults, (
                f"{flag.spelling}: the override repeats the spec's default"
            )
        else:
            assert {action.default} == defaults, flag.spelling


@pytest.mark.parametrize("command", list(cli._FLAGS))
def test_no_plain_flag_shadows_a_spec_field(command):
    """A flag whose dest names a field of a spec the command builds sets
    that field through its row, so the spec never silently keeps its own
    default."""
    flags = cli._FLAGS[command].flags
    specs = {spec for flag in flags for spec in flag.specs}
    fields = {f.name for spec in specs for f in dataclasses.fields(spec)}
    shadowing = {
        flag.dest for flag in flags
        if not flag.specs and flag.dest in fields
        and (command, flag.dest) not in UNRELATED_DESTS
    }
    assert not shadowing


def test_no_literal_repeats_a_spec_choice_set():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    literals = {
        tuple(element.value for element in node.elts)
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and node.elts
        and all(isinstance(element, ast.Constant) for element in node.elts)
    }
    for choices in (*SPEC_CHOICES.values(), STRATEGIES):
        assert tuple(choices) not in literals, choices


if __name__ == "__main__":
    commands = [
        f"  {json.dumps(name)}: [\n"
        + ",\n".join(f"    {json.dumps(action)}" for action in actions)
        + "\n  ]"
        for name, actions in render().items()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(commands) + "\n}\n", encoding="utf-8")
    sys.exit(0)
