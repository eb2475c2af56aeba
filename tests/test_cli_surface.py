"""The command line's surface, pinned flag by flag.

Walks ``_build_parser()`` and compares every option of every subcommand
-- its spellings, ``dest``, default, type, choices, action, ``nargs``
and ``required`` -- with a literal table, then parses each command's
minimal argument list and compares the resulting namespace.  Help texts
and option order are not pinned; everything a parse depends on is.

The parsed namespaces catch defaults that leak between commands: a flag
declared once for several commands must still parse to each command's
own default (``--clients`` is 200 for ``trace`` and ``None`` for
``simulate``/``stream``; ``--runtime`` is 8.0 for ``trace``/``simulate``
and 6.0 for ``stream``).
"""

import argparse

import pytest

from repro.cli import _build_parser


def _commands(parser, path=()):
    """Yield ``(command path, parser)`` for the parser and every subcommand."""
    yield " ".join(path), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                yield from _commands(subparser, path + (name,))


def _option_row(action):
    kind = type(action).__name__.strip("_")
    return (
        tuple(action.option_strings),
        action.default,
        getattr(action.type, "__name__", action.type),
        None if action.choices is None else list(action.choices),
        kind[: -len("Action")] if kind.endswith("Action") else kind,
        action.nargs,
        action.required,
    )


def flag_table(parser):
    """``{command: {dest: (spellings, default, type, choices, action,
    nargs, required)}}`` over the parser and its subcommands."""
    return {
        command: {
            action.dest: _option_row(action)
            for action in subparser._actions
            if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
        }
        for command, subparser in _commands(parser)
    }


#: Each command's shortest argument list and the handler it dispatches to.
COMMANDS = {
    "list": (["list"], "_command_list"),
    "figure": (["figure", "fig8"], "_command_figure"),
    "report": (["report"], "_command_report"),
    "diagnose": (["diagnose"], "_command_diagnose"),
    "trace": (["trace"], "_command_trace"),
    "simulate": (["simulate"], "_command_simulate"),
    "stream": (["stream"], "_command_stream"),
    "query runs": (["query", "runs"], "_query_runs"),
    "query latency": (["query", "latency"], "_query_latency"),
    "query patterns": (["query", "patterns", "--run", "r1"], "_query_patterns"),
    "query diff": (["query", "diff"], "_query_diff"),
    "query export": (["query", "export", "--run", "r1"], "_query_export"),
    "fuzz": (["fuzz"], "_command_fuzz"),
}


EXPECTED_FLAGS = {
    "": {"scale": (("--scale",), None, None, ["full", "small"], "Store", None, False)},
    "list": {},
    "figure": {
        "figure_id": (
            (),
            None,
            None,
            [
                "baselines",
                "fig10",
                "fig11",
                "fig11s",
                "fig12",
                "fig12s",
                "fig13",
                "fig14",
                "fig15",
                "fig16",
                "fig17",
                "fig8",
                "fig9",
                "fuzz",
                "interning",
                "sampling",
                "scenarios",
                "sec5.2",
            ],
            "Store",
            None,
            True,
        ),
    },
    "report": {"output": (("--output",), None, None, None, "Store", None, False)},
    "diagnose": {"threshold": (("--threshold",), 5.0, "float", None, "Store", None, False)},
    "trace": {
        "clients": (("--clients",), 200, "int", None, "Store", None, False),
        "workload": (
            ("--workload",),
            "browse_only",
            None,
            ["browse_only", "default"],
            "Store",
            None,
            False,
        ),
        "max_threads": (("--max-threads",), 40, "int", None, "Store", None, False),
        "window": (("--window",), 0.01, "float", None, "Store", None, False),
        "clock_skew": (("--clock-skew",), 0.001, "float", None, "Store", None, False),
        "runtime": (("--runtime",), 8.0, "float", None, "Store", None, False),
        "noise": (("--noise",), False, None, None, "StoreTrue", 0, False),
        "fault": (
            ("--fault",),
            "none",
            None,
            ["none", "ejb_delay", "database_lock", "ejb_network"],
            "Store",
            None,
            False,
        ),
        "seed": (("--seed",), 17, "int", None, "Store", None, False),
        "rate": (("--sample-rate",), None, "float", None, "Store", None, False),
        "budget_per_second": (("--sample-budget",), None, "int", None, "Store", None, False),
        "target_open_cags": (("--sample-adaptive",), None, "int", None, "Store", None, False),
        "store": (("--store",), None, None, None, "Store", None, False),
        "run_id": (("--run-id",), None, None, None, "Store", None, False),
        "json": (("--json",), False, None, None, "StoreTrue", 0, False),
    },
    "simulate": {
        "scenario": (("--scenario",), "rubis", None, None, "Store", None, False),
        "list": (("--list",), False, None, None, "StoreTrue", 0, False),
        "clients": (("--clients",), None, "int", None, "Store", None, False),
        "arrival_rate": (("--arrival-rate",), None, "float", None, "Store", None, False),
        "workload_kind": (
            ("--workload-kind",),
            None,
            None,
            ["closed", "open", "bursty"],
            "Store",
            None,
            False,
        ),
        "window": (("--window",), 0.01, "float", None, "Store", None, False),
        "runtime": (("--runtime",), 8.0, "float", None, "Store", None, False),
        "noise": (("--noise",), False, None, None, "StoreTrue", 0, False),
        "fault": (
            ("--fault",),
            "none",
            None,
            ["none", "ejb_delay", "database_lock", "ejb_network"],
            "Store",
            None,
            False,
        ),
        "seed": (("--seed",), 17, "int", None, "Store", None, False),
        "rate": (("--sample-rate",), None, "float", None, "Store", None, False),
        "budget_per_second": (("--sample-budget",), None, "int", None, "Store", None, False),
        "target_open_cags": (("--sample-adaptive",), None, "int", None, "Store", None, False),
        "store": (("--store",), None, None, None, "Store", None, False),
        "run_id": (("--run-id",), None, None, None, "Store", None, False),
        "json": (("--json",), False, None, None, "StoreTrue", 0, False),
    },
    "stream": {
        "scenario": (("--scenario",), "rubis", None, None, "Store", None, False),
        "input": (("--input",), None, None, None, "Append", None, False),
        "frontend": (("--frontend",), None, None, None, "Store", None, False),
        "window": (("--window",), 0.01, "float", None, "Store", None, False),
        "horizon": (("--horizon",), 5.0, "float", None, "Store", None, False),
        "skew_bound": (("--skew-bound",), 0.005, "float", None, "Store", None, False),
        "chunk_size": (("--chunk-size",), 256, "int", None, "Store", None, False),
        "checkpoint_path": (("--checkpoint",), None, None, None, "Store", None, False),
        "checkpoint_every": (("--checkpoint-every",), None, "int", None, "Store", None, False),
        "resume_from": (("--resume",), None, None, None, "Store", None, False),
        "clients": (("--clients",), None, "int", None, "Store", None, False),
        "runtime": (("--runtime",), 6.0, "float", None, "Store", None, False),
        "noise": (("--noise",), False, None, None, "StoreTrue", 0, False),
        "fault": (
            ("--fault",),
            "none",
            None,
            ["none", "ejb_delay", "database_lock", "ejb_network"],
            "Store",
            None,
            False,
        ),
        "seed": (("--seed",), 17, "int", None, "Store", None, False),
        "rate": (("--sample-rate",), None, "float", None, "Store", None, False),
        "budget_per_second": (("--sample-budget",), None, "int", None, "Store", None, False),
        "target_open_cags": (("--sample-adaptive",), None, "int", None, "Store", None, False),
        "store": (("--store",), None, None, None, "Store", None, False),
        "run_id": (("--run-id",), None, None, None, "Store", None, False),
        "json": (("--json",), False, None, None, "StoreTrue", 0, False),
    },
    "query": {},
    "query runs": {
        "store": (("--store",), None, None, None, "Store", None, False),
        "json": (("--json",), False, None, None, "StoreTrue", 0, False),
    },
    "query latency": {
        "store": (("--store",), None, None, None, "Store", None, False),
        "run": (("--run",), None, None, None, "Store", None, False),
        "pattern": (("--pattern",), None, None, None, "Store", None, False),
        "scenario": (("--scenario",), None, None, None, "Store", None, False),
        "since": (("--since",), None, "float", None, "Store", None, False),
        "until": (("--until",), None, "float", None, "Store", None, False),
        "bucket": (("--bucket",), None, "float", None, "Store", None, False),
        "json": (("--json",), False, None, None, "StoreTrue", 0, False),
    },
    "query patterns": {
        "store": (("--store",), None, None, None, "Store", None, False),
        "run": (("--run",), None, None, None, "Store", None, True),
        "against": (("--against",), None, None, None, "Store", None, False),
        "json": (("--json",), False, None, None, "StoreTrue", 0, False),
    },
    "query diff": {
        "store": (("--store",), None, None, None, "Store", None, False),
        "runs": ((), None, None, None, "Store", "*", True),
        "tolerance": (("--tolerance",), 0.25, "float", None, "Store", None, False),
        "json": (("--json",), False, None, None, "StoreTrue", 0, False),
    },
    "query export": {
        "store": (("--store",), None, None, None, "Store", None, False),
        "run": (("--run",), None, None, None, "Store", None, True),
        "output": (("--output",), None, None, None, "Store", None, False),
    },
    "fuzz": {
        "seeds": (("--seeds",), 25, "int", None, "Store", None, False),
        "start_seed": (("--start-seed",), 0, "int", None, "Store", None, False),
        "budget": (("--budget",), None, "float", None, "Store", None, False),
        "window": (("--window",), 0.01, "float", None, "Store", None, False),
        "sampling_rate": (("--sample-rate",), 0.5, "float", None, "Store", None, False),
        "no_shrink": (("--no-shrink",), False, None, None, "StoreTrue", 0, False),
        "output": (("--output",), None, None, None, "Store", None, False),
    },
}


def test_every_command_is_pinned():
    assert sorted(flag_table(_build_parser())) == sorted(EXPECTED_FLAGS)
    assert sorted(COMMANDS) == sorted(set(EXPECTED_FLAGS) - {"", "query"})


@pytest.mark.parametrize("command", sorted(EXPECTED_FLAGS))
def test_flags_keep_their_spelling_default_type_and_choices(command):
    assert flag_table(_build_parser())[command] == EXPECTED_FLAGS[command]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_parses_to_its_own_defaults(command):
    argv, handler = COMMANDS[command]
    namespace = vars(_build_parser().parse_args(argv))
    assert namespace.pop("handler").__name__ == handler
    assert namespace.pop("command") == argv[0]
    if argv[0] == "query":
        assert namespace.pop("query_command") == argv[1]
    flags = {**EXPECTED_FLAGS[""], **EXPECTED_FLAGS[command]}
    assert sorted(namespace) == sorted(flags)
    for dest, (_, default, _, _, _, _, required) in flags.items():
        if not required:
            assert namespace[dest] == default, dest
