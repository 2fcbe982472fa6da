"""The ``repro`` flag inventory, pinned.

Every parser a command builds (the report and entities actions
included) is walked, and each flag's option strings, ``dest``,
``default``, ``choices``, ``nargs`` and ``required`` are compared with
the literal table below.  A flag added, dropped or re-defaulted by
accident fails here; a deliberate change edits the table in the same
commit.
"""

import argparse
import subprocess
import sys

import pytest

from repro import cli

# (parser, option strings, dest, default, choices, nargs, required)
FLAGS = [
    ('identify', ('--version',), 'version', '==SUPPRESS==', None, 0, False),
    ('identify', (), 'r_csv', None, None, '?', False),
    ('identify', (), 's_csv', None, None, '?', False),
    ('identify', ('--r-key',), 'r_key', None, None, None, False),
    ('identify', ('--s-key',), 's_key', None, None, None, False),
    ('identify', ('--source',), 'source', [], None, None, False),
    ('identify', ('--key',), 'key', [], None, None, False),
    ('identify', ('--on-conflict',), 'on_conflict', 'first', ('first', 'error', 'null'), None, False),
    ('identify', ('--source-column',), 'source_column', 'sources', None, None, False),
    ('identify', ('--extended-key',), 'extended_key', None, None, None, True),
    ('identify', ('--ilfd',), 'ilfd', [], None, None, False),
    ('identify', ('--ilfds-csv',), 'ilfds_csv', [], None, None, False),
    ('identify', ('--ilfds-file',), 'ilfds_file', [], None, None, False),
    ('identify', ('--out',), 'out', None, None, None, False),
    ('identify', ('--report',), 'report', False, None, 0, False),
    ('identify', ('--suggest-keys',), 'suggest_keys', False, None, 0, False),
    ('identify', ('--mine',), 'mine', [], None, None, False),
    ('identify', ('--quiet',), 'quiet', False, None, 0, False),
    ('identify', ('--blocker',), 'blocker', None, ('cross', 'hash'), None, False),
    ('identify', ('--trace',), 'trace', None, None, None, False),
    ('identify', ('--metrics',), 'metrics', False, None, 0, False),
    ('identify', ('--store',), 'store', None, None, None, False),
    ('identify', ('--retries',), 'retries', 1, None, None, False),
    ('identify', ('--retry-delay',), 'retry_delay', 0.01, None, None, False),
    ('identify', ('--inject-faults',), 'inject_faults', None, None, None, False),
    ('identify', ('--ledger',), 'ledger', None, None, None, False),
    ('identify', ('--profile',), 'profile', False, None, 0, False),
    ('identify', ('--profile-alloc',), 'profile_alloc', False, None, 0, False),
    ('stats', (), 'trace_file', None, None, None, True),
    ('stats', ('--tree',), 'tree', False, None, 0, False),
    ('stats', ('--json',), 'json', False, None, 0, False),
    ('checkpoint', (), 'r_csv', None, None, None, True),
    ('checkpoint', (), 's_csv', None, None, None, True),
    ('checkpoint', (), 'checkpoint_file', None, None, None, True),
    ('checkpoint', ('--r-key',), 'r_key', None, None, None, True),
    ('checkpoint', ('--s-key',), 's_key', None, None, None, True),
    ('checkpoint', ('--extended-key',), 'extended_key', None, None, None, True),
    ('checkpoint', ('--ilfd',), 'ilfd', [], None, None, False),
    ('checkpoint', ('--ilfds-file',), 'ilfds_file', [], None, None, False),
    ('checkpoint', ('--quiet',), 'quiet', False, None, 0, False),
    ('checkpoint', ('--retries',), 'retries', 1, None, None, False),
    ('checkpoint', ('--retry-delay',), 'retry_delay', 0.01, None, None, False),
    ('checkpoint', ('--inject-faults',), 'inject_faults', None, None, None, False),
    ('resume', (), 'checkpoint_file', None, None, None, True),
    ('resume', ('--insert-r',), 'insert_r', [], None, None, False),
    ('resume', ('--insert-s',), 'insert_s', [], None, None, False),
    ('resume', ('--ilfd',), 'ilfd', [], None, None, False),
    ('resume', ('--no-verify',), 'no_verify', False, None, 0, False),
    ('resume', ('--salvage',), 'salvage', False, None, 0, False),
    ('resume', ('--salvage-out',), 'salvage_out', None, None, None, False),
    ('resume', ('--salvage-r',), 'salvage_r', None, None, None, False),
    ('resume', ('--salvage-s',), 'salvage_s', None, None, None, False),
    ('resume', ('--salvage-r-key',), 'salvage_r_key', None, None, None, False),
    ('resume', ('--salvage-s-key',), 'salvage_s_key', None, None, None, False),
    ('resume', ('--salvage-extended-key',), 'salvage_extended_key', None, None, None, False),
    ('resume', ('--quiet',), 'quiet', False, None, 0, False),
    ('resume', ('--retries',), 'retries', 1, None, None, False),
    ('resume', ('--retry-delay',), 'retry_delay', 0.01, None, None, False),
    ('resume', ('--inject-faults',), 'inject_faults', None, None, None, False),
    ('resume', ('--ledger',), 'ledger', None, None, None, False),
    ('resume', ('--profile',), 'profile', False, None, 0, False),
    ('resume', ('--profile-alloc',), 'profile_alloc', False, None, 0, False),
    ('explain-pair', (), 'store_file', None, None, None, True),
    ('explain-pair', ('--r',), 'r', None, None, None, False),
    ('explain-pair', ('--s',), 's', None, None, None, False),
    ('conform', (), 'workloads', None, None, '*', True),
    ('conform', ('--entities',), 'entities', 12, None, None, False),
    ('conform', ('--seed',), 'seed', 3, None, None, False),
    ('conform', ('--matrix',), 'matrix', 'full', ('strict', 'full', 'none'), None, False),
    ('conform', ('--no-prototype',), 'no_prototype', False, None, 0, False),
    ('conform', ('--no-oracles',), 'no_oracles', False, None, 0, False),
    ('conform', ('--no-metamorphic',), 'no_metamorphic', False, None, 0, False),
    ('conform', ('--golden',), 'golden', None, None, None, False),
    ('conform', ('--update-golden',), 'update_golden', False, None, 0, False),
    ('conform', ('--golden-workload',), 'golden_workload', [], None, None, False),
    ('conform', ('--json',), 'json', False, None, 0, False),
    ('conform', ('--quiet',), 'quiet', False, None, 0, False),
    ('conform', ('--trace',), 'trace', None, None, None, False),
    ('conform', ('--metrics',), 'metrics', False, None, 0, False),
    ('conform', ('--ledger',), 'ledger', None, None, None, False),
    ('conform', ('--profile',), 'profile', False, None, 0, False),
    ('conform', ('--profile-alloc',), 'profile_alloc', False, None, 0, False),
    ('report list', ('--ledger',), 'ledger', 'runs.db', None, None, False),
    ('report list', ('--json',), 'json', False, None, 0, False),
    ('report show', ('--ledger',), 'ledger', 'runs.db', None, None, False),
    ('report show', (), 'run', None, None, '?', False),
    ('report show', ('--json',), 'json', False, None, 0, False),
    ('report diff', ('--ledger',), 'ledger', 'runs.db', None, None, False),
    ('report diff', (), 'run_a', None, None, None, True),
    ('report diff', (), 'run_b', None, None, None, True),
    ('report prom', ('--ledger',), 'ledger', 'runs.db', None, None, False),
    ('report prom', (), 'run', None, None, '?', False),
    ('report prom', ('--out',), 'out', None, None, None, False),
    ('report jsonl', ('--ledger',), 'ledger', 'runs.db', None, None, False),
    ('report jsonl', (), 'runs', None, None, '*', True),
    ('report jsonl', ('--out',), 'out', None, None, None, False),
    ('report bench-check', ('--history',), 'history', 'BENCH_HISTORY.jsonl', None, None, False),
    ('report bench-check', ('--threshold',), 'threshold', 0.15, None, None, False),
    ('report bench-check', ('--same-env',), 'same_env', False, None, 0, False),
    ('report bench-check', ('--json',), 'json', False, None, 0, False),
    ('serve', ('--store',), 'store', None, None, None, True),
    ('serve', ('--host',), 'host', '127.0.0.1', None, None, False),
    ('serve', ('--port',), 'port', 8571, None, None, False),
    ('serve', ('--workers',), 'workers', 2, None, None, False),
    ('serve', ('--cache-size',), 'cache_size', 1024, None, None, False),
    ('serve', ('--deadline-ms',), 'deadline_ms', 250.0, None, None, False),
    ('serve', ('--no-stale',), 'allow_stale', True, None, 0, False),
    ('serve', ('--retries',), 'retries', 1, None, None, False),
    ('serve', ('--retry-delay',), 'retry_delay', 0.01, None, None, False),
    ('serve', ('--trace',), 'trace', None, None, None, False),
    ('serve', ('--metrics',), 'metrics', False, None, 0, False),
    ('serve', ('--ledger',), 'ledger', None, None, None, False),
    ('serve', ('--max-queue',), 'max_queue', 64, None, None, False),
    ('serve', ('--read-rate',), 'read_rate', 0.0, None, None, False),
    ('serve', ('--write-rate',), 'write_rate', 0.0, None, None, False),
    ('serve', ('--burst',), 'burst', 0.0, None, None, False),
    ('serve', ('--retry-after',), 'retry_after', 0.5, None, None, False),
    ('serve', ('--breaker-threshold',), 'breaker_threshold', 5, None, None, False),
    ('serve', ('--breaker-cooldown',), 'breaker_cooldown', 1.0, None, None, False),
    ('serve', ('--breaker-seed',), 'breaker_seed', 0, None, None, False),
    ('serve', ('--drain-timeout',), 'drain_timeout', 10.0, None, None, False),
    ('serve', ('--inject-faults',), 'inject_faults', None, None, None, False),
    ('serve', ('--quiet',), 'quiet', False, None, 0, False),
    ('entities build', (), 'store_path', None, None, None, True),
    ('entities build', ('--source',), 'source', None, None, None, True),
    ('entities build', ('--key',), 'key', [], None, None, False),
    ('entities build', ('--extended-key',), 'extended_key', None, None, None, True),
    ('entities build', ('--ilfd',), 'ilfd', [], None, None, False),
    ('entities build', ('--ilfds-csv',), 'ilfds_csv', [], None, None, False),
    ('entities build', ('--ilfds-file',), 'ilfds_file', [], None, None, False),
    ('entities build', ('--survivorship',), 'survivorship', 'source_priority', None, None, False),
    ('entities build', ('--prefix',), 'prefix', 'ent-', None, None, False),
    ('entities build', ('--log-decisions',), 'log_decisions', 'all', ('all', 'contested', 'none'), None, False),
    ('entities build', ('--batch-size',), 'batch_size', 0, None, None, False),
    ('entities build', ('--inject-faults',), 'inject_faults', None, None, None, False),
    ('entities build', ('--trace',), 'trace', None, None, None, False),
    ('entities build', ('--metrics',), 'metrics', False, None, 0, False),
    ('entities build', ('--quiet',), 'quiet', False, None, 0, False),
    ('entities build', ('--json',), 'json', False, None, 0, False),
    ('entities show', (), 'store_path', None, None, None, True),
    ('entities show', ('--entity',), 'entity', None, None, None, False),
    ('entities show', ('--json',), 'json', False, None, 0, False),
    ('entities export', (), 'store_path', None, None, None, True),
    ('entities export', ('--out',), 'out', None, None, None, True),
    ('entities export', ('--quiet',), 'quiet', False, None, 0, False),
    ('chaos', ('--workdir',), 'workdir', '', None, None, False),
    ('chaos', ('--schedule',), 'schedule', [], None, None, False),
    ('chaos', ('--entities-count',), 'entities_count', 12, None, None, False),
    ('chaos', ('--seed',), 'seed', 3, None, None, False),
    ('chaos', ('--entities',), 'entities', False, None, 0, False),
    ('chaos', ('--json',), 'json', False, None, 0, False),
    ('chaos', ('--quiet',), 'quiet', False, None, 0, False),
    ('scenarios', ('--grid',), 'grid', 'default', ('default', 'reduced', 'smoke'), None, False),
    ('scenarios', ('--cell',), 'cell', [], None, None, False),
    ('scenarios', ('--list',), 'list', False, None, 0, False),
    ('scenarios', ('--entities',), 'entities', None, None, None, False),
    ('scenarios', ('--seed',), 'seed', None, None, None, False),
    ('scenarios', ('--baseline',), 'baseline', None, None, None, False),
    ('scenarios', ('--update-baseline',), 'update_baseline', False, None, 0, False),
    ('scenarios', ('--inject-drift',), 'inject_drift', False, None, 0, False),
    ('scenarios', ('--json',), 'json', False, None, 0, False),
    ('scenarios', ('--quiet',), 'quiet', False, None, 0, False),
    ('scenarios', ('--trace',), 'trace', None, None, None, False),
    ('scenarios', ('--metrics',), 'metrics', False, None, 0, False),
    ('scenarios', ('--ledger',), 'ledger', None, None, None, False),
    ('scenarios', ('--profile',), 'profile', False, None, 0, False),
    ('scenarios', ('--profile-alloc',), 'profile_alloc', False, None, 0, False),
]


def _leaf_parsers():
    for name in cli._COMMANDS:
        parser = cli._build_parser(name)
        actions = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        if actions:
            for action, sub in actions[0].choices.items():
                yield f"{name} {action}", sub
        else:
            yield name, parser


def _inventory():
    return [
        (
            name,
            tuple(a.option_strings),
            a.dest,
            a.default,
            tuple(a.choices) if a.choices else None,
            a.nargs,
            a.required,
        )
        for name, parser in _leaf_parsers()
        for a in parser._actions
        if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
    ]


def test_every_command_has_a_parser():
    assert len(dict(_leaf_parsers())) == 18


def test_flag_inventory_is_unchanged():
    actual = _inventory()
    assert len(actual) == len(FLAGS) == 167
    assert sorted(actual, key=repr) == sorted(FLAGS, key=repr)


@pytest.mark.parametrize("name", sorted({row[0] for row in FLAGS}))
def test_positional_order_is_unchanged(name):
    def positionals(rows):
        return [row[2] for row in rows if row[0] == name and not row[1]]

    assert positionals(_inventory()) == positionals(FLAGS)


def test_serve_parser_imports_no_other_subsystem():
    # `repro serve` start-up time is part of every serving deployment:
    # building its parser must not import the other commands' modules.
    probe = (
        "import sys; from repro import cli; cli._build_parser('serve'); "
        "print(sorted(m for m in sys.modules if m.split('.')[1:2] in "
        "(['scenarios'], ['conformance'], ['entities'], ['serving'])))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
