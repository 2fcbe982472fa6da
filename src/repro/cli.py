"""Command-line entity identification over CSV files.

Usage::

    repro identify R.csv S.csv \\
        --r-key name,street --s-key name,city \\
        --extended-key name,cuisine,speciality \\
        --ilfd "speciality=Mughalai -> cuisine=Indian" \\
        --ilfds-csv speciality_cuisine.csv \\
        --blocker hash --workers 4 \\
        --trace trace.jsonl --metrics \\
        --out integrated.csv

    repro stats trace.jsonl     # aggregate a recorded trace
    repro version               # or: repro --version

    repro checkpoint R.csv S.csv session.sqlite \\
        --r-key name,street --s-key name,city \\
        --extended-key name,cuisine,speciality
    repro resume session.sqlite --insert-r more_rows.csv
    repro explain-pair session.sqlite \\
        --r "name=kabul,street=e_4th_st" --s "name=kabul,city=nyc"

    repro identify --source R=r.csv --source S=s.csv --source T=t.csv \\
        --key R=name,street --key S=name,city --key T=name,speciality \\
        --extended-key name,cuisine,speciality --on-conflict null \\
        --out integrated.csv                   # N-way multiway identification

    repro entities build entities.sqlite \\
        --source R=r.csv --source S=s.csv --source T=t.csv \\
        --key R=name,street --key S=name,city --key T=name,speciality \\
        --extended-key name,cuisine,speciality \\
        --survivorship source_priority:T>R>S,most_complete
    repro entities show entities.sqlite --entity ent-25d384781b18ecdd
    repro entities export entities.sqlite --out golden.csv
    repro serve entities.sqlite --port 8080    # /resolve answers with the
                                               # golden record + resolution log

    repro conform                              # full conformance run
    repro conform restaurants --matrix strict  # one workload, strict cells
    repro conform --golden tests/conformance/golden --update-golden

    repro scenarios                            # the full adversarial grid
    repro scenarios --grid reduced --json      # CI-sized grid, JSON report
    repro scenarios --baseline tests/scenarios/baselines --update-baseline

    repro identify R.csv S.csv ... --ledger runs.db --profile
    repro report list --ledger runs.db         # the recorded run history
    repro report show 3 --ledger runs.db       # one run's full cost picture
    repro report diff 3 7 --ledger runs.db     # phase/metrics deltas
    repro report prom --ledger runs.db         # Prometheus text exposition
    repro report bench-check --threshold 0.15  # the perf-regression gate

Prints the matching table and the soundness verdict (and, with ``--out``,
writes the merged integrated table).  ILFDs can be given inline
(``"a=x ∧ b=y -> c=z"``, using ``&`` or ``∧`` between conditions) or as a
CSV whose last column is the derived attribute (the Table-8 layout).

``--trace FILE`` records a JSON-lines trace of the run (one span per
pipeline phase, plus a metrics record); ``--metrics`` prints the metrics
summary after the run.  ``repro stats FILE`` renders a recorded trace —
per-phase time totals plus the metrics tables.

``--store sqlite:PATH`` persists the run's tables and derivation journal
durably; ``repro checkpoint`` snapshots an incremental session into one
SQLite file, ``repro resume`` reloads it (verifying the journal) and
applies further deltas, and ``repro explain-pair`` reconstructs the
rule-firing chain behind any persisted pair from the journal alone.

``repro conform`` runs the conformance suite on seeded synthetic
workloads: the differential configuration matrix (every cell must
produce bit-identical canonical tables), the Section-3 oracles, the
metamorphic relations, and — with ``--golden DIR`` — the frozen
golden-corpus drift check (``--update-golden`` re-freezes it).

``repro scenarios`` executes the adversarial scenario matrix: a grid of
labeled workloads varying source count, cluster-size skew, noise,
conflicting ILFDs, schema drift, delta arrival order, and duplicate
density, each cell pushed through the real blocker × identifier ×
entity-graph pipeline with the conformance oracles on and
precision/recall scored against the carried ground truth.  Conflict
cells must surface their seeded ILFD break as a structured
constraint-drift finding; ``--inject-drift`` is the canary proving an
*unexpected* finding fails the run.  With ``--baseline DIR`` the
canonical report is compared against the committed baseline exactly
like the golden corpus (``--update-baseline`` re-freezes).

``--ledger PATH`` appends a structured run report — environment, config,
phase timings, wall/CPU/peak-memory, throughput, the full metrics
snapshot, resilience events — to a durable SQLite run ledger after
``identify``, ``resume``, or ``conform``.  ``--profile`` adds per-span
memory and counter attribution (cheap RSS sampling at span boundaries;
``--profile-alloc`` upgrades to exact ``tracemalloc`` deltas at real
tracing cost).  ``repro report`` reads the ledger back: ``list``,
``show RUN``, ``diff RUN_A RUN_B``, Prometheus text exposition
(``prom``), JSONL metric dumps (``jsonl``), and the CI perf gate
``bench-check``, which exits 1 when a series in BENCH_HISTORY.jsonl
regresses beyond ``--threshold`` against its recorded baseline.

``--retries N`` turns on the fault-tolerance machinery: transient
failures in pair evaluation and store commits are retried with capped
exponential backoff (``--retry-delay`` scales it).  ``--inject-faults
PLAN`` drives the same machinery with deterministic injected faults —
``site:kind@index`` specs joined with ``;`` (e.g.
``executor.batch:crash@0;store.commit:error@1``) or ``random:SEED`` for
a seeded random schedule — for chaos-testing a pipeline end to end.  A
corrupted checkpoint makes ``repro resume`` fail fatally unless
``--salvage`` is given, which recovers what the damaged file still
proves (surviving rows, the verifiable journal prefix) and re-derives
the rest, optionally from fallback sources (``--salvage-r/-s``).

Exit codes — the one full statement of the contract every subcommand
follows:

- **0** — success: the run completed and the result verified sound
  (conformance and scenario grids green, checkpoint written, ...).
- **1** — degraded or partial: the pipeline finished but something
  needs attention — an unsound extended key, quarantined pairs, a
  conformance mismatch or golden/baseline drift, a chaos divergence, a
  bench regression, a stale-served source, or a session rebuilt by
  ``--salvage``.
- **2** — fatal: bad usage; a missing, unreadable or unwritable file
  (source CSV, ILFD file, store, checkpoint, ``--out``, trace, ledger);
  a malformed ``--ilfd``, key, extended key or fault plan; rules that
  contradict each other on a matched pair under a sound key; exhausted
  retries; or a corrupt checkpoint that was not (or could not be)
  salvaged.  A fatal error is reported as one ``repro <command>:
  <message>`` line on stderr, never a traceback (argparse usage errors
  print the usage line first).

For backward compatibility, invoking without a subcommand (the historical
``repro-identify`` entry point) behaves exactly like ``repro identify``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.blocking import BLOCKERS, ParallelPairExecutor, make_blocker
from repro.core.errors import CoreError
from repro.core.identifier import EntityIdentifier
from repro.ilfd.conditions import parse_condition
from repro.ilfd.errors import ILFDError
from repro.ilfd.ilfd import ILFD
from repro.ilfd.tables import ILFDTable
from repro.relational.csvio import read_csv, write_csv
from repro.relational.errors import RelationalError
from repro.relational.formatting import format_relation

__all__ = [
    "parse_ilfd",
    "parse_key_spec",
    "package_version",
    "build_conform_parser",
    "conform_main",
    "chaos_main",
    "scenarios_main",
    "main",
]


def package_version() -> str:
    """The installed package version, from importlib metadata.

    Falls back to ``repro.__version__`` when the package is run from a
    source tree without being installed (e.g. ``PYTHONPATH=src``).
    """
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        import repro

        return getattr(repro, "__version__", "unknown")


def parse_ilfd(text: str) -> ILFD:
    """Parse ``"a=x & b=y -> c=z"`` into an ILFD (string values)."""
    if "->" not in text:
        raise ValueError(f"ILFD {text!r} must contain '->'")
    left, _, right = text.partition("->")
    antecedent = [
        parse_condition(part)
        for part in left.replace("∧", "&").split("&")
        if part.strip()
    ]
    consequent = [
        parse_condition(part)
        for part in right.replace("∧", "&").split("&")
        if part.strip()
    ]
    return ILFD(antecedent, consequent)


def _split_key(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def parse_key_spec(text: str):
    """Parse ``"attr=value,attr=value"`` into canonical key values.

    The result is the sorted ``((attr, value), ...)`` tuple form the
    matching tables and the store use as pair keys.  Values stay strings
    (the CSV pipeline's value type).
    """
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"key spec {text!r}: {part!r} is not of the form attr=value"
            )
        attr, _, value = part.partition("=")
        pairs.append((attr.strip(), value.strip()))
    if not pairs:
        raise ValueError(f"key spec {text!r} names no attributes")
    return tuple(sorted(pairs))


# ----------------------------------------------------------------------
# Shared flag groups: each command registers exactly the flags it takes
# ----------------------------------------------------------------------
_FAULT_PLAN_HELP = (
    "deterministically inject faults: 'site:kind@index[..last]' "
    "specs joined with ';' (sites: federation.load_source.r/.s, "
    "executor.batch, store.commit, store.checkpoint; kinds: error, "
    "crash, hang), or 'random:SEED' for a seeded random schedule"
)


def _add_two_sources(parser: argparse.ArgumentParser, *, optional=False) -> None:
    """R.csv S.csv --r-key --s-key (optional on identify's N-way form)."""
    nargs = "?" if optional else None
    parser.add_argument(
        "r_csv", nargs=nargs, help="first source relation (CSV with header)"
    )
    parser.add_argument(
        "s_csv", nargs=nargs, help="second source relation (CSV with header)"
    )
    parser.add_argument(
        "--r-key",
        required=not optional,
        help="comma-separated key of the first relation",
    )
    parser.add_argument(
        "--s-key",
        required=not optional,
        help="comma-separated key of the second relation",
    )


def _add_named_sources(parser: argparse.ArgumentParser, *, required=False) -> None:
    """Repeatable --source NAME=CSV and --key NAME=ATTRS."""
    parser.add_argument(
        "--source",
        action="append",
        metavar="NAME=CSV",
        help="named source relation (repeatable; at least two, each with "
        "its key given by --key NAME=ATTRS); on 'identify' the named "
        "sources run through N-way multiway identification instead of "
        "the pairwise pipeline",
        **({"required": True} if required else {"default": []}),
    )
    parser.add_argument(
        "--key",
        action="append",
        default=[],
        metavar="NAME=ATTRS",
        help="comma-separated primary key of one named --source "
        "(repeatable, one per source)",
    )


def _add_extended_key(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--extended-key",
        required=True,
        help="comma-separated extended key (unified attribute names)",
    )


def _add_knowledge(
    parser: argparse.ArgumentParser, *, tables=True, files=True, mine=False
) -> None:
    """--ilfd, plus --ilfds-csv / --ilfds-file / --mine where taken."""
    parser.add_argument(
        "--ilfd",
        action="append",
        default=[],
        metavar="RULE",
        help="inline ILFD, e.g. 'speciality=Mughalai -> cuisine=Indian' "
        "(repeatable)",
    )
    if tables:
        parser.add_argument(
            "--ilfds-csv",
            action="append",
            default=[],
            metavar="FILE",
            help="ILFD table CSV: antecedent columns then one derived "
            "column (repeatable)",
        )
    if files:
        parser.add_argument(
            "--ilfds-file",
            action="append",
            default=[],
            metavar="FILE",
            help="ILFD knowledge-base text file, one 'a=x & b=y -> c=z' "
            "rule per line (repeatable)",
        )
    if mine:
        parser.add_argument(
            "--mine",
            action="append",
            default=[],
            metavar="FILE",
            help="mine candidate ILFDs from this CSV instance before "
            "identifying; exceptionless candidates join the ILFD set "
            "(repeatable)",
        )


def _add_output(parser: argparse.ArgumentParser, *, quiet=True, json=True) -> None:
    """--json and/or --quiet."""
    if json:
        parser.add_argument(
            "--json",
            action="store_true",
            help="emit the machine-readable result as JSON on stdout "
            "instead of the text rendering",
        )
    if quiet:
        parser.add_argument(
            "--quiet",
            action="store_true",
            help="suppress the human-readable printouts (the exit status "
            "still reports the verdict)",
        )


def _add_telemetry(
    parser: argparse.ArgumentParser, *, trace=True, ledger=True, profile=True
) -> None:
    """--trace/--metrics, --ledger and --profile/--profile-alloc."""
    if trace:
        parser.add_argument(
            "--trace",
            metavar="FILE",
            help="record a JSON-lines trace of the run (spans + metrics) "
            "to FILE; inspect it later with 'repro stats FILE'",
        )
        parser.add_argument(
            "--metrics",
            action="store_true",
            help="print the run's metrics summary after the run",
        )
    if ledger:
        parser.add_argument(
            "--ledger",
            metavar="PATH",
            help="append this run's report (environment, config, phase "
            "timings, memory, throughput, metrics, resilience events) to "
            "the SQLite run ledger at PATH; inspect with 'repro report "
            "list/show/diff --ledger PATH'",
        )
    if profile:
        parser.add_argument(
            "--profile",
            action="store_true",
            help="attribute memory (RSS sampled at span boundaries) and "
            "counter deltas to each pipeline phase, and print the profile "
            "tree after the run (<5%% overhead; see BENCH_telemetry.json)",
        )
        parser.add_argument(
            "--profile-alloc",
            action="store_true",
            help="like --profile but with exact Python allocation deltas "
            "via tracemalloc (precise; expect roughly 2x slowdown — never "
            "a default)",
        )


def _add_resilience(
    parser: argparse.ArgumentParser, *, retries=True, faults=_FAULT_PLAN_HELP
) -> None:
    """--retries/--retry-delay and --inject-faults (*faults* is its help)."""
    if retries:
        parser.add_argument(
            "--retries",
            type=int,
            default=1,
            metavar="N",
            help="attempt transient operations (pair batches, store "
            "commits, source loads, replica reads) up to N times with "
            "capped exponential backoff (default 1 = no retries)",
        )
        parser.add_argument(
            "--retry-delay",
            type=float,
            default=0.01,
            metavar="SECONDS",
            help="base backoff delay between retries (default 0.01; "
            "doubles per attempt, jittered, capped)",
        )
    parser.add_argument("--inject-faults", metavar="PLAN", help=faults)


# ----------------------------------------------------------------------
# Shared run helpers
# ----------------------------------------------------------------------
def _collect_ilfds(args, *, quiet: bool = True) -> List[ILFD]:
    """All ILFDs the --ilfd/--ilfds-csv/--ilfds-file/--mine flags name."""
    ilfds: List[ILFD] = [parse_ilfd(text) for text in args.ilfd]
    for path in getattr(args, "ilfds_csv", []):
        table_relation = read_csv(path, enforce_keys=False)
        names = list(table_relation.schema.names)
        table = ILFDTable(names[:-1], names[-1], list(table_relation), name=path)
        ilfds.extend(table.to_ilfds())
    for path in getattr(args, "ilfds_file", []):
        from repro.ilfd.io import read_ilfds

        ilfds.extend(read_ilfds(path))
    for path in getattr(args, "mine", []):
        from repro.discovery import mine_ilfds

        instance = read_csv(path, enforce_keys=False)
        mined = mine_ilfds(instance, max_antecedent=2, min_support=2)
        accepted = [m.ilfd for m in mined if m.is_exceptionless]
        ilfds.extend(accepted)
        if not quiet:
            print(f"mined {len(accepted)} exceptionless ILFD(s) from {path}")
    return ilfds


def _parse_named_sources(source_specs, key_specs):
    """``--source NAME=CSV`` + ``--key NAME=ATTRS`` → name → Relation.

    Raises ``ValueError`` on malformed specs, duplicate names, a source
    with no key spec, or fewer than two sources.
    """
    keys = {}
    for spec in key_specs:
        if "=" not in spec:
            raise ValueError(f"--key {spec!r} is not of the form NAME=ATTRS")
        name, _, attrs = spec.partition("=")
        name = name.strip()
        if name in keys:
            raise ValueError(f"duplicate --key for source {name!r}")
        keys[name] = _split_key(attrs)
    sources = {}
    for spec in source_specs:
        name, _, path = spec.partition("=")
        name, path = name.strip(), path.strip()
        if not name or not path:
            raise ValueError(f"--source {spec!r} is not of the form NAME=CSV")
        if name in sources:
            raise ValueError(f"duplicate --source name {name!r}")
        if name not in keys:
            raise ValueError(f"--source {name!r} has no --key {name}=ATTRS")
        sources[name] = read_csv(path, keys=[keys[name]], name=name)
    unused = sorted(set(keys) - set(sources))
    if unused:
        raise ValueError(f"--key given for unknown source(s): {unused}")
    if len(sources) < 2:
        raise ValueError("N-way resolution needs at least two --source")
    return sources


def _make_resilience(args, tracer=None, *, random_plans=True):
    """(RetryPolicy | None, FaultInjector | None) from the resilience flags.

    ``random:SEED`` plans are accepted only where *random_plans* (the
    batch commands); ``serve`` and ``entities build`` parse site specs.
    """
    from repro.resilience import FaultInjector, FaultPlan, RetryPolicy

    retries = getattr(args, "retries", 1)
    if retries < 1:
        raise ValueError("--retries must be >= 1")
    retry = None
    if retries > 1:
        retry = RetryPolicy(
            max_attempts=retries, base_delay=max(args.retry_delay, 0.0), seed=0
        )
    injector = None
    spec = (args.inject_faults or "").strip()
    if spec:
        if random_plans and spec.startswith("random:"):
            plan = FaultPlan.random(int(spec[len("random:"):] or "0"))
        else:
            plan = FaultPlan.parse(spec)
        injector = (
            FaultInjector(plan) if tracer is None
            else FaultInjector(plan, tracer=tracer)
        )
    return retry, injector


def _existing_store(path: str) -> str:
    """*path*, refused when no file exists there.

    Opening a missing path would create an empty SQLite file behind the
    user's back before failing on it.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such store: {path}")
    return path


def _profile_mode(args) -> str:
    """The Tracer profile mode the --profile/--profile-alloc flags ask for."""
    from repro.observability import PROFILE_OFF, PROFILE_RSS, PROFILE_TRACEMALLOC

    if getattr(args, "profile_alloc", False):
        return PROFILE_TRACEMALLOC
    if getattr(args, "profile", False):
        return PROFILE_RSS
    return PROFILE_OFF


def _telemetry_config(args, command: str) -> dict:
    """The args worth freezing into a run report's config block."""
    config = {"command": command}
    for name in (
        "blocker",
        "workers",
        "store",
        "retries",
        "retry_delay",
        "inject_faults",
        "matrix",
        "entities",
        "seed",
        "no_verify",
        "salvage",
    ):
        value = getattr(args, name, None)
        if value not in (None, False):
            config[name] = value
    mode = _profile_mode(args)
    if mode != "off":
        config["profile"] = mode
    return config


class _Telemetry:
    """One command's tracer, run recorder, and exit-time telemetry output.

    The tracer exists when the command's flags observe the run
    (``--trace``/``--metrics``/``--ledger``/``--profile``) or *observe*
    asks for one; ``serve`` passes its ServingTracer in.  A failure to
    write the trace or the ledger propagates to ``main`` (exit 2); a
    failed trace write appends no run report.
    """

    def __init__(self, args, command: str, *, tracer=None, observe=False):
        self.profile = _profile_mode(args)
        self.trace = getattr(args, "trace", None)
        self.metrics = getattr(args, "metrics", False)
        self.ledger = getattr(args, "ledger", None)
        self.json = getattr(args, "json", False)
        self.silent = self.json or getattr(args, "quiet", False)
        if tracer is None and (
            observe
            or self.trace
            or self.metrics
            or self.ledger
            or self.profile != "off"
        ):
            from repro.observability import Tracer

            tracer = Tracer(profile=self.profile)
        self.tracer = tracer
        self.recorder = None
        if self.ledger:
            from repro.telemetry import RunRecorder

            self.recorder = RunRecorder(command, _telemetry_config(args, command))

    def finish(self, status: int, **outcome) -> int:
        """Print profile and metrics, write the trace, append the ledger."""
        if self.profile != "off" and not self.silent:
            from repro.observability import format_profile

            print()
            print(format_profile(self.tracer))
        if self.metrics and not self.json:
            from repro.observability import format_metrics

            print()
            print(format_metrics(self.tracer.metrics.snapshot()))
        if self.trace:
            from repro.observability import write_trace_jsonl

            records = write_trace_jsonl(self.tracer, self.trace)
            if not self.silent:
                print(f"trace ({records} records) written to {self.trace}")
        if self.recorder is not None:
            from repro.telemetry import RunLedger

            run_report = self.recorder.finish(
                self.tracer, outcome={"exit_status": status, **outcome}
            )
            with RunLedger(self.ledger) as ledger:
                run_id = ledger.append(run_report)
            if not self.silent:
                print(f"run report {run_id} appended to {self.ledger}")
        return status


# ----------------------------------------------------------------------
# The commands: (add_arguments, run) pairs.  Each add_arguments'
# docstring is the command's --help description; each run returns 0 or
# 1 and raises on anything fatal (see main's error table).
# ----------------------------------------------------------------------
def _identify_arguments(parser: argparse.ArgumentParser) -> None:
    """Entity identification across two CSV relations (Lim et al., ICDE 1993)."""
    parser.add_argument(
        "--version", action="version", version=f"repro {package_version()}"
    )
    _add_two_sources(parser, optional=True)
    _add_named_sources(parser)
    parser.add_argument(
        "--on-conflict",
        choices=("first", "error", "null"),
        default="first",
        help="multiway integration policy when matched sources disagree "
        "on an attribute: keep the first non-NULL value in declaration "
        "order ('first', the default), fail the run ('error'), or leave "
        "the contested attribute NULL ('null')",
    )
    parser.add_argument(
        "--source-column",
        default="sources",
        metavar="NAME",
        help="name of the provenance column the multiway integrated "
        "table records contributing sources in (default 'sources')",
    )
    _add_extended_key(parser)
    _add_knowledge(parser, mine=True)
    parser.add_argument(
        "--out",
        help="write the merged integrated table to this CSV",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="print the full identification report (pair accounting, "
        "soundness witnesses, homonym candidates, conflicts)",
    )
    parser.add_argument(
        "--suggest-keys",
        action="store_true",
        help="instead of identifying, enumerate candidate extended keys "
        "over the given --extended-key attributes and report which verify",
    )
    _add_output(parser, json=False)
    parser.add_argument(
        "--blocker",
        choices=sorted(BLOCKERS),
        help="candidate pairs for the negative matching table (the "
        "matching table is the same under every choice): 'cross' (default) "
        "evaluates every pair, 'hash' buckets on the extended key (far "
        "fewer pairs), 'ilfd' adds ILFD-antecedent buckets, 'snm' adds a "
        "sorted-neighborhood window",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="evaluate candidate pairs in N parallel worker processes "
        "(default 1 = serial)",
    )
    parser.add_argument(
        "--store",
        metavar="SPEC",
        help="persist tables and derivation journal: 'sqlite:PATH' (or a "
        "bare *.sqlite/*.db path) for a durable store, 'memory' for an "
        "ephemeral one; inspect later with 'repro explain-pair PATH ...'",
    )
    _add_resilience(parser)
    _add_telemetry(parser)


def _identify(args) -> int:
    """``repro identify``: 0 sound, 1 unsound/degraded."""
    if args.source:
        return _identify_multiway(args)
    if not (args.r_csv and args.s_csv and args.r_key and args.s_key):
        raise ValueError(
            "the two-source form needs R.csv S.csv --r-key ... --s-key ... "
            "(or name every source with repeatable --source NAME=CSV plus "
            "--key NAME=ATTRS)"
        )
    r = read_csv(args.r_csv, keys=[_split_key(args.r_key)], name="R")
    s = read_csv(args.s_csv, keys=[_split_key(args.s_key)], name="S")
    ilfds = _collect_ilfds(args, quiet=args.quiet)

    key_attributes = _split_key(args.extended_key)
    if args.suggest_keys:
        from repro.discovery import suggest_extended_keys

        suggestions = suggest_extended_keys(
            r, s, key_attributes, ilfds=ilfds, include_unsound=True
        )
        for suggestion in suggestions:
            print(suggestion)
        return 0 if any(suggestion.is_sound for suggestion in suggestions) else 1

    telemetry = _Telemetry(args, "identify", observe=bool(args.inject_faults))
    tracer = telemetry.tracer
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    retry, injector = _make_resilience(args, tracer)
    store = None
    if args.store:
        from repro.store import make_store

        store = make_store(
            args.store, tracer=tracer, retry_policy=retry, fault_injector=injector
        )
    try:
        identifier = EntityIdentifier(
            r,
            s,
            key_attributes,
            ilfds=ilfds,
            tracer=tracer,
            blocker=make_blocker(args.blocker) if args.blocker else None,
            executor=ParallelPairExecutor(
                args.workers,
                tracer=tracer,
                retry_policy=retry,
                fault_injector=injector,
            ),
            store=store,
        )
        if tracer is not None:
            # An observed run computes the full pipeline (including the
            # negative table) so the trace carries the complete
            # match/non-match/unknown accounting.
            result = identifier.run()
            matching, report = result.matching, result.report
        else:
            matching = identifier.matching_table()
            report = identifier.verify()
        if store is not None:
            # Persist the negative table too — the journal should account
            # for every conclusion the run reached, not just the matches.
            identifier.negative_matching_table()
        if args.report:
            from repro.core.report import identification_report

            print(identification_report(identifier))
        elif not args.quiet:
            print(format_relation(matching.to_relation(), title="matching table"))
            print()
            print(report.message)
        if args.out:
            write_csv(identifier.integrate().merged_view(), args.out)
            if not args.quiet:
                print(f"integrated table written to {args.out}")
        if store is not None and not args.quiet:
            counts = store.counts()
            print(
                f"store: {counts['matches']} match(es), "
                f"{counts['non_matches']} non-match(es), "
                f"{counts['journal']} journal entrie(s) "
                f"persisted via {args.store}"
            )
    finally:
        if store is not None:
            store.close()
    status = 0 if report.is_sound else 1
    if tracer is not None and tracer.metrics.counter(
        "resilience.pairs_quarantined"
    ):
        if not args.quiet:
            print(
                "warning: some candidate pairs were quarantined "
                "(see resilience metrics)",
                file=sys.stderr,
            )
        status = 1
    return telemetry.finish(status, sound=report.is_sound)


def _identify_multiway(args) -> int:
    """The ``repro identify --source A=... --source B=...`` route.

    Runs :class:`~repro.core.multiway.MultiwayIdentifier` over the named
    sources: prints the entity clusters and the generalized-uniqueness
    verdict; ``--out`` writes the integrated table merged under
    ``--on-conflict``.
    """
    from repro.core.multiway import MultiwayIdentifier

    for flag, value in (("--store", args.store), ("--suggest-keys", args.suggest_keys)):
        if value:
            raise ValueError(
                f"{flag} is not supported with --source (use 'repro "
                "entities build' to persist an N-way run)"
            )
    if args.r_csv or args.s_csv or args.r_key or args.s_key:
        raise ValueError(
            "positional R/S files and --r-key/--s-key cannot be mixed "
            "with --source"
        )
    sources = _parse_named_sources(args.source, args.key)
    ilfds = _collect_ilfds(args, quiet=args.quiet)
    telemetry = _Telemetry(args, "identify")
    identifier = MultiwayIdentifier(
        sources, _split_key(args.extended_key), ilfds=ilfds, tracer=telemetry.tracer
    )
    clusters = identifier.clusters()
    report = identifier.verify()
    conflicts = identifier.conflicts()
    if not args.quiet:
        key_attrs = identifier.extended_key.attributes
        print(f"{len(clusters)} entity cluster(s) across {len(sources)} sources")
        for cluster in clusters:
            rendered = ", ".join(
                f"{attr}={value}" for attr, value in zip(key_attrs, cluster.key)
            )
            members = ", ".join(
                f"{name}:{row.values_for(sources[name].schema.primary_key)}"
                for name, row in cluster.members
            )
            print(f"  [{rendered}] <- {members}")
        if conflicts:
            print(f"{len(conflicts)} attribute conflict(s) between matched sources")
        if report.is_sound:
            print("uniqueness holds: no source has two tuples per entity")
        else:
            print(f"uniqueness VIOLATED: {dict(report.violations)!r}")
    if args.out:
        integrated = identifier.integrate(
            source_column=args.source_column, on_conflict=args.on_conflict
        )
        write_csv(integrated, args.out)
        if not args.quiet:
            print(f"integrated table written to {args.out}")
    return telemetry.finish(0 if report.is_sound else 1, sound=report.is_sound)


def _stats_arguments(parser: argparse.ArgumentParser) -> None:
    """Aggregate a JSON-lines trace recorded with 'repro identify --trace
    FILE': per-phase time totals, span tree, and the metrics tables."""
    parser.add_argument("trace_file", help="trace file written by --trace")
    parser.add_argument(
        "--tree",
        action="store_true",
        help="also print the full span tree (every span, nested)",
    )
    _add_output(parser, quiet=False)


def _stats(args) -> int:
    """``repro stats``: render a recorded JSON-lines trace."""
    from repro.observability import (
        format_span_tree,
        format_trace_summary,
        read_trace_jsonl,
    )

    spans, metrics = read_trace_jsonl(args.trace_file)
    if args.json:
        import json

        from repro.telemetry import aggregate_phases

        payload = {
            "trace_file": args.trace_file,
            "spans": aggregate_phases(spans),
            "metrics": {
                "counters": (metrics or {}).get("counters", {}),
                "histograms": (metrics or {}).get("histograms", {}),
            },
        }
        if args.tree:
            payload["tree"] = spans
        print(json.dumps(payload, indent=2, sort_keys=False))
        return 0
    print(format_trace_summary(spans, metrics))
    if args.tree:
        print()
        print(format_span_tree(spans))
    return 0


def _checkpoint_arguments(parser: argparse.ArgumentParser) -> None:
    """Load two CSV relations into an incremental identification session
    and snapshot it — sources, matching table, derivation journal, and
    delta cursor — into one SQLite checkpoint that 'repro resume' can
    continue from."""
    _add_two_sources(parser)
    parser.add_argument("checkpoint_file", help="checkpoint to write (SQLite)")
    _add_extended_key(parser)
    _add_knowledge(parser, tables=False)
    _add_output(parser, json=False)
    _add_resilience(parser)


def _checkpoint(args) -> int:
    """``repro checkpoint``: 0 once the checkpoint is written."""
    from repro.federation.incremental import IncrementalIdentifier

    retry, injector = _make_resilience(args)
    r = read_csv(args.r_csv, keys=[_split_key(args.r_key)], name="R")
    s = read_csv(args.s_csv, keys=[_split_key(args.s_key)], name="S")
    identifier = IncrementalIdentifier(
        r.schema,
        s.schema,
        _split_key(args.extended_key),
        ilfds=_collect_ilfds(args),
        retry_policy=retry,
        fault_injector=injector,
    )
    identifier.load(r, s)
    identifier.checkpoint(args.checkpoint_file)
    if not args.quiet:
        size = os.path.getsize(args.checkpoint_file)
        print(
            f"checkpoint written to {args.checkpoint_file}: "
            f"{len(identifier.match_pairs())} match(es), "
            f"version {identifier.version}, {size} bytes"
        )
    return 0


def _resume_arguments(parser: argparse.ArgumentParser) -> None:
    """Reload a checkpoint written by 'repro checkpoint' (replaying the
    derivation journal to verify it explains the stored tables) and
    continue the session: apply further inserts and new ILFDs without
    re-evaluating settled pairs.  Updates persist into the same
    checkpoint file."""
    parser.add_argument("checkpoint_file", help="checkpoint written earlier")
    parser.add_argument(
        "--insert-r",
        action="append",
        default=[],
        metavar="FILE",
        help="CSV of new R tuples to insert after resuming (repeatable)",
    )
    parser.add_argument(
        "--insert-s",
        action="append",
        default=[],
        metavar="FILE",
        help="CSV of new S tuples to insert after resuming (repeatable)",
    )
    _add_knowledge(parser, tables=False, files=False)
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the journal-replay and constraint audit on load",
    )
    parser.add_argument(
        "--salvage",
        action="store_true",
        help="if the checkpoint is corrupt (truncated, bit-rotted), "
        "recover instead of failing: keep the surviving rows and the "
        "longest verifiable journal prefix, re-derive the rest, and "
        "continue on the rebuilt session (exit status 1)",
    )
    parser.add_argument(
        "--salvage-out",
        metavar="FILE",
        help="write the rebuilt session to this new SQLite file "
        "(default: the salvaged session lives in memory)",
    )
    parser.add_argument(
        "--salvage-r",
        metavar="FILE",
        help="fallback R source CSV for salvage, when the damaged "
        "checkpoint lost source rows (requires --salvage-r-key)",
    )
    parser.add_argument(
        "--salvage-s",
        metavar="FILE",
        help="fallback S source CSV for salvage (requires --salvage-s-key)",
    )
    parser.add_argument(
        "--salvage-r-key",
        metavar="ATTRS",
        help="comma-separated key of the --salvage-r relation",
    )
    parser.add_argument(
        "--salvage-s-key",
        metavar="ATTRS",
        help="comma-separated key of the --salvage-s relation",
    )
    parser.add_argument(
        "--salvage-extended-key",
        metavar="ATTRS",
        help="extended key to use when the checkpoint's own metadata "
        "is unrecoverable",
    )
    _add_output(parser, json=False)
    _add_resilience(parser)
    _add_telemetry(parser, trace=False)


def _salvage_session(args):
    """Rebuild a session from a damaged checkpoint (the --salvage path).

    Returns ``(identifier, report)``; raises ``StoreError`` when even
    salvage cannot produce a verified-consistent session.
    """
    from repro.store.checkpoint import salvage_incremental

    r = s = None
    if args.salvage_r:
        keys = [_split_key(args.salvage_r_key)] if args.salvage_r_key else None
        r = read_csv(args.salvage_r, keys=keys, name="R")
    if args.salvage_s:
        keys = [_split_key(args.salvage_s_key)] if args.salvage_s_key else None
        s = read_csv(args.salvage_s, keys=keys, name="S")
    extended_key = (
        _split_key(args.salvage_extended_key)
        if args.salvage_extended_key
        else None
    )
    return salvage_incremental(
        args.checkpoint_file,
        r=r,
        s=s,
        extended_key=extended_key,
        output=args.salvage_out,
    )


def _resume(args) -> int:
    """``repro resume``: 0 sound, 1 unsound or salvaged."""
    from repro.federation.incremental import IncrementalIdentifier
    from repro.store import StoreError, StoreIntegrityError

    _existing_store(args.checkpoint_file)
    telemetry = _Telemetry(args, "resume")
    retry, injector = _make_resilience(args, telemetry.tracer)
    salvaged = False
    try:
        identifier = IncrementalIdentifier.resume(
            args.checkpoint_file,
            verify=not args.no_verify,
            tracer=telemetry.tracer,
            retry_policy=retry,
            fault_injector=injector,
        )
    except StoreError as exc:
        if not args.salvage:
            if isinstance(exc, StoreIntegrityError):
                raise StoreIntegrityError(
                    f"{exc} (the checkpoint looks damaged; --salvage can "
                    "recover the surviving state)"
                ) from exc
            raise
        print(
            f"repro resume: checkpoint damaged ({exc}); salvaging...",
            file=sys.stderr,
        )
        identifier, salvage_report = _salvage_session(args)
        salvaged = True
        if not args.quiet:
            print(salvage_report.summary())
            print()
    resumed_version = identifier.version
    added = 0
    try:
        for path in args.insert_r:
            for row in read_csv(path, enforce_keys=False):
                added += len(identifier.insert_r(row).added)
        for path in args.insert_s:
            for row in read_csv(path, enforce_keys=False):
                added += len(identifier.insert_s(row).added)
        if args.ilfd:
            added += len(identifier.add_ilfds(_collect_ilfds(args)).added)
        report = identifier.verify()
        if not args.quiet:
            print(
                f"resumed {args.checkpoint_file} at version {resumed_version}; "
                f"now version {identifier.version}, "
                f"{len(identifier.match_pairs())} match(es) "
                f"({added} added this session)"
            )
            print()
            print(
                format_relation(
                    identifier.matching_table().to_relation(),
                    title="matching table",
                )
            )
            print()
            print(report.message)
    finally:
        identifier.store.close()
    return telemetry.finish(
        0 if report.is_sound and not salvaged else 1,
        sound=report.is_sound,
        salvaged=salvaged,
        added=added,
    )


def _explain_pair_arguments(parser: argparse.ArgumentParser) -> None:
    """Reconstruct, from the derivation journal alone, the rule-firing
    chain behind one pair persisted in a store or checkpoint: ILFD
    derivations, identity/distinctness firings, assertions, retractions,
    and the pair's current verdict."""
    parser.add_argument(
        "store_file", help="SQLite store or checkpoint holding the journal"
    )
    parser.add_argument(
        "--r",
        metavar="KEYSPEC",
        help="R tuple key as 'attr=value,attr=value'",
    )
    parser.add_argument(
        "--s",
        metavar="KEYSPEC",
        help="S tuple key as 'attr=value,attr=value'",
    )


def _explain_pair(args) -> int:
    """``repro explain-pair``: journal-backed provenance for one pair."""
    from repro.store import SqliteStore, explain_pair

    if args.r is None and args.s is None:
        raise ValueError("give --r and/or --s")
    r_key = parse_key_spec(args.r) if args.r else None
    s_key = parse_key_spec(args.s) if args.s else None
    with SqliteStore(_existing_store(args.store_file)) as store:
        entries = store.journal_entries(r_key=r_key, s_key=s_key)
        print(explain_pair(entries, r_key, s_key))
    return 0


def _conform_arguments(parser: argparse.ArgumentParser) -> None:
    """Run the conformance suite: the differential configuration matrix
    (every engine configuration must produce bit-identical canonical
    matching tables), the Section-3 oracles (soundness, completeness,
    uniqueness, consistency), the metamorphic relations, and optionally
    the golden-corpus drift check."""
    parser.add_argument(
        "workloads",
        nargs="*",
        help="synthetic workload families to exercise: restaurants, "
        "employees, publications (default: all three)",
    )
    parser.add_argument(
        "--entities",
        type=int,
        default=12,
        metavar="N",
        help="universe size per workload (default 12; the matrix is "
        "O(N^2) per cell)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=3,
        metavar="N",
        help="workload generation seed (default 3)",
    )
    parser.add_argument(
        "--matrix",
        choices=("strict", "full", "none"),
        default="full",
        help="differential matrix to run: 'strict' = exhaustive-candidate "
        "cells only (bit-identical MT and NMT), 'full' adds the "
        "pruning-blocker cells (MT-identical, NMT-subset), 'none' skips "
        "the matrix (default full)",
    )
    parser.add_argument(
        "--no-prototype",
        action="store_true",
        help="skip the Prolog-prototype comparison cell",
    )
    parser.add_argument(
        "--no-oracles",
        action="store_true",
        help="skip the Section-3 oracle checks",
    )
    parser.add_argument(
        "--no-metamorphic",
        action="store_true",
        help="skip the metamorphic relations",
    )
    parser.add_argument(
        "--golden",
        metavar="DIR",
        help="check the frozen golden corpus in DIR for fingerprint drift",
    )
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help="re-freeze the golden corpus in --golden DIR instead of "
        "checking it (the new fingerprints go through code review)",
    )
    parser.add_argument(
        "--golden-workload",
        action="append",
        default=[],
        metavar="NAME",
        help="restrict the golden check/update to this corpus workload "
        "(repeatable; default: the whole corpus)",
    )
    _add_output(parser)
    _add_telemetry(parser)


_CONFORM_WORKLOADS = ("restaurants", "employees", "publications")


def _conform_workload(name: str, entities: int, seed: int):
    """Build one seeded synthetic workload for ``repro conform``."""
    from repro import workloads

    if name == "restaurants":
        return workloads.restaurant_workload(
            workloads.RestaurantWorkloadSpec(n_entities=entities, seed=seed)
        )
    if name == "employees":
        return workloads.employee_workload(
            workloads.EmployeeWorkloadSpec(n_entities=entities, seed=seed)
        )
    return workloads.publication_workload(
        workloads.PublicationWorkloadSpec(n_entities=entities, seed=seed)
    )


def _conform_oracles(workload, tracer):
    """Identify *workload* once and run the Section-3 oracles on it."""
    from repro.conformance import Knowledge, run_oracles

    knowledge = Knowledge.from_workload(workload)
    identifier = EntityIdentifier(
        workload.r,
        workload.s,
        list(workload.extended_key),
        ilfds=list(workload.ilfds),
    )
    result = identifier.run()
    return run_oracles(
        result.matching,
        result.negative,
        result.extended_r,
        result.extended_s,
        knowledge,
        tracer=tracer,
    )


def _drift_found(drift: dict, label: str, metric: str, tracer, chatty: bool) -> bool:
    """Count and print a frozen-reference drift check; True on drift."""
    if tracer is not None:
        tracer.metrics.inc(metric, len(drift))
    if chatty:
        if drift:
            print(f"{label} DRIFTED:")
            for name, detail in sorted(drift.items()):
                print(f"  {name}: {detail}")
        else:
            print(f"{label}: no drift")
    return bool(drift)


def _conform(args) -> int:
    """``repro conform``: 0 green, 1 mismatch/violation/drift."""
    import json

    from repro.conformance import (
        check_golden,
        full_matrix,
        run_matrix,
        run_metamorphic,
        strict_matrix,
        update_golden,
    )

    names = list(args.workloads) or list(_CONFORM_WORKLOADS)
    unknown = [n for n in names if n not in _CONFORM_WORKLOADS]
    if unknown:
        raise ValueError(
            f"unknown workload(s) {unknown}; "
            f"expected {list(_CONFORM_WORKLOADS)}"
        )
    if args.update_golden and not args.golden:
        raise ValueError("--update-golden requires --golden DIR")
    if args.entities < 2:
        raise ValueError("--entities must be >= 2")

    telemetry = _Telemetry(args, "conform")
    tracer = telemetry.tracer
    chatty = not args.quiet and not args.json
    degraded = False
    output = {"ok": True, "workloads": {}}
    for name in names:
        workload = _conform_workload(name, args.entities, args.seed)
        entry = {}
        if args.matrix != "none":
            cells = strict_matrix() if args.matrix == "strict" else full_matrix()
            matrix_report = run_matrix(
                workload,
                cells,
                name=name,
                include_prototype=not args.no_prototype,
                tracer=tracer,
            )
            entry["differential"] = {
                "green": matrix_report.is_green,
                "cells": len(matrix_report.outcomes),
                "mt_fingerprint": matrix_report.baseline.tables.mt_fingerprint,
                "nmt_fingerprint": matrix_report.baseline.tables.nmt_fingerprint,
                "mismatches": [m.summary() for m in matrix_report.mismatches],
                "prototype_agrees": matrix_report.prototype_agrees,
                "reference_agrees": matrix_report.reference_agrees,
            }
            degraded = degraded or not matrix_report.is_green
            if chatty:
                print(matrix_report.summary())
        if not args.no_oracles:
            oracle_report = _conform_oracles(workload, tracer)
            entry["oracles"] = oracle_report.to_dict()
            degraded = degraded or not oracle_report.ok
            if chatty:
                print(f"oracles [{name}]:")
                for line in oracle_report.summary().splitlines():
                    print("  " + line)
        if not args.no_metamorphic:
            meta_report = run_metamorphic(
                workload, name=name, seed=args.seed, tracer=tracer
            )
            entry["metamorphic"] = {
                "ok": meta_report.ok,
                "cases": [o.summary() for o in meta_report.outcomes],
            }
            degraded = degraded or not meta_report.ok
            if chatty:
                print(meta_report.summary())
        output["workloads"][name] = entry

    if args.golden:
        golden_names = args.golden_workload or None
        if args.update_golden:
            paths = update_golden(args.golden, golden_names)
            output["golden"] = {"updated": paths}
            if chatty:
                print(f"golden corpus re-frozen: {len(paths)} file(s) "
                      f"in {args.golden}")
        else:
            drift = check_golden(args.golden, golden_names)
            output["golden"] = {"drift": drift}
            degraded = _drift_found(
                drift, "golden corpus", "conformance.golden_drift", tracer, chatty
            ) or degraded

    output["ok"] = not degraded
    if args.json:
        print(json.dumps(output, indent=2, sort_keys=False))
    elif not args.quiet:
        print("conformance: " + ("all green" if not degraded else "DEGRADED"))
    return telemetry.finish(1 if degraded else 0, ok=not degraded)


def _serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Serve match lookups and search-before-insert ingestion over a
    persisted store as JSON-over-HTTP: GET /resolve returns a key's row,
    entity cluster, matched pairs, and journal provenance; POST /ingest
    routes a new tuple through extended-key resolution before inserting
    it, journaled with rule attribution exactly like a batch run.  Reads
    go through per-worker read-only WAL replicas behind an LRU cache;
    GET /metrics exposes serving.* counters in Prometheus format."""
    parser.add_argument(
        "--store",
        required=True,
        metavar="SPEC",
        help="the store to serve: 'sqlite:PATH' or a bare *.sqlite/*.db "
        "path written by 'repro identify --store' or 'repro checkpoint' "
        "('memory' stores cannot be served — replicas need a file)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8571,
        help="port to bind; 0 picks a free port, printed on the "
        "readiness line (default 8571)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="replica reader threads, one read-only connection each "
        "(default 2)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        metavar="N",
        help="LRU resolve-cache capacity in entries; 0 disables caching "
        "(default 1024)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=250.0,
        metavar="MS",
        help="per-lookup deadline before the degradation path (stale "
        "cache, then 503) kicks in; 0 waits forever (default 250)",
    )
    parser.add_argument(
        "--no-stale",
        dest="allow_stale",
        action="store_false",
        help="never serve invalidated cache entries during degradation; "
        "fail with 503 instead",
    )
    _add_resilience(
        parser,
        faults="deterministic fault plan fired at the serving sites "
        "(serving.request, serving.invalidate, store.commit), e.g. "
        "'serving.request:error@5' or 'serving.request:kill@25' for a "
        "real mid-request SIGKILL — the chaos harness's hook; see "
        "'repro identify --inject-faults' for the grammar",
    )
    _add_telemetry(parser, profile=False)
    parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help="admission bound on concurrently in-flight requests; the "
        "N+1st is shed with 503 + Retry-After before any work is "
        "queued; 0 disables the bound (default 64)",
    )
    parser.add_argument(
        "--read-rate",
        type=float,
        default=0.0,
        metavar="QPS",
        help="token-bucket rate limit for the read endpoint class "
        "(/resolve, /stats); exceeding it sheds with 429 + Retry-After; "
        "0 = unlimited (default 0)",
    )
    parser.add_argument(
        "--write-rate",
        type=float,
        default=0.0,
        metavar="QPS",
        help="token-bucket rate limit for the write endpoint class "
        "(/ingest, /invalidate); 0 = unlimited (default 0)",
    )
    parser.add_argument(
        "--burst",
        type=float,
        default=0.0,
        metavar="N",
        help="token-bucket burst capacity for both classes; 0 sizes "
        "each bucket to one second of its rate (default 0)",
    )
    parser.add_argument(
        "--retry-after",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="Retry-After hint on 503 queue-full sheds (default 0.5)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        metavar="N",
        help="consecutive dependency failures that open the read/write "
        "circuit breakers; 0 disables the breakers (default 5)",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="base cooldown before an open breaker lets a probe "
        "through (default 1.0)",
    )
    parser.add_argument(
        "--breaker-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="seed for the breakers' deterministic probe-jitter "
        "schedule (default 0)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="on SIGINT/SIGTERM, wait up to this long for in-flight "
        "requests to finish before closing (default 10)",
    )
    _add_output(parser, json=False)


def _serve(args) -> int:
    """``repro serve``: run the match-lookup HTTP server until signalled."""
    import asyncio
    import signal

    spec = args.store.strip()
    if spec == "memory":
        raise ValueError(
            "'memory' stores cannot be served — replica readers need a "
            "SQLite file (use --store sqlite:PATH)"
        )
    if spec.startswith("sqlite:"):
        spec = spec[len("sqlite:"):]
    path = _existing_store(spec)
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    if args.cache_size < 0:
        raise ValueError("--cache-size must be >= 0")

    from repro.resilience import AdmissionController, CircuitBreaker, TokenBucket
    from repro.serving import MatchLookupService, ServingServer, ServingTracer

    telemetry = _Telemetry(args, "serve", tracer=ServingTracer())
    tracer = telemetry.tracer
    retry, injector = _make_resilience(args, tracer, random_plans=False)
    read_breaker = write_breaker = None
    if args.breaker_threshold > 0:
        read_breaker, write_breaker = (
            CircuitBreaker(
                name,
                failure_threshold=args.breaker_threshold,
                cooldown=args.breaker_cooldown,
                seed=args.breaker_seed + offset,
                tracer=tracer,
            )
            for offset, name in enumerate(("read", "write"))
        )
    rates = {}
    for name, rate in (("read", args.read_rate), ("write", args.write_rate)):
        if rate > 0:
            rates[name] = TokenBucket(rate, args.burst if args.burst > 0 else None)
    admission = AdmissionController(
        max_queue=args.max_queue,
        rates=rates,
        retry_after=args.retry_after,
        tracer=tracer,
    )
    service = MatchLookupService(
        path,
        workers=args.workers,
        cache_size=args.cache_size,
        deadline=(args.deadline_ms / 1000.0) if args.deadline_ms > 0 else None,
        tracer=tracer,
        retry_policy=retry,
        allow_stale=args.allow_stale,
        read_breaker=read_breaker,
        write_breaker=write_breaker,
        fault_injector=injector,
    )
    server = ServingServer(
        service,
        host=args.host,
        port=args.port,
        tracer=tracer,
        admission=admission,
    )

    async def _run() -> None:
        await server.start()
        host, port = server.address
        if not args.quiet:
            # The readiness line scripts and CI wait for; flushed so a
            # pipe sees it before the first request.
            print(
                f"repro serve: listening on http://{host}:{port} "
                f"(store {path}, {args.workers} worker(s), "
                f"cache {args.cache_size})",
                flush=True,
            )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                # Platforms/loops without signal support: Ctrl-C still
                # lands as KeyboardInterrupt in asyncio.run below.
                pass
        await stop.wait()
        # SIGINT and SIGTERM share one graceful path: stop accepting,
        # drain in-flight requests, then (in the finally below) seal
        # the checkpoint digests and flush the ledger.
        await server.stop(drain=True, drain_timeout=max(args.drain_timeout, 0.0))

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    if not args.quiet:
        served = tracer.metrics.counter("serving.requests")
        print(f"repro serve: shut down after {served} request(s)")
    return telemetry.finish(0)


def _report_arguments(parser: argparse.ArgumentParser) -> None:
    """Query the telemetry recorded by --ledger and the bench history:
    list/show/diff stored run reports, export them as Prometheus text
    exposition or JSONL, and gate on performance regressions against the
    recorded bench baseline."""
    actions = parser.add_subparsers(dest="action", metavar="ACTION")
    actions.required = True

    def add_action(name: str, summary: str, *, ledger=True):
        sub = actions.add_parser(name, help=summary)
        if ledger:
            sub.add_argument(
                "--ledger",
                default="runs.db",
                metavar="PATH",
                help="run ledger written by --ledger (default runs.db)",
            )
        return sub

    list_parser = add_action(
        "list", "one line per recorded run (id, time, command, cost)"
    )
    _add_output(list_parser, quiet=False)

    show_parser = add_action(
        "show", "one run's full report (default: the newest run)"
    )
    show_parser.add_argument(
        "run", nargs="?", type=int, help="run id (default: newest)"
    )
    _add_output(show_parser, quiet=False)

    diff_parser = add_action(
        "diff", "phase-timing and metrics deltas between two runs"
    )
    diff_parser.add_argument("run_a", type=int, help="baseline run id")
    diff_parser.add_argument("run_b", type=int, help="comparison run id")

    prom_parser = add_action(
        "prom", "a run's report in Prometheus text-exposition format"
    )
    prom_parser.add_argument(
        "run", nargs="?", type=int, help="run id (default: newest)"
    )
    prom_parser.add_argument(
        "--out", metavar="FILE", help="write to FILE instead of stdout"
    )

    jsonl_parser = add_action(
        "jsonl", "metric snapshots as JSON lines (one record per metric)"
    )
    jsonl_parser.add_argument(
        "runs", nargs="*", type=int, help="run ids (default: every run)"
    )
    jsonl_parser.add_argument(
        "--out", metavar="FILE", help="write to FILE instead of stdout"
    )

    check_parser = add_action(
        "bench-check",
        "exit 1 when a bench series regressed beyond --threshold "
        "against its recorded baseline",
        ledger=False,
    )
    check_parser.add_argument(
        "--history",
        default="BENCH_HISTORY.jsonl",
        metavar="FILE",
        help="bench history JSONL (default BENCH_HISTORY.jsonl)",
    )
    check_parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        metavar="FRACTION",
        help="allowed latency increase / throughput decrease per series "
        "(default 0.15 = 15%%)",
    )
    check_parser.add_argument(
        "--same-env",
        action="store_true",
        help="only compare records whose environment fingerprint "
        "(python major.minor, machine, cpu count) matches the newest "
        "record's",
    )
    _add_output(check_parser, quiet=False)


def _write_or_print(text: str, out: Optional[str], written: str) -> None:
    """*text* to ``--out`` FILE (announcing *written*), else to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"{written} written to {out}")
    else:
        print(text, end="")


def _report(args) -> int:
    """``repro report``: 0 ok, 1 regression (bench-check)."""
    import json
    import time

    from repro.telemetry import (
        RunLedger,
        check_history,
        diff_reports,
        format_verdicts,
        load_history,
        metrics_to_jsonl_records,
        report_to_prometheus,
    )

    if args.action == "bench-check":
        if args.threshold <= 0:
            raise ValueError("--threshold must be > 0")
        verdicts = check_history(
            load_history(args.history),
            threshold=args.threshold,
            same_env=args.same_env,
        )
        if args.json:
            print(
                json.dumps(
                    {
                        "threshold": args.threshold,
                        "series": [v.to_dict() for v in verdicts],
                        "regressed": [v.label() for v in verdicts if v.regressed],
                    },
                    indent=2,
                )
            )
        else:
            print(format_verdicts(verdicts, args.threshold))
        return 1 if any(v.regressed for v in verdicts) else 0

    if not os.path.exists(args.ledger):
        raise FileNotFoundError(f"no run ledger at {args.ledger}")
    with RunLedger(args.ledger) as ledger:
        if args.action == "list":
            rows = ledger.list_runs()
            if args.json:
                print(json.dumps(rows, indent=2))
            elif not rows:
                print(f"(no runs recorded in {args.ledger})")
            else:
                print("id  when                  command   wall       pairs"
                      "    matches  sound")
                for row in rows:
                    when = time.strftime(
                        "%Y-%m-%d %H:%M:%SZ", time.gmtime(row["timestamp"])
                    )
                    sound = "-" if row["sound"] is None else str(bool(row["sound"]))
                    print(
                        f"{row['id']:<3d} {when}  {row['command']:<9s} "
                        f"{row['wall_s'] * 1e3:>7.1f}ms {row['pairs']:>7d}  "
                        f"{row['matches']:>7d}  {sound}"
                    )
        elif args.action in ("show", "prom"):
            run_id = args.run if args.run is not None else ledger.latest_id()
            if run_id is None:
                raise ValueError(f"no runs recorded in {args.ledger}")
            stored = ledger.get(run_id)
            if args.action == "prom":
                _write_or_print(
                    report_to_prometheus(stored), args.out, "prometheus exposition"
                )
            elif args.json:
                payload = stored.to_dict()
                payload["run_id"] = stored.run_id
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                print(stored.summary())
        elif args.action == "diff":
            print(diff_reports(ledger.get(args.run_a), ledger.get(args.run_b)))
        else:  # jsonl
            lines = [
                json.dumps(record, sort_keys=True) + "\n"
                for run_id in (args.runs or ledger.run_ids())
                for record in metrics_to_jsonl_records(ledger.get(run_id))
            ]
            _write_or_print("".join(lines), args.out, f"{len(lines)} records")
    return 0


def _entities_arguments(parser: argparse.ArgumentParser) -> None:
    """N-way entity resolution: build a persisted identity graph with
    canonical (golden) entities from named CSV sources, inspect it, or
    export the golden records.  A built store serves /resolve answers
    (repro serve) with full resolution-log provenance."""
    actions = parser.add_subparsers(dest="action", metavar="ACTION")
    actions.required = True

    build_p = actions.add_parser(
        "build",
        help="resolve N sources into canonical entities persisted in one "
        "SQLite store (clusters, golden records, resolution log)",
    )
    build_p.add_argument("store_path", help="SQLite store file to build")
    _add_named_sources(build_p, required=True)
    _add_extended_key(build_p)
    _add_knowledge(build_p)
    build_p.add_argument(
        "--survivorship",
        default="source_priority",
        metavar="SPEC",
        help="comma-joined survivorship chain deciding each golden "
        "value: source_priority[:A>B>...], most_complete, longest, "
        "newest:ATTR (default source_priority = first non-NULL in "
        "declaration order)",
    )
    build_p.add_argument(
        "--prefix",
        default="ent-",
        metavar="TEXT",
        help="canonical entity-id prefix (default 'ent-'; ids are "
        "prefix + 16 hex chars, deterministic across rebuilds)",
    )
    build_p.add_argument(
        "--log-decisions",
        choices=("all", "contested", "none"),
        default="all",
        help="how much survivorship detail to journal in the "
        "entity_resolution_log (default all)",
    )
    build_p.add_argument(
        "--batch-size",
        type=int,
        default=0,
        metavar="N",
        help="persist entities in crash-safe batches of N, each "
        "committed atomically with a progress record; an interrupted "
        "build (even SIGKILL mid-transaction) resumes to the "
        "bit-identical fingerprint on re-run; 0 = one transaction "
        "(default 0)",
    )
    _add_resilience(
        build_p,
        retries=False,
        faults="deterministic fault plan fired at the entities.persist "
        "site (one invocation per batch), e.g. 'entities.persist:kill@2' "
        "for a real mid-build SIGKILL — the chaos harness's hook",
    )
    _add_telemetry(build_p, ledger=False, profile=False)
    _add_output(build_p)

    show_p = actions.add_parser(
        "show",
        help="inspect a built entity store: list entities, or one "
        "entity's golden record and resolution log",
    )
    show_p.add_argument("store_path", help="SQLite store built by 'entities build'")
    show_p.add_argument(
        "--entity",
        metavar="ID",
        help="show one entity: golden record, members, resolution log",
    )
    _add_output(show_p, quiet=False)

    export_p = actions.add_parser(
        "export",
        help="write the golden records to CSV (one row per canonical "
        "entity, with id and contributing sources)",
    )
    export_p.add_argument("store_path", help="SQLite store built by 'entities build'")
    export_p.add_argument(
        "--out", required=True, metavar="FILE", help="CSV file to write"
    )
    _add_output(export_p, json=False)


def _entities(args) -> int:
    """``repro entities``: 0 sound/ok, 1 unsound build."""
    run = {
        "build": _entities_build,
        "show": _entities_show,
        "export": _entities_export,
    }[args.action]
    return run(args)


def _entities_build(args) -> int:
    from repro.entities import IdentityGraph, build_entity_store, make_survivorship
    from repro.store.sqlite import SqliteStore

    sources = _parse_named_sources(args.source, args.key)
    ilfds = _collect_ilfds(args, quiet=args.quiet or args.json)
    policy = make_survivorship(args.survivorship)
    telemetry = _Telemetry(args, "entities")
    tracer = telemetry.tracer
    _, injector = _make_resilience(args, random_plans=False)
    graph = IdentityGraph(
        sources, _split_key(args.extended_key), ilfds=ilfds, tracer=tracer
    )
    with SqliteStore(args.store_path, tracer=tracer) as store:
        report = build_entity_store(
            graph,
            store,
            policy=policy,
            prefix=args.prefix,
            log_decisions=args.log_decisions,
            tracer=tracer,
            batch_size=args.batch_size if args.batch_size > 0 else None,
            fault_injector=injector,
        )
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "store": args.store_path,
                    "sources": list(report.sources),
                    "entities": report.entities,
                    "members": report.members,
                    "violations": report.violations,
                    "contested": report.contested,
                    "decisions_logged": report.decisions_logged,
                    "survivorship": list(report.survivorship),
                    "fingerprint": report.fingerprint,
                    "sound": report.is_sound,
                },
                indent=2,
            )
        )
    elif not args.quiet:
        print(
            f"built {report.entities} canonical entit(ies) from "
            f"{report.members} member tuple(s) across "
            f"{len(report.sources)} sources ({', '.join(report.sources)})"
        )
        print(
            f"survivorship: {','.join(report.survivorship)}; "
            f"{report.contested} contested decision(s), "
            f"{report.decisions_logged} journaled"
        )
        print(f"fingerprint: {report.fingerprint}")
        if report.is_sound:
            print(f"store written to {args.store_path}")
        else:
            print(
                f"uniqueness VIOLATED: {report.violations} breach(es) "
                "journaled (see 'repro entities show')"
            )
    return telemetry.finish(0 if report.is_sound else 1)


def _entities_show(args) -> int:
    import json

    from repro.entities import verify_entity_store
    from repro.store import explain_entity
    from repro.store.sqlite import SqliteStore

    with SqliteStore(_existing_store(args.store_path)) as store:
        count, fingerprint = verify_entity_store(store)
        if args.entity:
            record = store.get_entity(args.entity)
            if record is None:
                raise ValueError(
                    f"no entity {args.entity!r} in {args.store_path}"
                )
            log = store.entity_log(record.entity_id)
            if args.json:
                from repro.serving.service import encode_key_json, encode_row_json

                print(
                    json.dumps(
                        {
                            "id": record.entity_id,
                            "ext_key": record.ext_key,
                            "golden": encode_row_json(record.golden),
                            "members": [
                                {"source": source, "key": encode_key_json(key)}
                                for source, key in record.members
                            ],
                            "resolution_log": [entry.payload for entry in log],
                        },
                        indent=2,
                    )
                )
            else:
                print(f"entity {record.entity_id}")
                for name, value in record.golden.items():
                    print(f"  {name} = {value}")
                print("members:")
                for source, key in record.members:
                    rendered = ", ".join(f"{a}={v}" for a, v in key)
                    print(f"  {source}: {rendered}")
                print(explain_entity(log, record.entity_id))
            return 0
        records = list(store.entity_items())
    if args.json:
        print(
            json.dumps(
                {
                    "store": args.store_path,
                    "entities": count,
                    "fingerprint": fingerprint,
                    "ids": [
                        {
                            "id": r.entity_id,
                            "sources": list(r.sources),
                            "members": len(r.members),
                        }
                        for r in records
                    ],
                },
                indent=2,
            )
        )
    else:
        print(
            f"{count} canonical entit(ies) in {args.store_path} "
            f"(fingerprint {fingerprint[:16]}…)"
        )
        for record in records:
            print(
                f"  {record.entity_id}  "
                f"[{', '.join(record.sources)}]  "
                f"{len(record.members)} member(s)"
            )
    return 0


def _entities_export(args) -> int:
    import csv

    from repro.entities import load_entities, verify_entity_store
    from repro.relational.nulls import is_null
    from repro.store.sqlite import SqliteStore

    with SqliteStore(_existing_store(args.store_path)) as store:
        verify_entity_store(store)
        records = load_entities(store)
    attributes: List[str] = []
    for record in records:
        for name in record.golden:
            if name not in attributes:
                attributes.append(name)
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["entity_id"] + attributes + ["sources"])
        for record in records:
            golden = record.golden
            writer.writerow(
                [record.entity_id]
                + [
                    ""
                    if name not in golden or is_null(golden[name])
                    else golden[name]
                    for name in attributes
                ]
                + [",".join(record.sources)]
            )
    if not args.quiet:
        print(f"{len(records)} golden record(s) written to {args.out}")
    return 0


def _chaos_arguments(parser: argparse.ArgumentParser) -> None:
    """Run the serving chaos harness: boot real 'repro serve'
    subprocesses over a seeded workload, drive concurrent resolve/ingest
    traffic under deterministic fault schedules (including a real
    SIGKILL + restart), and verify every run's store resumes with
    journal verification and agrees bit-identically with a fault-free
    reference.  With --entities, also SIGKILL a batched entity build
    mid-way and verify the resumed build seals the reference
    fingerprint."""
    parser.add_argument(
        "--workdir",
        default="",
        help="directory for the stores the harness grows "
        "(default: a fresh temporary directory, removed afterwards)",
    )
    parser.add_argument(
        "--schedule",
        action="append",
        default=[],
        metavar="NAME=FAULTS",
        help="run only this named fault schedule, e.g. "
        "kill=serving.request:kill@9 (repeatable; default: the stock "
        "matrix of 10 seeded schedules)",
    )
    parser.add_argument(
        "--entities-count",
        type=int,
        default=12,
        metavar="N",
        help="entities in the seeded workload (default 12)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=3,
        help="workload seed (default 3)",
    )
    parser.add_argument(
        "--entities",
        action="store_true",
        help="also run the entity-build kill/resume chaos check",
    )
    _add_output(parser)


def _chaos(args) -> int:
    """``repro chaos``: 0 all schedules converged, 1 divergence."""
    import json
    import tempfile

    from repro.resilience.chaos import (
        ChaosSchedule,
        run_chaos,
        run_entity_build_chaos,
    )

    schedules = None
    if args.schedule:
        schedules = []
        for spec in args.schedule:
            name, _, faults = spec.partition("=")
            if not name or not faults:
                raise ValueError(f"--schedule {spec!r} must be NAME=FAULTS")
            schedules.append(ChaosSchedule(name, faults))

    cleanup = None
    workdir = args.workdir
    if not workdir:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        workdir = cleanup.name
    else:
        os.makedirs(workdir, exist_ok=True)
    try:
        reports = run_chaos(
            workdir,
            schedules=schedules,
            n_entities=args.entities_count,
            seed=args.seed,
        )
        entity_report = run_entity_build_chaos(workdir) if args.entities else None
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    ok = all(r.ok for r in reports) and (
        entity_report is None or entity_report["ok"]
    )
    if args.json:
        payload = {
            "schedules": [r.as_dict() for r in reports],
            "entities": entity_report,
            "ok": ok,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif not args.quiet:
        for r in reports:
            verdict = "ok" if r.ok else "FAILED"
            print(
                f"repro chaos: {r.schedule:24s} {verdict}  "
                f"ingests={r.ingests} retries={r.retries} "
                f"restarts={r.restarts} sheds={r.sheds}"
            )
            for failure in r.failures:
                print(f"repro chaos:   - {failure}")
        if entity_report is not None:
            verdict = "ok" if entity_report["ok"] else "FAILED"
            print(
                f"repro chaos: {'entity-build-kill':24s} {verdict}  "
                f"bit_identical={entity_report['bit_identical']}"
            )
    return 0 if ok else 1


def _scenarios_arguments(parser: argparse.ArgumentParser) -> None:
    """Run the adversarial scenario matrix: every grid cell (source count
    × skew × noise × conflict × schema drift × delta order × duplicates
    × blocker) through the real pipeline with conformance oracles on,
    precision/recall scored against carried ground truth, and the ILFD
    drift detector re-checking baseline-mined constraints against the
    delta feeds."""
    from repro.scenarios import GRIDS

    parser.add_argument(
        "--grid",
        choices=tuple(GRIDS),
        default="default",
        help="named grid to run: 'default' is the full matrix, "
        "'reduced' the CI-sized slice, 'smoke' two quick cells "
        "(default: default)",
    )
    parser.add_argument(
        "--cell",
        action="append",
        default=[],
        metavar="ID",
        help="run only this cell id (repeatable; see --list for the "
        "ids a grid contains)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the grid's cell ids and exit",
    )
    parser.add_argument(
        "--entities",
        type=int,
        default=None,
        metavar="N",
        help="override the grid's universe size per cell (identification "
        "is O(N^2) per source pair)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override the grid's base seed (each cell derives its own "
        "seed from this and its cell id)",
    )
    parser.add_argument(
        "--baseline",
        metavar="DIR",
        help="check the canonical report against the committed baseline "
        "for this grid in DIR (per-cell field-level drift reasons on "
        "divergence)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="re-freeze the baseline in --baseline DIR instead of "
        "checking it (the new report goes through code review)",
    )
    parser.add_argument(
        "--inject-drift",
        action="store_true",
        help="canary mode: seed an ILFD conflict into delta-bearing "
        "cells WITHOUT marking it expected — the run must go red "
        "(exit 1) with unexpected constraint-drift findings",
    )
    _add_output(parser)
    _add_telemetry(parser)


def _scenarios(args) -> int:
    """``repro scenarios``: 0 green, 1 cell/drift/baseline failure."""
    import json

    from repro.scenarios import (
        ScenarioReport,
        ScenarioRunner,
        check_baseline,
        grid_by_name,
        update_baseline,
    )

    if args.update_baseline and not args.baseline:
        raise ValueError("--update-baseline requires --baseline DIR")
    if args.entities is not None and args.entities < 4:
        raise ValueError("--entities must be >= 4")
    if args.inject_drift and (args.baseline and not args.update_baseline):
        # Injected drift deliberately changes the report; comparing it
        # against the healthy baseline would double-report the canary.
        raise ValueError(
            "--inject-drift cannot be combined with a --baseline check"
        )
    if args.inject_drift and args.update_baseline:
        raise ValueError("refusing to freeze a baseline with injected drift")

    specs = grid_by_name(args.grid, entities=args.entities, seed=args.seed)
    if args.cell:
        known = {spec.cell_id for spec in specs}
        unknown = [c for c in args.cell if c not in known]
        if unknown:
            raise ValueError(
                f"unknown cell id(s) {unknown} in grid {args.grid!r}; "
                "use --list to see the ids"
            )
        specs = [spec for spec in specs if spec.cell_id in args.cell]
    if args.list:
        for spec in specs:
            print(spec.cell_id)
        return 0

    telemetry = _Telemetry(args, "scenarios")
    tracer = telemetry.tracer
    results = ScenarioRunner(
        specs, inject_drift=args.inject_drift, tracer=tracer
    ).run()
    report = ScenarioReport.from_results(args.grid, results)
    degraded = not report.ok
    output = report.to_dict()
    output["summary"] = report.summary()
    chatty = not args.quiet and not args.json
    if chatty:
        for cell in report.cells:
            verdict = "ok" if cell["ok"] else "FAILED"
            drift = cell["drift"]
            print(
                f"repro scenarios: {cell['cell']:40s} {verdict}  "
                f"p={cell['precision']:.3f} r={cell['recall']:.3f} "
                f"drift={len(drift['findings'])}"
                + (f" unexpected={drift['unexpected']}"
                   if drift["unexpected"] else "")
            )

    if args.baseline:
        if args.update_baseline:
            path = update_baseline(args.baseline, report)
            output["baseline"] = {"updated": path}
            if chatty:
                print(f"scenario baseline re-frozen: {path}")
        else:
            drift = check_baseline(args.baseline, report)
            output["baseline"] = {"drift": drift}
            degraded = _drift_found(
                drift, "scenario baseline", "scenarios.baseline_drift", tracer, chatty
            ) or degraded

    output["ok"] = not degraded
    if args.json:
        print(json.dumps(output, indent=2, sort_keys=False))
    elif not args.quiet:
        summary = report.summary()
        print(
            "scenarios: "
            + ("all green" if not degraded else "DEGRADED")
            + f" ({summary['cells_ok']}/{summary['cells']} cells ok, "
            f"{summary['drift_findings']} drift finding(s), "
            f"{summary['unexpected_drift']} unexpected)"
        )
    return telemetry.finish(1 if degraded else 0, ok=not degraded)


# ----------------------------------------------------------------------
# The harness: one command table, one error table
# ----------------------------------------------------------------------
_COMMANDS = {
    "identify": (_identify_arguments, _identify),
    "stats": (_stats_arguments, _stats),
    "checkpoint": (_checkpoint_arguments, _checkpoint),
    "resume": (_resume_arguments, _resume),
    "explain-pair": (_explain_pair_arguments, _explain_pair),
    "conform": (_conform_arguments, _conform),
    "report": (_report_arguments, _report),
    "serve": (_serve_arguments, _serve),
    "entities": (_entities_arguments, _entities),
    "chaos": (_chaos_arguments, _chaos),
    "scenarios": (_scenarios_arguments, _scenarios),
}


def _fatal_errors() -> tuple:
    """The exceptions ``main`` reports as one line and exit status 2.

    Called from the ``except`` clause, so the subsystem error modules
    are imported only once something has actually failed.
    """
    from repro.blocking.errors import BlockingError
    from repro.conformance.errors import ConformanceError
    from repro.entities.errors import EntitiesError
    from repro.resilience.errors import ResilienceError
    from repro.scenarios.errors import ScenarioError
    from repro.store.errors import StoreError
    from repro.telemetry.errors import TelemetryError

    return (
        CoreError, RelationalError, ILFDError, StoreError, ResilienceError,
        EntitiesError, ConformanceError, ScenarioError, TelemetryError,
        BlockingError, OSError, ValueError,
    )


def _build_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command only — others' modules stay unimported."""
    add_arguments, _ = _COMMANDS[name]
    parser = argparse.ArgumentParser(
        prog=f"repro {name}", description=add_arguments.__doc__
    )
    add_arguments(parser)
    return parser


def _run(name: str, argv: Optional[Sequence[str]]) -> int:
    """Parse *argv* for command *name*, run it, map fatal errors to 2."""
    args = _build_parser(name).parse_args(argv)
    try:
        return _COMMANDS[name][1](args)
    except BrokenPipeError:  # `repro identify ... | head` is not an error
        raise
    except _fatal_errors() as exc:
        print(f"repro {name}: {exc}", file=sys.stderr)
        return 2


def build_conform_parser() -> argparse.ArgumentParser:
    """The ``repro conform`` argument parser."""
    return _build_parser("conform")


def conform_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro conform``: 0 green, 1 mismatch/violation/drift, 2 fatal."""
    return _run("conform", argv)


def chaos_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro chaos``: 0 all schedules converged, 1 divergence, 2 fatal."""
    return _run("chaos", argv)


def scenarios_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro scenarios``: 0 green, 1 cell/drift/baseline failure, 2 fatal."""
    return _run("scenarios", argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: runs the subcommand named by the first argument.

    A first argument that is not a subcommand falls through to
    ``identify`` — the historical ``repro-identify R.csv S.csv ...``
    invocation keeps working unchanged.
    """
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if arguments[:1] == ["version"] or arguments == ["--version"]:
        print(f"repro {package_version()}")
        return 0
    if arguments and arguments[0] in _COMMANDS:
        return _run(arguments[0], arguments[1:])
    return _run("identify", arguments)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `repro identify ... | head`
        sys.exit(0)
