"""One consistency verdict across batch, incremental, serving and N-way.

Both sources hold ``TwinCities, Hunan, Thai`` and the ILFD says a Hunan
speciality means Chinese cuisine.  On the sound key ``name, cuisine``
the two tuples match, yet the ILFD's dual (Proposition 1) declares them
distinct: every path refuses, and wherever a store is involved nothing
is written.  Add a second S tuple sharing the extended key and the
match witnesses an unsound key instead: every path records it and
reports the key.
"""

import pytest

from repro.cli import main, parse_ilfd
from repro.core.errors import ConsistencyError
from repro.core.identifier import EntityIdentifier
from repro.core.soundness import verify_soundness
from repro.federation import IncrementalIdentifier
from repro.relational.csvio import read_csv
from repro.relational.row import Row
from repro.serving import MatchLookupService
from repro.store import SqliteStore
from repro.store.checkpoint import _DIGEST_SECTIONS, META_DIGEST_PREFIX
from tests.serving.test_http import _RunningServer

HEADER = "name,speciality,cuisine\n"
THAI = {"name": "TwinCities", "speciality": "Hunan", "cuisine": "Thai"}
TWIN = {"name": "TwinCities", "speciality": "Sichuan", "cuisine": "Thai"}
KEY = "name,speciality"
ILFD = "speciality=Hunan -> cuisine=Chinese"

#: (S rows, expected verdict): the R side is always the one THAI row.
CASES = {
    "contradicted": ([THAI], "refused"),
    "unsound-key": ([THAI, TWIN], "recorded"),
}


def _csv(path, rows):
    path.write_text(
        HEADER
        + "".join(f"{r['name']},{r['speciality']},{r['cuisine']}\n" for r in rows)
    )
    return str(path)


def _store_state(path):
    store = SqliteStore(path, read_only=True)
    try:
        return (
            dict(store.counts()),
            [entry.seq for entry in store.journal_entries()],
            store.get_meta("version"),
            verify_soundness(store.matching_table()).is_sound,
        )
    finally:
        store.close()


def _session(schema):
    return IncrementalIdentifier(
        schema, schema, ["name", "cuisine"], ilfds=[parse_ilfd(ILFD)]
    )


def run_identify(tmp_path, s_rows):
    r_csv = _csv(tmp_path / "R.csv", [THAI])
    s_csv = _csv(tmp_path / "S.csv", s_rows)
    store = str(tmp_path / "run.sqlite")
    status = main(
        ["identify", r_csv, s_csv, "--r-key", KEY, "--s-key", KEY,
         "--extended-key", "name,cuisine", "--ilfd", ILFD,
         "--store", f"sqlite:{store}", "--quiet"]
    )
    counts, _journal, _version, sound = _store_state(store)
    if status == 2:
        return "refused", counts["matches"] == 0
    return "recorded", (status, counts["matches"], sound) == (1, len(s_rows), False)


def run_incremental(tmp_path, s_rows):
    relation = read_csv(_csv(tmp_path / "S.csv", s_rows), keys=[KEY.split(",")])
    session = _session(relation.schema)
    for row in s_rows:
        session.insert_s(row)
    before = (session.store.counts(), session.version, session.match_pairs())
    try:
        added = session.insert_r(THAI).added
    except ConsistencyError:
        after = (session.store.counts(), session.version, session.match_pairs())
        return "refused", after == before
    return "recorded", (
        len(added) == len(s_rows) and not session.verify().is_sound
    )


def run_ingest(tmp_path, s_rows):
    relation = read_csv(_csv(tmp_path / "S.csv", s_rows), keys=[KEY.split(",")])
    session = _session(relation.schema)
    for row in s_rows:
        session.insert_s(row)
    path = str(tmp_path / "served.sqlite")
    session.checkpoint(path)
    session.store.close()
    before = _store_state(path)
    service = MatchLookupService(path, workers=1)
    server = _RunningServer(service)
    try:
        status, _body = server.request(
            "/ingest", data={"source": "r", "row": THAI}
        )
    finally:
        server.close()
        service.close()
    after = _store_state(path)
    if status == 409:
        return "refused", after[:3] == before[:3]
    return "recorded", (
        status == 200
        and after[0]["matches"] == len(s_rows)
        and after[3] is False
    )


def run_entities_build(tmp_path, s_rows):
    r_csv = _csv(tmp_path / "R.csv", [THAI])
    s_csv = _csv(tmp_path / "S.csv", s_rows)
    store = str(tmp_path / "entities.sqlite")
    status = main(
        ["entities", "build", store, "--source", f"R={r_csv}",
         "--source", f"S={s_csv}", "--key", f"R={KEY}", "--key", f"S={KEY}",
         "--extended-key", "name,cuisine", "--ilfd", ILFD, "--quiet"]
    )
    counts, journal, _version, _sound = _store_state(store)
    if status == 2:
        return "refused", not journal and not any(counts.values())
    return "recorded", status == 1 and counts["entities"] == 1


PATHS = {
    "identify": run_identify,
    "incremental": run_incremental,
    "ingest": run_ingest,
    "entities-build": run_entities_build,
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("path", sorted(PATHS))
def test_every_path_gives_the_same_verdict(tmp_path, path, case):
    s_rows, expected = CASES[case]
    verdict, state_ok = PATHS[path](tmp_path, s_rows)
    assert verdict == expected
    assert state_ok


def test_resume_audits_stored_matches(tmp_path, capsys):
    # A checkpoint grown through an unchecked ingest: the Thai R row and
    # its contradicted match written straight into the file.
    relation = read_csv(_csv(tmp_path / "S.csv", [THAI]), keys=[KEY.split(",")])
    session = _session(relation.schema)
    session.insert_s(THAI)
    path = str(tmp_path / "grown.sqlite")
    session.checkpoint(path)
    session.store.close()
    store = SqliteStore(path)
    try:
        r_key, s_key = (tuple(sorted((a, THAI[a]) for a in KEY.split(","))),) * 2
        row = Row(THAI)
        with store.transaction():
            for name in _DIGEST_SECTIONS:
                store.set_meta(META_DIGEST_PREFIX + name, "")
            store.put_row("r", r_key, row, row)
            store.record_match(r_key, s_key, row, row, rule="unchecked")
    finally:
        store.close()

    with pytest.raises(ConsistencyError, match="I1|Hunan"):
        IncrementalIdentifier.resume(path)
    assert main(["resume", path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro resume: ")
    assert len(err.strip().splitlines()) == 1
    resumed = IncrementalIdentifier.resume(path, verify=False)
    try:
        assert len(resumed.match_pairs()) == 1
    finally:
        resumed.store.close()


def test_add_ilfds_refuses_a_rederived_match_the_duals_contradict(tmp_path):
    # S's Hunan row has no cuisine until the Hunan ILFD derives Chinese;
    # that joins it to R's Gyros row, stored as Chinese against the
    # Gyros ILFD's dual.  The batch run over the same knowledge raises.
    relation = read_csv(_csv(tmp_path / "S.csv", [THAI]), keys=[KEY.split(",")])
    gyros = parse_ilfd("speciality=Gyros -> cuisine=Greek")
    session = IncrementalIdentifier(
        relation.schema, relation.schema, ["name", "cuisine"], ilfds=[gyros]
    )
    session.insert_r({"name": "Ching", "speciality": "Gyros", "cuisine": "Chinese"})
    session.insert_s({"name": "Ching", "speciality": "Hunan", "cuisine": None})
    before = (session.version, session.store.counts(), list(session.ilfds))
    with pytest.raises(ConsistencyError, match="Gyros"):
        session.add_ilfds([parse_ilfd(ILFD)])
    assert (session.version, session.store.counts(), list(session.ilfds)) == before
    assert session.match_pairs() == set()
    r, s = session.relations()
    with pytest.raises(ConsistencyError):
        EntityIdentifier(
            r, s, ["name", "cuisine"], ilfds=[gyros, parse_ilfd(ILFD)]
        ).matching_table()
