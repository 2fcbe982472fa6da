"""Tests for incremental identification and the virtual view."""

import pytest

from repro.core.errors import CoreError
from repro.core.identifier import EntityIdentifier
from repro.federation import IncrementalIdentifier, VirtualIntegratedView
from repro.relational.nulls import NULL


@pytest.fixture
def loaded(example3):
    identifier = IncrementalIdentifier(
        example3.r.schema,
        example3.s.schema,
        example3.extended_key,
        ilfds=list(example3.ilfds),
    )
    identifier.load(example3.r, example3.s)
    return identifier


class TestIncrementalBasics:
    def test_load_matches_batch(self, example3, loaded):
        batch = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=list(example3.ilfds)
        ).matching_table()
        assert loaded.match_pairs() == set(batch.pairs())

    def test_matching_table_verifies(self, loaded):
        assert loaded.verify().is_sound

    def test_insert_creates_delta(self, loaded):
        before = loaded.match_pairs()
        delta = loaded.insert_s(
            {"name": "VillageWok", "speciality": "Cantonese", "county": "Hennepin"}
        )
        assert delta.is_empty()  # VillageWok's R speciality is underivable
        delta = loaded.insert_r(
            {"name": "NewPlace", "cuisine": "Thai", "street": "Elm"}
        )
        assert delta.is_empty()
        assert loaded.match_pairs() == before

    def test_insert_matching_tuple(self, loaded):
        delta = loaded.insert_s(
            {"name": "VillageWok", "speciality": "Wok", "county": "Hennepin"}
        )
        assert delta.is_empty()
        # now teach the system how to complete VillageWok's R tuple
        from repro.ilfd.ilfd import ILFD

        delta = loaded.add_ilfds(
            [
                ILFD(
                    {"name": "VillageWok", "street": "Wash.Ave."},
                    {"speciality": "Wok"},
                ),
                ILFD({"speciality": "Wok"}, {"cuisine": "Chinese"}),
            ]
        )
        assert len(delta.added) == 1
        assert not delta.removed  # knowledge addition is monotone

    def test_duplicate_insert_rejected(self, loaded, example3):
        with pytest.raises(CoreError):
            loaded.insert_r(dict(example3.r.rows[0]))

    def test_delete_removes_matches(self, loaded):
        pair = next(iter(loaded.match_pairs()))
        delta = loaded.delete_r(dict(pair[0]))
        assert pair in delta.removed
        assert pair not in loaded.match_pairs()

    def test_delete_unknown_rejected(self, loaded):
        with pytest.raises(CoreError):
            loaded.delete_r({"name": "Ghost", "cuisine": "None"})

    def test_reinsert_after_delete_restores(self, loaded, example3):
        pair = next(iter(loaded.match_pairs()))
        loaded.delete_r(dict(pair[0]))
        row = example3.r.lookup(dict(pair[0]))
        delta = loaded.insert_r(dict(row))
        assert pair in delta.added

    def test_version_bumps(self, loaded):
        version = loaded.version
        loaded.insert_r({"name": "Another", "cuisine": "Thai", "street": "Oak"})
        assert loaded.version == version + 1


class TestIncrementalEqualsBatch:
    def test_ilfds_added_in_batches(self, example3):
        incremental = IncrementalIdentifier(
            example3.r.schema, example3.s.schema, example3.extended_key
        )
        incremental.load(example3.r, example3.s)
        ilfds = list(example3.ilfds)
        for start in range(0, len(ilfds), 2):
            incremental.add_ilfds(ilfds[start : start + 2])
            batch = EntityIdentifier(
                example3.r,
                example3.s,
                example3.extended_key,
                ilfds=ilfds[: start + 2],
            ).matching_table()
            assert incremental.match_pairs() == set(batch.pairs())

    def test_interleaved_operations(self, example3):
        incremental = IncrementalIdentifier(
            example3.r.schema,
            example3.s.schema,
            example3.extended_key,
            ilfds=list(example3.ilfds),
        )
        r_rows = list(example3.r)
        s_rows = list(example3.s)
        for r_row in r_rows[:3]:
            incremental.insert_r(dict(r_row))
        for s_row in s_rows:
            incremental.insert_s(dict(s_row))
        for r_row in r_rows[3:]:
            incremental.insert_r(dict(r_row))
        batch = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=list(example3.ilfds)
        ).matching_table()
        assert incremental.match_pairs() == set(batch.pairs())

    def test_monotone_knowledge(self, example3):
        incremental = IncrementalIdentifier(
            example3.r.schema, example3.s.schema, example3.extended_key
        )
        incremental.load(example3.r, example3.s)
        previous = incremental.match_pairs()
        for ilfd in example3.ilfds:
            delta = incremental.add_ilfds([ilfd])
            assert not delta.removed
            current = incremental.match_pairs()
            assert previous <= current
            previous = current


class TestVirtualView:
    def test_lazy_materialisation(self, loaded):
        view = VirtualIntegratedView(loaded)
        assert not view.is_fresh()
        table = view.table()
        assert view.is_fresh()
        assert view.table() is table  # cached

    def test_invalidation_on_update(self, loaded):
        view = VirtualIntegratedView(loaded)
        view.table()
        loaded.insert_r({"name": "Fresh", "cuisine": "Thai", "street": "Oak"})
        assert not view.is_fresh()
        assert len(view) == 7  # 6 + the new unmatched tuple

    def test_where_query(self, loaded):
        view = VirtualIntegratedView(loaded)
        indian = view.where(cuisine="Indian")
        names = {row["name"] for row in indian}
        assert names == {"TwinCities", "Anjuman"}

    def test_project(self, loaded):
        view = VirtualIntegratedView(loaded)
        names = view.project(["name"])
        assert len(names) <= len(view.table())
        assert names.schema.names == ("name",)

    def test_prefixed_select(self, loaded):
        view = VirtualIntegratedView(loaded)
        matched = view.select(
            lambda row: not _null(row["r_name"]) and not _null(row["s_name"]),
            merged=False,
        )
        assert len(matched) == 3


def _null(value):
    from repro.relational.nulls import is_null

    return is_null(value)


class TestReplaceSourceAtomicity:
    """A refused insert midway through ``replace_source`` undoes the swap."""

    @pytest.fixture(params=["memory", "sqlite"])
    def session(self, request, tmp_path):
        from repro.cli import parse_ilfd
        from repro.relational.attribute import Attribute
        from repro.relational.relation import Relation
        from repro.relational.schema import Schema
        from repro.store import MemoryStore, SqliteStore

        schema = Schema(
            [Attribute(name) for name in ("name", "speciality", "cuisine")],
            keys=[("name", "speciality")],
        )
        store = (
            MemoryStore()
            if request.param == "memory"
            else SqliteStore(str(tmp_path / "session.sqlite"))
        )
        identifier = IncrementalIdentifier(
            schema,
            schema,
            ["name", "cuisine"],
            ilfds=[parse_ilfd("speciality=Hunan -> cuisine=Chinese")],
            store=store,
        )
        identifier.load(
            Relation(
                schema,
                [
                    {"name": "Kabul", "speciality": "Kebab", "cuisine": "Afghani"},
                    {"name": "TwinCities", "speciality": "Hunan", "cuisine": "Thai"},
                ],
            ),
            Relation(
                schema,
                [
                    {"name": "Kabul", "speciality": "Kebab", "cuisine": "Afghani"},
                    {"name": "Anjuman", "speciality": "Tandoori", "cuisine": "Indian"},
                ],
            ),
        )
        yield identifier, schema
        store.close()

    @staticmethod
    def _state(identifier):
        r, s = identifier.relations()
        journal = [
            (entry.seq, entry.kind, entry.rule)
            for entry in identifier.store.journal_entries()
        ]
        return (
            identifier.match_pairs(),
            r.row_set,
            s.row_set,
            journal,
            identifier.version,
            identifier.store.get_meta("version"),
        )

    def test_refused_insert_leaves_everything_unchanged(self, session):
        from repro.core.errors import ConsistencyError
        from repro.relational.relation import Relation

        identifier, schema = session
        before = self._state(identifier)
        assert len(before[0]) == 1  # Kabul matches Kabul
        # Anjuman is deleted first; the new TwinCities row then matches
        # R's on (name, cuisine) while the Hunan ILFD's dual declares the
        # pair distinct, so its insert is refused.
        replacement = Relation(
            schema,
            [
                {"name": "Kabul", "speciality": "Kebab", "cuisine": "Afghani"},
                {"name": "TwinCities", "speciality": "Hunan", "cuisine": "Thai"},
            ],
        )
        with pytest.raises(ConsistencyError):
            identifier.replace_source("s", replacement)
        assert self._state(identifier) == before
        # The session still works after the rollback.
        identifier.delete_s((("name", "Anjuman"), ("speciality", "Tandoori")))
        assert identifier.version == before[4] + 1
