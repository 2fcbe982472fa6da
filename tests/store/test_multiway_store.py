"""N-way clusters through the store: persist, reload, project.

The serving layer renders entity clusters by grouping persisted rows on
the ``ext_key`` column; these tests pin that grouping to
:class:`~repro.entities.IdentityGraph`'s semantics: the
store-reconstructed clusters are bit-identical across save/reload, and
their pairwise projection agrees with :class:`EntityIdentifier`.
"""

from typing import Dict, List, Tuple

import pytest

from repro.core.identifier import EntityIdentifier
from repro.entities import IdentityGraph
from repro.store import SqliteStore
from repro.store.codec import encode_key
from repro.workloads import EmployeeWorkloadSpec, employee_workload


@pytest.fixture(scope="module")
def workload():
    return employee_workload(EmployeeWorkloadSpec(n_entities=28, seed=5))


@pytest.fixture()
def persisted(workload, tmp_path):
    """The workload's rows persisted (checkpoint) plus a cold result."""
    from repro.federation import IncrementalIdentifier

    path = str(tmp_path / "multiway.sqlite")
    session = IncrementalIdentifier(
        workload.r.schema,
        workload.s.schema,
        list(workload.extended_key),
        ilfds=list(workload.ilfds),
    )
    session.load(workload.r, workload.s)
    session.checkpoint(path)
    session.store.close()
    result = EntityIdentifier(
        workload.r,
        workload.s,
        list(workload.extended_key),
        ilfds=list(workload.ilfds),
    ).run()
    return path, result


def _store_clusters(store: SqliteStore) -> Dict[str, List[Tuple[str, str]]]:
    """ext_key → sorted (side, encoded key) members, from persisted rows.

    Only groups spanning both sides count — the same ≥2-sources rule
    :meth:`IdentityGraph.clusters` applies.
    """
    groups: Dict[str, List[Tuple[str, str]]] = {}
    for side in ("r", "s"):
        for key, _raw, extended in store.row_items(side):
            ext_text = store.extended_key_text(extended)
            if ext_text is None:
                continue
            groups.setdefault(ext_text, []).append((side, encode_key(key)))
    return {
        ext: sorted(members)
        for ext, members in groups.items()
        if len({side for side, _ in members}) >= 2
    }


def _graph(workload) -> IdentityGraph:
    return IdentityGraph(
        {"r": workload.r, "s": workload.s},
        list(workload.extended_key),
        ilfds=list(workload.ilfds),
    )


class TestClusterPersistence:
    def test_store_groups_match_multiway_clusters(self, workload, persisted):
        path, _result = persisted
        graph = _graph(workload)
        expected = {}
        key_attrs = {
            "r": tuple(
                n
                for n in workload.r.schema.names
                if n in workload.r.schema.primary_key
            ),
            "s": tuple(
                n
                for n in workload.s.schema.names
                if n in workload.s.schema.primary_key
            ),
        }
        from repro.core.matching_table import key_values

        store = SqliteStore(path, read_only=True)
        try:
            for cluster in graph.clusters():
                # Canonical text of the cluster's K_Ext values, derived
                # the same way the store computes ext_key for its rows.
                _member_side, member_row = cluster.members[0]
                ext_text = store.extended_key_text(member_row)
                expected[ext_text] = sorted(
                    (side, encode_key(key_values(row, key_attrs[side])))
                    for side, row in cluster.members
                )
            assert _store_clusters(store) == expected
        finally:
            store.close()

    def test_reload_is_bit_identical(self, persisted):
        path, _result = persisted
        first = SqliteStore(path, read_only=True)
        try:
            snapshot_a = _store_clusters(first)
        finally:
            first.close()
        second = SqliteStore(path, read_only=True)
        try:
            snapshot_b = _store_clusters(second)
        finally:
            second.close()
        assert snapshot_a == snapshot_b
        assert snapshot_a  # the workload has matched entities

    def test_rows_by_extended_key_orders_deterministically(self, persisted):
        path, _result = persisted
        store = SqliteStore(path, read_only=True)
        try:
            for ext_text in _store_clusters(store):
                keys_a = [
                    k for k, _r, _e in store.rows_by_extended_key("r", ext_text)
                ]
                keys_b = [
                    k for k, _r, _e in store.rows_by_extended_key("r", ext_text)
                ]
                assert keys_a == keys_b
                assert keys_a == sorted(keys_a)
        finally:
            store.close()


class TestPairwiseAgreement:
    def test_multiway_projection_equals_identifier_pairs(
        self, workload, persisted
    ):
        _path, result = persisted
        graph = _graph(workload)
        projected = graph.pairwise_pairs("r", "s")
        identified = frozenset(result.matching.pairs())
        assert projected == identified

    def test_store_matches_equal_multiway_projection(self, workload, persisted):
        path, _result = persisted
        graph = _graph(workload)
        store = SqliteStore(path, read_only=True)
        try:
            stored = frozenset(pair for pair, _rows in store.match_items())
        finally:
            store.close()
        assert stored == graph.pairwise_pairs("r", "s")
