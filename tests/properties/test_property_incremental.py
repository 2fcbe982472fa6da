"""Property test: incremental identification ≡ batch, always.

Random interleavings of R-inserts, S-inserts, deletes, and ILFD additions
must leave the incremental identifier's matching table equal to a
from-scratch batch run over the surviving tuples and the accumulated
knowledge.  On dirty sources, whose stored values contradict the ILFDs,
an update must be refused exactly when the batch run over the
post-update sources raises ``ConsistencyError``, and a refused update
must change nothing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConsistencyError
from repro.core.identifier import EntityIdentifier
from repro.federation import IncrementalIdentifier
from repro.ilfd.ilfd import ILFD
from repro.relational.attribute import string_attribute
from repro.relational.nulls import NULL
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.workloads import RestaurantWorkloadSpec, restaurant_workload


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    schedule=st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=16),
)
def test_incremental_equals_batch(seed, schedule):
    workload = restaurant_workload(
        RestaurantWorkloadSpec(n_entities=20, name_pool=25, seed=seed)
    )
    incremental = IncrementalIdentifier(
        workload.r.schema, workload.s.schema, workload.extended_key
    )
    pending_r = [dict(row) for row in workload.r]
    pending_s = [dict(row) for row in workload.s]
    pending_ilfds = list(workload.ilfds)
    inserted_r: list = []
    inserted_s: list = []
    used_ilfds: list = []

    for op in schedule:
        if op == 0 and pending_r:
            row = pending_r.pop()
            incremental.insert_r(row)
            inserted_r.append(row)
        elif op == 1 and pending_s:
            row = pending_s.pop()
            incremental.insert_s(row)
            inserted_s.append(row)
        elif op == 2 and pending_ilfds:
            batch = pending_ilfds[:5]
            del pending_ilfds[:5]
            incremental.add_ilfds(batch)
            used_ilfds.extend(batch)
        elif op == 3 and inserted_r:
            row = inserted_r.pop()
            key = {
                attr: row[attr]
                for attr in incremental._r.key_attrs  # noqa: SLF001 - test introspection
            }
            incremental.delete_r(key)

    r_now, s_now = incremental.relations()
    if len(r_now) == 0 or len(s_now) == 0:
        assert incremental.match_pairs() == set()
        return
    batch = EntityIdentifier(
        r_now,
        s_now,
        workload.extended_key,
        ilfds=used_ilfds,
        derive_ilfd_distinctness=False,
    ).matching_table()
    assert incremental.match_pairs() == set(batch.pairs())


# ----------------------------------------------------------------------
# Dirty sources: updates refused iff the batch run raises
# ----------------------------------------------------------------------
DIRTY_SCHEMA = Schema(
    [string_attribute(n) for n in ("name", "speciality", "cuisine")],
    keys=[("name", "speciality")],
)
DIRTY_ILFDS = [
    ILFD({"speciality": "Hunan"}, {"cuisine": "Chinese"}, name="hunan"),
    ILFD({"speciality": "Sichuan"}, {"cuisine": "Chinese"}, name="sichuan"),
    ILFD({"speciality": "Gyros"}, {"cuisine": "Greek"}, name="gyros"),
]
dirty_rows = st.lists(
    st.fixed_dictionaries(
        {
            "name": st.just("Ching"),
            "speciality": st.sampled_from(["Hunan", "Sichuan", "Gyros", "Pad"]),
            "cuisine": st.sampled_from(["Thai", "Thai", "Chinese", NULL]),
        }
    ),
    min_size=1,
    unique_by=lambda row: (row["name"], row["speciality"]),
)


def _batch(r_rows, s_rows, ilfds):
    """The default batch run (ILFD duals on) over these sources."""
    return EntityIdentifier(
        Relation(DIRTY_SCHEMA, [dict(row) for row in r_rows], name="R"),
        Relation(DIRTY_SCHEMA, [dict(row) for row in s_rows], name="S"),
        ("name", "cuisine"),
        ilfds=ilfds,
    )


def _batch_raises(r_rows, s_rows, ilfds):
    if not r_rows or not s_rows:
        return False
    try:
        _batch(r_rows, s_rows, ilfds).matching_table()
    except ConsistencyError:
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(
    r_pool=dirty_rows,
    s_pool=dirty_rows,
    # 0/1 insert into R/S, 2/3 delete from R/S, 4 adds an ILFD.
    schedule=st.lists(
        st.sampled_from([0, 0, 1, 1, 2, 3, 4, 4]), min_size=4, max_size=20
    ),
    ilfd_order=st.permutations(DIRTY_ILFDS),
    first_ilfds=st.integers(min_value=0, max_value=1),
)
def test_dirty_update_refused_iff_batch_raises(
    r_pool, s_pool, schedule, ilfd_order, first_ilfds
):
    used = ilfd_order[:first_ilfds]
    pending = ilfd_order[first_ilfds:]
    incremental = IncrementalIdentifier(
        DIRTY_SCHEMA, DIRTY_SCHEMA, ("name", "cuisine"), ilfds=used
    )
    pools = {"r": list(r_pool), "s": list(s_pool)}
    live = {"r": [], "s": []}
    for op in schedule:
        side = "r" if op in (0, 2) else "s"
        after = {name: list(rows) for name, rows in live.items()}
        ilfds = list(used)
        if op in (0, 1) and pools[side]:
            row = pools[side][-1]
            after[side].append(row)
            update, argument = getattr(incremental, f"insert_{side}"), row
        elif op in (2, 3) and live[side]:
            row = live[side][0]
            after[side].remove(row)
            key = {"name": row["name"], "speciality": row["speciality"]}
            update, argument = getattr(incremental, f"delete_{side}"), key
        elif op == 4 and pending:
            ilfds.append(pending[0])
            update, argument = incremental.add_ilfds, ilfds[-1:]
        else:
            continue
        expected = _batch_raises(after["r"], after["s"], ilfds)
        before = (
            incremental.match_pairs(),
            incremental.version,
            dict(incremental.store.counts()),
        )
        try:
            update(argument)
            refused = False
        except ConsistencyError:
            refused = True
        assert refused == expected
        if refused:
            assert (
                incremental.match_pairs(),
                incremental.version,
                dict(incremental.store.counts()),
            ) == before
            continue
        live = after
        used = ilfds
        if op in (0, 1):
            pools[side].pop()
        elif op == 4:
            pending.pop(0)
    if live["r"] and live["s"]:
        batch = _batch(live["r"], live["s"], used).matching_table()
        assert incremental.match_pairs() == set(batch.pairs())
    else:
        assert incremental.match_pairs() == set()
