"""FaultPlan parsing/generation and the deterministic injector."""

import pytest

from repro.observability import Tracer
from repro.resilience import (
    FAULT_KINDS,
    KNOWN_SITES,
    NO_OP_INJECTOR,
    SITE_STORE_COMMIT,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    InjectedHang,
)


class TestFaultSpec:
    def test_defaults_to_error_kind(self):
        spec = FaultSpec("store.commit", 0)
        assert spec.kind == "error"
        assert str(spec) == "store.commit:error@0"

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec("store.commit", 0, kind="meltdown")

    def test_negative_index_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec("store.commit", -1)

    def test_every_kind_maps_to_an_injected_exception(self):
        assert FAULT_KINDS["error"] is InjectedFault
        assert FAULT_KINDS["crash"] is InjectedCrash
        assert FAULT_KINDS["hang"] is InjectedHang
        assert issubclass(InjectedCrash, InjectedFault)
        assert issubclass(InjectedHang, InjectedFault)


class TestParse:
    def test_single_spec(self):
        plan = FaultPlan.parse("store.commit:crash@0")
        assert plan.specs == (FaultSpec("store.commit", 0, "crash"),)

    def test_kind_defaults_to_error(self):
        plan = FaultPlan.parse("store.commit@2")
        assert plan.specs == (FaultSpec("store.commit", 2, "error"),)

    def test_index_range_expands(self):
        plan = FaultPlan.parse("store.commit:error@1..3")
        assert [spec.index for spec in plan.specs] == [1, 2, 3]

    def test_semicolon_and_comma_joined(self):
        a = FaultPlan.parse("a@0;b@1")
        b = FaultPlan.parse("a@0,b@1")
        assert a == b
        assert len(a.specs) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "store.commit",  # no @index
            "@0",  # no site
            "store.commit@x",  # non-integer index
            "store.commit@3..1",  # empty range
            "store.commit:meltdown@0",  # unknown kind
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad)

    def test_empty_text_is_the_empty_plan(self):
        assert FaultPlan.parse("").is_empty()
        assert FaultPlan.none().is_empty()


class TestRandom:
    def test_same_seed_same_plan(self):
        assert FaultPlan.random(7) == FaultPlan.random(7)

    def test_specs_respect_sites_horizon_and_kinds(self):
        plan = FaultPlan.random(3, rate=0.9, horizon=4, kinds=("crash",))
        assert plan.specs  # rate 0.9 over 5 sites x 4 slots
        for spec in plan.specs:
            assert spec.site in KNOWN_SITES
            assert 0 <= spec.index < 4
            assert spec.kind == "crash"

    def test_zero_rate_is_empty(self):
        assert FaultPlan.random(1, rate=0.0).is_empty()


class TestLookupAndStr:
    def test_lookup_groups_by_site(self):
        plan = FaultPlan.parse("a@0;b:crash@1;a@2")
        assert plan.lookup() == {
            "a": {0: "error", 2: "error"},
            "b": {1: "crash"},
        }

    def test_later_specs_win(self):
        plan = FaultPlan.of(
            [FaultSpec("a", 0, "error"), FaultSpec("a", 0, "crash")]
        )
        assert plan.lookup() == {"a": {0: "crash"}}

    def test_str_round_trips_through_parse(self):
        plan = FaultPlan.parse("a:crash@0;b@1")
        assert FaultPlan.parse(str(plan)) == plan
        assert str(FaultPlan.none()) == "(no faults)"


class TestInjector:
    def test_fires_only_at_scheduled_indices(self):
        injector = FaultInjector(FaultPlan.parse("site:error@1"))
        injector.fire("site")  # index 0: clean
        with pytest.raises(InjectedFault):
            injector.fire("site")  # index 1: scheduled
        injector.fire("site")  # index 2: clean again
        assert injector.invocations("site") == 3
        assert injector.fired == [FaultSpec("site", 1, "error")]

    def test_crash_kind_raises_injected_crash(self):
        injector = FaultInjector(FaultPlan.parse("site:crash@0"))
        with pytest.raises(InjectedCrash):
            injector.fire("site")

    def test_sites_count_independently(self):
        injector = FaultInjector(FaultPlan.parse("a@0"))
        injector.fire("b")
        with pytest.raises(InjectedFault):
            injector.fire("a")
        assert injector.invocations("a") == 1
        assert injector.invocations("b") == 1

    def test_metrics_count_injected_faults(self):
        tracer = Tracer()
        injector = FaultInjector(
            FaultPlan.parse(f"{SITE_STORE_COMMIT}@0..1"), tracer=tracer
        )
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.fire(SITE_STORE_COMMIT)
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["resilience.faults_injected"] == 2

    def test_reset_restarts_the_schedule(self):
        injector = FaultInjector(FaultPlan.parse("site@0"))
        with pytest.raises(InjectedFault):
            injector.fire("site")
        injector.reset()
        assert injector.invocations("site") == 0
        with pytest.raises(InjectedFault):
            injector.fire("site")

    def test_no_op_injector_is_free(self):
        assert NO_OP_INJECTOR.enabled is False
        NO_OP_INJECTOR.fire(SITE_STORE_COMMIT)  # never raises
        assert NO_OP_INJECTOR.invocations(SITE_STORE_COMMIT) == 0
