"""Tests for the sanitizer: invariant checker, ddmin shrinking,
reproducer IO, and the differential replay harness."""

import json
from array import array

import pytest

from repro.analysis.differential import (
    DIFFERENTIAL_SCALE,
    SANITIZE_DESIGNS,
    diff_results,
    load_reproducer,
    random_spec,
    run_differential,
    write_reproducer,
)
from repro.analysis.experiments import fitted_devices
from repro.baselines import FIGURE8_DESIGNS
from repro.designs import registry
from repro.core.ble import WayMode
from repro.sanitize import InvariantChecker, InvariantViolation, shrink_trace
from repro.sim import SimulationDriver
from repro.traces import SyntheticTraceGenerator, derive_seed
from repro.traces.packed import PackedTrace

HBM, DRAM = fitted_devices(DIFFERENTIAL_SCALE)


def _trace(seed: int = 0, requests: int = 2_000) -> PackedTrace:
    spec = random_spec(seed, HBM, DRAM)
    return SyntheticTraceGenerator(
        spec, seed=derive_seed("sanitize-test", seed)
    ).generate_packed(requests)


class TestInvariantChecker:
    def test_clean_run_has_no_violations(self):
        checker = InvariantChecker(epoch_requests=256)
        result = SimulationDriver(checker=checker).run(
            registry.build("Bumblebee", HBM, DRAM), _trace(),
            workload="clean", warmup=400)
        assert checker.ok
        assert checker.violations == []
        # Warm-up requests are checked too: the count covers the whole
        # trace even though the result window is post-reset.
        assert checker.requests_checked == 2_000
        assert result.requests == 1_600
        assert checker.epochs_checked > 1

    def test_checked_loop_matches_fast_path_exactly(self):
        trace = _trace(1)
        fast = SimulationDriver().run(
            registry.build("Bumblebee", HBM, DRAM), trace,
            workload="w", warmup=400)
        checked = SimulationDriver(checker=InvariantChecker()).run(
            registry.build("Bumblebee", HBM, DRAM), trace,
            workload="w", warmup=400)
        assert diff_results(fast, checked) == []

    def test_checker_uninstalls_instrumentation(self):
        checker = InvariantChecker()
        controller = registry.build("Bumblebee", HBM, DRAM)
        SimulationDriver(checker=checker).run(
            controller, _trace(), workload="w", warmup=100)
        # The access wrapper is an instance attribute; after the run the
        # class method must be back (no instance override left behind).
        assert "access" not in vars(controller.dram)
        assert "access" not in vars(controller.hbm)
        assert all(type(e).__name__ == "BlockLocationEntry"
                   for ble_set in controller.ble
                   for e in ble_set._entries)

    def test_detects_stats_corruption(self):
        controller = registry.build("Bumblebee", HBM, DRAM)
        original = controller.access
        state = {"count": 0}

        def corrupting(request, now_ns):
            state["count"] += 1
            result = original(request, now_ns)
            if state["count"] == 700:
                controller.stats.bump("demand_reads", 7)
            return result

        controller.access = corrupting
        checker = InvariantChecker(epoch_requests=128)
        SimulationDriver(checker=checker).run(
            controller, _trace(), workload="corrupt", warmup=400)
        assert not checker.ok
        assert any("demand accesses" in v for v in checker.violations)

    def test_detects_hit_flag_divergence(self):
        import dataclasses
        controller = registry.build("Bumblebee", HBM, DRAM)
        original = controller.access
        state = {"count": 0}

        def lying(request, now_ns):
            state["count"] += 1
            result = original(request, now_ns)
            if state["count"] == 500:
                result = dataclasses.replace(
                    result, hbm_hit=not result.hbm_hit)
            return result

        controller.access = lying
        checker = InvariantChecker(epoch_requests=128)
        SimulationDriver(checker=checker).run(
            controller, _trace(), workload="lying", warmup=100)
        assert not checker.ok
        assert any("serviced by" in v for v in checker.violations)

    def test_detects_illegal_ble_transition(self):
        controller = registry.build("Bumblebee", HBM, DRAM)
        checker = InvariantChecker()
        checker.on_run_start(controller, "ble")
        entry = controller.ble[0]._entries[0]
        assert entry.mode is WayMode.FREE and entry.owner == -1
        # FREE -> MHBM with no owner breaks the state machine.
        entry.mode = WayMode.MHBM
        assert not checker.ok
        assert any("BLE transition" in v for v in checker.violations)
        checker._uninstall(controller)

    def test_legal_ble_transition_passes(self):
        controller = registry.build("Bumblebee", HBM, DRAM)
        checker = InvariantChecker()
        checker.on_run_start(controller, "ble")
        entry = controller.ble[0]._entries[0]
        entry.owner = 3
        entry.mode = WayMode.CHBM
        assert checker.ok
        checker._uninstall(controller)

    def test_strict_mode_raises(self):
        checker = InvariantChecker(strict=True)
        with pytest.raises(InvariantViolation):
            checker.record("boom")

    def test_epoch_requests_must_be_positive(self):
        with pytest.raises(ValueError):
            InvariantChecker(epoch_requests=0)

    @pytest.mark.parametrize("design",
                             [d for d in SANITIZE_DESIGNS
                              if d != "Bumblebee"])
    def test_clean_on_every_design(self, design):
        checker = InvariantChecker(epoch_requests=256)
        SimulationDriver(checker=checker).run(
            registry.build(design, HBM, DRAM), _trace(2, 1_200),
            workload="sweep", warmup=200)
        assert checker.violations == []


class TestShrink:
    def test_shrinks_to_single_culprit(self):
        values = list(range(100, 180))
        trace = PackedTrace(array("Q", values))
        minimal = shrink_trace(trace, lambda t: 137 in t.data)
        assert list(minimal.data) == [137]

    def test_returns_original_when_not_failing(self):
        trace = PackedTrace(array("Q", [1, 2, 3]))
        assert shrink_trace(trace, lambda t: False) is trace

    def test_budget_caps_predicate_calls(self):
        calls = {"n": 0}

        def predicate(t):
            calls["n"] += 1
            return 7 in t.data

        trace = PackedTrace(array("Q", list(range(200))))
        minimal = shrink_trace(trace, predicate, max_tests=10)
        assert calls["n"] <= 11  # initial confirmation + budget
        assert 7 in minimal.data  # still a valid reproducer

    def test_pair_dependency_kept(self):
        # Failure requires both elements: ddmin must keep the pair.
        trace = PackedTrace(array("Q", list(range(64))))
        minimal = shrink_trace(
            trace, lambda t: 5 in t.data and 50 in t.data)
        assert sorted(minimal.data) == [5, 50]


class TestReproducerIO:
    def test_roundtrip(self, tmp_path):
        trace = _trace(3, 64)
        path = tmp_path / "case.repro.trace"
        write_reproducer(path, trace, {"design": "Bumblebee", "seed": 3})
        loaded, metadata = load_reproducer(path)
        assert list(loaded.data) == list(trace.data)
        assert metadata["design"] == "Bumblebee"
        assert metadata["seed"] == 3

    def test_corruption_detected(self, tmp_path):
        trace = _trace(3, 64)
        path = tmp_path / "case.repro.trace"
        write_reproducer(path, trace, {})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="digest"):
            load_reproducer(path)

    def test_miscounted_payload_rejected(self, tmp_path):
        # The digest covers the payload only: a header whose count
        # disagrees with a correctly digested payload is still damage.
        trace = _trace(3, 64)
        path = tmp_path / "case.repro.trace"
        write_reproducer(path, trace, {})
        head, _, payload = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["count"] = len(trace) - 1
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
        with pytest.raises(ValueError, match="count"):
            load_reproducer(path)


class TestDifferential:
    def test_small_sweep_is_clean(self, tmp_path):
        report = run_differential(
            designs=["Banshee", "Bumblebee"], seeds=1, requests=1_500,
            warmup=300, out_dir=tmp_path)
        assert report.passed
        assert report.failures == []
        assert report.epochs_checked > 0
        assert report.requests_checked == 2 * 1_500
        assert "all checks passed" in report.render()
        assert not any(tmp_path.iterdir())  # no reproducers written

    def test_diff_results_flags_divergence(self):
        driver = SimulationDriver()
        a = driver.run(registry.build("Banshee", HBM, DRAM), _trace(0),
                       workload="w", warmup=100)
        b = driver.run(registry.build("Banshee", HBM, DRAM), _trace(1),
                       workload="w", warmup=100)
        diffs = diff_results(a, b)
        assert diffs  # different traces cannot agree on everything
        # The name field is ignored by default (same design both sides).
        assert all(d.split(":")[0] != "controller" for d in diffs)

    def test_random_specs_are_deterministic_and_distinct(self):
        assert random_spec(0, HBM, DRAM) == random_spec(0, HBM, DRAM)
        assert random_spec(0, HBM, DRAM) != random_spec(1, HBM, DRAM)

    def test_design_set_covers_figure8(self):
        assert set(FIGURE8_DESIGNS) <= set(SANITIZE_DESIGNS)
