"""Tests for multi-programmed workload mixes."""

import pytest

from repro.traces import (
    MIX_PRESETS,
    MixMember,
    SyntheticSpec,
    build_mix,
    member_share,
    mix_trace,
    preset_mix_trace,
)

MIB = 1 << 20


class TestBuildMix:
    def test_disjoint_regions(self):
        members = build_mix(["mcf", "wrf", "xz"])
        regions = sorted((m.spec.base_addr,
                          m.spec.base_addr + m.spec.footprint_bytes)
                         for m in members)
        for (_, end_a), (start_b, _) in zip(regions, regions[1:]):
            assert end_a <= start_b

    def test_duplicates_allowed_rate_style(self):
        members = build_mix(["mcf", "mcf", "mcf", "mcf"])
        assert len(members) == 4
        assert len({m.spec.base_addr for m in members}) == 4

    def test_weights_follow_mpki(self):
        members = build_mix(["roms", "leela"])
        by_name = {m.spec.name.split("#")[0]: m.weight for m in members}
        assert by_name["roms"] > by_name["leela"]

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            build_mix([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            build_mix(["quake3"])

    def test_region_override_caps_footprint(self):
        members = build_mix(["roms"], region_bytes=4 * MIB)
        assert members[0].spec.footprint_bytes <= 4 * MIB

    def test_member_weight_validation(self):
        spec = SyntheticSpec("x", 1 * MIB, 0.5, 0.5, 10.0)
        with pytest.raises(ValueError):
            MixMember(spec=spec, weight=0.0)


class TestMixTrace:
    def test_exact_request_count(self):
        members = build_mix(["mcf", "wrf"])
        trace = mix_trace(members, 5000)
        assert len(trace) == 5000

    def test_shares_proportional_to_mpki(self):
        members = build_mix(["mcf", "leela"])  # 16.1 vs 0.1 MPKI
        trace = mix_trace(members, 8000)
        shares = member_share(members, trace)
        assert shares["mcf#0"] > 0.9
        assert shares["leela#1"] < 0.1

    def test_addresses_stay_in_member_regions(self):
        members = build_mix(["mcf", "wrf"])
        trace = mix_trace(members, 4000)
        boundary = members[1].spec.base_addr
        for request in trace:
            member = members[0] if request.addr < boundary else members[1]
            assert member.spec.base_addr <= request.addr \
                < member.spec.base_addr + member.spec.footprint_bytes

    def test_deterministic(self):
        members = build_mix(["mcf", "wrf"])
        a = mix_trace(members, 2000, seed=5)
        b = mix_trace(build_mix(["mcf", "wrf"]), 2000, seed=5)
        assert a == b

    def test_merged_icount_reflects_aggregate_mpki(self):
        members = build_mix(["roms", "lbm"])  # 31.9 + 31.4 MPKI
        trace = mix_trace(members, 1000)
        expected = max(1, round(1000.0 / (31.9 + 31.4)))
        assert all(r.icount == expected for r in trace)

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            mix_trace([], 100)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(MIX_PRESETS))
    def test_presets_materialise(self, name):
        trace = preset_mix_trace(name, 1000)
        assert len(trace) == 1000

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            preset_mix_trace("mix-nonsense", 10)

    def test_mix_runs_through_bumblebee(self):
        from repro.core import BumblebeeController
        from repro.mem import ddr4_3200_config, hbm2_config
        from repro.sim import SimulationDriver
        trace = preset_mix_trace("mix-fig1", 6000)
        controller = BumblebeeController(hbm2_config(32 << 20),
                                         ddr4_3200_config(320 << 20))
        result = SimulationDriver().run(controller, trace, workload="mix")
        controller.check_invariants()
        assert result.requests == 6000
