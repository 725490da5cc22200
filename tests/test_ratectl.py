"""Tests for the pluggable rate-control subsystem (repro.ratectl)."""

import dataclasses

import numpy as np
import pytest

from repro.mac.dcf import BASE_RATE_MBPS
from repro.net import (
    NetLens,
    ScenarioSpec,
    builtin_scenario,
    run_scenario,
    run_scenario_sweep,
)
from repro.ratectl import (
    CONTROLLER_MATRIX,
    CONTROLLERS,
    MinstrelController,
    RateController,
    SampleRateController,
    SnrThresholdController,
    available_controllers,
    compare_controllers,
    make_controller,
)


def small_spec(**overrides):
    spec = builtin_scenario("hidden-node", n_packets=30,
                            duration_us=30_000.0)
    return dataclasses.replace(spec, **overrides) if overrides else spec


class TestRegistry:
    def test_matrix_controllers_registered(self):
        for name in CONTROLLER_MATRIX:
            assert name in CONTROLLERS

    def test_available_is_sorted(self):
        names = available_controllers()
        assert list(names) == sorted(names)

    def test_make_controller_builds_named_instance(self):
        for name in available_controllers():
            ctrl = make_controller(name)
            assert isinstance(ctrl, RateController)
            assert ctrl.name == name

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError) as exc:
            make_controller("no-such-thing")
        for name in available_controllers():
            assert name in str(exc.value)

    def test_transport_pins(self):
        assert CONTROLLERS["cos-feedback"].transport == "cos"
        assert CONTROLLERS["explicit-feedback"].transport == "explicit"
        assert CONTROLLERS["snr-threshold"].transport is None
        assert CONTROLLERS["minstrel"].uses_feedback is False
        assert CONTROLLERS["samplerate"].uses_feedback is False


class TestSnrThreshold:
    def test_starts_at_base_rate(self):
        ctrl = SnrThresholdController()
        assert ctrl.select_rate("a", "b") == BASE_RATE_MBPS

    def test_feedback_moves_rate_per_staircase(self):
        ctrl = SnrThresholdController()
        ctrl.on_feedback("a", "b", 15.0)
        assert ctrl.select_rate("a", "b") == 24
        ctrl.on_feedback("a", "b", 40.0)
        assert ctrl.select_rate("a", "b") == 54
        # Per-flow state: the reverse direction is untouched.
        assert ctrl.select_rate("b", "a") == BASE_RATE_MBPS


class TestMinstrel:
    def test_ewma_convergence_on_fixed_prr_step(self):
        """Constant outcomes converge geometrically: after k successes the
        EWMA sits at 1 - (1-w)^(k-1) from a first-observation seed."""
        ctrl = MinstrelController(ewma_weight=0.25)
        ctrl.on_tx_result("a", "b", 54, True, 0)
        assert ctrl.success_prob("a", "b", 54) == 1.0
        # Step the true PRR down to 0: the estimate decays by (1-w) per fate.
        expected = 1.0
        for _ in range(10):
            ctrl.on_tx_result("a", "b", 54, False, 0)
            expected *= 0.75
            assert ctrl.success_prob("a", "b", 54) == pytest.approx(expected)
        assert ctrl.success_prob("a", "b", 54) < 0.06

    def test_best_rate_maximises_throughput(self):
        ctrl = MinstrelController()
        ctrl.on_tx_result("a", "b", 54, False, 0)  # 54 never delivers
        ctrl.on_tx_result("a", "b", 24, True, 0)
        ctrl.on_tx_result("a", "b", 12, True, 0)
        # 24 * 1.0 beats 12 * 1.0 and 54 * 0.0.
        assert ctrl.best_rate("a", "b") == 24

    def test_retry_chain(self):
        ctrl = MinstrelController(sample_prob=0.0)
        ctrl.on_tx_result("a", "b", 54, True, 0)
        ctrl.on_tx_result("a", "b", 48, True, 0)
        ctrl.on_tx_result("a", "b", 6, True, 0)
        assert ctrl.select_rate("a", "b", retries=0) == 54  # best throughput
        assert ctrl.select_rate("a", "b", retries=1) == 48  # second best
        # Max-prob ties (all 1.0) resolve to the lowest rate.
        assert ctrl.select_rate("a", "b", retries=2) == 6
        assert ctrl.select_rate("a", "b", retries=3) == 6
        assert ctrl.select_rate("a", "b", retries=4) == 6  # base fallback

    def test_sampling_probability_consumes_rng(self):
        """sample_prob=1 always probes a uniform rate; 0 never touches RNG."""
        rng = np.random.default_rng(0)
        always = MinstrelController(rng=rng, sample_prob=1.0)
        picks = {always.select_rate("a", "b") for _ in range(200)}
        assert len(picks) > 4  # uniform over the whole table

        never = MinstrelController(rng=np.random.default_rng(0),
                                   sample_prob=0.0)
        assert all(never.select_rate("a", "b") == never.rates[0]
                   for _ in range(50))

    def test_sampling_schedule_reproducible(self):
        seqs = []
        for _ in range(2):
            ctrl = MinstrelController(rng=np.random.default_rng(42))
            ctrl.on_tx_result("a", "b", 24, True, 0)
            seqs.append([ctrl.select_rate("a", "b") for _ in range(100)])
        assert seqs[0] == seqs[1]

    def test_sampling_rate_close_to_nominal(self):
        ctrl = MinstrelController(rng=np.random.default_rng(3),
                                  sample_prob=0.1)
        ctrl.on_tx_result("a", "b", 6, True, 0)  # pin best = 6
        n = 2000
        sampled = sum(ctrl.select_rate("a", "b") != 6 for _ in range(n))
        # Samples land off-best 7/8 of the time: expect ~0.1 * 7/8 * n.
        assert 100 < sampled < 250


class TestSampleRate:
    def test_prefers_lowest_avg_tx_time(self):
        ctrl = SampleRateController()
        ctrl.on_tx_result("a", "b", 54, True, 0, payload_octets=1024)
        ctrl.on_tx_result("a", "b", 6, True, 0, payload_octets=1024)
        assert ctrl.avg_tx_us("a", "b", 54) < ctrl.avg_tx_us("a", "b", 6)
        assert ctrl.best_rate("a", "b") == 54

    def test_avg_time_counts_failed_airtime(self):
        """A lossy fast rate loses to a clean slower one."""
        ctrl = SampleRateController()
        for ok in (True, False, False, False):
            ctrl.on_tx_result("a", "b", 54, ok, 0, payload_octets=1024)
        ctrl.on_tx_result("a", "b", 24, True, 0, payload_octets=1024)
        assert ctrl.best_rate("a", "b") == 24

    def test_deterministic_sampling_every_nth(self):
        ctrl = SampleRateController(sample_every=10)
        ctrl.on_tx_result("a", "b", 24, True, 0, payload_octets=1024)
        picks = [ctrl.select_rate("a", "b") for _ in range(30)]
        sample_positions = [i for i, r in enumerate(picks) if r != 24]
        # Every 10th head-of-queue transmission probes another rate.
        assert sample_positions == [9, 19, 29]

    def test_dead_rates_skipped(self):
        ctrl = SampleRateController(sample_every=2, max_consec_fail=4)
        ctrl.on_tx_result("a", "b", 24, True, 0, payload_octets=1024)
        for _ in range(4):
            ctrl.on_tx_result("a", "b", 54, False, 0, payload_octets=1024)
        probes = {ctrl.select_rate("a", "b") for _ in range(40)}
        assert 54 not in probes

    def test_needs_no_rng(self):
        ctrl = SampleRateController(rng=None)
        assert ctrl.select_rate("a", "b") == ctrl.rates[0]

    def test_retry_ladder(self):
        ctrl = SampleRateController()
        ctrl.on_tx_result("a", "b", 54, True, 0, payload_octets=1024)
        assert ctrl.select_rate("a", "b", retries=1) == 54  # best
        assert ctrl.select_rate("a", "b", retries=2) == ctrl.rates[0]


class TestScenarioIntegration:
    @pytest.mark.parametrize("controller", available_controllers())
    def test_serial_and_pool_bit_identical(self, controller):
        spec = small_spec(controller=controller)
        serial = run_scenario_sweep(spec, n_trials=2, seed=11, workers=0)
        pooled = run_scenario_sweep(spec, n_trials=2, seed=11, workers=2)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in pooled]

    def test_trial_seeds_reproducible(self):
        spec = small_spec(controller="minstrel")
        a = run_scenario_sweep(spec, n_trials=3, seed=5)
        b = run_scenario_sweep(spec, n_trials=3, seed=5)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
        # Per-trial SeedSequence.spawn: trials are *not* clones of each other.
        assert a[0].to_dict() != a[1].to_dict()

    def test_surrogate_error_model_runs(self):
        """Frame fates come from the measured-PHY table by default."""
        result = run_scenario(small_spec(), rng=1)
        assert result.aggregate_goodput_mbps > 0
        assert result.to_dict()["controller"] == "snr-threshold"

    def test_controller_reported_in_result(self):
        spec = small_spec(controller="samplerate")
        result = run_scenario(spec, rng=1)
        assert result.controller == "samplerate"
        assert result.to_dict()["controller"] == "samplerate"

    def test_unknown_controller_rejected_by_spec(self):
        with pytest.raises(ValueError, match="available"):
            small_spec(controller="nope")

    def test_unknown_error_model_rejected_by_spec(self):
        """There is one frame-fate model: a spec choosing one fails."""
        data = dict(small_spec().to_dict(), error_model="exact")
        with pytest.raises(ValueError, match="error_model"):
            ScenarioSpec.from_dict(data)

    def test_transport_pinning_overrides_scenario_control(self):
        spec = small_spec(controller="explicit-feedback")  # spec says cos
        result = run_scenario(spec, rng=1)
        assert result.control == "explicit"

    def test_rate_selected_events(self):
        spec = small_spec(controller="minstrel")
        lens = NetLens()
        run_scenario(spec, rng=1, lens=lens)
        rate_events = [e for e in lens.events
                       if e["name"] == "net.rate_selected"]
        assert rate_events
        assert all(e["controller"] == "minstrel" for e in rate_events)

    def test_lens_does_not_perturb_run(self):
        spec = small_spec(controller="minstrel")
        bare = run_scenario(spec, rng=3).to_dict()
        observed = run_scenario(spec, rng=3, lens=NetLens()).to_dict()
        observed.pop("ledger")
        assert observed == bare


class TestCrossCell:
    def test_cos_cross_cell_delivery_follows_the_measured_curve(self):
        """Overheard cross-cell feedback is generated and embedded, but the
        cross link (~2 dB) sits where the measured CoS curve reads 0, so
        no message reaches the other cell."""
        from repro.phy.surrogate import load_default_table

        spec = builtin_scenario("cross-cell", n_uplink_packets=120,
                                n_cross_packets=40, duration_us=100_000.0)
        result = run_scenario(spec, rng=1)
        aps = ("ap_west", "ap_east")
        # The cross-cell data flows never decode a single frame...
        assert all(result.per_node[ap].data_delivered == 0 for ap in aps)
        # ...the silences are overheard, so feedback is generated...
        assert sum(result.per_node[ap].control_generated for ap in aps) > 0
        # ...but at the cross link's SINR no embedded message decodes.
        cross = [result.per_node[ap].mean_sinr_db for ap in aps]
        assert all(load_default_table().cos_delivery_prob(s) == 0.0
                   for s in cross)
        assert sum(result.per_node[ap].control_delivered for ap in aps) == 0

    def test_explicit_control_dies_with_the_data(self):
        spec = builtin_scenario("cross-cell", n_uplink_packets=120,
                                n_cross_packets=40, duration_us=100_000.0,
                                control="explicit")
        result = run_scenario(spec, rng=1)
        aps = ("ap_west", "ap_east")
        assert all(result.per_node[ap].data_delivered == 0 for ap in aps)
        assert sum(result.per_node[ap].control_delivered for ap in aps) == 0

    def test_shipped_scenario_file_matches_factory(self):
        from pathlib import Path

        from repro.net import ScenarioSpec, cross_cell

        path = Path(__file__).resolve().parent.parent / "scenarios" / "cross_cell.json"
        assert ScenarioSpec.load(str(path)) == cross_cell()

    def test_overhear_flag_gates_the_extension(self):
        spec = builtin_scenario("cross-cell", n_uplink_packets=120,
                                n_cross_packets=40, duration_us=100_000.0)
        gated = dataclasses.replace(spec, cos_overhear=False)
        result = run_scenario(gated, rng=1)
        aps = ("ap_west", "ap_east")
        # Without overhearing no cross-cell feedback is ever generated.
        assert sum(result.per_node[ap].control_generated for ap in aps) == 0


class TestCompareHarness:
    def test_report_shape_and_cos_beats_explicit(self):
        spec = small_spec()
        report = compare_controllers(
            spec, controllers=("cos-feedback", "explicit-feedback"),
            n_trials=2, seed=0,
        )
        assert report["scenario"] == "hidden-node"
        assert "error_model" not in report
        assert set(report["controllers"]) == {"cos-feedback",
                                              "explicit-feedback"}
        cos = report["controllers"]["cos-feedback"]
        explicit = report["controllers"]["explicit-feedback"]
        assert cos["transport"] == "cos"
        assert explicit["transport"] == "explicit"
        # The paper's headline on its canonical scenario: free control
        # messages buy aggregate goodput.
        assert cos["goodput_mbps"] > explicit["goodput_mbps"]
        assert explicit["control_airtime_fraction"] > 0
        assert cos["control_airtime_fraction"] == 0

    def test_matrix_rows_pairwise_distinct(self):
        """No row of the default matrix repeats another one."""
        rows = list(compare_controllers(small_spec(), n_trials=1,
                                        seed=0)["controllers"].items())
        assert [name for name, _ in rows] == list(CONTROLLER_MATRIX)
        for i, (name_a, row_a) in enumerate(rows):
            for name_b, row_b in rows[i + 1:]:
                assert row_a != row_b, f"{name_a} repeats {name_b}"

    def test_unknown_controller_raises(self):
        with pytest.raises(ValueError, match="available"):
            compare_controllers(small_spec(), controllers=("bogus",),
                                n_trials=1)
