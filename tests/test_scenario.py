"""Scenario parsing: defaults, overrides, and loud failure on typos."""

import pytest

from wamsbench.scenario import ScenarioError, builtin_scenarios, load_scenario, parse_scenario

MINIMAL = """
[scenario]
name = tiny
duration_s = 5
devices = 2
"""


class TestParsing:
    def test_minimal_scenario_gets_defaults(self):
        sc = parse_scenario(MINIMAL)
        assert sc.name == "tiny"
        assert sc.seed == "tiny"  # defaults to the name
        assert len(sc.devices) == 2
        assert sc.devices[0].device_id == 1
        assert sc.devices[0].uplink.r_ul_bps == 384_000.0
        assert sc.devices[0].downlink.r_ul_bps == 7_200_000.0
        assert sc.frames_expected == 100

    def test_device_override_beats_fleet_default(self):
        sc = parse_scenario(
            MINIMAL
            + """
[device]
p_seg = 0.2
[device 2]
p_seg = 0.5
uplink_t_p_ms = 42.0
"""
        )
        assert sc.devices[0].p_seg == 0.2
        assert sc.devices[1].p_seg == 0.5
        assert sc.devices[0].uplink.t_p_ms == 0.0
        assert sc.devices[1].uplink.t_p_ms == 42.0

    def test_disturbance_becomes_absolute_event(self):
        sc = parse_scenario(
            MINIMAL
            + """
[device 1]
disturbance = 2.5:-0.2:10
"""
        )
        (event,) = sc.devices[0].signal.disturbances
        assert event.at_utc_ms == 1_700_000_000_000 + 2_500
        assert event.step_hz == -0.2
        assert event.tau_s == 10.0

    def test_outage_windows(self):
        sc = parse_scenario(
            """
[scenario]
duration_s = 60
dcs_outages = 10-15, 42.5-44
"""
        )
        assert sc.outages == ((10.0, 15.0), (42.5, 44.0))

    def test_latest_epoch_below_2_pow_42_is_accepted(self):
        sc = parse_scenario("[scenario]\nepoch_utc_ms = 4398046511100\n")
        assert sc.epoch_utc_ms == 4_398_046_511_100 < 2**42

    @pytest.mark.parametrize(
        "snippet,needle",
        [
            ("[scenario]\nduration_s = 0\n", "duration_s"),
            ("[scenario]\nduration_s = ten\n", "duration_s"),
            ("[scenario]\nepoch_utc_ms = 1700000000050\n", "epoch_utc_ms"),
            ("[scenario]\nepoch_utc_ms = 4398046511200\n", "epoch_utc_ms"),  # above 2**42
            ("[scenario]\ndevices = 0\n", "devices"),
            ("[scenario]\nwat = 1\n", "wat"),
            ("[scenario]\nduration_s = 5\n[uplink]\np_loss = 1.5\n", "uplink"),
            ("[scenario]\nduration_s = 5\n[nonsense]\nx = 1\n", "nonsense"),
            # the transport's timer bounds are constants; a section that
            # once set them is refused rather than silently ignored
            *(
                (f"[scenario]\nduration_s = 5\n[transport]\n{body}", "[transport]: unknown section")
                for body in ("", "mss = 10\n", "min_rto_ms = 100\n", "max_rto_ms = 500\n", "initial_rto_ms = 3000\n")
            ),
            ("[scenario]\ndevices = 2\n[device 9]\np_seg = 0\n", "device 9"),
            ("[scenario]\ndcs_outages = 9-3\n", "dcs_outages"),
            ("[scenario]\nduration_s = 5\n[device 1]\ndisturbance = oops\n", "disturbance"),
            # a float that is not finite could not be written to a log header
            ("[scenario]\nskew_bound_ms = nan\n", "[scenario] skew_bound_ms: not a finite number: 'nan'"),
            ("[scenario]\nt_dcs_ms = inf\n", "[scenario] t_dcs_ms: not a finite number: 'inf'"),
            ("[device]\nt_fdr_ms = -Infinity\n", "[device] t_fdr_ms: not a finite number: '-Infinity'"),
            ("[device]\nt_fdr_ms = -0.5\n", "[device] t_fdr_ms: must be non-negative, got -0.5"),
            ("[device]\np_seg = -0.1\n", "[device] p_seg: must be in [0, 1], got -0.1"),
            ("[scenario]\ndevices = 2\n[device 1]\np_seg = 1.5\n", "[device 1] p_seg: must be in [0, 1], got 1.5"),
            # a signal value is blamed on the section that set it, not on
            # the first device that inherits it
            ("[scenario]\ndevices = 2\n[device]\nf_nominal = -1\n", "[device]: f_nominal must be positive"),
            ("[scenario]\ndevices = 2\n[device]\nnoise_sigma = -1\n", "[device]: noise_sigma must be non-negative"),
            (
                "[scenario]\ndevices = 2\n[device 2]\nf_wander_period_s = 0\n",
                "[device 2]: f_wander_period_s must be positive",
            ),
            # the capture header carries only the [device] t_fdr_ms
            ("[scenario]\ndevices = 2\n[device 2]\nt_fdr_ms = 2.0\n", "[device 2] t_fdr_ms: set only under [device]"),
        ],
    )
    def test_invalid_scenarios_name_the_field(self, snippet, needle):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(snippet)
        assert needle in str(err.value)


class TestBundled:
    def test_all_three_ship(self):
        assert builtin_scenarios() == ["ewams_day", "lossless", "lossy_0p3", "paper_like"]

    def test_ewams_day_is_paper_like_for_a_day(self):
        # parsed only: a run takes about 15 minutes and writes 6.7 GB of logs
        day, paper = load_scenario("ewams_day"), load_scenario("paper_like")
        assert day.duration_s == 86_400
        assert day.frames_expected == 9_504_000
        assert day.devices[:10] == paper.devices
        assert day.devices[10].uplink.t_p_ms == 108.0
        assert day.devices[10].device_id == 11
        assert (day.epoch_utc_ms, day.outages) == (paper.epoch_utc_ms, paper.outages)

    def test_lossless_is_actually_lossless(self):
        sc = load_scenario("lossless")
        assert len(sc.devices) == 10
        assert sc.duration_s == 60
        for dev in sc.devices:
            assert dev.uplink.p_loss == 0.0
            assert dev.uplink.jitter.median_ms == 0.0
            assert dev.p_seg == 0.0
            assert dev.uplink.t_p_ms == 100.0

    def test_paper_like_spreads_propagation(self):
        sc = load_scenario("paper_like")
        t_ps = [dev.uplink.t_p_ms for dev in sc.devices]
        assert t_ps == [103.0 + 0.5 * k for k in range(10)]
        assert all(dev.downlink.t_p_ms == 100.0 for dev in sc.devices)
        assert sc.devices[4].signal.disturbances

    def test_lossy_scenario_volume(self):
        sc = load_scenario("lossy_0p3")
        assert sc.frames_expected == 100_000
        assert all(dev.uplink.p_loss == 0.003 for dev in sc.devices)

    def test_file_path_loads_too(self, tmp_path):
        path = tmp_path / "mine.scenario"
        path.write_text(MINIMAL)
        assert load_scenario(str(path)).name == "tiny"

    def test_unknown_ref_lists_builtins(self):
        with pytest.raises(ScenarioError) as err:
            load_scenario("no_such_thing")
        assert "lossless" in str(err.value)
