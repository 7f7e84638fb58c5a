"""Tests for demand CSV ingestion, configuration, and parameter building."""

import json

import numpy as np
import pytest

from cyclemarket.data import (
    DemandScenario,
    MarketConfig,
    build_params,
    bundled_demand_path,
    default_config,
    load_demand_csv,
    scenario_to_csv_text,
    synthetic_scenario,
    write_demand_csv,
)
from cyclemarket.errors import ConfigError, DemandCSVError


def write_csv(tmp_path, text, name="demand.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


GOOD = (
    "timestamp,forecast_mw,actual_mw\n"
    "2023-08-25T00:00:00,100.0,101.5\n"
    "2023-08-25T01:00:00,110.0,108.0\n"
    "2023-08-25T02:00:00,120.0,\n"
    "2023-08-25T03:00:00,115.0,\n"
)


class TestLoadDemandCSV:
    def test_happy_path_with_advisory_tail(self, tmp_path):
        scn = load_demand_csv(write_csv(tmp_path, GOOD))
        assert scn.horizon == 4
        assert scn.n_realized == 2
        assert scn.forecast == pytest.approx([100.0, 110.0, 120.0, 115.0])
        assert scn.residual == pytest.approx([1.5, -2.0])

    def test_bundled_fixture_loads(self):
        scn = load_demand_csv(bundled_demand_path())
        assert scn.horizon == 48
        assert scn.n_realized == 24
        ref = synthetic_scenario()
        assert scn.forecast == pytest.approx(ref.forecast, abs=1e-6)
        assert scn.actual == pytest.approx(ref.actual, abs=1e-6)

    def test_byte_order_mark_accepted(self, tmp_path):
        # spreadsheet exports often start UTF-8 text with a byte-order mark
        plain = load_demand_csv(bundled_demand_path())
        path = tmp_path / "bom.csv"
        with open(bundled_demand_path(), "rb") as fh:
            path.write_bytes(b"\xef\xbb\xbf" + fh.read())
        scn = load_demand_csv(path)
        assert np.array_equal(scn.forecast, plain.forecast)
        assert np.array_equal(scn.actual, plain.actual)
        assert scn.timestamps == plain.timestamps

    def test_missing_column_rejected(self, tmp_path):
        bad = "timestamp,forecast_mw\n2023-08-25T00:00:00,100.0\n"
        with pytest.raises(DemandCSVError) as err:
            load_demand_csv(write_csv(tmp_path, bad))
        assert err.value.row == 1

    def test_shuffled_timestamps_name_first_bad_row(self, tmp_path):
        bad = (
            "timestamp,forecast_mw,actual_mw\n"
            "2023-08-25T01:00:00,100.0,100.0\n"
            "2023-08-25T00:00:00,110.0,110.0\n"
        )
        with pytest.raises(DemandCSVError) as err:
            load_demand_csv(write_csv(tmp_path, bad))
        assert err.value.row == 3

    def test_gap_in_hours_rejected(self, tmp_path):
        bad = (
            "timestamp,forecast_mw,actual_mw\n"
            "2023-08-25T00:00:00,100.0,100.0\n"
            "2023-08-25T02:00:00,110.0,110.0\n"
        )
        with pytest.raises(DemandCSVError) as err:
            load_demand_csv(write_csv(tmp_path, bad))
        assert err.value.row == 3

    def test_actual_after_blank_rejected(self, tmp_path):
        bad = (
            "timestamp,forecast_mw,actual_mw\n"
            "2023-08-25T00:00:00,100.0,\n"
            "2023-08-25T01:00:00,110.0,108.0\n"
        )
        with pytest.raises(DemandCSVError):
            load_demand_csv(write_csv(tmp_path, bad))

    @pytest.mark.parametrize("rows, message, row", [
        ("", "empty file", 1),
        ("timestamp,forecast_mw,actual_mw\n,,\n", "no data rows", 2),
        ("timestamp,forecast_mw,actual_mw\n2023-08-25T00:00:00,100.0\n",
         "expected 3 columns at row 2", 2),
        ("timestamp,forecast_mw,actual_mw\nnoon,100.0,100.0\n",
         "bad timestamp 'noon' at row 2", 2),
        ("timestamp,forecast_mw,actual_mw\n2023-08-25T00:00:00,lots,100.0\n",
         "bad forecast 'lots' at row 2", 2),
        ("timestamp,forecast_mw,actual_mw\n2023-08-25T00:00:00,inf,100.0\n",
         "non-finite forecast at row 2", 2),
        ("timestamp,forecast_mw,actual_mw\n2023-08-25T00:00:00,100.0,lots\n",
         "bad actual 'lots' at row 2", 2),
        ("timestamp,forecast_mw,actual_mw\n2023-08-25T00:00:00,100.0,nan\n",
         "non-finite actual at row 2", 2),
        ("timestamp,forecast_mw,actual_mw\n2023-08-25T00:00:00,100.0,100.0\n"
         "2023-08-25T01:00:00+00:00,100.0,100.0\n",
         "naive and UTC-offset timestamps mixed at row 3", 3),
    ], ids=["empty", "blank-rows-only", "two-columns", "bad-timestamp", "bad-forecast",
            "infinite-forecast", "bad-actual", "nan-actual", "mixed-offsets"])
    def test_malformed_rows_name_the_row(self, tmp_path, rows, message, row):
        with pytest.raises(DemandCSVError, match=message) as err:
            load_demand_csv(write_csv(tmp_path, rows))
        assert err.value.row == row

    def test_more_actuals_than_forecast_rejected(self):
        with pytest.raises(DemandCSVError, match="more realized values"):
            DemandScenario(forecast=[1.0], actual=[1.0, 2.0])

    @pytest.mark.parametrize("content", [
        b"timestamp,forecast_mw,actual_mw\n2023-08-25T00:00:00,\xff,\n",
        b"\xfftimestamp,forecast_mw,actual_mw\n",
    ], ids=["data-row", "header"])
    def test_non_utf8_file_rejected(self, tmp_path, content):
        path = tmp_path / "demand.csv"
        path.write_bytes(content)
        with pytest.raises(DemandCSVError, match="not UTF-8"):
            load_demand_csv(path)

    def test_negative_demand_accepted_with_warning(self, tmp_path):
        text = (
            "timestamp,forecast_mw,actual_mw\n"
            "2023-08-25T00:00:00,-5.0,-4.0\n"
            "2023-08-25T01:00:00,10.0,11.0\n"
        )
        with pytest.warns(UserWarning) as caught:
            scn = load_demand_csv(write_csv(tmp_path, text))
        assert scn.forecast[0] == -5.0
        assert [str(w.message).split(": ", 1)[1] for w in caught] == [
            "negative forecast at row 2 (net load)", "negative actual at row 2 (net load)"]
        # both warnings point at the caller of load_demand_csv
        assert {w.filename for w in caught} == {__file__}

    def test_round_trip(self, tmp_path):
        scn = synthetic_scenario()
        path = tmp_path / "roundtrip.csv"
        write_demand_csv(scn, path)
        back = load_demand_csv(path)
        assert back.forecast == pytest.approx(scn.forecast, abs=1e-6)
        assert back.actual == pytest.approx(scn.actual, abs=1e-6)
        assert back.timestamps == scn.timestamps
        # serialized text itself is stable
        assert scenario_to_csv_text(back) == scenario_to_csv_text(scn)


class TestMarketConfig:
    def test_default_config_valid(self):
        cfg = default_config()
        assert cfg.generators[0]["c"] == 20.0
        assert cfg.storages[0]["capacity_E"] == 50.0

    def test_unknown_keys_rejected_with_all_violations(self):
        doc = {
            "generators": [{"c": 20.0, "cc": 1.0}],
            "storages": [{"capacity_E": 50.0, "color": "red"}],
            "frobnicate": True,
        }
        with pytest.raises(ConfigError) as err:
            MarketConfig.from_dict(doc)
        text = str(err.value)
        assert "cc" in text and "color" in text and "frobnicate" in text

    def test_json_loading(self, tmp_path):
        doc = {"generators": [{"c": 12.0}], "storages": [{"capacity_E": 20.0}],
               "mode": {"enforce_soc_bounds": False}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        cfg = MarketConfig.from_json(path)
        assert cfg.generators == [{"c": 12.0}] and cfg.storages == [{"capacity_E": 20.0}]
        assert cfg.enforce_soc_bounds is False

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"generators": [{"c": 12.0}]}).encode())
        assert MarketConfig.from_json(path).generators == [{"c": 12.0}]

    def test_tolerances_key_rejected(self):
        # the 1e-8 certificate is fixed; a config cannot set it
        doc = {"generators": [{"c": 12.0}], "tolerances": {"tol": 1e-9}}
        with pytest.raises(ConfigError, match=r"unknown top-level keys: \['tolerances'\]"):
            MarketConfig.from_dict(doc)

    @pytest.mark.parametrize("doc, violation", [
        ({"generators": [{"c": "abc"}]}, "generator 0: c must be a number"),
        ({"generators": [1]}, "generator 0 must be a JSON object"),
        ({"generators": [{"c": 1.0, "g_max": None}]}, "generator 0: g_max must be a number"),
        ({"generators": {"c": 1.0}}, "generators must be a list"),
        ({"generators": [{"c": 1.0}], "storages": [{"capacity_E": 5.0, "rho": [1]}]},
         "storage 0: rho must be a number"),
        ({"generators": [{"c": 1.0}], "mode": {"enforce_soc_bounds": "no"}},
         "mode: enforce_soc_bounds must be true or false"),
        ({"generators": [{"c": 1.0}], "mode": []}, "mode must be a JSON object"),
        ({"generators": [{"c": 1.0, "a": float("nan")}]}, "generator 0: a must be finite"),
        ({"generators": [{"c": 1.0, "g_min": float("nan")}]},
         "generator 0: g_min must be finite or -inf"),
        ({"generators": [{"c": 1.0, "g_max": -float("inf")}]},
         "generator 0: g_max must be finite or inf"),
        ({"generators": [{"c": float("inf")}]}, "generator 0: c must be finite"),
        ({"generators": [{"c": 1.0}], "storages": [{"capacity_E": float("inf")}]},
         "storage 0: capacity_E must be finite"),
        ({"generators": [{"c": 1.0}],
          "storages": [{"capacity_E": 5.0, "capital_cost_B": float("inf")}]},
         "storage 0: capital_cost_B must be finite"),
        ({"generators": [{"c": 1.0}], "storages": [{"capacity_E": 5.0, "rho": float("inf")}]},
         "storage 0: rho must be finite"),
        ({"generators": [{"c": 1.0}], "storages": [{"capacity_E": 5.0, "x0": float("nan")}]},
         "storage 0: x0 must be finite"),
        ({"generators": [{"c": 1.0}], "storages": [{"capacity_E": 5.0, "capital_cost_B": 0}]},
         "storage 0: capital_cost_B must be positive"),
        ({"generators": [{"c": 1.0}], "storages": [{"capacity_E": 5.0, "rho": -1}]},
         "storage 0: rho must be positive"),
        ({"generators": [{"a": 1.0}]}, "generator 0: missing 'c'"),
        ({"generators": [{"c": 1.0, "g_min": 5.0, "g_max": 1.0}]},
         "generator 0: g_min exceeds g_max"),
        ({"storages": [{"capacity_E": 5.0}]}, "at least one generator is required"),
        ({"generators": [{"c": True}]}, "generator 0: c must be a number"),
        ({"generators": [{"c": 1.0}], "storages": [{"capacity_E": 5.0, "x0": False}]},
         "storage 0: x0 must be a number"),
    ])
    def test_malformed_entries_rejected(self, doc, violation):
        with pytest.raises(ConfigError) as err:
            MarketConfig.from_dict(doc)
        assert violation in err.value.violations

    def test_top_level_list_rejected(self):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            MarketConfig.from_dict([{"c": 1.0}])

    @pytest.mark.parametrize("content", [b'{"generators": [', b'{"generators": "\xff"}'],
                             ids=["truncated", "not-utf8"])
    def test_undecodable_file_rejected(self, tmp_path, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="not a JSON document"):
            MarketConfig.from_json(path)

    def test_invalid_values_collected(self):
        doc = {"generators": [{"c": -1.0}], "storages": [{"capacity_E": 0.0, "x0": 2.0}]}
        with pytest.raises(ConfigError) as err:
            MarketConfig.from_dict(doc)
        assert len(err.value.violations) >= 3


class TestBuildParams:
    def test_case_study_coefficients(self):
        scn = synthetic_scenario()
        params = build_params(default_config(), scn)
        st = params.storages[0]
        assert st.b == pytest.approx(3.93)        # 5.24e-4 * 150 * 50
        assert st.u_max == pytest.approx(12.5)    # E / 4 for the 4-hour battery
        assert st.u_min == pytest.approx(-12.5)

    def test_one_hour_duration(self):
        cfg = MarketConfig(generators=[{"c": 20.0}],
                           storages=[{"capacity_E": 50.0, "duration_hours": 1.0}])
        params = build_params(cfg, synthetic_scenario())
        assert params.storages[0].u_max == pytest.approx(50.0)

    def test_generator_cap_defaults_to_peak(self):
        scn = synthetic_scenario()
        params = build_params(default_config(), scn)
        peak = max(scn.forecast.max(), scn.actual.max())
        assert params.generators[0].g_max == pytest.approx(peak)

    def test_pure_and_total(self):
        scn = synthetic_scenario()
        cfg = default_config()
        p1 = build_params(cfg, scn)
        p2 = build_params(cfg, scn)
        assert p1.storages[0].b == p2.storages[0].b
        assert p1.generators[0].g_max == p2.generators[0].g_max


class TestSyntheticScenario:
    def test_shape_and_error_band(self):
        scn = synthetic_scenario()
        assert scn.horizon == 48
        assert scn.n_realized == 24
        # +/- 5 percent error band
        rel = np.abs(scn.residual) / scn.forecast[:24]
        assert np.max(rel) <= 0.05 + 1e-12
        # two-day forecast repeats daily
        assert scn.forecast[:24] == pytest.approx(scn.forecast[24:])
