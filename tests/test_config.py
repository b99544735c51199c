"""Scenario dataclasses built by a library caller: each field's type and bound."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from uamsim import ConfigError

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("field, value, message", [
    ("alpha", NAN, "alpha must be positive and finite, got nan"),  # size_fleet then raised a bare ValueError
    ("alpha", INF, "alpha must be positive and finite, got inf"),  # size_fleet then raised OverflowError
    pytest.param("alpha", 10**400, f"alpha must be positive and finite, got {10**400}",
                 id="alpha-int-beyond-float-range"),  # so did this
    ("op_hours_per_day", NAN, "op_hours_per_day must be positive and finite, got nan"),
    ("op_hours_per_day", INF, "op_hours_per_day must be positive and finite, got inf"),  # all-zero rates
    ("compare_wait_min", NAN, "compare_wait_min must be nonnegative and finite, got nan"),
    ("compare_wait_min", INF, "compare_wait_min must be nonnegative and finite, got inf"),
    ("days_per_month", True, "days_per_month must be an integer, got True"),
    ("t_sim_min", 2.5, "t_sim_min must be an integer, got 2.5"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seeds", True, "seeds must be an integer, got True"),
    ("fleet", 3.5, "fleet must be an integer, got 3.5"),
    ("reposition_enabled", "false", "reposition_enabled must be true or false, got 'false'"),
    ("charge_after_reposition", 0, "charge_after_reposition must be true or false, got 0"),
    ("initial_placement", 7, "initial_placement must be a string, got 7"),  # was an AttributeError
])
def test_scenario_config_refuses_a_value_of_the_wrong_kind(baseline_scenario, field, value, message):
    # the loader refuses each of these in JSON, but not every caller loads
    with pytest.raises(ConfigError) as err:
        replace(baseline_scenario, **{field: value})
    assert str(err.value) == message


@pytest.mark.parametrize("field, value, message", [
    ("t_sim_min", 0, "t_sim_min must be positive, got 0"),
    ("fleet", 0, "fleet must be positive, got 0"),
    ("seed", -1, "seed must be nonnegative, got -1"),
    ("seeds", 0, "seeds must be positive, got 0"),
    ("pooling_q", 5.0, "pooling_q must be in (0, 4], got 5.0"),
    ("pooling_q", 0.0, "pooling_q must be positive, got 0.0"),
])
def test_scenario_config_refuses_a_value_out_of_bounds(baseline_scenario, field, value, message):
    with pytest.raises(ConfigError) as err:
        replace(baseline_scenario, **{field: value})
    assert str(err.value) == message


@pytest.mark.parametrize("changes", [
    {"seed": 0, "compare_wait_min": 0.0},  # the two fields whose floor is zero
    {"fleet": None, "cost": None},  # X | None fields may hold None
    {"alpha": 3, "pooling_q": 4},  # an int is a number
])
def test_scenario_config_accepts_values_on_their_bounds(baseline_scenario, changes):
    cfg = replace(baseline_scenario, **changes)
    assert {name: getattr(cfg, name) for name in changes} == changes
