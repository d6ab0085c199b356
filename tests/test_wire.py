"""The JSON wire form of the five result types: pinned bytes and from_dict's readers.

`to_dict()` is the CLI's `result` object; the CLI goldens pin the shapes it
prints.  The goldens here pin the shapes no CLI run covers.  `from_dict`
reads each field through the reader its annotation selects (`model._SHAPES`),
which refuses any other JSON type, there or in an item of the field, with
one TypeError naming the class and the field.  It treats `notes` as
optional, and names any other missing key in a KeyError and any unknown key
in a ValueError.  Then it runs the class's value rules, which nothing else
runs: the library builds its results without them, and every result it
builds must read back equal.  `test_properties.py` fuzzes every field with
every JSON type; the cases here pin the texts and the defects each reader
mended.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np
import pytest

from reliance.analytic import (
    BreakevenResult,
    PolicyComparison,
    breakeven_discrimination,
    compare_policies,
    evaluate,
)
from reliance.model import (
    AidProfile,
    Discriminating,
    EvalResult,
    Independent,
    Indiscriminate,
    Joint,
    OUTCOME_CELLS,
    RoutineAccept,
    RoutineIgnore,
    SelfGated,
    UserProfile,
    _SHAPES,
    _Wire,
    _record,
    scenario_to_dict,
)
from reliance.simulate import SimEstimate, estimate_accuracy
from reliance.sweep import SweepSeries, SweepSpec, run_sweep

from conftest import COMBOS, edge_scenarios, make_scenario, random_scenario, read_back, replace

# A tied scenario: every policy reaches 0.5, and its mode is left to default.
TIED = dict(p_a=0.5, p_u=0.5, r=0.5, policy=Indiscriminate(0.5))


def wire_sha(result) -> str:
    return hashlib.sha256(json.dumps(result.to_dict()).encode()).hexdigest()


def unattainable_breakeven():
    return breakeven_discrimination(AidProfile(0.5), UserProfile(0.9, 0.1), Independent())


def tied_compare():
    return compare_policies(make_scenario(**TIED))


def self_gated_compare():
    return compare_policies(make_scenario(policy=SelfGated(0.8, 0.3), dependency=Joint(0.45)))


def sweep_series():
    return run_sweep(SweepSpec(make_scenario(), "policy.p_accept", 0.0, 1.0, 5))


# shape -> sha256 of json.dumps(result.to_dict()), key order included
GOLDEN_WIRE = [
    (unattainable_breakeven, "fbdeedf8f210cf3559687be3a92d8a0f30aee70be119c46f47337358c838bdec"),
    (tied_compare, "d4db1aa1af76c6bab833838073ee86c6cfffbe1e059b3c9ae5eba8d10d619eaa"),
    (self_gated_compare, "2870e2b9705da3b27f9f3e9c82465618b96043977104f5c7333e67423199fc63"),
    (sweep_series, "8230239ed107bbcdb7c78ea878ba3a0be90913f302dcd52d13dc88f7e3e53cb0"),
]


@pytest.mark.parametrize("build,sha", GOLDEN_WIRE, ids=[build.__name__ for build, _ in GOLDEN_WIRE])
def test_wire_bytes_are_pinned(build, sha):
    assert wire_sha(build()) == sha


def combo_of(scenario) -> tuple[str, str, str]:
    """The (policy, dependency, mode) wire names of a scenario, as in COMBOS."""
    data = scenario_to_dict(scenario)
    return data["policy"]["type"], data["dependency"]["type"], data["degradation_mode"]


@pytest.mark.filterwarnings("ignore::reliance.model.DegradedRateWarning")
@pytest.mark.parametrize("policy,dependency,mode", COMBOS)
def test_every_record_the_library_builds_reads_back_equal(policy, dependency, mode):
    # the producers build their records without the value rules, which only
    # `from_dict` runs: every record they build must pass them, at interior
    # points and at the edges (0, 1, 1e-300, both Frechet ends and values
    # only the 1e-9 slack admits)
    rng = np.random.default_rng(COMBOS.index((policy, dependency, mode)))
    interior = [random_scenario(rng, policy, dependency, mode) for _ in range(10)]
    edges = [scenario for _, scenario in edge_scenarios() if combo_of(scenario) == (policy, dependency, mode)]
    assert len(edges) >= 10
    for scenario in interior + edges:
        sections = scenario.aid, scenario.user, scenario.dependency, scenario.degradation_mode
        comparison = compare_policies(scenario)
        for record in evaluate(scenario), comparison, breakeven_discrimination(*sections):
            assert read_back(record) == record
        # one reading: each compared result is `evaluate` with that policy
        policies = {"routine_ignore": RoutineIgnore(), "routine_accept": RoutineAccept()}
        for name, result in comparison.results.items():
            alone = evaluate(replace(scenario, policy=policies.get(name, scenario.policy)))
            assert result.to_dict() == alone.to_dict(), name


def test_pinned_shapes_are_the_ones_named():
    assert unattainable_breakeven().to_dict()["d_star"] == "unattainable"
    tied = tied_compare()
    assert len(tied.results) == 3 and any("tie" in note for note in tied.notes)
    assert set(self_gated_compare().results) == {"routine_ignore", "routine_accept", "self_gated"}


def one_of_each():
    """A result of each of the five types; the two with notes carry one."""
    scenario = make_scenario(**TIED)
    return [
        evaluate(scenario),
        compare_policies(scenario),
        breakeven_discrimination(scenario.aid, scenario.user, scenario.dependency),
        estimate_accuracy(scenario, 1000, seed=3),
        sweep_series(),
    ]


RESULT_TYPES = [EvalResult, PolicyComparison, BreakevenResult, SimEstimate, SweepSeries]


def one_of(cls):
    (result,) = [r for r in one_of_each() if type(r) is cls]
    return result


@pytest.mark.parametrize("cls", RESULT_TYPES, ids=lambda cls: cls.__name__)
def test_from_dict_without_notes_gives_no_notes(cls):
    result = one_of(cls)
    data = result.to_dict()
    if "notes" not in data:
        assert not hasattr(result, "notes")
        return
    assert result.notes
    del data["notes"]
    assert cls.from_dict(data).notes == ()


@pytest.mark.parametrize("cls", RESULT_TYPES, ids=lambda cls: cls.__name__)
def test_a_missing_required_key_is_named_in_a_key_error(cls):
    result = one_of(cls)
    required = [key for key in result.to_dict() if key != "notes"]
    assert required
    for key in required:
        data = result.to_dict()
        del data[key]
        with pytest.raises(KeyError) as err:
            cls.from_dict(data)
        assert err.value.args == (key,)


@pytest.mark.parametrize("cls", RESULT_TYPES, ids=lambda cls: cls.__name__)
def test_an_unknown_key_is_named_in_a_value_error(cls):
    with pytest.raises(ValueError, match=f"^{cls.__name__} has no field 'bogus', 'extra'$"):
        cls.from_dict({**one_of(cls).to_dict(), "extra": 1, "bogus": None})


@pytest.mark.parametrize("cls", RESULT_TYPES, ids=lambda cls: cls.__name__)
def test_a_non_mapping_is_a_type_error_naming_the_type(cls):
    with pytest.raises(TypeError, match=rf"^{cls.__name__} must be an object, got \[\]$"):
        cls.from_dict([])


def test_a_non_mapping_compared_result_is_named():
    data = tied_compare().to_dict()
    data["results"]["routine_ignore"] = "0.6"
    with pytest.raises(TypeError, match=r"^PolicyComparison results\['routine_ignore'\] must be an object, got '0.6'$"):
        PolicyComparison.from_dict(data)


def test_a_field_of_a_compared_result_is_named_by_its_result():
    data = compare_policies(make_scenario(policy=Discriminating(0.8, 0.3))).to_dict()
    data["results"]["discriminating"]["p_correct_aided"] = "0.5"
    named = "PolicyComparison results['discriminating'] p_correct_aided must be a number, got '0.5'"
    with pytest.raises(TypeError, match=f"^{re.escape(named)}$"):
        PolicyComparison.from_dict(data)
    data["results"]["discriminating"]["p_correct_aided"] = 0.5
    named = "PolicyComparison results['discriminating'] p_correct_aided 0.5 is not the final-correct mass"
    with pytest.raises(ValueError, match=f"^{re.escape(named)}"):
        PolicyComparison.from_dict(data)


def test_non_mapping_compared_results_are_named():
    data = tied_compare().to_dict()
    data["results"] = None
    with pytest.raises(TypeError, match="^PolicyComparison results must be an object, got None$"):
        PolicyComparison.from_dict(data)


def test_margins_as_a_list_of_pairs_are_named():
    # dict() would read [name, value] pairs, and to_dict would write them back as an object
    data = tied_compare().to_dict()
    data["margins"] = [[name, margin] for name, margin in data["margins"].items()]
    with pytest.raises(TypeError, match=rf"^PolicyComparison margins must be an object, got {re.escape(repr(data['margins']))}$"):
        PolicyComparison.from_dict(data)


@pytest.mark.parametrize("cls", RESULT_TYPES, ids=lambda cls: cls.__name__)
def test_a_null_field_is_a_value_or_type_error(cls):
    # JSON null in place of each field
    data = one_of(cls).to_dict()
    for key in data:
        with pytest.raises((ValueError, TypeError)):
            cls.from_dict({**data, key: None})


@pytest.mark.parametrize(
    "key,value,error",
    [
        ("seed", "abc", TypeError),
        ("seed", True, TypeError),
        ("seed", 3.0, TypeError),
        ("n_shards", -3, ValueError),
        ("n_shards", 0, ValueError),
        ("n_shards", "abc", TypeError),
        ("n_shards", True, TypeError),
        ("n_trials", True, TypeError),
        ("n_trials", 1000.0, TypeError),
    ],
)
def test_a_bad_seed_or_shard_count_is_named(key, value, error):
    # a value of another JSON type is refused by `from_dict` before the record sees it
    shape = "be >= 1" if error is ValueError else "be an int"
    named = f"SimEstimate {key} must {shape}, got {value!r}$"
    with pytest.raises(error, match=f"^{named}"):
        SimEstimate.from_dict({**one_of(SimEstimate).to_dict(), key: value})


def certain_accept():
    """Routine acceptance of advice that is always right: every mass is 1 or 0."""
    return evaluate(make_scenario(p_a=1.0, policy=RoutineAccept())).to_dict()


def attainable_breakeven():
    return breakeven_discrimination(AidProfile(0.7), UserProfile(0.6, 0.4), Independent()).to_dict()


# Each bool stood for 1 or 0 where that passed every check, read back and
# was written again as a bool.
@pytest.mark.parametrize(
    "cls,build,key,flag,shape",
    [
        (EvalResult, certain_accept, "p_correct_aided", True, "a number"),
        (EvalResult, certain_accept, "p_accept_marginal", True, "a number"),
        (BreakevenResult, attainable_breakeven, "d_star", True, "a number or 'unattainable'"),
        (BreakevenResult, attainable_breakeven, "target", False, "a number"),
        (BreakevenResult, attainable_breakeven, "accuracy_at_d_star", True, "a number or null"),
    ],
)
def test_a_bool_that_passed_for_1_or_0_is_refused(cls, build, key, flag, shape):
    with pytest.raises(TypeError, match=f"^{cls.__name__} {key} must be {re.escape(shape)}, got {flag}$"):
        cls.from_dict({**build(), key: flag})


def test_all_three_breakeven_bools_are_refused():
    data = {**attainable_breakeven(), "d_star": True, "target": False, "accuracy_at_d_star": True}
    with pytest.raises(TypeError, match="^BreakevenResult d_star must be a number or 'unattainable', got True$"):
        BreakevenResult.from_dict(data)


def estimate():
    return one_of(SimEstimate).to_dict()


def compared():
    return tied_compare().to_dict()


# Each raised a bare TypeError naming no field ('<=' or '>=' not supported,
# unhashable type), or read back, before every field had its reader.
@pytest.mark.parametrize(
    "cls,build,changes,named",
    [
        (EvalResult, certain_accept, {"p_correct_aided": "0.5"}, "EvalResult p_correct_aided must be a number, got '0.5'"),
        (BreakevenResult, attainable_breakeven, {"target": "0.5"}, "BreakevenResult target must be a number, got '0.5'"),
        (BreakevenResult, attainable_breakeven, {"d_star": "Unattainable"},
         "BreakevenResult d_star must be a number or 'unattainable', got 'Unattainable'"),
        # null read back as an unattainable result, and was written back as "unattainable"
        (BreakevenResult, attainable_breakeven, {"d_star": None, "accuracy_at_d_star": None},
         "BreakevenResult d_star must be a number or 'unattainable', got None"),
        (SimEstimate, estimate, {"ci95": "ab"}, "SimEstimate ci95 must be a list of 2 items, got 'ab'"),
        (SimEstimate, estimate, {"ci95": {"0": 0.4, "1": 0.6}},
         "SimEstimate ci95 must be a list of 2 items, got {'0': 0.4, '1': 0.6}"),
        (PolicyComparison, compared, {"configured_policy": ["x"]},
         "PolicyComparison configured_policy must be a string, got ['x']"),
        (PolicyComparison, compared, {"best_policy": {}}, "PolicyComparison best_policy must be a string, got {}"),
        (PolicyComparison, compared, {"margins": {"routine_ignore": "0", "routine_accept": 0.0, "indiscriminate": 0.0}},
         "PolicyComparison margins['routine_ignore'] must be a number, got '0'"),
        (SweepSeries, lambda: sweep_series().to_dict(), {"parameter_values": {}, "accuracies": {}},
         "SweepSeries parameter_values must be a list, got {}"),
    ],
    ids=["headline", "target", "d_star", "d_star_null", "ci95_string", "ci95_object", "configured_policy", "best_policy",
         "margin", "series_objects"],
)
def test_a_field_of_another_json_type_is_named(cls, build, changes, named):
    with pytest.raises(TypeError, match=f"^{re.escape(named)}$"):
        cls.from_dict({**build(), **changes})


def bool_in_cells():
    data = certain_accept()
    data["outcome_table"][0]["probability"] = True
    return EvalResult, data


def bool_in_counts():
    data = one_of(SimEstimate).to_dict()
    data["outcome_counts"][1]["count"] = False  # an empty cell
    return SimEstimate, data


def bool_in_margins():
    data = tied_compare().to_dict()
    data["margins"]["routine_accept"] = False
    return PolicyComparison, data


def bool_in_interval():
    data = one_of(SimEstimate).to_dict()
    data["ci95"][1] = True
    return SimEstimate, data


# a bool inside a table, the margins or an interval, where the field itself is no bool
@pytest.mark.parametrize(
    "build,named",
    [
        (bool_in_cells, "EvalResult outcome_table[0]['probability'] must be a number, got True"),
        (bool_in_counts, "SimEstimate outcome_counts[1]['count'] must be an int, got False"),
        (bool_in_margins, "PolicyComparison margins['routine_accept'] must be a number, got False"),
        (bool_in_interval, "SimEstimate ci95[1] must be a number, got True"),
    ],
    ids=["cells", "counts", "margins", "interval"],
)
def test_a_bool_inside_a_field_is_a_type_error_naming_it(build, named):
    cls, data = build()
    with pytest.raises(TypeError, match=f"^{re.escape(named)}$"):
        cls.from_dict(data)


def with_row(data, key, i, row):
    """`data` with row `i` of its table under `key` replaced by `row`."""
    return {**data, key: [row if j == i else r for j, r in enumerate(data[key])]}


# each record's cell table: (class, data, table key, value key)
TABLES = [
    pytest.param(EvalResult, certain_accept, "outcome_table", "probability", id="EvalResult"),
    pytest.param(SimEstimate, lambda: one_of(SimEstimate).to_dict(), "outcome_counts", "count", id="SimEstimate"),
]
FLAGS = ("advice_correct", "accepted_or_used", "final_correct")


@pytest.mark.parametrize("cls,build,table,value", TABLES)
def test_a_cell_flag_must_be_a_bool_not_its_equal_int(cls, build, table, value):
    # 1 and 0 hash equal to True and False, so they read back as the cell
    data = build()
    for flag in FLAGS:
        for i, row in enumerate(data[table]):
            named = f"{cls.__name__} {table}[{i}]['{flag}'] must be a bool, got {int(row[flag])}"
            with pytest.raises(TypeError, match=f"^{re.escape(named)}$"):
                cls.from_dict(with_row(data, table, i, {**row, flag: int(row[flag])}))
    named = f"{cls.__name__} {table}[2]['accepted_or_used'] must be a bool, got 'x'"
    with pytest.raises(TypeError, match=f"^{re.escape(named)}$"):
        cls.from_dict(with_row(data, table, 2, {**data[table][2], "accepted_or_used": "x", "final_correct": None}))
    named = f"{cls.__name__} {table}[7]['advice_correct'] must be a bool, got 0"
    with pytest.raises(TypeError, match=f"^{re.escape(named)}$"):
        cls.from_dict(with_row(data, table, 7, {**data[table][7], **dict.fromkeys(FLAGS, 0)}))


@pytest.mark.parametrize("cls,build,table,value", TABLES)
def test_a_cell_row_is_a_mapping_of_exactly_its_four_keys(cls, build, table, value):
    data = build()
    row = data[table][3]
    with pytest.raises(ValueError, match=rf"^{cls.__name__} {table}\[3\] has no field 'bogus', 'extra'$"):
        cls.from_dict(with_row(data, table, 3, {**row, "extra": 1, "bogus": None}))
    for junk in (None, [], "row", 1.0):
        named = f"{cls.__name__} {table}[3] must be an object, got {junk!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(named)}$"):
            cls.from_dict(with_row(data, table, 3, junk))
    for key in (*FLAGS, value):
        with pytest.raises(KeyError) as err:
            cls.from_dict(with_row(data, table, 3, {k: v for k, v in row.items() if k != key}))
        assert err.value.args == (key,)
    assert cls.from_dict(data).to_dict() == data


@pytest.mark.parametrize("cls,build,table,value", TABLES)
def test_a_repeated_cell_row_is_named(cls, build, table, value):
    # the first row's cell again, holding the whole table: a dict of the rows
    # kept the later row and wrote back 8 of the 9
    data = build()
    first = data[table][0]
    repeated = {**data, table: [{**first, value: data[table][0][value] or 1}, *data[table]]}
    cell = tuple(first[flag] for flag in FLAGS)
    with pytest.raises(ValueError, match=f"^{cls.__name__} {table}\\[1\\] repeats cell {re.escape(str(cell))}$"):
        cls.from_dict(repeated)
    # eight rows with one cell twice cover seven cells
    twice = {**data, table: [*data[table][:7], data[table][0]]}
    with pytest.raises(ValueError, match=f"^{cls.__name__} {table}\\[7\\] repeats cell {re.escape(str(cell))}$"):
        cls.from_dict(twice)


def notes_of_compared(data, notes):
    data["results"]["routine_ignore"]["notes"] = notes


def notes_of(data, notes):
    data["notes"] = notes


@pytest.mark.parametrize("notes", ["degradation_mode defaulted", "", [1, None], ["a", 2], {"a": 1}, ("a",), None])
@pytest.mark.parametrize(
    "cls,place",
    [(EvalResult, notes_of), (PolicyComparison, notes_of), (PolicyComparison, notes_of_compared)],
    ids=["EvalResult", "PolicyComparison", "compared"],
)
def test_notes_must_be_a_list_of_strings(cls, place, notes):
    # a string read back as one note per letter, and a mapping as its keys
    data = tied_compare().to_dict()
    if cls is EvalResult:
        data = data["results"]["routine_ignore"]
    place(data, notes)
    owner = {notes_of: cls.__name__, notes_of_compared: "PolicyComparison results['routine_ignore']"}[place]
    if isinstance(notes, list):
        i, item = next((i, item) for i, item in enumerate(notes) if not isinstance(item, str))
        named = f"{owner} notes[{i}] must be a string, got {item!r}"
    else:
        named = f"{owner} notes must be a list, got {notes!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(named)}$"):
        cls.from_dict(data)


@pytest.mark.parametrize("cls", [EvalResult, PolicyComparison], ids=lambda cls: cls.__name__)
def test_notes_of_strings_read_back(cls):
    data = {**one_of(cls).to_dict(), "notes": ["one", "two"]}
    result = cls.from_dict(data)
    assert result.notes == ("one", "two") and result.to_dict() == data


def test_an_estimate_past_float_range_reads_back():
    # every trial in one cell: n_trials / n_trials is 1.0, and std_err is 0.0
    n = 10**400
    rows = [dict(zip(FLAGS, cell), count=n if cell == (True, True, True) else 0) for cell in OUTCOME_CELLS]
    data = dict(p_hat=1.0, n_trials=n, std_err=0.0, ci95=[1.0, 1.0], seed=1, n_shards=1, outcome_counts=rows,
                advice_correct_count=n, user_correct_count=0, either_correct_count=n)
    assert SimEstimate.from_dict(data).to_dict() == data
    with pytest.raises(ValueError, match="^SimEstimate std_err inconsistent with p_hat and n_trials$"):
        SimEstimate.from_dict({**data, "std_err": 0.5})


@pytest.mark.parametrize(
    "p_hat,cell", [(1.0 + 5e-10, (True, True, True)), (-5e-10, (False, False, False))], ids=["above_1", "below_0"]
)
def test_a_p_hat_past_an_end_within_the_count_slack_is_named(p_hat, cell):
    # every trial in one cell, all correct or none: p_hat is within 1e-9 of
    # the count's 1 or 0, but not a probability, so std_err cannot be computed
    n = 10
    rows = [dict(zip(FLAGS, c), count=n if c == cell else 0) for c in OUTCOME_CELLS]
    advice = n if cell[0] else 0
    data = dict(p_hat=p_hat, n_trials=n, std_err=0.0, ci95=[0.0, 1.0], seed=1, n_shards=1, outcome_counts=rows,
                advice_correct_count=advice, user_correct_count=0, either_correct_count=advice)
    with pytest.raises(ValueError, match=rf"^SimEstimate p_hat {re.escape(repr(p_hat))} not in \[0, 1\]$"):
        SimEstimate.from_dict(data)


def test_a_negative_seed_reads_back():
    # `estimate_accuracy` takes any integer seed, modulo 2**64
    data = {**one_of(SimEstimate).to_dict(), "seed": -3}
    assert SimEstimate.from_dict(data).to_dict() == data


@pytest.mark.parametrize(
    "key,value,named",
    [
        ("parameter_values", [0.0, 0.25, "x", 0.75, 1.0], "parameter_values[2] must be a number, got 'x'"),
        ("parameter_values", [0.0, 0.25, None, 0.75, 1.0], "parameter_values[2] must be a number, got None"),
        ("parameter_values", [0.0, 0.25, True, 0.75, 1.0], "parameter_values[2] must be a number, got True"),
        ("accuracies", [0.5, 0.5, 9.0, "x", None], "accuracies[3] must be a number, got 'x'"),
        ("routine_accept_reference", "0.7", "routine_accept_reference must be a number, got '0.7'"),
        ("parameter_path", ["aid"], "parameter_path must be a string, got ['aid']"),
    ],
)
def test_a_sweep_value_of_another_json_type_is_named(key, value, named):
    with pytest.raises(TypeError, match=f"^SweepSeries {re.escape(named)}$"):
        SweepSeries.from_dict({**sweep_series().to_dict(), key: value})


@pytest.mark.parametrize(
    "key,value,named",
    [
        ("parameter_values", [0.0, 0.25, float("inf"), 0.75, 1.0], "parameter_values cannot hold inf"),
        ("accuracies", [0.5, 0.5, 9.0, 0.5, 0.5], "accuracies cannot hold 9.0"),
        ("accuracies", [0.5, 0.5, 0.5, 0.5, -0.1], "accuracies cannot hold -0.1"),
        ("accuracies", [0.5, 0.5, 0.5, 0.5, float("nan")], "accuracies cannot hold nan"),
        ("unaided_reference", 7.0, "unaided_reference cannot hold 7.0"),
        ("parameter_path", "no.such", "parameter_path 'no.such' is no probability of the schema"),
        ("parameter_path", "policy.type", "parameter_path 'policy.type' is no probability of the schema"),
        *(
            # integers past float range
            pytest.param(key, value, f"{key} cannot hold {huge}", id=f"{key}-{sign}10**400")
            for key, value, huge, sign in [
                ("parameter_values", [0.0, 0.25, 0.5, 0.75, 10**400], 10**400, "+"),
                ("parameter_values", [-(10**400), 0.25, 0.5, 0.75, 1.0], -(10**400), "-"),
                ("accuracies", [0.5, 0.5, 0.5, 0.5, 10**400], 10**400, "+"),
                ("accuracies", [-(10**400), 0.5, 0.5, 0.5, 0.5], -(10**400), "-"),
                ("unaided_reference", 10**400, 10**400, "+"),
                ("routine_accept_reference", -(10**400), -(10**400), "-"),
            ]
        ),
    ],
)
def test_a_bad_sweep_value_is_named(key, value, named):
    with pytest.raises(ValueError, match=f"^SweepSeries {named}$"):
        SweepSeries.from_dict({**sweep_series().to_dict(), key: value})


@pytest.mark.parametrize("points", [0, 1])
def test_a_series_of_fewer_than_2_points_is_refused(points):
    # no grid has fewer than 2 points (`SweepSpec` needs steps >= 2); an empty one read back
    data = sweep_series().to_dict()
    data.update(parameter_values=data["parameter_values"][:points], accuracies=data["accuracies"][:points])
    with pytest.raises(ValueError, match=f"^SweepSeries parameter_values must hold at least 2 points, got {points}$"):
        SweepSeries.from_dict(data)


# JSON integers past float range: each is refused by the check of its field
HUGE = [10**400, -(10**400)]
HUGE_IDS = ["+10**400", "-10**400"]


@pytest.mark.parametrize("huge", HUGE, ids=HUGE_IDS)
@pytest.mark.parametrize("compared", [False, True], ids=["alone", "compared"])
def test_a_huge_accept_marginal_is_named(compared, huge):
    data = tied_compare().to_dict()
    data["results"]["routine_ignore"]["p_accept_marginal"] = huge
    owner = r"PolicyComparison results\['routine_ignore'\]" if compared else "EvalResult"
    with pytest.raises(ValueError, match=f"^{owner} p_accept_marginal {huge} is not the accepted mass"):
        if compared:
            PolicyComparison.from_dict(data)
        else:
            EvalResult.from_dict(data["results"]["routine_ignore"])


@pytest.mark.parametrize(
    "huge,named",
    zip(HUGE, [rf"margins\['routine_accept'\] {10**400} is not", "margins must be >= 0$"]),
    ids=HUGE_IDS,
)
def test_a_huge_margin_is_refused(huge, named):
    data = tied_compare().to_dict()
    data["margins"]["routine_accept"] = huge
    with pytest.raises(ValueError, match=f"^PolicyComparison {named}"):
        PolicyComparison.from_dict(data)


@pytest.mark.parametrize("huge", HUGE, ids=HUGE_IDS)
@pytest.mark.parametrize(
    "key,named",
    [("p_hat", "p_hat {} is not the final-correct count"), ("std_err", "std_err inconsistent")],
    ids=["p_hat", "std_err"],
)
def test_a_huge_estimate_is_named(key, named, huge):
    with pytest.raises(ValueError, match=f"^SimEstimate {named.format(huge)}"):
        SimEstimate.from_dict({**one_of(SimEstimate).to_dict(), key: huge})


@pytest.mark.parametrize(
    "cls,key", [(SimEstimate, "std_err"), (EvalResult, "p_accept_marginal")], ids=["std_err", "p_accept_marginal"]
)
def test_a_number_as_a_string_is_a_type_error(cls, key):
    data = one_of(cls).to_dict()
    text = str(data[key])
    with pytest.raises(TypeError, match=f"^{cls.__name__} {key} must be a number, got '{text}'$"):
        cls.from_dict({**data, key: text})


def test_a_sweep_over_any_leaf_reads_back():
    scenario = make_scenario(policy=SelfGated(0.8, 0.3), dependency=Joint(0.45))
    for path in scenario.leaves:
        series = run_sweep(SweepSpec(scenario, path, scenario.leaves[path], scenario.leaves[path], 2))
        assert SweepSeries.from_dict(series.to_dict()) == series


def test_an_unattainable_break_even_still_reads_back_its_null():
    result = unattainable_breakeven()
    assert result.to_dict()["accuracy_at_d_star"] is None
    assert BreakevenResult.from_dict(result.to_dict()) == result


def test_an_unknown_key_in_a_compared_result_is_named():
    data = tied_compare().to_dict()
    data["results"]["routine_ignore"]["bogus"] = 1
    with pytest.raises(ValueError, match=r"^PolicyComparison results\['routine_ignore'\] has no field 'bogus'$"):
        PolicyComparison.from_dict(data)


@pytest.mark.parametrize("cls", RESULT_TYPES, ids=lambda cls: cls.__name__)
def test_wire_table_is_derived_from_the_annotations_and_codecs(cls):
    keys = [key for key, _, _ in cls._WIRE]
    assert sorted(keys) == sorted(cls._fields)
    assert set(cls._CODECS) <= set(cls._fields)
    for key, encode, read in cls._WIRE:
        assert (encode, read) == cls._CODECS.get(key, _SHAPES.get(cls.__annotations__[key]))


def test_an_annotation_with_no_json_shape_fails_at_class_creation():
    # annotations held as text, as in the package's modules
    with pytest.raises(TypeError, match="^Odd when has no JSON shape for its annotation 'complex'$"):

        @_record
        class Odd(_Wire):
            when: complex

    @_record
    class Stated(_Wire):
        when: complex

        _CODECS = {"when": (str, lambda value, where: complex(value))}

    assert Stated.from_dict(Stated(1j).to_dict()) == Stated(1j)
