"""The JSON wire form of the five result types: pinned bytes and from_dict's keys.

`to_dict()` is the CLI's `result` object; the CLI goldens pin the shapes it
prints.  The goldens here pin the shapes no CLI run covers.  `from_dict`
treats `notes` as optional, names any other missing key in a KeyError and
any unknown key in a ValueError.
"""

import hashlib
import json

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
    EvalResult,
    Independent,
    Indiscriminate,
    Joint,
    SelfGated,
    UserProfile,
)
from reliance.simulate import SimEstimate, estimate_accuracy
from reliance.sweep import SweepSeries, SweepSpec, run_sweep

from conftest import make_scenario

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
    with pytest.raises(TypeError, match=f"^{cls.__name__}.from_dict needs a mapping, got list$"):
        cls.from_dict([])


def test_a_non_mapping_compared_result_is_named():
    data = tied_compare().to_dict()
    data["results"]["routine_ignore"] = "0.6"
    with pytest.raises(TypeError, match="^EvalResult.from_dict needs a mapping, got str$"):
        PolicyComparison.from_dict(data)


def test_an_unknown_key_in_a_compared_result_is_named():
    data = tied_compare().to_dict()
    data["results"]["routine_ignore"]["bogus"] = 1
    with pytest.raises(ValueError, match="^EvalResult has no field 'bogus'$"):
        PolicyComparison.from_dict(data)


@pytest.mark.parametrize("cls", RESULT_TYPES, ids=lambda cls: cls.__name__)
def test_wire_table_is_derived_from_the_fields_and_codecs(cls):
    keys = [key for key, _, _ in cls._WIRE]
    assert sorted(keys) == sorted(cls._fields)
    assert set(cls._CODECS) <= set(cls._fields)
    for key, encode, decode in cls._WIRE:
        assert (encode, decode) == cls._CODECS.get(key, (None, None))
