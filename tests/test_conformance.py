"""Closed forms against the Monte Carlo engine, cell by cell.

Every policy under an independent dependency, a joint one (interior and both
Frechet-Hoeffding ends) and a dominant one, in both degradation modes, and
the two policies with the most structure at edge marginals: the headline and
each of the eight outcome cells of `evaluate` must lie within 5 standard
errors of a fixed-seed 10^6-trial estimate, and the estimate's JSON must
hash to its pinned sha256.
"""

import hashlib
import itertools
import json
import math

import pytest

from reliance.analytic import evaluate
from reliance.model import (
    OUTCOME_CELLS,
    Discriminating,
    Dominant,
    Independent,
    Indiscriminate,
    Joint,
    RoutineAccept,
    RoutineIgnore,
    SelfGated,
)
from reliance.simulate import estimate_accuracy

from conftest import make_scenario

N_TRIALS = 10**6
Z = 5.0

POLICIES = {
    "self_gated": SelfGated(0.8, 0.3),
    "discriminating": Discriminating(0.7, 0.3),
    "indiscriminate": Indiscriminate(0.5),
    "routine_accept": RoutineAccept(),
    "routine_ignore": RoutineIgnore(),
}
# name -> (p_advice_correct, p_unaided_correct, dependency); .7 and .6 bound
# P(both correct) to [.3, .6]
DEPENDENCIES = {
    "joint_interior": (0.7, 0.6, Joint(0.45)),
    "joint_lower_end": (0.7, 0.6, Joint(0.3)),
    "joint_upper_end": (0.7, 0.6, Joint(0.6)),
    "dominant": (0.7, 0.6, Dominant()),
    "independent": (0.7, 0.6, Independent()),
}
# Edge marginals under each dependency they admit (a joint value there is
# pinned by the Frechet-Hoeffding bounds), and joint values inside the 1e-9
# validation slack past each end.
EDGES = {
    "advice_0-independent": (0.0, 0.6, Independent()),
    "advice_0-joint": (0.0, 0.6, Joint(0.0)),
    "advice_1-independent": (1.0, 0.6, Independent()),
    "advice_1-joint": (1.0, 0.6, Joint(0.6)),
    "advice_1-dominant": (1.0, 0.6, Dominant()),
    "advice_1e-300-independent": (1e-300, 0.6, Independent()),
    "advice_1e-300-joint": (1e-300, 0.6, Joint(1e-300)),
    "unaided_0-independent": (0.7, 0.0, Independent()),
    "unaided_0-joint": (0.7, 0.0, Joint(0.0)),
    "unaided_0-dominant": (0.7, 0.0, Dominant()),
    "unaided_1-independent": (0.7, 1.0, Independent()),
    "unaided_1-joint": (0.7, 1.0, Joint(0.7)),
    "joint_past_upper_end_in_slack": (0.7, 0.6, Joint(0.6 + 5e-10)),
    "joint_past_lower_end_in_slack": (0.7, 0.6, Joint(0.3 - 5e-10)),
}
MODES = ("fixed_rate", "conditional_from_joint")
CASES = list(itertools.product(POLICIES, DEPENDENCIES, MODES))
# self_gated ignores the mode; discriminating keeps the latent answer after a
# rejection, at edges that empty an advice cell or sit at a bound's end
CASES += itertools.product(("self_gated", "discriminating"), EDGES, ("conditional_from_joint",))
# case id -> sha256 of json.dumps(estimate.to_dict()), key order included:
# determinism checked against a golden value, not run against run.
GOLDEN_SHA = {
    "self_gated-joint_interior-fixed_rate": "22eb1291c5c422000f5c271129e2598e4ab5fadcf7392c3ecbaa4994dc458387",
    "self_gated-joint_interior-conditional_from_joint": "6aa8c6d59b0652b7b7c385c9f9deee3552b4f24dbe46201f738a6b6b9cb30aa2",
    "self_gated-joint_lower_end-fixed_rate": "1c29d742d1c9c9029ceb0e8f42bcdc99849f283a2dac4ead9e728655a01a3d1d",
    "self_gated-joint_lower_end-conditional_from_joint": "32511f24f48354609f01f8ca41a37b92c911c7120452595dbe3770d1b4c05429",
    "self_gated-joint_upper_end-fixed_rate": "811a1fcb8132c522a4f74f1f8599ae0e92452330a8ef876a5a19479bc8ec1c75",
    "self_gated-joint_upper_end-conditional_from_joint": "6fd61cdac8432d1822743885e2d9fab13feb7caf5231ca66387a6eaef6f566e1",
    "self_gated-dominant-fixed_rate": "f43f1e51a5863d03aedb5e7b7f0b0d8e3e25a12e055fb162c6fff4d640327b39",
    "self_gated-dominant-conditional_from_joint": "480572c390d2bfb61a9731e105eecb810a1bd3c1db28de2fd5d5e3f38f6e9605",
    "self_gated-independent-fixed_rate": "e0dc2bec57845595eb2d6e698faa9c98ea5e74f7d36b72d557c9e06ee92d583b",
    "self_gated-independent-conditional_from_joint": "50486c81638f90f70a1877e6e229124f9cb58bfd6caf6890eb57f3767362a488",
    "discriminating-joint_interior-fixed_rate": "bbacc4aa1399bb32641c4c6aac7e1a508633722618704b5f5f1b3725778a5696",
    "discriminating-joint_interior-conditional_from_joint": "74cf84d5e667a01a43fcfcc929fdcd2aac511745b115c807739cccb28e2504f7",
    "discriminating-joint_lower_end-fixed_rate": "9028fbd509851c91c525c25204259e995d2149b95dfb9a6c2b303b2e35396c0c",
    "discriminating-joint_lower_end-conditional_from_joint": "68a71609d2294315ad6acbcda8dd4f7deb9999d6557ab7b38afd5ef6f96ade20",
    "discriminating-joint_upper_end-fixed_rate": "cda67968bbbdde21470cf1c59a88a63d0abcf4eb09afa05fdb48e331ac34e7e5",
    "discriminating-joint_upper_end-conditional_from_joint": "eb916f3f11aecbdeb5f34c37da6128372ca4cb74b73569aeb6974ac4f7e6823b",
    "discriminating-dominant-fixed_rate": "4be6aa77985912933631c4171614dd5f8a9d6f3d7030a86f73842548e6d5c0d5",
    "discriminating-dominant-conditional_from_joint": "702167f71bcc7d715658fe513fee9a2bf64cfa54d63e79b980354f376cb3bdef",
    "discriminating-independent-fixed_rate": "73c21d3a5f630ffc187abbad1be6fc65730c501b69d9755341c905bc83811720",
    "discriminating-independent-conditional_from_joint": "5edc2f1b1eba2c6e82c792f08c78089176498c0f228e91fc60fc443dbfb1b936",
    "indiscriminate-joint_interior-fixed_rate": "bd4d6b11cbcafba0df3d2cf9b5b4d0b5df137b55da7bb76b0ef911a50b9c36ee",
    "indiscriminate-joint_interior-conditional_from_joint": "b814a3bee906dfcdf37da24b6ed2a8a95102d57b98aaf3eecce109aff7afd506",
    "indiscriminate-joint_lower_end-fixed_rate": "79fb745b47fb856fbbeb4b53533880c121b582f0126cb82495eddc20d6c99f96",
    "indiscriminate-joint_lower_end-conditional_from_joint": "1f503381aca22ff40a4306818a346159386af9215d5ef81850a1715b4c4937e5",
    "indiscriminate-joint_upper_end-fixed_rate": "7f57e9073cc64e3e68b94dd960e807b12700eeee98b2132a41e7b6a3f3dffa97",
    "indiscriminate-joint_upper_end-conditional_from_joint": "4dacfe6a6ff783f329ed81676ea448b3d0dd741ad5bfeb1ef42bf2f52d95f7a5",
    "indiscriminate-dominant-fixed_rate": "27dcf5dc3fca58897799c323b4e479a3f09bf336355e12e1f668a1b484d70ec2",
    "indiscriminate-dominant-conditional_from_joint": "b41d70e2a171f983381df97e074394b76d39b04b6c243ecbcbfba0366bc65782",
    "indiscriminate-independent-fixed_rate": "3052c892ee79f400eed69513184a257771f4c3a70a179547908af8b91311ec68",
    "indiscriminate-independent-conditional_from_joint": "8aa4288777b4019ae4bb2bc268ba37557fb3cebc58e39f0fac0a97852eb73675",
    "routine_accept-joint_interior-fixed_rate": "47b67638c19d3d57f8648a73b07016a15fa7410ebb347aa18064a60881769648",
    "routine_accept-joint_interior-conditional_from_joint": "f9d3045ea82f8af4c2199d17207f9d6bc6dbe5899b4e5f8f867fa5c82aefe013",
    "routine_accept-joint_lower_end-fixed_rate": "8841fc53f5f21a7afe6731172131fef56cbf17e089653fbe534d7aa6525bad9b",
    "routine_accept-joint_lower_end-conditional_from_joint": "f9e9a7e246e7327e45cf8e65dac938a363bade8c4fce53aaed5f6390fc362961",
    "routine_accept-joint_upper_end-fixed_rate": "5dfaaa7769704054096113cf23a10225439d226f75ccae174149f56b8f3bd168",
    "routine_accept-joint_upper_end-conditional_from_joint": "66754d9d63ba147d72ed6e6670ffa208e6ab8b98cc51fb64765c4c8a69950f8c",
    "routine_accept-dominant-fixed_rate": "e26ce674ae9a364badefba5c76c0959c149ccaf7aba904c0bff09894c1a6c0c1",
    "routine_accept-dominant-conditional_from_joint": "10b18fb43b6d1cf1d1eabc9561ffe50425f4e3d3fba8a9c40af51a1dce3e95ff",
    "routine_accept-independent-fixed_rate": "6cfcc0729cdce3bef982094279b438197be10138118fdc2b49427e2a4352654d",
    "routine_accept-independent-conditional_from_joint": "f539a3a3534ef245d696665500014e672e049314b5c676b34b34620b7eba70d2",
    "routine_ignore-joint_interior-fixed_rate": "98087254557e58859af7190b5ef5610d0bf7a2529014fb64a87d7cec5111328b",
    "routine_ignore-joint_interior-conditional_from_joint": "afc75db4b9af6bd0398ba4e0eaa5d88b70b989cdbc78626cf48213eb4e0c2e58",
    "routine_ignore-joint_lower_end-fixed_rate": "ff19f93b86551ad2bfa7516a8cc63960013d3baf32ede1f8d2b4433e8b5c8804",
    "routine_ignore-joint_lower_end-conditional_from_joint": "89bc8cbc6c8f09e5f3890a06df48e450f397ffe0a29522728dc3a8ea24d0cc7b",
    "routine_ignore-joint_upper_end-fixed_rate": "43a9328d8216ad4af6831d76c5019efec0007ab51b3e3d13fb325bc06c823c4b",
    "routine_ignore-joint_upper_end-conditional_from_joint": "deaee3c0854a43a756deeee84369022ad4670120fa8dc53704954882d1f2fb28",
    "routine_ignore-dominant-fixed_rate": "3826a7f84248d703ba44e83401edc42534e467a8dc0ebcb5ccc19e13bd513826",
    "routine_ignore-dominant-conditional_from_joint": "4178ebbe3fa96edaf925af5a85681b8cc2015c91125f4d33e4d2f9646eb79326",
    "routine_ignore-independent-fixed_rate": "553e0034c01ee8fa3e99b28660b78709617d9fdbca0747dd3ceaba135b52e564",
    "routine_ignore-independent-conditional_from_joint": "ccce1e001d2934e633db6fb2d20851859cf07799c5c27bfee4465430ef2ad0af",
    "self_gated-advice_0-independent-conditional_from_joint": "a32d8947d00e7643a7a133e7c57e05b162eea04d905f519a30b912c373d223ca",
    "self_gated-advice_0-joint-conditional_from_joint": "7235d50c4331423042a225204f4c9fc0b013dec6d30a0b205cf8df03ebab6f36",
    "self_gated-advice_1-independent-conditional_from_joint": "74d0aa205f98784fa762521958a38bce9f49b461e91c1ba6f6c7c4120d603741",
    "self_gated-advice_1-joint-conditional_from_joint": "22a2441fb5ffc22146a848451d7e9a5f4094284314f046315f73a65e5136d745",
    "self_gated-advice_1-dominant-conditional_from_joint": "829eefc9d9c4fef0ed366e2ab6bae52180dbe1d2c3965dbdda8a6be93a56f813",
    "self_gated-advice_1e-300-independent-conditional_from_joint": "cafb8a6b8424b81da178c5f41b17eae7c6ebab6a8a5e33042bba6921428358d7",
    "self_gated-advice_1e-300-joint-conditional_from_joint": "bd38f180ea4a77c3708c2d00fb1557e67cdbb06944c1732de349f41fd53e7afd",
    "self_gated-unaided_0-independent-conditional_from_joint": "50eebc2f7d02beb3120b13162e703a7813cf84e2c6ef31cc286fca61503357db",
    "self_gated-unaided_0-joint-conditional_from_joint": "6b384790b62b7dade03e9eaba6b90196f216162f3b948c05124722bc814d83ba",
    "self_gated-unaided_0-dominant-conditional_from_joint": "7f2d403261ec187bcec76e55a84e45e499b413330ac6502e42ce47c75a793bba",
    "self_gated-unaided_1-independent-conditional_from_joint": "3f0676f5dafc04fde2f6327a216eb5edafdf601458de04b691b635ce216378ec",
    "self_gated-unaided_1-joint-conditional_from_joint": "6b333ec4184c8eb7b426051990de1a39bae35f5c2dd825fc35a93790290da543",
    "self_gated-joint_past_upper_end_in_slack-conditional_from_joint": "78326f70317255c53cf7b62fb7f27e93f370eac6cfaaa315014c43a1a80f158b",
    "self_gated-joint_past_lower_end_in_slack-conditional_from_joint": "a3382bbd7ba9bb2a65e62c354d3f73bce632e028232821fcd5ebd50f648c8055",
    "discriminating-advice_0-independent-conditional_from_joint": "629d2a7e990355480eb9525756a9ab607fa95c61296d44f1ae3d10f1689e770e",
    "discriminating-advice_0-joint-conditional_from_joint": "dab526de179bd5218151462f0979ca4286d9447496df97fa22e6e2a3bcba5d0f",
    "discriminating-advice_1-independent-conditional_from_joint": "495247014ce8808631eb1ef92c93ae779bfae9f0315a44336e0f0f9f8c015330",
    "discriminating-advice_1-joint-conditional_from_joint": "3678fb665e2514836b9d8c4c158ccc693a1e25d3795924d20a6c766950895797",
    "discriminating-advice_1-dominant-conditional_from_joint": "2b73c016e7051ba2058e1edf1fbc91c658fbffbf88abe8de4fb2465837d174b0",
    "discriminating-advice_1e-300-independent-conditional_from_joint": "2196a0414188d413c49d6c2cd9f4ea7a12d6e1da3473aec3a7529747846f8bbb",
    "discriminating-advice_1e-300-joint-conditional_from_joint": "5a8c6dcbaa82b0ffbd690396643c05b5ffd53fbf40a72a96c8b0dd7d1ad442e4",
    "discriminating-unaided_0-independent-conditional_from_joint": "3bad328ad122c484413de3a186bc73f488c309a0ed498963d93eaec772001a60",
    "discriminating-unaided_0-joint-conditional_from_joint": "7a22cb30bf46e6e4ef06d8671820034aba587ad569fe33e0792148df83d4f3af",
    "discriminating-unaided_0-dominant-conditional_from_joint": "dfec7f907486597411bc495481a71a4f9af398658a044c811ed072ae53b63b30",
    "discriminating-unaided_1-independent-conditional_from_joint": "75a1ce953c6fd9a2dc852f8a88fddb6174a64419a68d7d393c015cd3b4bee0a7",
    "discriminating-unaided_1-joint-conditional_from_joint": "1ba988ba799cb8f7447cda37a6ff73dab04b7447711053a0a56b04fb12b9d05a",
    "discriminating-joint_past_upper_end_in_slack-conditional_from_joint": "4d9a46de294d7bdac6565a1d43975393a4dacb02fe7814625e791deaa2d8c1fa",
    "discriminating-joint_past_lower_end_in_slack-conditional_from_joint": "e969545643a1cd07cc38d0fc4cd90cd18f900c1b3a68772eb9a21e1f12efa788",
}


def within(count: int, mass: float) -> bool:
    """An observed count against an exact mass, 5 standard errors either way;
    a zero mass must count exactly 0."""
    se = math.sqrt(mass * (1.0 - mass) / N_TRIALS)
    return abs(count / N_TRIALS - mass) <= Z * se


@pytest.mark.parametrize("policy,dependency,mode", CASES, ids=["-".join(case) for case in CASES])
def test_closed_form_matches_simulation(policy, dependency, mode):
    p_a, p_u, dep = (DEPENDENCIES | EDGES)[dependency]
    # a post-rejection rate at most the unaided one, so that nothing warns
    scenario = make_scenario(p_a, p_u, min(0.4, p_u), POLICIES[policy], dep, mode)
    closed = evaluate(scenario)
    estimate = estimate_accuracy(scenario, N_TRIALS, seed=CASES.index((policy, dependency, mode)))
    correct = sum(count for (_, _, final), count in estimate.outcome_counts.items() if final)
    assert within(correct, closed.p_correct_aided)
    for cell in OUTCOME_CELLS:
        assert within(estimate.outcome_counts[cell], closed.outcome_table[cell]), cell
    digest = hashlib.sha256(json.dumps(estimate.to_dict()).encode()).hexdigest()
    assert digest == GOLDEN_SHA["-".join((policy, dependency, mode))]
