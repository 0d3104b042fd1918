"""Results lock: SHA-256 of the full result of a corpus of small runs.

Where ``test_golden_regression.py`` freezes five counters of four
cases, this file freezes *everything* a run reports — the whole
``result_to_dict`` payload (latency samples, per-VC and per-node
counts included) plus the engine's whole-run counters — for every
registered algorithm, with and without faults, at a moderate and a
saturating load, and for the engine's rare paths (watchdog drain,
count and starvation re-arm, hop-cap livelock drain, single-flit
messages, one-flit buffers, several injection VCs and
``cycles_mode="auto"``).  Any change to RNG
consumption, arbitration order, routing or accounting shifts a digest.

A deliberate behavior change re-versions the engine and regenerates
the table::

    PYTHONPATH=src:tests python -c "import test_engine_results_lock as t; t.print_digests()"
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.evaluator import deadlock_policy
from repro.faults.generator import generate_block_fault_pattern
from repro.faults.pattern import FaultPattern
from repro.routing.registry import ALGORITHM_NAMES, make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import Simulation
from repro.topology.mesh import Mesh2D
from repro.util.serialization import result_to_dict

WIDTH = 6
#: Offered loads in messages/node/cycle for 8-flit messages: moderate
#: (0.16 flits/node/cycle) and past saturation (0.48).
LOADS = {"moderate": 0.02, "saturated": 0.06}

BASE = dict(
    width=WIDTH,
    vcs_per_channel=24,
    message_length=8,
    cycles=500,
    warmup=100,
    collect_vc_stats=True,
    collect_node_stats=True,
    collect_latency_samples=True,
)

#: Rare engine paths: (algorithm, faulty?, config overrides).
RARE = {
    "drain": ("fully-adaptive", True, dict(
        injection_rate=0.08, on_deadlock="drain", deadlock_timeout=40)),
    "count": ("nhop", True, dict(
        injection_rate=0.08, on_deadlock="count", deadlock_timeout=40)),
    "starve": ("ecube", False, dict(
        injection_rate=0.06, vcs_per_channel=5, on_deadlock="raise",
        deadlock_timeout=20)),
    "livelock": ("fully-adaptive", False, dict(
        injection_rate=0.08, on_deadlock="drain", max_hops_factor=1)),
    "length1": ("duato-nbc", True, dict(
        injection_rate=0.3, message_length=1, on_deadlock="drain")),
    "depth1": ("pbc", False, dict(
        injection_rate=0.04, buffer_depth=1, on_deadlock="raise")),
    "injvcs2": ("boura-ft", True, dict(
        injection_rate=0.05, injection_vcs=2, on_deadlock="drain")),
    "auto": ("duato", False, dict(
        injection_rate=0.02, cycles=3000, cycles_mode="auto",
        cycles_window=100, ci_rel_tol=0.2, on_deadlock="raise")),
}


def _faults(faulty: bool, seed: int) -> FaultPattern:
    mesh = Mesh2D(WIDTH)
    if not faulty:
        return FaultPattern.fault_free(mesh)
    return generate_block_fault_pattern(mesh, 4, random.Random(seed))


def _digest(algorithm: str, faulty: bool, seed: int, **overrides) -> str:
    faults = _faults(faulty, seed)
    alg = make_algorithm(algorithm)
    params = dict(BASE, seed=seed)
    params.setdefault("on_deadlock", deadlock_policy(alg, faults))
    params.update(overrides)
    sim = Simulation(SimConfig(**params), alg, faults)
    payload = {
        "result": result_to_dict(sim.run()),
        "cycle": sim.cycle,
        "totals": [sim.total_generated, sim.total_delivered,
                   sim.total_dropped],
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _corpus() -> dict[str, tuple]:
    """Case id -> ``(algorithm, faulty, seed, overrides)``."""
    cases = {}
    for i, algorithm in enumerate(ALGORITHM_NAMES):
        for faulty in (False, True):
            for load, rate in LOADS.items():
                tag = "faulty" if faulty else "free"
                cases[f"{algorithm}/{tag}/{load}"] = (
                    algorithm, faulty, 100 + i, dict(injection_rate=rate))
    for name, (algorithm, faulty, overrides) in RARE.items():
        cases[f"rare/{name}"] = (algorithm, faulty, 7, overrides)
    return cases


CORPUS = _corpus()


def print_digests() -> None:
    """Print the ``LOCK`` table for the current engine (regeneration)."""
    print("LOCK = {")
    for case, (algorithm, faulty, seed, overrides) in CORPUS.items():
        print(f'    "{case}":\n        "'
              f'{_digest(algorithm, faulty, seed, **overrides)}",')
    print("}")


LOCK = {
    "phop/free/moderate":
        "329ecdf8d9cf4ec604c7127bd3c6ad4e2e03108db45bbfef735fb0b09d1920c8",
    "phop/free/saturated":
        "d9a49596349baace2724561ee59d46c5c9889be8fde4d48ea531cb39d4eac8b8",
    "phop/faulty/moderate":
        "2f5e8c71dd0c511128580e19fc826f160a52163b7513dae9b0cd244abb1b51ff",
    "phop/faulty/saturated":
        "a97847f5db207d34885114587d099fa23c5eb15de0e6d6d79ccab0f67bc686bb",
    "nhop/free/moderate":
        "c1cc1097f7be129ca961e2fb0c49325acce2d1904a4eb1618b747ee3a4a7ffb3",
    "nhop/free/saturated":
        "566dd5c920e84581a82a27eff71e47a819c2ff05816a7696591c268891e60c70",
    "nhop/faulty/moderate":
        "b575bd5b6ed4ce4d6f845e906ceff20a95adc1986d1c1916bd989c0c1f97b69a",
    "nhop/faulty/saturated":
        "4ec41cdf1aefd6b88581dce2b14799e160acbfe21b6d6b026bc9e42335533aa2",
    "pbc/free/moderate":
        "aff9a947b8444f0fa0a32867552fd607c674c2a27b798c793a80d8f3ceadc64e",
    "pbc/free/saturated":
        "dd5899259088ca15e18823135fdd19ed5ea5dfeee756e95d5c1e64ad094cebc7",
    "pbc/faulty/moderate":
        "c296f6ef682b9919969b62d94a08863ec1612b2f49f7a563e572f940c608b174",
    "pbc/faulty/saturated":
        "b3547d5c727eebae2a8710d7916680e77359be8966a4be56537947b340526615",
    "nbc/free/moderate":
        "d8c9ff3006d79132c7f2e3d67b8afaec3c07bb262814caa3033fb0ba55be1c4f",
    "nbc/free/saturated":
        "16672dbc72814cb2ee646f0ad2bc4de5c2a115ca4de23dbca3fbc8433526b2e6",
    "nbc/faulty/moderate":
        "60a031988bc446f6c89fe291a06a7659aad048c18cae74666e876b338a9bef90",
    "nbc/faulty/saturated":
        "8074851495bac73266be65050fbb1236f7d707b14310b67388caeae1469c88c3",
    "duato/free/moderate":
        "09cf8d199145a6f7368fa1d6a5a78c93ab56eacb6ca7d8b4ca4c503a7ffcb00b",
    "duato/free/saturated":
        "d29cacb895ed5b6ee2671815b6f0c93eb01a4226b2b9f0a2ea913488acbdcc6d",
    "duato/faulty/moderate":
        "8facd947d463183dd985c092eacc98d1a6f119dfbdb294e1f64a1bbb38b467e2",
    "duato/faulty/saturated":
        "07b24ed922317ae5a7aaa63033e1ac9d355d4b72a79d9c85ca4c4e82f7ebe9f1",
    "duato-pbc/free/moderate":
        "5df8a939a32df1c207603f339bcd6b8bb0f08d4bddd6809f50f8b2ad9a70ae91",
    "duato-pbc/free/saturated":
        "882fec7ab2546eadf1802fbbe18308fcf265af24d28e5c6ddf73d69655c8be9b",
    "duato-pbc/faulty/moderate":
        "93a7a2f12355e91bb92adae2c41f81c4b2bb62daf65738e5e00e506ab114ea6a",
    "duato-pbc/faulty/saturated":
        "ec95f4a394aa8de9839956b5683bd96d7f55fb2facf080e1e7e086142c6bfed6",
    "duato-nbc/free/moderate":
        "f095fa84dbcf4e913d0c1061322795d30dc348ccbcf406b19c71b315afe27e95",
    "duato-nbc/free/saturated":
        "afa55d9ff298b3b2cd33583f74a06aa9d10f24036e728325878318fd0b3c061f",
    "duato-nbc/faulty/moderate":
        "aeb57b077e655e4f71f82de423603e7b2c86af49c913b6432cc447b5fd5ba1c1",
    "duato-nbc/faulty/saturated":
        "a0b84cbf2fa54cd1cd9e7e3cf0a4553436bffd54bba78e0ffb38192aba9c6dd2",
    "minimal-adaptive/free/moderate":
        "472fbe665397324b1cebc42a8b584ce16662f96b79fc3d6185d69c095f76f667",
    "minimal-adaptive/free/saturated":
        "4acc5c778292a50a634909d351afa468b54d9fe0c1197ec7f96a11d207d03f13",
    "minimal-adaptive/faulty/moderate":
        "36677d06f4c99c9d86b622aeac6685300364701bf0f028e1ee32e532d4c133f4",
    "minimal-adaptive/faulty/saturated":
        "689db5a17a53bc99f8a8b99b24c13dc102b3a53efd123673981a3ceb5b86c294",
    "fully-adaptive/free/moderate":
        "d0e639d9868bea02b69997a6ec8441c76322bd65464c85de9482a8d47560ba5f",
    "fully-adaptive/free/saturated":
        "ed1eba8d0303211550bd2f826f2bee4dcd69c2c96a435297a379c0b20e447a2e",
    "fully-adaptive/faulty/moderate":
        "1fbff9a173f084fcf80ac0fd0300b52d1608c6e506af463a578bde1523289252",
    "fully-adaptive/faulty/saturated":
        "de84eb8f386baf119c080f3fc7023c12f6f2e3a319e7dbbdd534c3c887e03963",
    "boura/free/moderate":
        "ec3ccc8b213a77a3a2402135fac483f214f25a9c6987365de3f687c71b3fbd22",
    "boura/free/saturated":
        "956fb71dcc68cb5341c7d92dd5281b1a8a50245fe34905f0c80389ccc0ca46c1",
    "boura/faulty/moderate":
        "1623f4131b9f88bc581cd779bed9831ce39b85b1ad6d3068907e9ae5a36c4b65",
    "boura/faulty/saturated":
        "8172b229251fe5d9d3ea8803b09a1b8d09147de89ee37973414961644dc1ca18",
    "boura-ft/free/moderate":
        "e47c4b8594c18e2e99f7dc2881459b8e9bcc7cb0f2e40066450f095df5d25b99",
    "boura-ft/free/saturated":
        "73b52325b722a2a9419b58aafa68ff827f8b42b81561c631d7c1b851910f2b5a",
    "boura-ft/faulty/moderate":
        "f6d46469388cda078955dc059428e0a752c7b412be20e1809a5a6a87885f4c8a",
    "boura-ft/faulty/saturated":
        "fe316a793aae4b338bdca398f7584aad39d68d4535ba6f43aca2e27b5cdafd42",
    "ecube/free/moderate":
        "3c964b7dda4df09e33af98557c5ac3441d7ea5478be706e19968e84664e93b83",
    "ecube/free/saturated":
        "ad34aeb4d42d1ccb7cfff45ea958b91b363460a195c47c3dd7048d5fd32e85e2",
    "ecube/faulty/moderate":
        "496f2bbd4474565827d5bbd0f3a5e908a6f4a474d14bb7338ac86ec00c66b3ea",
    "ecube/faulty/saturated":
        "1e29cba09fe46bcc9cc4877e41e04450deb214658657b70224dd4d73ef882e49",
    "west-first/free/moderate":
        "4d354414bbccc212a08342f6793b565732d770ed57a4a2241a254732e64dbc45",
    "west-first/free/saturated":
        "311b9de82d7843224dfc417ac78e48c2b6c14ed6136f5e54bbc20a584db16522",
    "west-first/faulty/moderate":
        "27953feeb45c9034e62ef9a9b027c91834e017bc30a994cbfcbb6fd3c31fedd2",
    "west-first/faulty/saturated":
        "289412cfec934bf49b053e31a391ac11da1c1997632118af11ab5675f159b804",
    "rare/drain":
        "4098816fec523d76c66285d27db79b86a8c278c2aa86856fe0df4f36c64132a0",
    "rare/count":
        "969afef6841184cfd7a9174b4ff47ed6b369f2ec2bce1445d345b9fa49a8c4ef",
    "rare/starve":
        "b0b469ec45ef58d06c210b2bd39d0e0e0c906790ffa893fbf4bb1527eb2f3dcb",
    "rare/livelock":
        "7792fc25eebad933803546ed826044b7c6928ac72e8bdb2ec36cdba57144788f",
    "rare/length1":
        "a237a8b85f6af0a92460149432e4702cba43ba3a29ac1784ff1b345d8de5b6b1",
    "rare/depth1":
        "05a5525f66e58957d4c4d7ca622ce08bace8a7b3ce87137232571a9235e6c5c4",
    "rare/injvcs2":
        "d1fb1fb2b3736a33edecf65917bc20792566dd0ef95449300744ec7b2a972067",
    "rare/auto":
        "272df0ef0b2bc4775251cd0bdaf4fe9b3078200a08b075fff0547e8975776ef7",
}


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_results_lock(case):
    algorithm, faulty, seed, overrides = CORPUS[case]
    assert _digest(algorithm, faulty, seed, **overrides) == LOCK[case]


def test_lock_covers_every_algorithm_and_rare_path():
    assert sorted(LOCK) == sorted(CORPUS)
    assert len(ALGORITHM_NAMES) * 2 * len(LOADS) + len(RARE) == len(CORPUS)
