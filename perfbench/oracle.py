"""Correctness checks: pinned digests plus checks that need no pin.

Pins live in ``pins.json`` as ``{engine_version: {seed: {name: digest}}}``.
A pin is consulted only at the seed it was recorded for and only while
``ENGINE_VERSION`` matches; otherwise the output reports as *unpinned*
(never as passing and never silently).  Refresh the pins after a
deliberate engine re-version with ``python3 perfbench/pin.py``
(see README.md).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")

PINNED = "pinned"
MISMATCH = "mismatch"
UNPINNED = "unpinned"


def digest(payload) -> str:
    """SHA-256 of the canonical JSON form of *payload*."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins(path: Path = PINS_PATH) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def check_pin(pins: dict, engine_version: int, seed: int, name: str,
              value: str) -> str:
    """``pinned`` (matches), ``mismatch`` (fails) or ``unpinned``."""
    expected = pins.get(str(engine_version), {}).get(str(seed), {}).get(name)
    if expected is None:
        return UNPINNED
    return PINNED if expected == value else MISMATCH


def record_pins(path: Path, engine_version: int, seed: int,
                values: dict[str, str]) -> None:
    pins = load_pins(path)
    pins.setdefault(str(engine_version), {}).setdefault(str(seed), {}).update(
        values
    )
    path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def conservation_balance(sim) -> int:
    """generated - delivered - dropped - outstanding; 0 when consistent.

    Outstanding messages are queued at their source, still streaming
    into the router, or holding flits in a network buffer; a message
    mid-injection is in the last two and is counted once.
    """
    in_network = set()
    for invc in list(sim.iter_active_vcs()) + list(sim.iter_blocked_headers()):
        for flit in invc.buffer:
            in_network.add(flit[0].id)
    streaming = {s.msg.id for streams in sim._streams for s in streams}
    queued = sum(len(q) for q in sim._queues)
    outstanding = len(in_network | streaming) + queued
    return (
        sim.total_generated - sim.total_delivered - sim.total_dropped
        - outstanding
    )


def engine_checks(sim, result_dict: dict) -> list[str]:
    """Pin-free checks on one finished engine case; returns failures."""
    problems = []
    balance = conservation_balance(sim)
    if balance != 0:
        problems.append(f"conservation balance {balance} != 0")
    try:
        sim.check_invariants()
    except AssertionError as exc:
        problems.append(f"check_invariants: {exc}")
    if result_dict["delivered"] < 1:
        problems.append("no message delivered in the measured window")
    if sim.total_delivered < result_dict["delivered"]:
        problems.append("whole-run deliveries below the measured window's")
    return problems
