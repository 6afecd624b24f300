"""Golden lock on the cache keys, plus the per-network key-content memo.

Every persistent-cache entry lives under a :func:`network_key` or a
:func:`simulation_key`, so a change to how either is derived silently
orphans every cache directory already on disk.  The fixture pins a digest
of both keys over the six Table IV presets x the Fig. 8 designs plus two
``B(...)`` points x all four categories x the default and the quick
sampling options, per workload.  A rewrite of the key derivation must
keep these bytes: a cache written before it still answers after it.

Regenerate (ONLY together with a ``SIMULATION_KEY_VERSION`` or
``NETWORK_KEY_VERSION`` bump)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_key_golden.py -q
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from pathlib import Path

import pytest

from repro.config import ModelCategory
from repro.dse.evaluate import EvalSettings, parse_design
from repro.sim.engine import (
    NETWORK_KEY_VERSION,
    SIMULATION_KEY_VERSION,
    SimulationOptions,
    network_key,
    simulation_key,
)
from repro.workloads.models import Network, network_fingerprint
from repro.workloads.registry import benchmark, parse_workload

GOLDEN_PATH = Path(__file__).parent / "golden" / "key_golden.json"

PRESETS = ("AlexNet", "GoogleNet", "ResNet50", "InceptionV3", "MobileNetV2", "BERT")

DESIGNS = (
    "Baseline", "Sparse.B*", "Sparse.A*", "Sparse.AB*", "Griffin",
    "BitTactical", "TensorDash", "SparTen",
    "B(4,0,1,on)", "B(2,1,0,off)",
)

OPTIONS = {
    "default": SimulationOptions(),
    "quick": EvalSettings().options,
}


def _workload_digests(name: str) -> dict[str, str]:
    """sha256 over every network key and every layer simulation key."""
    network = benchmark(name).network
    net_hash = hashlib.sha256()
    sim_hash = hashlib.sha256()
    for design_name in DESIGNS:
        design = parse_design(design_name)
        for category in ModelCategory:
            config = design.config_for(category)
            for options in OPTIONS.values():
                net_hash.update(
                    network_key(network, config, category, options).encode()
                )
                for layer in network.layers:
                    sim_hash.update(simulation_key(
                        tuple(layer.spec.gemms()), layer.weight_density,
                        layer.act_density, config, category, options,
                    ).encode())
    return {"network": net_hash.hexdigest(), "simulation": sim_hash.hexdigest()}


def _load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(f"{GOLDEN_PATH} is missing; regenerate with REPRO_REGEN_GOLDEN=1")
    return json.loads(GOLDEN_PATH.read_text())


def test_regenerate_key_golden():
    """Writes the fixture when REPRO_REGEN_GOLDEN=1; otherwise a no-op."""
    if os.environ.get("REPRO_REGEN_GOLDEN", "0") != "1":
        pytest.skip("set REPRO_REGEN_GOLDEN=1 to regenerate the fixture")
    payload = {
        "key_versions": {
            "simulation": SIMULATION_KEY_VERSION,
            "network": NETWORK_KEY_VERSION,
        },
        "designs": list(DESIGNS),
        "options": {label: opts.to_dict() for label, opts in OPTIONS.items()},
        "digests": {name: _workload_digests(name) for name in PRESETS},
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_golden_grid_unchanged():
    golden = _load_golden()
    assert golden["key_versions"] == {
        "simulation": SIMULATION_KEY_VERSION,
        "network": NETWORK_KEY_VERSION,
    }
    assert golden["designs"] == list(DESIGNS)
    assert golden["options"] == {
        label: opts.to_dict() for label, opts in OPTIONS.items()
    }
    assert sorted(golden["digests"]) == sorted(PRESETS)


@pytest.mark.parametrize("name", PRESETS)
def test_keys_match_golden(name):
    """Network and layer keys are byte-identical to the recorded ones."""
    assert _workload_digests(name) == _load_golden()["digests"][name]


def _fresh_resnet() -> Network:
    """An equal copy of the ResNet50 preset with no memo on it yet."""
    preset = benchmark("ResNet50").network
    return Network(name=preset.name, layers=preset.layers)


class TestKeyContentMemo:
    CONFIG = parse_design("Sparse.B*").config_for(ModelCategory.B)

    def key(self, network: Network) -> str:
        return network_key(network, self.CONFIG, ModelCategory.B, OPTIONS["quick"])

    def test_memo_is_per_instance_and_reused(self):
        network = _fresh_resnet()
        assert "key_content" not in vars(network)
        first = network.key_content
        assert network.key_content is first
        assert network.fingerprint == first.fingerprint

    def test_equality_and_hash_ignore_the_memo(self):
        warm, cold = _fresh_resnet(), _fresh_resnet()
        self.key(warm)
        assert "key_content" in vars(warm) and "key_content" not in vars(cold)
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)

    def test_pickling_ignores_the_memo(self):
        network = _fresh_resnet()
        before = pickle.dumps(network)
        key = self.key(network)
        assert pickle.dumps(network) == before
        restored = pickle.loads(before)
        assert restored == network
        assert "key_content" not in vars(restored)
        assert self.key(restored) == key

    def test_replace_gets_its_own_key(self):
        network = _fresh_resnet()
        key = self.key(network)
        renamed = dataclasses.replace(network, name="ResNet50-copy")
        fewer = dataclasses.replace(network, layers=network.layers[:-1])
        denser = dataclasses.replace(
            network,
            layers=(dataclasses.replace(network.layers[0], weight_density=1.0),)
            + network.layers[1:],
        )
        keys = {key, self.key(renamed), self.key(fewer), self.key(denser)}
        assert len(keys) == 4
        assert network.fingerprint not in {
            renamed.fingerprint, fewer.fingerprint, denser.fingerprint
        }

    def test_override_workload_gets_its_own_key(self):
        preset = benchmark("ResNet50").network
        derived = parse_workload("ResNet50:weight_sparsity=0.9").network
        assert derived.fingerprint != preset.fingerprint
        assert self.key(derived) != self.key(preset)
        # The memo agrees with the from-scratch fingerprint function.
        rebuilt = Network(name=derived.name, layers=derived.layers)
        assert network_fingerprint(rebuilt) == derived.fingerprint
        assert self.key(rebuilt) == self.key(derived)
