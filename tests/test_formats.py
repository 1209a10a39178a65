"""The on-disk formats stay byte-stable across refactors.

Each pin is the SHA-256 of bytes the format code writes for fixed input:
the stock config's content hash, its rendered ``resolved.ini``, the
adapter and merged checkpoints of a small hand-built set, and the round log
of the controller tests' adversarial records. A change to any of them
changes every run directory, so it must be deliberate.
"""

import hashlib

import numpy as np

from policyprune.adapters import LoraAdapter, MergedAdapterSet, SiteFactors
from policyprune.configio import config_hash, load_run_config, render_ini
from policyprune.container import save_adapters, save_merged
from policyprune.controller import append_round_log

from test_controller import _adversarial_records

STOCK_CONFIG_HASH = "0f02a7d0e2458d9f37fad368ae070e25ff661f528ba07e9b8e19340c915ee9e0"
STOCK_INI_SHA256 = "f9d17073affe19a5eca304c5c29cc811cef48d3f50d2edb83d15640c62b69c65"
ADAPTERS_SHA256 = "fb649516407d907323bf786d3eeab2795be1ade180549344adf6dff5ecda272a"
MERGED_SHA256 = "4d01fbd4f02866c87fbccc09f6b49f37b9d159e409c516a519c0b5886634d02a"
ROUND_LOG_SHA256 = "57917ec44334d93732329154896c86acc716724d90126540a9e168cb92afbb64"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_config_and_checkpoint_bytes_are_pinned(tmp_path):
    cfg = load_run_config(env={})
    assert config_hash(cfg) == STOCK_CONFIG_HASH
    assert _sha256(render_ini(cfg).encode()) == STOCK_INI_SHA256

    adapters = [
        LoraAdapter("q", a=np.arange(6.0).reshape(2, 3) / 7,
                    b=np.arange(8.0).reshape(4, 2) - 2.5, rank=2, alpha=16.0),
        LoraAdapter("v", a=np.full((1, 3), -0.125),
                    b=np.array([[1e-300], [3.0]]), rank=1, alpha=3.5),
    ]
    merged = MergedAdapterSet(SiteFactors(ad.site_id, ad.a, ad.b) for ad in adapters)
    save_adapters(tmp_path / "a.ckpt", adapters, kind="source", seed=7, config_hash="abc")
    save_merged(tmp_path / "m.ckpt", merged, kind="final")
    assert _sha256((tmp_path / "a.ckpt").read_bytes()) == ADAPTERS_SHA256
    assert _sha256((tmp_path / "m.ckpt").read_bytes()) == MERGED_SHA256


def test_round_log_bytes_are_pinned(tmp_path):
    path = tmp_path / "rounds.jsonl"
    for rec in _adversarial_records():
        append_round_log(path, rec)
    assert _sha256(path.read_bytes()) == ROUND_LOG_SHA256
