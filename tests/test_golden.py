"""Pinned byte output of the four built-in preset artifacts.

These hashes freeze the CSV/JSON serialization; any change to the solver
numerics, tie-breaking, or export format shows up here first.
"""

import hashlib
import os
from pathlib import Path

import pytest

from decayq import validate
from decayq.cli import main
from decayq.presets import preset_by_id
from decayq.solver import policy_iteration, value_iteration

GOLDEN_SHA256 = {
    "1a_boundaries.json": "129fedf5396daa8b76b9c53b430883ab46f809b9aa74e056fc57e5761c6f4108",
    "1a_policy.csv": "c4325b9b6a09cf0877db93cf2cdb96a2644e5a28dc30068fb6bcac52712afe4b",
    "1a_report.json": "85df827e958403807d8b8b553cc93e6c12a4a0ef71bf1d3c75a8a60c8afd164f",
    "1b_boundaries.json": "d42f28fb7b1bbc2dd8550108744d286a29d116ac4fc0a10a5534d71b78a2a1bd",
    "1b_policy.csv": "088a1bc964c1f2942970d842502c983031dc30c8b4b65b7460eadda325dd0fa0",
    "1b_report.json": "1b78d5e9849e08ea1e783001398548347749c115cfb688c0cd7cc06bf4b7e872",
    "1c_boundaries.json": "68cebbdfa3928270a182f6f8b7f477cabc42c701a3e85a2599507b993ee73e99",
    "1c_policy.csv": "c5c4d08e4549e8150abaf80775dca9e7323925a3449a0a1b2ce5bc7e09a8596c",
    "1c_report.json": "46a9e6bf407b0fe816e3e5ea4619129f86d4d33baa55b45c1a9f17c62972b858",
    "1d_boundaries.json": "0a29cde62110a03f3ee044510366cae50a852f872f8c4d7b998b35c861336159",
    "1d_policy.csv": "6c22da7fc2b08d0aa2fe1e9471044c462099acb3e73a5157b8c8113e06127c29",
    "1d_report.json": "00dddf0472febf507363e500353a2a3bdbd4fe9a0076fd71d558a8b6ce6896be",
    "manifest.json": "ab10953faf9ecda29bb36d132e2256dcc8dd36926130d7ffb3566ec526342b0a",
}


# to_csv() of value_iteration and policy_iteration on each preset, and the
# stdout of `simulate --config demos/sample_config.json --n 2000 --seed 0`.
# The VI/PI tests elsewhere allow a 1e-9 gap; these catch a last-bit change.
SOLVER_SHA256 = {
    "1a_vi.csv": "49010a1163dda901d93c5cd64ea18b04eb8f558df25983da95572e5b4b2aa6d6",
    "1a_pi.csv": "49010a1163dda901d93c5cd64ea18b04eb8f558df25983da95572e5b4b2aa6d6",
    "1b_vi.csv": "d174683cdbb6d19d69b476902b608d52dd57066388f3115985c5293432e968aa",
    "1b_pi.csv": "d174683cdbb6d19d69b476902b608d52dd57066388f3115985c5293432e968aa",
    "1c_vi.csv": "94796b0f9e79e24e709e4009abfc8c1c028350d4bf880fd76964541586daa5ec",
    "1c_pi.csv": "94796b0f9e79e24e709e4009abfc8c1c028350d4bf880fd76964541586daa5ec",
    "1d_vi.csv": "e5ac8e73c8aba04788953a7cd2574764c9c926e7532cda6564b6f8d314efe8ab",
    "1d_pi.csv": "e5ac8e73c8aba04788953a7cd2574764c9c926e7532cda6564b6f8d314efe8ab",
    "simulate_stdout": "e8cc4c1b700d3e9ac02b80373da4910b5671387314a21c4e4500d0ac85322063",
}

SAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "sample_config.json"
_SOLVERS = {"vi": value_iteration, "pi": policy_iteration}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    assert main(["figures", "--out", str(out)]) == 0
    return out


def test_no_unexpected_artifacts(artifacts):
    assert sorted(os.listdir(artifacts)) == sorted(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_artifact_bytes_pinned(artifacts, name):
    digest = hashlib.sha256((artifacts / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]


@pytest.mark.parametrize("preset_id", ["1a", "1b", "1c", "1d"])
@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_solver_csv_pinned(preset_id, solver):
    model = validate(preset_by_id(preset_id).config)
    csv = _SOLVERS[solver](model).to_csv()
    assert _sha256(csv) == SOLVER_SHA256[f"{preset_id}_{solver}.csv"]


def test_simulate_stdout_pinned(capsys):
    argv = ["simulate", "--config", str(SAMPLE_CONFIG), "--n", "2000", "--seed", "0"]
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out) == SOLVER_SHA256["simulate_stdout"]
