"""Golden observer artifacts: the files every observer writes stay byte-identical.

The observers (telemetry, the flight recorder and profiler, the obs
attribution engine, the divergence ledger) are pure observation, so any
rework of their hot paths must leave what they export unchanged.  This
test runs the CI bench smoke with every artifact directory set and pins the
sha256 of each file it writes, plus the Perfetto trace of one small
telemetry-attached platform.  The digests were captured before the
observers' per-event paths were reworked (DESIGN.md §20).

``fig5.metrics.json`` is pinned with one series removed:
``divergence.ledger.seal_ns`` times the ledger's window seal on the *host*
clock, so it differs between any two runs of the same code.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.systemc.time import SimTime
from repro.telemetry import chrome_trace, enable_telemetry

from tests.test_telemetry_instrument import WFI_GUEST, make_vp

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: sha256 of each artifact of ``repro.bench fig5 --scale 0.002`` with
#: ``--obs-dir --telemetry-dir --profile-dir --ledger-dir`` all set
ARTIFACTS = {
    "fig5.journal.jsonl":
        "62d4e7a50da2a3be74b482de8095e32317706cb46e96955adc8858f35c15e83a",
    "fig5.ledger.json":
        "f58d0f4bafd1480a48ee2afcac17c07802dafb9b95b1e0a94d61419e87439cde",
    "fig5.obs.json":
        "3a3a1d6fa2b91f6bd061a5c71385be9ec777fe7f3e9a9f013a25c30174d847ac",
    "fig5.obs.jsonl":
        "8e76d35ab8b5a764c36ba61da2fea80a8718d7679769aa20e2a4058d22d2d35d",
    "fig5.profile.folded":
        "618e6c5bcc3da6d65f3ff9fcf67da3e356a452b944db717b6f792bb7f4caef33",
    "fig5.profile.json":
        "2a2d375d3a9e4bd1993f7d997bc687fda76f3715905e69c9feb85c0b6af410de",
}

#: sha256 of ``fig5.metrics.json`` without the host-timed seal series,
#: re-serialized with sorted keys
METRICS = "33510f741f277a2aea8a2932ae187ca85a6236d5725d959b324b688c31a6edb9"

#: the metrics series that reads the host clock
HOST_TIMED_SERIES = "divergence.ledger.seal_ns"

#: sha256 of the Perfetto trace of :func:`_small_trace`, sorted keys
CHROME_TRACE = "2c04b1366dde3a4408c70c731d3e1bc9939dc09b93c3ec1d382a467ac1f25101"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _metrics_digest(path: str) -> str:
    with open(path) as stream:
        document = json.load(stream)
    document["metrics"] = [metric for metric in document["metrics"]
                           if metric["name"] != HOST_TIMED_SERIES]
    return _sha256(json.dumps(document, sort_keys=True).encode())


def _small_trace() -> dict:
    """Two parallel cores idling in annotated WFI between timer ticks:
    host spans, MMIO flows, utilization counters and WFI sim spans."""
    vp = make_vp(source=WFI_GUEST, cores=2, parallel=True, annotations=True)
    telemetry = enable_telemetry(vp)
    vp.run(SimTime.ms(50))
    return chrome_trace(telemetry)


@pytest.fixture(scope="module")
def bench_artifacts(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("observers"))
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    # One paper claim fails at this scale, independent of the observers,
    # so the exit code is not the gate here (as in the CI smoke step).
    subprocess.run(
        [sys.executable, "-m", "repro.bench", "fig5", "--scale", "0.002",
         "--obs-dir", out, "--telemetry-dir", out, "--profile-dir", out,
         "--ledger-dir", out],
        cwd=REPO, env=env, stdout=subprocess.DEVNULL, check=False)
    return out


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_bench_artifact_matches_golden(bench_artifacts, name):
    with open(os.path.join(bench_artifacts, name), "rb") as stream:
        digest = _sha256(stream.read())
    assert digest == ARTIFACTS[name], (
        f"{name} moved; if deliberate, set ARTIFACTS[{name!r}] to {digest!r}")


def test_bench_metrics_match_golden(bench_artifacts):
    digest = _metrics_digest(os.path.join(bench_artifacts, "fig5.metrics.json"))
    assert digest == METRICS, (
        f"fig5.metrics.json moved; if deliberate, set METRICS to {digest!r}")


def test_chrome_trace_matches_golden():
    digest = _sha256(json.dumps(_small_trace(), sort_keys=True).encode())
    assert digest == CHROME_TRACE, (
        f"the Perfetto trace moved; if deliberate, set CHROME_TRACE to "
        f"{digest!r}")
