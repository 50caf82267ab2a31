import hashlib
import json

import pytest
from hypothesis import HealthCheck, settings

from puregate.certificate import keypair_from_seed
from puregate.fixtures import PURE_V1, certified_bundle
from puregate.whitelist import builtin_whitelist

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

CERTIFIER_SEED = bytes(range(32))
ENV_SEED = bytes(range(1, 33))
ROGUE_SEED = bytes(range(2, 34))
FIXED_NOW = 1_700_000_000


def bare_digest(doc) -> bytes:
    """SHA-256 of sorted-key compact JSON, independent of puregate.canonical."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).digest()


@pytest.fixture(scope="session")
def certifier_key():
    return keypair_from_seed(CERTIFIER_SEED)


@pytest.fixture(scope="session")
def env_keypair():
    return keypair_from_seed(ENV_SEED)


@pytest.fixture(scope="session")
def rogue_key():
    return keypair_from_seed(ROGUE_SEED)


@pytest.fixture(scope="session")
def wl_v1():
    return builtin_whitelist(1)


@pytest.fixture(scope="session")
def wl_v2():
    return builtin_whitelist(2)


@pytest.fixture(scope="session")
def bundles(certifier_key, wl_v1):
    """(binary, proof, cert) for every fixture certifiable under version 1."""
    return {
        name: certified_bundle(name, certifier_key, wl_v1, FIXED_NOW)
        for name in PURE_V1
    }
