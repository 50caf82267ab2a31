"""Ed25519 key handling shared by certificates, whitelists, and attestations.

Thin wrappers over the cryptography package: raw 32-byte seeds and public
keys, raw 64-byte signatures, lowercase hex in files. Signing here is
deterministic (pure Ed25519, no randomized variant), which the certificate
determinism guarantees rely on.
"""

from __future__ import annotations

import os
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .canonical import parse_hex

SEED_BYTES = 32
PUBLIC_KEY_BYTES = 32
SIGNATURE_BYTES = 64


class SigningError(ValueError):
    """Key material is malformed (wrong length, bad hex, unreadable file)."""


def generate_seed() -> bytes:
    return os.urandom(SEED_BYTES)


def private_key_from_seed(seed: bytes) -> Ed25519PrivateKey:
    if len(seed) != SEED_BYTES:
        raise SigningError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
    return Ed25519PrivateKey.from_private_bytes(seed)


def public_key_bytes(private_key: Ed25519PrivateKey) -> bytes:
    from cryptography.hazmat.primitives.serialization import (
        Encoding,
        PublicFormat,
    )

    return private_key.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


def sign(private_key: Ed25519PrivateKey, message: bytes) -> bytes:
    """Sign with a key parsed once (private_key_from_seed): deriving the
    key from its seed costs about as much as the signature itself."""
    return private_key.sign(message)


# Count of verify() calls since process start or the last reset. Lets tests
# prove that a cached acceptance path performs zero signature verifications.
verify_call_count = 0


def reset_verify_call_count() -> None:
    global verify_call_count
    verify_call_count = 0


def verify(public_key: bytes, signature: bytes, message: bytes) -> bool:
    global verify_call_count
    verify_call_count += 1
    if len(public_key) != PUBLIC_KEY_BYTES or len(signature) != SIGNATURE_BYTES:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except InvalidSignature:
        return False
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# key files: one lowercase-hex seed per .key file, public half in .pub
# ---------------------------------------------------------------------------

def save_keypair(path: Path, seed: bytes) -> Path:
    """Write <path>.key (seed) and <path>.pub (public key); returns .key path."""
    key_path = path.with_suffix(".key")
    pub_path = path.with_suffix(".pub")
    key_path.parent.mkdir(parents=True, exist_ok=True)
    key_path.write_text(seed.hex() + "\n")
    os.chmod(key_path, 0o600)
    pub_path.write_text(public_key_bytes(private_key_from_seed(seed)).hex() + "\n")
    return key_path


def load_seed(path: Path) -> bytes:
    return _read_hex(path, SEED_BYTES, "private key seed")


def load_public_key(path: Path) -> bytes:
    return _read_hex(path, PUBLIC_KEY_BYTES, "public key")


def _read_hex(path: Path, nbytes: int, what: str) -> bytes:
    try:
        return parse_hex(Path(path).read_text().strip(), nbytes, what)
    except (OSError, ValueError) as exc:
        raise SigningError(f"cannot read {what} from {path}: {exc}") from exc
