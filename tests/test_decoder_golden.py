"""The decoder's outcome on every input of a seeded mutation corpus is frozen.

Both decode_header and parse_module must give, for every input, the decoded
value or the exception class and message recorded in
tests/golden/decoder_corpus.json (see _decoder_corpus.py).
"""

import hashlib
import json

from _decoder_corpus import GOLDEN, differences, recipes

from puregate.fixtures import fixture_binary

OUTCOME_KEYS = ("header", "module")


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_fixtures_are_the_frozen_ones():
    for name, digest in _golden()["fixtures"].items():
        assert hashlib.sha256(fixture_binary(name)).hexdigest() == digest, name


def test_corpus_recipes_regenerate():
    cases = [
        {k: v for k, v in case.items() if k not in OUTCOME_KEYS}
        for case in _golden()["cases"]
    ]
    assert cases == recipes()


def test_every_outcome_matches_the_golden():
    golden = _golden()
    mismatches = list(differences(golden))
    assert not mismatches, f"{len(mismatches)} differ, first: {mismatches[0]}"
    assert len(golden["cases"]) > 2500
