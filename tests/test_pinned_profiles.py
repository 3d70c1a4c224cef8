"""The 112 registry profiles are a contract: one pinned digest of the table.

Every point key hashes its app's profile, so a profile that drew a
different value would re-key (and re-simulate) every figure that uses it.
The digest below is the SHA-256 of the canonical JSON (``sort_keys``) of
``{name: dataclasses.asdict(profile)}`` over ``all_profiles()``; it was
printed by the commit before the profile draws moved off numpy, so it also
proves the in-repo generator reproduces numpy's draws for every app.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.workloads import all_profiles

PINNED_PROFILE_TABLE = "7cb003863ebce5fc21fc7ceb29c8244045d372f5c4f502bcc1c40746b7756564"


def test_profile_table_is_pinned():
    profiles = all_profiles()
    assert len(profiles) == 112
    table = {name: dataclasses.asdict(p) for name, p in profiles.items()}
    blob = json.dumps(table, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_PROFILE_TABLE
