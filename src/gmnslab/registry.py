"""Append-only run registry with content hashes of every artifact.

Identical configurations must reproduce identical artifact bytes; the
registry records (config hash -> output hashes) so a re-run that drifts is
caught as a regression.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass

REGISTRY_NAME = "registry.jsonl"


class DivergenceError(RuntimeError):
    """A re-run of a registered configuration produced different bytes."""


@dataclass
class RunRecord:
    config_hash: str
    experiment: str
    outputs: dict
    passed: bool
    timestamp: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def config_hash(canonical_json: str) -> str:
    return hashlib.sha256(canonical_json.encode()).hexdigest()


def hash_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def registry_path(out_dir: str) -> str:
    return os.path.join(out_dir, REGISTRY_NAME)


def load_records(out_dir: str) -> list[RunRecord]:
    path = registry_path(out_dir)
    if not os.path.exists(path):
        return []
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                d = json.loads(line)
                records.append(RunRecord(**d))
    return records


def register_run(
    out_dir: str, chash: str, experiment: str, artifact_paths: list[str], passed: bool
) -> RunRecord:
    """Hash artifacts, verify against any previous record of the same config,
    and append the new record (single-writer discipline)."""
    outputs = {
        os.path.relpath(p, out_dir): hash_file(p) for p in sorted(artifact_paths)
    }
    for prev in load_records(out_dir):
        if prev.config_hash == chash and prev.outputs != outputs:
            changed = sorted(
                k for k in set(prev.outputs) | set(outputs)
                if prev.outputs.get(k) != outputs.get(k)
            )
            raise DivergenceError(
                f"registered config {chash[:12]} produced different artifact "
                f"bytes on re-run; changed: {changed}"
            )
    record = RunRecord(chash, experiment, outputs, bool(passed), time.time())
    with open(registry_path(out_dir), "a") as fh:
        fh.write(record.to_json() + "\n")
    return record
