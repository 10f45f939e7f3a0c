"""Byte-identical CLI output: every call in tests/golden/cli.json.gz is
replayed and must reproduce its recorded stdout and exit code.

The recorded set is written by tests/make_cli_golden.py.
"""

import argparse
import gzip
import json
import os

import pytest

from cayleypoly import cli
from cayleypoly.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli.json.gz")

with gzip.open(GOLDEN, "rt", encoding="utf-8") as _handle:
    RECORDS = json.load(_handle)


def _no_argparse(*args, **kwargs):
    raise AssertionError("argparse built for a well-formed call")


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_output_matches_golden(record, capsys, monkeypatch):
    # Every recorded call is well-formed, so it is parsed from the argument
    # declarations without building argparse.
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", _no_argparse)
    code = main(list(record["argv"]))
    assert capsys.readouterr().out == record["stdout"]
    assert code == record["code"]


def _read(obj):
    """(materialized, restreamed, streamed): obj with each iterator read
    into a list, the same with each such list given back as an iterator,
    and whether obj held an iterator."""
    if isinstance(obj, dict):
        parts = {k: _read(v) for k, v in obj.items()}
        return (
            {k: m for k, (m, _, _) in parts.items()},
            {k: r for k, (_, r, _) in parts.items()},
            any(s for _, _, s in parts.values()),
        )
    if isinstance(obj, (list, tuple)) or hasattr(obj, "__next__"):
        parts = [_read(x) for x in obj]
        materialized = [m for m, _, _ in parts]
        restreamed = [r for _, r, _ in parts]
        if isinstance(obj, tuple):
            materialized, restreamed = tuple(materialized), tuple(restreamed)
        elif not isinstance(obj, list):
            return materialized, iter(restreamed), True
        return materialized, restreamed, any(s for _, _, s in parts)
    return obj, obj, False


def test_json_writer_matches_json_dumps_on_every_golden_payload(monkeypatch, capsys):
    # The cell commands give their cells as iterators: each is read into a
    # list for json.dumps, and given to the writer as an iterator again.
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda args, payload: payloads.append(payload))
    for record in RECORDS:
        main(list(record["argv"]))
    capsys.readouterr()
    objects = [_read(p) for p in payloads if isinstance(p, dict)]
    assert len(objects) > len(RECORDS) // 2
    assert sum(streamed for _, _, streamed in objects) > len(objects) // 10
    for materialized, restreamed, _ in objects:
        assert "".join(cli._json_chunks(restreamed)) == json.dumps(materialized, sort_keys=True, indent=2)
