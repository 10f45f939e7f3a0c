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


def test_json_writer_matches_json_dumps_on_every_golden_payload(monkeypatch, capsys):
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda args, payload: payloads.append(payload))
    for record in RECORDS:
        main(list(record["argv"]))
    capsys.readouterr()
    objects = [p for p in payloads if not isinstance(p, str)]
    assert len(objects) > len(RECORDS) // 2
    for obj in objects:
        assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)
