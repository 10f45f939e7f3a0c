"""Byte-identical CLI output: every call in tests/golden/cli.json.gz is
replayed and must reproduce its recorded stdout and exit code.

The recorded set is written by tests/make_cli_golden.py.
"""

import gzip
import json
import os

import pytest

from cayleypoly.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli.json.gz")

with gzip.open(GOLDEN, "rt", encoding="utf-8") as _handle:
    RECORDS = json.load(_handle)


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_output_matches_golden(record, capsys):
    code = main(list(record["argv"]))
    assert capsys.readouterr().out == record["stdout"]
    assert code == record["code"]
