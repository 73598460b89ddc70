"""Bitwise outputs: the digests of three bundled runs must equal the lines
in tests/data/output_digest.txt.

Each line is `<config> <strategy> <sha256> cell_steps=<n>` as
`scripts/output_digest.py`'s `digest_run` prints it: every gauge series and
every output frame of one `run_forward`.  A change that alters outputs on
purpose regenerates the file (see README) and says why in CHANGES.md.
"""

import importlib.util
import os

from adjamr.config import parse_config
from adjamr.driver import run_adjoint

ROOT = os.path.join(os.path.dirname(__file__), "..")
RUNS = (("2d-walls-timepoint.cfg", ("adjoint", "difference")), ("swe-basin.cfg", ("adjoint",)))


def _output_digest():
    path = os.path.join(ROOT, "scripts", "output_digest.py")
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest_lines():
    """The digest line of each run in RUNS; adjoint runs get an in-memory store."""
    digest_run = _output_digest().digest_run
    for name, strategies in RUNS:
        with open(os.path.join(ROOT, "configs", name)) as f:
            cfg = parse_config(f.read())
        store, _ = run_adjoint(cfg)
        for strategy in strategies:
            yield f"{name} {digest_run(cfg, strategy, store if strategy == 'adjoint' else None)}"


def test_outputs_are_bitwise_those_recorded():
    with open(os.path.join(ROOT, "tests", "data", "output_digest.txt")) as f:
        want = f.read().splitlines()
    assert list(digest_lines()) == want


if __name__ == "__main__":
    # regenerate: PYTHONPATH=src python3 tests/test_output_digest.py > tests/data/output_digest.txt
    for line in digest_lines():
        print(line)
