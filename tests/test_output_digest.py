"""Bitwise outputs: the digests of three bundled runs, their adjoint stores
and one x-t map must equal the lines in tests/data/output_digest.txt.

A run's line is `<config> <strategy> <sha256> cell_steps=<n>` as
`scripts/output_digest.py`'s `digest_run` prints it: every gauge series and
every output frame of one `run_forward`.  Adjoint lines end with
`store=<sha256>` of the store's snapshot times and values, so a change to
the adjoint solve shows even when it flips no flag.  The last line is
`1d-interface.cfg xt=<sha256>` of `run_xt_map` at threshold 0.1.

The files the command line writes for one config must equal the lines in
tests/data/output_file_digest.txt, as `output_digest.py --files` prints
them: `<config> <file> <sha256>` for each file of `run-adjoint`,
`run-forward` and `compare`, wall times masked.  A change that alters
outputs on purpose regenerates both files (see README) and says why in
CHANGES.md.
"""

import importlib.util
import os
import sys

from adjamr.config import parse_config
from adjamr.driver import run_adjoint

ROOT = os.path.join(os.path.dirname(__file__), "..")
RUNS = (("2d-walls-timepoint.cfg", ("adjoint", "difference")), ("swe-basin.cfg", ("adjoint",)))
XT_CONFIG = "1d-interface.cfg"
FILES_CONFIG = "2d-walls-timepoint.cfg"


def _output_digest():
    path = os.path.join(ROOT, "scripts", "output_digest.py")
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _config(name):
    with open(os.path.join(ROOT, "configs", name)) as f:
        return parse_config(f.read())


def digest_lines():
    """The digest line of each run in RUNS (adjoint runs get an in-memory
    store), then the x-t map's."""
    module = _output_digest()
    for name, strategies in RUNS:
        cfg = _config(name)
        store, _ = run_adjoint(cfg)
        for strategy in strategies:
            if strategy == "adjoint":
                yield (f"{name} {module.digest_run(cfg, strategy, store)}"
                       f" store={module.store_digest(store)}")
            else:
                yield f"{name} {module.digest_run(cfg, strategy, None)}"
    cfg = _config(XT_CONFIG)
    yield f"{XT_CONFIG} xt={module.xt_digest(cfg, run_adjoint(cfg)[0])}"


def file_digest_lines():
    """The `--files` line of every file the command line writes for FILES_CONFIG."""
    return _output_digest().digest_files(os.path.join(ROOT, "configs", FILES_CONFIG))


def _recorded(name):
    with open(os.path.join(ROOT, "tests", "data", name)) as f:
        return f.read().splitlines()


def test_outputs_are_bitwise_those_recorded():
    assert list(digest_lines()) == _recorded("output_digest.txt")


def test_command_line_files_are_bitwise_those_recorded():
    assert list(file_digest_lines()) == _recorded("output_file_digest.txt")


if __name__ == "__main__":
    # regenerate: PYTHONPATH=src python3 tests/test_output_digest.py > tests/data/output_digest.txt
    # and, with --files, > tests/data/output_file_digest.txt
    for line in file_digest_lines() if sys.argv[1:] == ["--files"] else digest_lines():
        print(line)
