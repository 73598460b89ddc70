"""Bitwise outputs: the digests of three bundled runs, their adjoint stores
and one x-t map must equal the lines in tests/data/output_digest.txt.

A run's line is `<config> <strategy> <sha256> cell_steps=<n>` as
`scripts/output_digest.py`'s `digest_run` prints it: every gauge series and
every output frame of one `run_forward`.  Adjoint lines end with
`store=<sha256>` of the store's snapshot times and values, so a change to
the adjoint solve shows even when it flips no flag.  The last line is
`1d-interface.cfg xt=<sha256>` of `run_xt_map` at threshold 0.1.  A change
that alters outputs on purpose regenerates the file (see README) and says
why in CHANGES.md.
"""

import importlib.util
import os

from adjamr.config import parse_config
from adjamr.driver import run_adjoint

ROOT = os.path.join(os.path.dirname(__file__), "..")
RUNS = (("2d-walls-timepoint.cfg", ("adjoint", "difference")), ("swe-basin.cfg", ("adjoint",)))
XT_CONFIG = "1d-interface.cfg"


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


def test_outputs_are_bitwise_those_recorded():
    with open(os.path.join(ROOT, "tests", "data", "output_digest.txt")) as f:
        want = f.read().splitlines()
    assert list(digest_lines()) == want


if __name__ == "__main__":
    # regenerate: PYTHONPATH=src python3 tests/test_output_digest.py > tests/data/output_digest.txt
    for line in digest_lines():
        print(line)
