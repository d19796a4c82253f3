"""The benchmark traces monopack by patching names it reads from the library.

`perfbench/tracing.py` replaces each `TARGETS` binding through
`owner.__dict__[attr]`, so a renamed or moved function breaks `--trace 1`
with a KeyError.  This test only reads `perfbench/`; it does not run it.
"""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, owner, attr in tracing.TARGETS
        if not callable(owner.__dict__.get(attr))
    ]
    assert not missing, missing
