"""The names the benchmark traces stay where it finds them.

`bench/tracing.py` wraps one function per `LAYERS` entry, looked up by name
in its `jonq` module, and sees `syzygies` through `groebner` too, so moving
or renaming one of those names fails here as well as in the benchmark's own
self-test.  The file is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

from jonq import groebner, resolutions

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for layer, fns in load_tracing().LAYERS.items():
        home = importlib.import_module(f"jonq.{layer}")
        for fn in fns:
            if fn == "Polynomial.mul":  # traced as Polynomial.__mul__ and __rmul__
                assert {"__mul__", "__rmul__"} <= vars(home.Polynomial).keys()
            else:
                assert callable(getattr(home, fn, None)), f"jonq.{layer}.{fn}"


def test_groebner_reexports_syzygies():
    assert groebner.syzygies is resolutions.syzygies
