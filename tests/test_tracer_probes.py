"""Every name the bench tracer patches must exist in the library.

`perfbench/tracer.py` wraps functions under the names their callers look them
up by.  A name moved or renamed in `src/` would make `--trace` runs and the
bench smoke test fail at patch time, so this reads the tracer's probe lists
and resolves each entry.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_resolves_to_a_callable():
    tracer = load_tracer()
    probes = [(m, attr) for m, attr, *_ in tracer.PROBES + tracer.COUNT_PROBES]
    assert probes
    missing = [(m, attr) for m, attr in probes
               if not callable(getattr(importlib.import_module(m), attr, None))]
    assert missing == []
