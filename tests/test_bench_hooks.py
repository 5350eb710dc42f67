"""The names the benchmark reaches into rtlab by (perfbench/) still resolve.

perfbench/tracing.py wraps its TARGETS by module and attribute name, and
perfbench/worker.py and make_reference.py call census functions through
the module, so a rename or deletion in the library would otherwise surface
only when the benchmark runs.  Nothing here installs a wrapper.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from rtlab import census, lpverify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()


@pytest.mark.parametrize("target", TRACING.TARGETS, ids=[t[0] for t in TRACING.TARGETS])
def test_trace_target_resolves(target):
    _, modname, path, _ = target
    owner = importlib.import_module(modname)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_census_functions_the_workers_call():
    for name in ("parse_graph6", "build_census", "evaluate", "count_brute"):
        assert callable(getattr(census, name)), name


@pytest.mark.parametrize("k,s,capped", [(5, 4, False), (4, 5, True)])
def test_lp_fields_the_build_lp_hook_reads(k, s, capped):
    # tracing._lp_systems reads rows, free_cap and dims() off build_lp's result
    lp = lpverify.build_lp(k, s)
    counts = Counter()
    TRACING._lp_systems(counts, (k, s), {}, lp)
    assert lp.rows and lp.dims() and (lp.free_cap is not None) == capped
    assert counts["lpverify.systems_tried"] > 0
