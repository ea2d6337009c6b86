"""Self-time arithmetic and the rebinding of nqsim names, on synthetic and real calls."""
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import layers, spans  # noqa: E402
from perfbench.spans import Span  # noqa: E402


def _tree():
    # a [0,10] -> b [1,4] -> c [2,3]
    #          -> d [5,9] -> e [6,7], g [5.5,6.5] (overlaps e), f [8,12] (runs past d)
    rows = [
        ("mod.a", 0.0, 10.0, -1),
        ("mod.b", 1.0, 4.0, 0),
        ("other.c", 2.0, 3.0, 1),
        ("other.d", 5.0, 9.0, 0),
        ("mod.e", 6.0, 7.0, 3),
        ("mod.f", 8.0, 12.0, 3),
        ("mod.g", 5.5, 6.5, 3),
    ]
    return [Span(name, start, end, parent, "job", None) for name, start, end, parent in rows]


def test_self_time_subtracts_union_of_direct_children():
    got = spans.self_times(_tree())
    assert got == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 4.0, 1.0])


def test_module_self_time_and_per_rep_totals():
    tree = _tree() + [Span("mod.a", 20.0, 21.0, -1, "probe", None)]
    stats = layers.SpanStats.by_run(tree, {"job": 2})["job"]
    assert stats.module_self("mod") == pytest.approx((3.0 + 2.0 + 1.0 + 4.0 + 1.0) / 2)
    assert stats.module_self("other") == pytest.approx((1.0 + 1.5) / 2)
    assert stats.calls("mod.a") == pytest.approx(0.5)
    assert stats.busy("mod.a") == pytest.approx(5.0)


def test_recorder_links_nested_calls_to_their_parent():
    rec = spans.SpanRecorder()
    inner = rec.wrap("m.inner", lambda x: x + 1)
    outer = rec.wrap("m.outer", lambda x: inner(x) * 2, counter=lambda a, k, r: {"out": r})
    assert outer(3) == 8
    got = rec.spans
    assert [(s.name, s.parent) for s in got] == [("m.outer", -1), ("m.inner", 0)]
    assert got[0].counts == {"out": 8}
    assert got[0].start <= got[1].start <= got[1].end <= got[0].end


def test_install_rebinds_imported_copies_and_uninstall_restores_them(tmp_path):
    import nqsim.cli
    import nqsim.ensemble
    import nqsim.verify

    original = nqsim.ensemble.run_ensemble
    rec = spans.SpanRecorder()
    uninstall = spans.install(rec, layers.COUNTERS)
    try:
        assert nqsim.verify.run_ensemble is not original
        assert nqsim.verify.run_ensemble.__wrapped__ is original
        assert nqsim.cli.main(["enumerate", "--m", "5", "--counts", "--format", "json",
                               "--out", str(tmp_path / "counts.json")]) == 0
    finally:
        uninstall()
    assert nqsim.verify.run_ensemble is original
    names = [s.name for s in rec.spans]
    assert names[0] == "cli.main" and "limits.enumerate_limits" in names
