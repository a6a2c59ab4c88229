"""Self-tests of the benchmark's tracer and result checks.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import itertools
import types

import pytest

import run

run.import_simulator()

import desk  # noqa: E402  (needs the simulator on the path)
import numpy as np  # noqa: E402
import tracing  # noqa: E402
from csilink import chanmodel as cm  # noqa: E402
from csilink import phylink as pl  # noqa: E402


def ticking_clock():
    """Clock that advances by exactly 1.0 per reading."""
    counter = itertools.count()
    return lambda: float(next(counter))


class TestSelfTime:
    def test_nested_spans(self):
        tr = tracing.Tracer(clock=ticking_clock())
        outer = tr.open("outer", "A")  # t=0
        inner = tr.open("inner", "B")  # t=1
        deepest = tr.open("deepest", "C")  # t=2
        tr.close(deepest)  # t=3
        tr.close(inner)  # t=4
        sibling = tr.open("sibling", "B")  # t=5
        tr.close(sibling)  # t=6
        tr.close(outer)  # t=7
        # outer 7 - (inner 3 + sibling 1) = 3; B: inner 3 - 1 + sibling 1 = 3; C: 1
        assert tr.self_times() == {"A": 3.0, "B": 3.0, "C": 1.0}
        assert sum(tr.self_times().values()) == 7.0  # the root span's duration

    def test_spans_close_in_order(self):
        tr = tracing.Tracer()
        a = tr.open("a")
        tr.open("b")
        with pytest.raises(RuntimeError):
            tr.close(a)

    def test_calls_inside_a_leaf_open_no_span(self):
        mod = types.ModuleType("fake")
        mod.inner = lambda: 1
        mod.outer = lambda: mod.inner() + 1
        with tracing.Tracer() as tr:
            tr.wrap(mod, "inner", "inner")
            tr.wrap(mod, "outer", "outer", leaf=True)
            assert mod.outer() == 2
            assert mod.inner() == 1
        assert [s[0] for s in tr.spans] == ["fake.outer", "fake.inner"]
        assert all(s[3] is None for s in tr.spans)

    def test_unique_frac(self):
        tr = tracing.Tracer()
        assert tr.unique_frac("k") == 0.0
        tr.keys["k"].extend([1, 1, 2, 1])
        assert tr.unique_frac("k") == 0.5


class TestWrapping:
    def test_originals_restored(self):
        originals = {(m, a): getattr(m, a) for m, a, *_ in desk.LAYERS}
        with tracing.Tracer() as tr:
            desk.install_layers(tr)
            unwrapped = [a for (m, a), fn in originals.items() if getattr(m, a) is fn]
            assert not unwrapped
        assert all(getattr(m, a) is fn for (m, a), fn in originals.items())

    def test_restored_after_an_exception(self):
        original = pl.waterfill
        with pytest.raises(ZeroDivisionError):
            with tracing.Tracer() as tr:
                desk.install_layers(tr)
                1 / 0
        assert pl.waterfill is original

    def test_wraps_the_attribute_the_caller_looks_up(self):
        rng = np.random.default_rng(0)
        h = cm.ChannelTensor(rng.standard_normal((5, 2, 3)) + 1j * rng.standard_normal((5, 2, 3)))
        plain = pl.svd_precoder(h, 0.1, 1.0)
        with tracing.Tracer() as tr:
            desk.install_layers(tr)
            traced = pl.svd_precoder(h, 0.1, 1.0)
        assert tr.counts["phylink.waterfill_calls"] == 5
        assert np.array_equal(plain.powers, traced.powers)
        names = [s[0] for s in tr.spans]
        assert names == ["phylink.svd_precoder"] + ["phylink.waterfill"] * 5
        assert all(s[3] == 0 for s in tr.spans[1:])
        _, start, end, _ = tr.spans[0]
        assert abs(sum(tr.self_times().values()) - (end - start)) < 1e-9


class TestDigestCheck:
    workload = types.SimpleNamespace(items=lambda state: 3)

    def reps(self, rows_list):
        return [desk.Repetition(rows=rows, failed=0) for rows in rows_list]

    def test_identical_repetitions_pass(self):
        rows = [["cdl_e", 0.5, 10.0, 3, 0.25], ["cdl_c", 0.0, 0.0, 3, 0.0]]
        attempted, failed, _ = run.tally(self.workload, None, self.reps([rows, rows]), ["s", "s"])
        assert (attempted, failed) == (2 + 6, 0)

    def test_one_perturbed_row_fails_its_repetition(self):
        rows = [["cdl_e", 0.5, 10.0, 3, 0.25], ["cdl_c", 0.0, 0.0, 3, 0.0]]
        perturbed = [list(r) for r in rows]
        perturbed[1][4] = np.nextafter(0.0, 1.0)
        attempted, failed, first = run.tally(self.workload, None, self.reps([rows, perturbed]), ["s", "s"])
        assert failed == 3
        assert first == desk.digest(rows) != desk.digest(perturbed)

    def test_set_up_mismatch_fails(self):
        rows = [[1.0]]
        _, failed, _ = run.tally(self.workload, None, self.reps([rows, rows]), ["s", "t", "s"])
        assert failed == 1

    def test_exception_fails_every_item(self):
        reps = self.reps([[[1.0]], None])
        _, failed, _ = run.tally(self.workload, None, reps, ["s"])
        assert failed == 3


def test_expected_totals_match_the_framing():
    cfg = desk.desk_config(5)
    link = cfg.link_config(0.0)
    shapes = [pl.frame_codewords(np.zeros(n, dtype=np.uint8), link).shape
              for n in (cfg.payload_bits // 2, cfg.payload_bits - cfg.payload_bits // 2)]
    assert desk.expected_totals(cfg) == (sum(r * c for r, c in shapes), sum(r for r, _ in shapes))
