"""Tests of the benchmark's own logic: span arithmetic, wrapper
installation and removal, and the search-error check."""

import itertools
import sys

import numpy as np
import pytest

import convasr
import run
import spans
import workloads
from convasr import alphabet, criterion, decoder, lm


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    tracer = spans.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    a = tracer.open("a")
    b = tracer.open("b")
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(b)
    d = tracer.open("d")
    tracer.close(d)
    tracer.close(a)
    arr = tracer.arrays()
    assert list(arr["parent"]) == [-1, 0, 1, 0]
    selfs = spans.self_times(arr["start"], arr["end"], arr["parent"])
    assert list(selfs) == [3.0, 2.0, 1.0, 4.0]
    # self times of a tree add up to the root's duration
    assert selfs.sum() == 10.0
    assert spans.summarize(tracer) == {"a": (3.0, 1), "b": (2.0, 1), "c": (1.0, 1), "d": (4.0, 1)}


def test_summary_refuses_open_spans():
    tracer = spans.Tracer()
    tracer.open("a")
    with pytest.raises(RuntimeError):
        spans.summarize(tracer)


def convasr_bindings():
    mods = [m for k, m in sys.modules.items() if k == "convasr" or k.startswith("convasr.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


class TinyAsg:
    """A workload of two small ASG instances that notes which function
    each call reached."""

    name = "tiny_asg"
    trace_items = 2

    def __init__(self):
        self.original = criterion.asg_loss
        self.saw_original = []

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        tr = criterion.TransitionTable.zeros(4)
        items = [(rng.standard_normal((6, 4)), [0, 1, 2]) for _ in range(2)]
        return {"errors": workloads.startup_check(rng), "items": items, "tr": tr}

    def items(self, state):
        return state["items"]

    def audio_s(self, state, item):
        return item[0].shape[0] * workloads.FRAME_S

    def call(self, state, item):
        self.saw_original.append(criterion.asg_loss is self.original)
        return criterion.asg_loss(item[0], state["tr"], item[1])

    def check(self, state, item, out):
        return workloads.check_asg(out, "tiny")

    def quality(self, state):
        return {}


def test_wrappers_are_restored(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SCRATCH", str(tmp_path))
    before = convasr_bindings()
    w = TinyAsg()
    counter = run.Tally()
    metrics, info = run.traced(w, 0, counter)
    assert convasr_bindings() == before
    assert counter.failed == 0 and info["absent"] == []
    # setup's startup check and the traced pass each call asg_loss once per item
    assert metrics["criterion.asg_loss.calls"] == 3
    assert metrics["criterion.forward_backward.num.calls"] == 3
    assert metrics["criterion.forward_backward.den.calls"] == 3
    assert metrics["bench.self_ms"] >= 0.0
    assert set(metrics) == set(run.declared_units(1))
    # item 0 plain then traced, item 1 traced then plain
    assert w.saw_original == [True, False, False, True]

    w.saw_original.clear()
    metrics, _ = run.untraced(w, 0, 0.05, counter)
    assert set(metrics) == set(run.declared_units(0))
    assert w.saw_original and all(w.saw_original)
    assert counter.failed == 0


def test_absent_target_is_reported_not_raised():
    tracer = spans.Tracer()
    targets = [
        spans.Target("convasr.criterion", "no_such_function", "x"),
        spans.Target("convasr.no_such_module", "f", "y"),
        spans.Target("convasr.metrics", "levenshtein", "metrics.levenshtein"),
    ]
    restore, absent = spans.install(tracer, targets)
    try:
        assert convasr.metrics.levenshtein("ab", "b") == 1
    finally:
        restore()
    assert absent == ["convasr.criterion.no_such_function", "convasr.no_such_module.f"]
    assert spans.summarize(tracer)["metrics.levenshtein"][1] == 1


def tiny_instance(seed, tmp_path):
    rng = np.random.default_rng(seed)
    abc = alphabet.make_alphabet("abc")
    words = ["ab", "ca", "b", "bc"]
    path = tmp_path / f"tiny{seed}.arpa"
    path.write_text(workloads.bigram_arpa_text(words, rng, 8))
    model = lm.load_arpa(path)
    lexicon = lm.smear(lm.build_lexicon(words, abc), model)
    emissions = 1.5 * rng.standard_normal((8, len(abc)))
    transitions = criterion.TransitionTable.zeros(len(abc))
    return abc, model, lexicon, emissions, transitions


def test_search_error_check_against_exhaustive_oracle(tmp_path):
    cfg = decoder.DecoderConfig(alpha=1.0, beta=0.5, beam_size=1000, silence="optional")
    narrow = decoder.DecoderConfig(alpha=1.0, beta=0.5, beam_size=1, beam_threshold=1.0)
    flagged = 0
    for seed in range(12):
        abc, model, lexicon, f, tr = tiny_instance(seed, tmp_path)
        # five words is the most that fits in 8 frames with this lexicon
        best = decoder.exhaustive_decode(f, tr, model, lexicon, cfg, max_words=5)
        # no reference sentence scores above the true maximum
        for k in (1, 2, 3):
            for sentence in itertools.product(lexicon.words, repeat=k):
                try:
                    ref = workloads.reference_total(f, tr, model, list(sentence), abc, cfg)
                except criterion.InfeasibleError:
                    continue
                assert not workloads.is_search_error(best.score, ref)
        wide = decoder.decode(f, tr, model, lexicon, cfg)[0]
        assert wide.score == pytest.approx(best.score, abs=1e-9)
        if not best.words:
            continue
        ref = workloads.reference_total(f, tr, model, best.words, abc, cfg)
        assert not workloads.is_search_error(wide.score, ref)
        try:
            found = decoder.decode(f, tr, model, lexicon, narrow)[0].score
        except decoder.DecodeError:
            continue
        if workloads.is_search_error(found, ref):
            # a flagged utterance is a real search error
            assert found < best.score - 1e-9
            flagged += 1
    # the narrow beam loses the best sentence somewhere, so the check is exercised
    assert flagged > 0
