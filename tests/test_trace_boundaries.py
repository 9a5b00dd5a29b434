"""The benchmark's tracer still finds every function it wraps.

``benchmark/spans.py`` wraps library functions by their module-level names
(``BOUNDARIES``); a renamed or removed one reads as missing there. One tiny
msfm training step and one scoring pass run under the real boundaries.
"""

from pathlib import Path

from sasvkit import cli, models
from sasvkit.neuralcore import TrainConfig
from sasvkit.sampling import SynthConfig, generate_synthetic

ROOT = Path(__file__).resolve().parent.parent


def test_every_boundary_is_found_and_the_network_spans_count_rows(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    import spans

    data = generate_synthetic(SynthConfig(
        n_speakers=6, utts_per_speaker=8, spoofs_per_speaker=6, asv_dim=16, cm_dim=12,
        asv_channel_dims=4,
    ))
    config = TrainConfig(epochs=1, samples_per_epoch=16, batch_size=16)
    tracer = spans.Tracer(spans.BOUNDARIES)
    tracer.install()
    try:
        model, _ = models.train_msfm(data.train_records, data.asv_store, data.cm_store, config)
        training_spans = len(tracer.spans)
        scored = cli.score_trials(model, data.eval_trials, data.asv_store, data.cm_store)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert len([s.score for s in scored]) == len(data.eval_trials)
    rows = {"neuralcore.forward": 0, "neuralcore.backward": 0}
    for name, *_, work, _, _ in tracer.spans[:training_spans]:
        if name in rows:
            rows[name] += work["rows"]
    assert rows["neuralcore.forward"] > 0 and rows["neuralcore.backward"] > 0, rows
    # scoring runs each network once over the tables or trials, all in one block
    trials = data.eval_trials
    scoring = [work["rows"] for name, *_, work, _, _ in tracer.spans[training_spans:]
               if name == "neuralcore.forward"]
    assert sorted(scoring) == sorted([len(trials.enrollments), len(trials.test_ids),
                                      len(trials), len(trials)])
