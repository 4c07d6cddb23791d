"""Which convasr functions the traced run wraps, and the span names.

Span names are ``<module>.<function>`` with a suffix where one function
serves several roles: ``forward_backward`` is labelled ``num`` / ``den``
by call order inside ``asg_loss``; the convolution spans carry the layer index ``lNN`` of the network whose
forward or backward pass is open.
"""

from __future__ import annotations

from spans import Target, Tracer


def _forward_backward_name(tracer: Tracer, args, kwargs) -> str:
    parent = tracer.current_name()
    if parent == "criterion.asg_loss":
        return ("criterion.forward_backward.num", "criterion.forward_backward.den")[
            min(tracer.sibling_count("forward_backward"), 1)
        ]
    return "criterion.forward_backward"


def _network_name(base: str, params_pos: int):
    def name(tracer: Tracer, args, kwargs) -> str:
        params = args[params_pos] if len(args) > params_pos else kwargs["params"]
        tracer.layer_index = {id(lp): i for i, lp in enumerate(params.layers)}
        return base

    return name


def _conv_name(base: str):
    def name(tracer: Tracer, args, kwargs) -> str:
        params = args[2] if len(args) > 2 else kwargs["params"]
        idx = tracer.layer_index.get(id(params))
        return base if idx is None else f"{base}.l{idx:02d}"

    return name


TARGETS = [
    Target("convasr.features", "mfcc", "features.mfcc"),
    Target("convasr.features", "power_spectrum", "features.power_spectrum"),
    Target("convasr.features", "normalize", "features.normalize"),
    Target(
        "convasr.acoustic",
        "network_forward_cached",
        _network_name("acoustic.network_forward_cached", 2),
    ),
    Target("convasr.acoustic", "network_backward", _network_name("acoustic.network_backward", 1)),
    Target("convasr.acoustic", "conv1d_forward", _conv_name("acoustic.conv1d_forward")),
    Target("convasr.acoustic", "conv1d_backward", _conv_name("acoustic.conv1d_backward")),
    Target("convasr.criterion", "asg_loss", "criterion.asg_loss"),
    Target("convasr.criterion", "build_asg_graph", "criterion.build_asg_graph"),
    Target("convasr.criterion", "build_full_graph", "criterion.build_full_graph"),
    Target("convasr.criterion", "forward_backward", _forward_backward_name),
    Target("convasr.criterion", "viterbi", "criterion.viterbi"),
    Target("convasr.training", "train_toy", "training.train_toy"),
    Target("convasr.training", "holdout_ler", "training.holdout_ler"),
    Target("convasr.training", "greedy_transcribe", "training.greedy_transcribe"),
    Target("convasr.metrics", "levenshtein", "metrics.levenshtein"),
    Target("convasr.lm", "load_arpa", "lm.load_arpa"),
    Target("convasr.lm", "build_lexicon", "lm.build_lexicon"),
    Target("convasr.lm", "smear", "lm.smear"),
    Target("convasr.lm", "score_word", "lm.score_word"),
    Target("convasr.lm", "sentence_logprob", "lm.sentence_logprob"),
    Target("convasr.decoder", "decode", "decoder.decode"),
]

# spans reported with self time and call count; the convolution spans
# sum over their per-layer spans, which are reported by self time
SPANS = [
    "features.mfcc",
    "features.power_spectrum",
    "features.normalize",
    "acoustic.network_forward_cached",
    "acoustic.network_backward",
    "acoustic.conv1d_forward",
    "acoustic.conv1d_backward",
    "criterion.asg_loss",
    "criterion.build_asg_graph",
    "criterion.build_full_graph",
    "criterion.forward_backward.num",
    "criterion.forward_backward.den",
    "criterion.viterbi",
    "training.train_toy",
    "training.holdout_ler",
    "training.greedy_transcribe",
    "metrics.levenshtein",
    "lm.load_arpa",
    "lm.build_lexicon",
    "lm.smear",
    "lm.score_word",
    "lm.sentence_logprob",
    "decoder.decode",
]
CONV_LAYERS = 3  # layers of the train_asg network
CONV_SPANS = [
    f"acoustic.conv1d_{way}.l{i:02d}" for way in ("forward", "backward") for i in range(CONV_LAYERS)
]


def per_layer_metrics(totals: dict) -> dict:
    """Self ms and calls per span from ``spans.summarize`` output.

    Spans the run never opened read 0.
    """
    out = {}
    for span in SPANS:
        parts = [v for k, v in totals.items() if k == span or k.startswith(span + ".l")]
        out[f"{span}.self_ms"] = 1000.0 * sum(s for s, _ in parts)
        out[f"{span}.calls"] = sum(c for _, c in parts)
    for span in CONV_SPANS:
        out[f"{span}.self_ms"] = 1000.0 * totals.get(span, (0.0, 0))[0]
    return out
