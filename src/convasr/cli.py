"""Command-line surface for the pipeline.

Subcommands: features, loss, viterbi, train-toy, decode, ler, wer,
bench.  Any long flag can be overridden through the environment with
the CONVASR_ prefix (dashes become underscores, e.g. CONVASR_BEAM_SIZE).

Exit codes: 0 success, 1 input/processing error (decode's alphabet or
transitions not matching the emissions included), 2 usage error, 3 no
hypothesis (all pruned, an empty lexicon, or an emission file with no rows).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing

import numpy as np

from . import acoustic, bench, fileio, metrics, training
from .alphabet import default_alphabet, load_alphabet, decode_labels, encode_transcription, collapse_path
from .alphabet import _lines, _not_utf8
from .criterion import (
    TransitionTable,
    asg_loss,
    build_asg_graph,
    build_full_graph,
    ctc_loss,
    viterbi,
)
from .decoder import DecodeError, DecoderConfig, decode
from .features import load_pcm, load_wav, mfcc, normalize, power_spectrum
from .lm import LMError, build_lexicon, load_arpa, load_lexicon, smear

ENV_PREFIX = "CONVASR_"
_ENV_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False, "": False}

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_HYPOTHESIS = 3


class _BadEnvValue:
    """Default standing in for a malformed CONVASR_* value.  It becomes a
    usage error only when the chosen subcommand has that flag and the
    command line does not set it."""

    def __init__(self, message: str):
        self.message = message


def _apply_env_overrides(parser: argparse.ArgumentParser) -> None:
    """Fill flag defaults from CONVASR_* environment variables."""
    actions = list(parser._actions)
    for action in actions:  # grows by each subcommand's actions
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                actions.extend(sub._actions)
            continue
        if not action.option_strings or action.dest == "help":
            continue
        name = ENV_PREFIX + action.dest.upper()
        raw = os.environ.get(name)
        if raw is None:
            continue
        try:
            if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
                value = _ENV_BOOLS[raw.lower()]
            else:
                value = action.type(raw) if action.type is not None else raw
                if action.choices is not None and value not in action.choices:
                    raise ValueError(raw)
        except (KeyError, ValueError):
            value = _BadEnvValue(f"environment variable {name}: invalid value {raw!r}")
        action.default = value


def _alphabet_from(args):
    return load_alphabet(args.alphabet) if args.alphabet else default_alphabet()


def _read_emissions(path):
    arr, _, _ = fileio.read_matrix(path)
    return arr.astype(np.float64)


def _read_transitions(path, num_labels):
    if path:
        return fileio.read_transitions(path)
    return TransitionTable.zeros(num_labels)


def _cmd_features(args) -> int:
    if args.pcm_rate:
        wave = load_pcm(args.input, args.pcm_rate)
    else:
        wave = load_wav(args.input)
    if args.type == "power":
        feats = power_spectrum(wave)
    else:
        feats = mfcc(wave)
    if not args.no_normalize:
        feats = normalize(feats)
    fileio.write_features(args.output, feats)
    print(f"wrote {feats.num_frames} x {feats.dim} features to {args.output}")
    return EXIT_OK


def _cmd_loss(args) -> int:
    f = _read_emissions(args.emissions)
    alphabet = _alphabet_from(args)
    labels = encode_transcription(args.transcription, alphabet)
    if args.criterion == "asg":
        tr = _read_transitions(args.transitions, f.shape[1])
        result = asg_loss(f, tr, labels)
    else:
        blank = args.blank_id if args.blank_id is not None else f.shape[1] - 1
        result = ctc_loss(f, labels, blank, strict=args.strict)
    print(f"{result.loss:.9g}")
    if args.grad_prefix:
        fileio.write_matrix(args.grad_prefix + ".demissions", result.d_emissions)
        fileio.write_transitions(
            args.grad_prefix + ".dtransitions",
            TransitionTable(result.d_transitions, result.d_start),
        )
    return EXIT_OK


def _cmd_viterbi(args) -> int:
    f = _read_emissions(args.emissions)
    alphabet = _alphabet_from(args)
    tr = _read_transitions(args.transitions, f.shape[1])
    if args.transcription:
        labels = encode_transcription(args.transcription, alphabet)
        graph = build_asg_graph(labels, f.shape[0])
    else:
        graph = build_full_graph(f.shape[1], f.shape[0])
    path, score = viterbi(graph, f, tr)
    text = decode_labels(collapse_path(path, alphabet), alphabet, strict=False)
    if args.show_path:
        print(" ".join(alphabet.symbols[i] for i in path))
    print(f"score {score:.9g}")
    print(text)
    return EXIT_OK


_TRAIN_REQUIRED = ("num_samples", "epochs", "learning_rate", "seed", "checkpoint", "curve")
# the config keys each dataclass takes; absent ones keep its defaults
_TASK_KEYS = ("letters", "num_samples", "min_word_len", "max_word_len", "seed")
_TRAIN_KEYS = ("epochs", "learning_rate", "clip_norm", "holdout_fraction", "seed", "stop_ler")


def _config_from(cls, cfg: dict, keys):
    """``cls`` from the ``keys`` that ``cfg`` sets, each checked against its field's type."""
    given = {k: cfg[k] for k in keys if k in cfg}
    for key, value in given.items():
        want = typing.get_type_hints(cls)[key]
        if type(value) is bool or not isinstance(value, (want, int) if isinstance(0.0, want) else want):
            raise ValueError(f"config key {key!r} has the wrong type: {value!r}")
    return cls(**given)


def _cmd_train_toy(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:  # RFC 8259: JSON text is UTF-8
            cfg = json.load(fh)  # whole: a JSON string may hold a line break such as U+2028
    except ValueError as exc:  # a byte that is not UTF-8, or a JSON syntax error
        where = _not_utf8(args.config) if isinstance(exc, UnicodeDecodeError) else exc
        raise ValueError(f"{args.config}: {where}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object of keys, got {cfg!r}")
    for key in _TRAIN_REQUIRED:
        if key not in cfg:
            raise ValueError(f"config is missing required key {key!r}")
    task = _config_from(training.ToyTaskConfig, cfg, _TASK_KEYS)
    train_cfg = _config_from(training.TrainConfig, cfg, _TRAIN_KEYS)
    alphabet, data = training.make_toy_dataset(task)
    if "layers" in cfg:
        if not isinstance(cfg["layers"], list):
            raise ValueError(f"config key 'layers' must be a list of rows, got {cfg['layers']!r}")
        for row in cfg["layers"]:
            if not isinstance(row, list) or list(map(type, row)) != [int, int, int, int, str]:
                raise ValueError(f"config layers row {row!r} is not four integers and a name")
        spec = acoustic.NetworkSpec([acoustic.ConvLayerSpec(*row) for row in cfg["layers"]])
    else:
        spec = training.default_toy_network(39, len(alphabet))
    result = training.train_toy(data, alphabet, spec, train_cfg)
    fileio.save_checkpoint(cfg["checkpoint"], spec, result.params, result.transitions)
    with open(cfg["curve"], "w") as fh:
        fh.write("epoch,edits,ref_length,ler\n")
        for s in result.curve:
            fh.write(f"{s.epoch},{s.edit_count},{s.ref_length},{s.ler:.6f}\n")
    final = result.curve[-1]
    print(f"trained {final.epoch} epochs, held-out LER {final.ler:.4f}")
    print(f"checkpoint: {cfg['checkpoint']}")
    print(f"curve: {cfg['curve']}")
    return EXIT_OK


def _named(path, load, *rest):
    """``load(path, *rest)``, its LMError, which names only a line or a word, naming ``path`` too."""
    try:
        return load(path, *rest)
    except LMError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _cmd_decode(args) -> int:
    f = _read_emissions(args.emissions)
    alphabet = _alphabet_from(args)
    tr = _read_transitions(args.transitions, f.shape[1])
    lm = _named(args.arpa, load_arpa)
    if args.lexicon:  # smear fails on a lexicon word the model lacks: name the lexicon too
        lexicon = _named(args.lexicon, lambda path: smear(load_lexicon(path, alphabet), lm))
    else:
        lexicon = build_lexicon(sorted(w for w in lm.vocab if not w.startswith("<")), alphabet)
        smear(lexicon, lm)
    cfg = DecoderConfig(
        alpha=args.alpha,
        beta=args.beta,
        beam_size=args.beam_size,
        beam_threshold=args.beam_threshold,
        mode=args.mode,
        silence=args.silence,
    )
    results = decode(f, tr, lm, lexicon, cfg, nbest=args.nbest)
    for rank, r in enumerate(results, 1):
        words = " ".join(r.words)
        print(f"{rank}\t{r.score:.9f}\t{r.acoustic:.9f}\t{r.lm:.9f}\t{words}")
    return EXIT_OK


def _read_lines(path):
    return [line for _, line in _lines(path, lambda where: ValueError(f"{path}: {where}"))]


def _cmd_error_rate(args, unit: str) -> int:
    refs = _read_lines(args.ref)
    hyps = _read_lines(args.hyp)
    report = metrics.error_rate(refs, hyps, unit=unit)
    name = "LER" if unit == "letter" else "WER"
    print(
        f"{name} {report.rate:.6f} edits {report.total_edits} "
        f"ref_length {report.total_ref_length} utterances {len(refs)}"
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    criteria = ("asg", "ctc") if args.criterion == "both" else (args.criterion,)
    try:
        batch_sizes = tuple(int(b) for b in args.batch_sizes.split(","))
    except ValueError:
        raise ValueError(f"--batch-sizes: expected integers, got {args.batch_sizes!r}") from None
    cfg = bench.BenchConfig(
        frames=args.frames,
        vocab=args.vocab,
        transcription=args.transcription_size,
        batch_sizes=batch_sizes,
        repetitions=args.repetitions,
        criteria=criteria,
        seed=args.seed,
    )
    rows = bench.run_bench(cfg)
    print(bench.format_table(rows))
    if args.csv:
        bench.write_csv(rows, args.csv)
        print(f"csv: {args.csv}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convasr",
        description="Grapheme speech recognition toolkit: features, sequence "
        "criteria, toy training, decoding, metrics, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="extract features from audio")
    p.add_argument("--input", required=True, help="WAV file (or raw PCM with --pcm-rate)")
    p.add_argument("--output", required=True, help="output feature file")
    p.add_argument("--type", choices=("power", "mfcc"), default="mfcc")
    p.add_argument("--pcm-rate", type=int, default=0, help="treat input as raw 16-bit PCM at this rate")
    p.add_argument("--no-normalize", action="store_true", help="skip per-sequence normalization")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("loss", help="criterion loss for an emission file")
    p.add_argument("--emissions", required=True)
    p.add_argument("--transitions", default="", help="transition file (asg only; zeros if absent)")
    p.add_argument("--transcription", required=True)
    p.add_argument("--criterion", choices=("asg", "ctc"), default="asg")
    p.add_argument("--alphabet", default="", help="alphabet file (default: built-in 30 symbols)")
    p.add_argument("--blank-id", type=int, default=None, help="ctc blank id (default: last label)")
    p.add_argument("--strict", action="store_true", help="require normalized rows for ctc")
    p.add_argument("--grad-prefix", default="", help="write gradients to PREFIX.demissions/.dtransitions")
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("viterbi", help="best path (free, or aligned to a transcription)")
    p.add_argument("--emissions", required=True)
    p.add_argument("--transitions", default="")
    p.add_argument("--transcription", default="", help="align to this text instead of free decoding")
    p.add_argument("--alphabet", default="")
    p.add_argument("--show-path", action="store_true", help="also print per-frame symbols")
    p.set_defaults(func=_cmd_viterbi)

    p = sub.add_parser("train-toy", help="train the toy acoustic model end to end")
    p.add_argument("--config", required=True, help="JSON config file")
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("decode", help="beam-search decoding with an n-gram LM")
    p.add_argument("--emissions", required=True)
    p.add_argument("--transitions", default="")
    p.add_argument("--arpa", required=True)
    p.add_argument("--lexicon", default="", help="lexicon file (default: spell all LM words)")
    p.add_argument("--alphabet", default="")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--beam-size", type=int, default=100)
    p.add_argument("--beam-threshold", type=float, default=math.inf)
    p.add_argument("--mode", choices=("max", "logadd"), default="max")
    p.add_argument("--silence", choices=("none", "optional", "mandatory"), default="optional")
    p.add_argument("--nbest", type=int, default=1)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("ler", help="letter error rate between two line-aligned files")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.set_defaults(func=lambda a: _cmd_error_rate(a, "letter"))

    p = sub.add_parser("wer", help="word error rate between two line-aligned files")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.set_defaults(func=lambda a: _cmd_error_rate(a, "word"))

    p = sub.add_parser("bench", help="criterion timing harness")
    p.add_argument("--frames", type=int, default=150)
    p.add_argument("--vocab", type=int, default=28)
    p.add_argument("--transcription-size", type=int, default=40)
    p.add_argument("--batch-sizes", default="1,4,8")
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--criterion", choices=("asg", "ctc", "both"), default="both")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default="", help="also write results as CSV")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    _apply_env_overrides(parser)
    args = parser.parse_args(argv)
    for value in vars(args).values():
        if isinstance(value, _BadEnvValue):
            parser.error(value.message)
    try:
        return args.func(args)
    except DecodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_HYPOTHESIS
    except (OSError, ValueError) as exc:
        # AlphabetError/CriterionError/LMError/FeatureError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
