"""Pins the public surface: the package exports, the CLI subcommands and
the long flags of each, and the fields of the lexicon trie and of the
lattice every graph builder returns.  A change that drops or renames any
of them has to change this file too, on purpose."""

import argparse
import dataclasses

import convasr
from convasr.cli import build_parser
from convasr.criterion import Lattice
from convasr.lm import LexiconTrie

PUBLIC_NAMES = [
    "Alphabet",
    "AlphabetError",
    "CriterionError",
    "CriterionResult",
    "DecodeError",
    "DecodeResult",
    "DecoderConfig",
    "EmissionTable",
    "FeatureSequence",
    "InfeasibleError",
    "LMError",
    "NGramLM",
    "TransitionTable",
    "Waveform",
    "asg_loss",
    "build_asg_graph",
    "build_ctc_graph",
    "build_full_graph",
    "build_lexicon",
    "collapse_path",
    "ctc_loss",
    "decode",
    "decode_labels",
    "default_alphabet",
    "encode_transcription",
    "error_rate",
    "exhaustive_decode",
    "forward_score",
    "levenshtein",
    "load_arpa",
    "logadd",
    "make_alphabet",
    "mfcc",
    "normalize",
    "power_spectrum",
    "score_word",
    "sentence_logprob",
    "smear",
    "viterbi",
]

CLI_FLAGS = {
    "features": ["--input", "--output", "--type", "--pcm-rate", "--no-normalize"],
    "loss": [
        "--emissions",
        "--transitions",
        "--transcription",
        "--criterion",
        "--alphabet",
        "--blank-id",
        "--strict",
        "--grad-prefix",
    ],
    "viterbi": ["--emissions", "--transitions", "--transcription", "--alphabet", "--show-path"],
    "train-toy": ["--config"],
    "decode": [
        "--emissions",
        "--transitions",
        "--arpa",
        "--lexicon",
        "--alphabet",
        "--alpha",
        "--beta",
        "--beam-size",
        "--beam-threshold",
        "--mode",
        "--silence",
        "--nbest",
    ],
    "ler": ["--ref", "--hyp"],
    "wer": ["--ref", "--hyp"],
    "bench": [
        "--frames",
        "--vocab",
        "--transcription-size",
        "--batch-sizes",
        "--repetitions",
        "--criterion",
        "--seed",
        "--csv",
    ],
}


def test_public_names():
    assert convasr.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(convasr, name), name


def test_lexicon_trie_fields():
    got = [f.name for f in dataclasses.fields(LexiconTrie)]
    assert got == [
        "words", "spellings", "alphabet", "first", "label", "ends", "num_ends", "smeared", "rows_first", "rows"
    ]


def test_lattice_fields():
    got = [f.name for f in dataclasses.fields(Lattice)]
    assert got == ["num_frames", "labels", "src", "dst", "initial", "accepting"]


def test_cli_subcommands_and_long_flags():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: [
            opt
            for action in p._actions
            if not isinstance(action, argparse._HelpAction)
            for opt in action.option_strings
            if opt.startswith("--")
        ]
        for name, p in sub.choices.items()
    }
    assert got == CLI_FLAGS
