"""Command-line front end.

Subcommands:
  build-kg  validate a KG file, optionally fill missing descriptions and
            community summaries through the chat backend, and rewrite it
  extract   run entity extraction on one sentence and show the stages and
            each mention's routing (their timings on stderr)
  send      one full transmission at a chosen SNR, stage-by-stage trace
  sweep     run a configured SNR sweep and write the CSV report
  baseline  text-only schemes over a corpus (no KG), CSV report

Success exits 0. Any failure prints a single JSON object on stderr
({"error": <kind>, "message": <text>}) and exits nonzero.
"""

import argparse
import json
import math
import re
import sys

from . import kg as kgmod
from .extraction import extract_trace
from .generation import build_prompt, enrich_kg
from .harness import (PipelineContext, SweepConfig, baseline_records, check_snr_grid,
                      load_corpus, run_sweep, select_backends, semantic_similarity,
                      write_report)
from .importance import ImportanceConfig, partition_uep
from .phy import ChannelConfig, channel_bit_cost, code_rate, payload_bits, puncture, transmit
from .remote import MALFORMED_REPLY, RemoteConfig


class CliError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


# a minus sign and then any literal float() reads: -3, -.5, -1e-3, -1_000, -inf, -nan
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(
    rf"^-(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:e[+-]?{_DIGITS})?"
    r"|inf(?:inity)?|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as the JSON error line, and reads
    every negative float literal (-1e-3, -inf) like -3: as a value, not an
    option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise CliError("usage", message)


def _parse_snr(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CliError("usage", f"invalid SNR value {text!r}") from None
    if math.isnan(value):
        raise CliError("usage", "SNR must not be NaN")
    return value


def _seed(text: str) -> int:
    """argparse type for --seed: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _load_kg(path: str) -> kgmod.KnowledgeGraph:
    try:
        return kgmod.load(path)
    except FileNotFoundError:
        raise CliError("io", f"KG file not found: {path}") from None
    except kgmod.KgFormatError as exc:
        raise CliError("kg-format", str(exc)) from None


def _remote_config() -> RemoteConfig:
    try:
        return RemoteConfig.from_env()
    except RuntimeError as exc:  # no endpoint in the environment
        raise CliError("config", str(exc)) from None


def _cmd_build_kg(args) -> int:
    kg = _load_kg(args.input)
    if args.enrich:
        kg = enrich_kg(kg, _remote_config())
    kg.dump(args.out)
    print(f"wrote {len(kg.entities)} entities, {len(kg.communities)} communities, "
          f"{len(kg.triples)} triples to {args.out}")
    return 0


def _context(kg, extract_backend: str, generate_backend: str = "stub",
             **kwargs) -> PipelineContext:
    try:
        selector, generator = select_backends(extract_backend, generate_backend)
    except RuntimeError as exc:  # an http backend without an endpoint
        raise CliError("config", str(exc)) from None
    return PipelineContext(kg, selector=selector, generator=generator, **kwargs)


def _cmd_extract(args) -> int:
    kg = _load_kg(args.kg)
    ctx = _context(kg, args.extract_backend)
    trace = extract_trace(args.sentence, kg, ctx.index, ctx.extraction)
    print(f"sentence: {args.sentence}")
    # each routed mention's community and its ranked (id, similarity) candidates there
    routes = {m: f"  -> community {c}: [{', '.join(f'({n}, {sim:.4f})' for n, sim in ranked)}]"
              for m, c, ranked in trace.candidates.per_mention}
    print(f"mentions ({len(trace.mentions)}):")
    for m in trace.mentions:
        print(f"  [{m.start}:{m.end}] {m.surface}{routes.get(m, '')}")
    print(f"candidates ({len(trace.candidates.provenance)}):")
    for node_id, (_, sim) in sorted(trace.candidates.provenance.items()):
        ent = kg.entity_by_id(node_id)
        print(f"  {node_id}  {ent.name}  (similarity {sim:.4f})")
    print(f"selected ({len(trace.selected.ids)}):")
    for node_id in trace.selected.ids:
        print(f"  {node_id}  {kg.entity_by_id(node_id).name}")
    for stage, seconds in trace.stage_seconds.items():
        print(f"time[{stage}]: {seconds * 1e3:.2f} ms", file=sys.stderr)
    return 0


def _cmd_send(args) -> int:
    snr_db = _parse_snr(args.snr)
    try:
        imp_config = ImportanceConfig(alpha=args.alpha)
    except ValueError as exc:
        raise CliError("usage", str(exc)) from None
    kg = _load_kg(args.kg)
    ctx = _context(kg, args.extract_backend, args.gen_backend, importance_config=imp_config)
    analysis = ctx.analyze(args.sentence)
    mcsg, table = analysis.mcsg, analysis.table
    print(f"[1 extract] selected ids: {sorted(mcsg.seed_nodes)}")
    if not mcsg.seed_nodes:
        print("nothing recognized; no transmission")
        return 0
    print(f"[2 subgraph] {len(mcsg.nodes)} nodes, {len(mcsg.edges)} edges: "
          f"{sorted(mcsg.nodes)}; sent ids (the seeds): {sorted(mcsg.seed_nodes)}")
    protected, _ = partition_uep(table, snr_db, imp_config)
    tau = imp_config.threshold_policy.threshold(snr_db)
    print(f"[3 importance] the seeds, scored in the subgraph; threshold {tau:.3f} "
          f"at {snr_db:g} dB")
    for node_id in sorted(table):
        deg, btw, score = table[node_id]
        mark = "P" if node_id in protected else "-"
        print(f"  {mark} {node_id}  {kg.entity_by_id(node_id).name}  "
              f"degree {deg:.0f}  betweenness {btw:.2f}  score {score:.4f}")
    frame = ctx.send_frame(analysis, snr_db)
    n_p, n_u, w = len(frame.protected_ids), len(frame.unprotected_ids), frame.width
    print(f"[4 frame] {n_p} protected / {n_u} unprotected seeds, {w}-bit ranks; payload "
          f"{payload_bits(n_p + n_u, w)} bits, channel {channel_bit_cost(n_p, n_u, w, snr_db)} "
          f"bits, protected ids at code rate {code_rate(puncture(snr_db))}")
    result = transmit(frame, ChannelConfig(snr_db, args.seed), ctx.seed_prior)
    print(f"[5 channel] decoded info-bit errors {result.coded_bit_errors}/{payload_bits(n_p, w)}, "
          f"uncoded bit errors {result.uncoded_bit_errors}/{result.uncoded_channel_bits}")
    received = ctx.received_ids(result)  # -1 where a rank names no entity
    print(f"[6 receive] ids: {received}")
    recon, text, _ = ctx.receive(received)
    print(f"[7 reconstruct] seeds {sorted(recon.seed_nodes)} expanded by one hop: kept "
          f"{len(recon.nodes)} nodes, {len(recon.edges)} edges: {sorted(recon.nodes)}")
    if not recon.nodes:
        print("empty reconstruction; similarity 0.0")
        return 0
    stated = len(build_prompt(recon, kg).triples)
    print(f"[8 generate] {stated} of {len(recon.edges)} facts, those with a seed end: {text}")
    print(f"[9 similarity] {semantic_similarity(args.sentence, text, ctx.embedder):.4f}")
    return 0


def _cmd_sweep(args) -> int:
    try:
        config = SweepConfig.from_json(args.config)
    except FileNotFoundError:
        raise CliError("io", f"config file not found: {args.config}") from None
    except (ValueError, TypeError) as exc:
        raise CliError("config", str(exc)) from None
    try:
        ctx = PipelineContext.from_config(config)
    except kgmod.KgFormatError as exc:
        raise CliError("kg-format", str(exc)) from None
    except (ValueError, RuntimeError) as exc:
        # a corpus without sentences, or an http backend without an endpoint
        raise CliError("config", str(exc)) from None
    records = run_sweep(config, ctx)
    write_report(records, config.snr_grid, args.out)
    print(f"wrote {len(records)} trial records to {args.out}")
    return 0


def _cmd_baseline(args) -> int:
    try:
        corpus = load_corpus(args.corpus)
    except FileNotFoundError:
        raise CliError("io", f"corpus file not found: {args.corpus}") from None
    except ValueError as exc:
        raise CliError("config", str(exc)) from None
    snr_grid = [_parse_snr(s) for s in args.snr] if args.snr else [math.inf]
    try:
        check_snr_grid("--snr", snr_grid)
    except ValueError as exc:
        raise CliError("usage", str(exc)) from None
    records = baseline_records(corpus, snr_grid, seed=args.seed)
    write_report(records, snr_grid, args.out)
    print(f"wrote {len(records)} trial records to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kgsemcom",
                     description="Knowledge-graph semantic communication toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-kg", help="validate and rewrite a KG file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--enrich", choices=["http"],
                   help="fill missing descriptions/summaries via the chat backend")
    p.set_defaults(func=_cmd_build_kg)

    p = sub.add_parser("extract", help="entity extraction trace for one sentence")
    p.add_argument("--kg", required=True)
    p.add_argument("--sentence", required=True)
    p.add_argument("--extract-backend", choices=["stub", "http"], default="stub")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("send", help="single transmission with a stage-by-stage trace")
    p.add_argument("--kg", required=True)
    p.add_argument("--sentence", required=True)
    p.add_argument("--snr", required=True,
                   help="channel SNR in dB (inf for noiseless, -inf for pure noise)")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--extract-backend", choices=["stub", "http"], default="stub")
    p.add_argument("--gen-backend", choices=["stub", "http"], default="stub")
    p.set_defaults(func=_cmd_send)

    p = sub.add_parser("sweep", help="run a configured SNR sweep, write CSV")
    p.add_argument("--config", required=True, help="JSON file with SweepConfig fields")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("baseline", help="text-only schemes over a corpus, write CSV")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--snr", nargs="*",
                   help="SNR grid in dB, inf and -inf included (default: noiseless)")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_baseline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        kind, message = exc.kind, str(exc)
    except OSError as exc:
        kind, message = "io", str(exc)
    except RuntimeError as exc:
        if not isinstance(exc.__cause__, OSError):  # not an endpoint that failed every retry
            raise
        kind, message = "io", f"{exc}: {exc.__cause__}"
    except ValueError as exc:
        if not str(exc).startswith(MALFORMED_REPLY):  # not an endpoint's unusable reply
            raise
        kind, message = "io", str(exc)
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
