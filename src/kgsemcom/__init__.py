"""Knowledge-graph grounded semantic communication toolkit.

Pipeline: extract entities from a sentence against a shared knowledge graph,
compress to a minimum connected subgraph of node ids, transmit the id payload
over a simulated noisy channel with importance-aware unequal error protection,
reconstruct the subgraph at the receiver, and regenerate text from it.
"""

__version__ = "0.1.0"

from .kg import (KnowledgeGraph, Entity, Community, Triple, NodeId,
                 KgFormatError, canonical_name, ingest, load)
from .embedding import TrigramEmbedder, EmbeddingIndex
from .extraction import (ExtractionTrace, Mention, CandidateSet,
                         SelectedEntities, StubSelector, HttpSelector,
                         recognize, expand, select, extract_trace)
from .semgraph import Mcsg, build_mcsg, one_hop, reconstruct
from .importance import (ImportanceConfig, ThresholdPolicy,
                         degree_centrality, betweenness_centrality,
                         importance_scores, partition_uep)
from .phy import (ChannelConfig, SymbolStream, TransmissionFrame, TransmitResult,
                  HuffmanTable, conv_encode,
                  qam16_modulate, qam16_demodulate, awgn, seed_state,
                  transmit_bits, channel_groups, serialize_frame, parse_coded_stream,
                  channel_bit_cost, transmit, transmit_many, huffman_build,
                  huffman_encode, huffman_decode, ids_to_bits)
from .generation import (Prompt, ReconstructedText, StubGenerator,
                         HttpGenerator, build_prompt, verbalize_relation,
                         enrich_kg)
from .remote import RemoteConfig
from .harness import (ExperimentRecord, SweepConfig, PipelineContext,
                      SCHEMES, semantic_similarity, run_pipeline,
                      run_sweep, baseline_records, render_report, write_report,
                      load_corpus, derive_seed)

__all__ = [
    "__version__",
    # knowledge graph
    "KnowledgeGraph", "Entity", "Community", "Triple", "NodeId",
    "KgFormatError", "canonical_name", "ingest", "load",
    # embeddings and retrieval
    "TrigramEmbedder", "EmbeddingIndex",
    # extraction
    "ExtractionTrace", "Mention", "CandidateSet", "SelectedEntities",
    "StubSelector", "HttpSelector", "recognize", "expand", "select",
    "extract_trace",
    # semantic subgraph
    "Mcsg", "build_mcsg", "one_hop", "reconstruct",
    # importance and UEP
    "ImportanceConfig", "ThresholdPolicy",
    "degree_centrality", "betweenness_centrality", "importance_scores",
    "partition_uep",
    # physical layer
    "ChannelConfig", "SymbolStream", "TransmissionFrame", "TransmitResult",
    "HuffmanTable", "conv_encode",
    "qam16_modulate", "qam16_demodulate", "awgn", "seed_state",
    "transmit_bits", "channel_groups", "serialize_frame", "parse_coded_stream",
    "channel_bit_cost",
    "transmit", "transmit_many", "huffman_build", "huffman_encode",
    "huffman_decode", "ids_to_bits",
    # generation
    "Prompt", "ReconstructedText", "StubGenerator", "HttpGenerator",
    "build_prompt", "verbalize_relation", "enrich_kg",
    # remote backends
    "RemoteConfig",
    # experiment harness
    "ExperimentRecord", "SweepConfig", "PipelineContext", "SCHEMES",
    "semantic_similarity", "run_pipeline", "run_sweep",
    "baseline_records", "render_report", "write_report", "load_corpus",
    "derive_seed",
]
