"""Acceptance gate: one test per shipped claim. Every test prints a single
measured verdict line (kept visible even under output capture) and then
asserts it, so a red criterion still reports its numbers."""

import math
import time

import numpy as np
import pytest

from kgsemcom import kg as kgmod
from kgsemcom.extraction import MAX_SELECTED, recognize
from kgsemcom.harness import (PipelineContext, SweepConfig, derive_seed,
                              render_report, run_pipeline, run_sweep,
                              semantic_similarity)
from kgsemcom.importance import betweenness_centrality, degree_centrality
from kgsemcom.kg import Triple, ingest
from kgsemcom.phy import (ChannelConfig, awgn, channel_groups, code_rate, conv_encode_frames,
                          huffman_decode, huffman_encode, payload_bits, puncture,
                          qam16_demodulate, qam16_modulate, transmit, transmit_many,
                          viterbi_decode_frames)
from kgsemcom.semgraph import Mcsg, build_mcsg, reconstruct, undirected_adjacency

from kgtools import load_synthkg


def _verdict(capsys, criterion: int | str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}",
              flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# -- criterion 1: uncoded 16QAM error rate matches closed-form theory ---------------

def test_criterion_1_uncoded_qam_ber_matches_theory(capsys):
    start = time.perf_counter()
    rng = _rng(1001)
    n_bits = 1_000_000
    parts, ok = [], True
    for ebn0_db in (6.0, 8.0, 10.0):
        bits = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
        symbol_snr_db = ebn0_db + 10 * math.log10(4)  # 4 bits per symbol
        cfg = ChannelConfig(symbol_snr_db, seed=int(ebn0_db * 1000))
        rx = qam16_demodulate(awgn(qam16_modulate(bits), cfg))
        ber = float(np.mean(rx != bits))
        gamma_b = 10 ** (ebn0_db / 10)
        theory = 0.375 * math.erfc(math.sqrt(0.4 * gamma_b))
        rel = abs(ber - theory) / theory
        ok &= rel < 0.10
        parts.append(f"{ebn0_db:g}dB meas {ber:.3e} vs theory {theory:.3e} "
                     f"(rel {rel:.1%})")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    _verdict(capsys, 1, ok, "; ".join(parts) + f"; {n_bits} bits/point, "
             f"{elapsed:.1f}s (budget 120s)")


# -- criterion 2: convolutional coding gain ------------------------------------------

def _coded_link(info: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """The production coded path: the frames coded at ``snr_db``'s pattern,
    and decoded from their soft bit metrics."""
    pattern = puncture(snr_db)
    coded = conv_encode_frames(info, pattern)
    metrics = channel_groups([coded.ravel()], [[snr_db]], [[seed]], soft=[True])[0]
    return viterbi_decode_frames(metrics.reshape(coded.shape), pattern)


def test_criterion_2_convolutional_coding_gain(capsys):
    # the schedule codes 2 to 8 dB at rate 2/3, its lowest rate; the noiseless
    # round trip runs at +inf, its top row
    rng = _rng(1002)
    n_frames, frame_bits = 100, 1000  # 1e5 info bits per SNR point
    info = rng.integers(0, 2, size=(n_frames, frame_bits), dtype=np.uint8)

    roundtrip_exact = bool(np.array_equal(_coded_link(info, math.inf, 0), info))

    parts, ok = [], roundtrip_exact
    for point, snr_db in enumerate((2.0, 4.0, 6.0, 8.0)):
        decoded = _coded_link(info, snr_db, 20_000 + point)
        coded_ber = float(np.mean(decoded != info))

        cfg_plain = ChannelConfig(snr_db, seed=30_000 + point)
        rx_plain = qam16_demodulate(awgn(qam16_modulate(info.ravel()), cfg_plain))
        uncoded_ber = float(np.mean(rx_plain != info.ravel()))

        gain = coded_ber < uncoded_ber
        ok &= gain
        parts.append(f"{snr_db:g}dB rate {code_rate(puncture(snr_db))} coded {coded_ber:.4f} "
                     f"{'<' if gain else '>='} uncoded {uncoded_ber:.4f}")
    _verdict(capsys, 2, ok,
             "; ".join(parts) + f"; noiseless 1e5-bit roundtrip exact: {roundtrip_exact}")


# -- criterion 3: centrality matches brute force -------------------------------------

def _enumerate_shortest_paths(adj, src, dst, dist):
    """All shortest src->dst paths by literal DFS along BFS layers."""
    paths, stack = [], [(src, [src])]
    while stack:
        node, path = stack.pop()
        if node == dst:
            paths.append(path)
            continue
        for nxt in adj[node]:
            if dist[nxt] == dist[node] + 1 and dist[nxt] <= dist[dst]:
                stack.append((nxt, path + [nxt]))
    return paths


def _brute_force_betweenness(mcsg: Mcsg) -> dict:
    adj = {n: set() for n in mcsg.nodes}
    for t in mcsg.edges:
        if t.subject != t.object:
            adj[t.subject].add(t.object)
            adj[t.object].add(t.subject)
    score = {n: 0.0 for n in mcsg.nodes}
    nodes = sorted(mcsg.nodes)
    for i, s in enumerate(nodes):
        dist = {v: -1 for v in nodes}
        dist[s] = 0
        queue = [s]
        while queue:
            v = queue.pop(0)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        for d in nodes[i + 1:]:
            if dist[d] <= 0:
                continue
            paths = _enumerate_shortest_paths(adj, s, d, dist)
            for path in paths:
                for interior in path[1:-1]:
                    score[interior] += 1.0 / len(paths)
    return score


def _random_importance_graph(rng) -> Mcsg:
    n = int(rng.integers(2, 13))
    nodes = sorted(int(v) for v in rng.choice(5000, size=n, replace=False))
    edges = set()
    for _ in range(int(rng.integers(1, n * 2 + 1))):
        a, b = (int(v) for v in rng.choice(nodes, size=2, replace=False))
        edges.add(Triple(a, f"r{int(rng.integers(0, 3))}", b))
    triples = tuple(sorted(edges, key=lambda t: (t.subject, t.relation, t.object)))
    return Mcsg(nodes=frozenset(nodes), seed_nodes=frozenset(nodes[:1]), edges=triples)


def test_criterion_3_centrality_matches_brute_force(capsys):
    start = time.perf_counter()
    rng = _rng(1003)
    worst = 0.0
    ok = True
    for _ in range(200):
        mcsg = _random_importance_graph(rng)
        adj = {n: set() for n in mcsg.nodes}
        for t in mcsg.edges:
            if t.subject != t.object:
                adj[t.subject].add(t.object)
                adj[t.object].add(t.subject)
        program_adj = undirected_adjacency(mcsg.nodes, mcsg.edges)
        ok &= degree_centrality(program_adj) == {n: len(adj[n]) for n in mcsg.nodes}
        expected = _brute_force_betweenness(mcsg)
        actual = betweenness_centrality(program_adj)
        ok &= set(actual) == set(expected)
        worst = max(worst, max(abs(actual[n] - expected[n]) for n in expected))
    ok &= worst <= 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _verdict(capsys, 3, ok, f"200 graphs (<=12 nodes): degree exact, betweenness "
             f"max |diff| {worst:.2e} (tol 1e-9), {elapsed:.1f}s (budget 30s)")


# -- criterion 4: subgraph construction and reconstruction exactness -----------------

def _random_kg(rng) -> kgmod.KnowledgeGraph:
    n = int(rng.integers(2, 25))
    lines = ["C\tc0\tlabel\tsummary"]
    lines += [f"E\t{i}\tNode{i}\tc0\tdescription {i}\t" for i in range(n)]
    for _ in range(int(rng.integers(1, 3 * n))):
        a, b = (int(v) for v in rng.integers(0, n, size=2))
        lines.append(f"T\t{a}\trel{int(rng.integers(0, 3))}\t{b}")
    return ingest(lines)


def _oracle_one_hop(kg, seeds):
    nodes = set(seeds)
    nodes |= {t.object for t in kg.triples if t.subject in seeds}
    nodes |= {t.subject for t in kg.triples if t.object in seeds}
    edges = tuple(sorted((t for t in kg.triples
                          if t.subject in nodes and t.object in nodes),
                         key=lambda t: (t.subject, t.relation, t.object)))
    return frozenset(nodes), edges


def _oracle_largest_component(kg, received):
    valid = {i for i in received if i in kg.entities}
    if not valid:
        return frozenset()
    adj = {n: set() for n in valid}
    for t in kg.triples:
        if t.subject in valid and t.object in valid:
            adj[t.subject].add(t.object)
            adj[t.object].add(t.subject)
    comps, seen = [], set()
    for start in sorted(valid):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        seen |= comp
        comps.append(comp)
    comps.sort(key=lambda c: (-len(c), min(c)))
    return frozenset(comps[0])


def test_criterion_4_subgraph_exactness(capsys):
    rng = _rng(1004)
    build_ok = True
    for _ in range(100):
        kg = _random_kg(rng)
        ids = sorted(kg.entities)
        seeds = tuple(sorted(int(v) for v in rng.choice(
            ids, size=int(rng.integers(1, min(4, len(ids)) + 1)), replace=False)))
        mcsg = build_mcsg(seeds, kg)
        nodes, edges = _oracle_one_hop(kg, set(seeds))
        build_ok &= mcsg.nodes == nodes and mcsg.edges == edges
        build_ok &= mcsg.seed_nodes == frozenset(seeds)

    recon_ok = True
    for _ in range(100):
        kg = _random_kg(rng)
        ids = sorted(kg.entities)
        payload = [int(v) for v in ids if rng.random() > 0.3]
        payload += [int(v) for v in rng.integers(0, 2**32, size=rng.integers(0, 4))]
        rng.shuffle(payload)
        recon = reconstruct(payload, kg)
        expected = _oracle_largest_component(kg, payload)
        recon_ok &= recon.nodes == expected
        recon_ok &= recon.edges == tuple(
            sorted((t for t in kg.triples
                    if t.subject in expected and t.object in expected),
                   key=lambda t: (t.subject, t.relation, t.object)))
        recon_ok &= recon.seed_nodes == recon.nodes

    receive_ok = True
    for _ in range(100):
        kg = _random_kg(rng)
        ids = sorted(kg.entities)
        seeds = [int(v) for v in ids if rng.random() > 0.8]
        received = seeds * 2 + [-1] + [int(v) for v in rng.integers(0, 2**32, size=3)]
        rng.shuffle(received)
        recon, _, _ = PipelineContext(kg).receive(received)
        valid = {i for i in received if i in kg.entities}
        expected = _oracle_largest_component(kg, _oracle_one_hop(kg, valid)[0])
        receive_ok &= recon.nodes == expected and recon.seed_nodes == valid & expected
        receive_ok &= recon.edges == tuple(
            t for t in _oracle_one_hop(kg, valid)[1]
            if t.subject in expected and t.object in expected)
    _verdict(capsys, 4, build_ok and recon_ok and receive_ok,
             f"one-hop construction oracle 100 KGs: {'exact' if build_ok else 'MISMATCH'}; "
             f"discard-invalid + largest-component oracle on 100 corrupted payloads: "
             f"{'exact' if recon_ok else 'MISMATCH'}; receiver's one hop from 100 "
             f"corrupted seed lists: {'exact' if receive_ok else 'MISMATCH'}")


# -- criterion 5: payload efficiency against text coding -----------------------------

def test_criterion_5_payload_efficiency(capsys, sample_kg, sample_corpus):
    ctx = PipelineContext(sample_kg, sample_corpus)
    kg_bits, huff_bits, ascii_bits = [], [], []
    for sentence in sample_corpus:
        frame = ctx.send_frame(ctx.analyze(sentence), 0.0)  # the ids actually sent
        kg_bits.append(payload_bits(len(frame.protected_ids) + len(frame.unprotected_ids),
                                    frame.width))
        huff_bits.append(len(huffman_encode(sentence, ctx.huffman_table)))
        ascii_bits.append(8 * len(sentence))
    long_idx = [i for i, s in enumerate(sample_corpus) if len(s) > 120]
    per_sentence_ok = all(kg_bits[i] < huff_bits[i] for i in long_idx)
    cum_ok = True
    kg_cum = huff_cum = ascii_cum = 0
    for k, h, a in zip(kg_bits, huff_bits, ascii_bits):
        kg_cum += k
        huff_cum += h
        ascii_cum += a
        cum_ok &= kg_cum < huff_cum and kg_cum < ascii_cum
    ok = per_sentence_ok and cum_ok and len(long_idx) > 0
    _verdict(capsys, 5, ok,
             f"{len(long_idx)}/{len(sample_corpus)} sentences over 120 chars, "
             f"id payload < huffman on each: {per_sentence_ok}; cumulative totals "
             f"{kg_cum} (ids) < {huff_cum} (huffman) < {ascii_cum} (ascii) at every "
             f"prefix: {cum_ok}")


# -- criterion 6: similarity trend over SNR + noiseless exact recovery ---------------

def test_criterion_6_similarity_trend_and_noiseless_recovery(capsys, sample_kg,
                                                             sample_corpus):
    ctx = PipelineContext(sample_kg, sample_corpus)
    snr_grid = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    n_seeds = 50

    exact_recoveries = 0
    for sentence in sample_corpus:
        analysis = ctx.analyze(sentence)
        if not analysis.mcsg.seed_nodes:
            continue
        result = transmit(ctx.send_frame(analysis, math.inf), ChannelConfig(math.inf, 0))
        recon, _, _ = ctx.receive(ctx.received_ids(result))
        if recon.nodes == analysis.mcsg.nodes and recon.edges == analysis.mcsg.edges:
            exact_recoveries += 1
    recovery_ok = exact_recoveries == len(sample_corpus)

    sim_cache: dict[tuple[int, str], float] = {}
    means = []
    for snr_index, snr_db in enumerate(snr_grid):
        sims = []
        for sentence_id, sentence in enumerate(sample_corpus):
            frame = ctx.send_frame(ctx.analyze(sentence), snr_db)
            cfgs = [ChannelConfig(snr_db, derive_seed(6006, sentence_id, snr_index,
                                                      trial, "kgrag"))
                    for trial in range(n_seeds)]
            for result in transmit_many([frame] * len(cfgs), cfgs):
                recon, text, _ = ctx.receive(ctx.received_ids(result))
                if not recon.nodes:
                    sims.append(0.0)
                    continue
                key = (sentence_id, text)
                if key not in sim_cache:
                    sim_cache[key] = semantic_similarity(sentence, text, ctx.embedder)
                sims.append(sim_cache[key])
        means.append(sum(sims) / len(sims))
    trend_ok = all(means[i + 1] >= means[i] - 0.02 for i in range(len(means) - 1))
    ok = trend_ok and recovery_ok
    curve = ", ".join(f"{snr:g}dB {m:.3f}" for snr, m in zip(snr_grid, means))
    _verdict(capsys, 6, ok,
             f"{len(sample_corpus)} sentences x {n_seeds} seeds; mean similarity "
             f"[{curve}] non-decreasing (tol 0.02): {trend_ok}; noiseless exact "
             f"subgraph recovery {exact_recoveries}/{len(sample_corpus)}")


# -- criterion 7: huffman baseline is exact without noise ----------------------------

def test_criterion_7_huffman_noiseless_fidelity(capsys, sample_kg, sample_corpus):
    ctx = PipelineContext(sample_kg, sample_corpus)
    worst_gap = 0.0
    text_exact = True
    for sentence_id, sentence in enumerate(sample_corpus):
        rx = qam16_demodulate(awgn(
            qam16_modulate(huffman_encode(sentence, ctx.huffman_table)),
            ChannelConfig(math.inf, sentence_id)))
        text_exact &= huffman_decode(rx, ctx.huffman_table) == sentence
        record = run_pipeline(ctx, sentence, sentence_id, math.inf, seed=sentence_id,
                              scheme="huffman_baseline")
        worst_gap = max(worst_gap, abs(record.similarity - 1.0))
    ok = text_exact and worst_gap <= 1e-6
    _verdict(capsys, 7, ok, f"{len(sample_corpus)} sentences: decoded text exact: "
             f"{text_exact}; worst |similarity - 1| = {worst_gap:.2e} (tol 1e-6)")


# -- criterion 8: sweep determinism ---------------------------------------------------

def test_criterion_8_sweep_byte_determinism(capsys, sample_kg_path,
                                            sample_corpus_path):
    config = SweepConfig(kg_path=str(sample_kg_path),
                         corpus_path=str(sample_corpus_path),
                         snr_grid=[0.0, 6.0, 12.0], trials_per_point=1, seed=7)
    report_a = render_report(run_sweep(config), config.snr_grid)
    report_b = render_report(run_sweep(config), config.snr_grid)
    ok = report_a == report_b
    n_rows = sum(1 for line in report_a.splitlines() if line.startswith("trial,"))
    _verdict(capsys, 8, ok, f"two fresh sweep runs ({n_rows} trial rows each): "
             f"byte-identical: {ok}")


# -- criterion 9: kgrag beats both text baselines at low SNR, in fewer bits ----------

def test_criterion_9_low_snr_fidelity_and_overhead(capsys, sample_kg_path,
                                                    sample_corpus_path):
    config = SweepConfig(kg_path=str(sample_kg_path), corpus_path=str(sample_corpus_path),
                         snr_grid=[0.0, 2.0, 4.0], trials_per_point=10, seed=9009)
    _low_snr_verdict(capsys, 9, config)


def _low_snr_verdict(capsys, criterion: int | str, config: SweepConfig) -> None:
    """Criterion 9's test on the graph and corpus of ``config``. A point
    passes only if, against each text baseline, the paired lower bound
    mean - 1.96 SE of kgrag's per-sentence lead (its mean over the trials
    minus the baseline's) is above 0."""
    records = run_sweep(config)

    def mean(values):
        return sum(values) / len(values)

    by_sentence: dict[tuple[str, float, int], list[float]] = {}
    for r in records:
        by_sentence.setdefault((r.scheme, r.snr_db, r.sentence_id), []).append(r.similarity)
    sentences = sorted({r.sentence_id for r in records})
    parts, ok = [], True
    for snr_db in config.snr_grid:
        kgrag = [mean(by_sentence["kgrag", snr_db, s]) for s in sentences]
        leads = []
        for scheme in ("huffman_baseline", "ascii"):
            diffs = [k - mean(by_sentence[scheme, snr_db, s]) for k, s in zip(kgrag, sentences)]
            lead, se = _paired(diffs)
            wins = lead - 1.96 * se > 0
            ok &= wins
            leads.append(f"{'huffman' if scheme == 'huffman_baseline' else scheme} "
                         f"{mean(kgrag) - lead:.3f}, lead {lead:+.4f} SE {se:.4f} "
                         f"ahead {sum(d > 0 for d in diffs)}/{len(diffs)}"
                         f"{'' if wins else ' (LOSES)'}")
        parts.append(f"{snr_db:g}dB kgrag {mean(kgrag):.3f} vs " + " / ".join(leads))
    bits = {scheme: mean([r.channel_bits for r in records if r.scheme == scheme])
            for scheme in ("kgrag", "huffman_baseline")}
    fewer_bits = bits["kgrag"] < bits["huffman_baseline"]
    ok &= fewer_bits
    _verdict(capsys, criterion, ok,
             "; ".join(parts) + f"; mean channel bits kgrag {bits['kgrag']:.1f} "
             f"{'<' if fewer_bits else '>='} huffman {bits['huffman_baseline']:.1f}")


def _paired(diffs: list[float]) -> tuple[float, float]:
    """The mean of per-sentence differences and its standard error."""
    lead = sum(diffs) / len(diffs)
    return lead, math.sqrt(sum((d - lead) ** 2 for d in diffs) / (len(diffs) - 1) / len(diffs))


def _synthetic_paths(tmp_path, seed: int, n_entities: int, n_sentences: int) -> tuple[str, str]:
    """(KG path, corpus path) of the benchmark generator's graph and corpus."""
    kg_text, corpus_text = load_synthkg().generate(seed, n_entities, n_sentences)
    kg_path = tmp_path / f"synth_{seed}_{n_entities}.tsv"
    corpus_path = tmp_path / f"synth_{seed}_{n_entities}.txt"
    kg_path.write_text(kg_text, encoding="utf-8")
    corpus_path.write_text(corpus_text, encoding="utf-8")
    return str(kg_path), str(corpus_path)


# -- criterion 9h: criterion 9 on a held-out synthetic graph ----------------------------

def test_criterion_9h_held_out_low_snr_fidelity_and_overhead(capsys, tmp_path):
    kg_path, corpus_path = _synthetic_paths(tmp_path, 11, 2000, 100)
    config = SweepConfig(kg_path=kg_path, corpus_path=corpus_path,
                         snr_grid=[0.0, 2.0, 4.0], trials_per_point=10, seed=4242)
    _low_snr_verdict(capsys, "9h", config)


# -- criterion 11: the importance-aware split beats time-sharing of fixed splits --------

def _best_time_sharing(a: tuple[float, float], b: tuple[float, float],
                       bits_cap: float) -> tuple[float, float, float] | None:
    """The highest-similarity (similarity, bits, share of a) of a
    time-sharing mix of two policies' (mean similarity, mean bits) that uses
    at most ``bits_cap`` mean bits; None if no mix does. Both means are
    linear in the mix, so the best one is an endpoint or the mix that spends
    exactly ``bits_cap``."""
    (sim_a, bits_a), (sim_b, bits_b) = a, b
    mixes = [(*p, share) for p, share in ((a, 1.0), (b, 0.0)) if p[1] <= bits_cap]
    if min(bits_a, bits_b) < bits_cap < max(bits_a, bits_b):
        share = (bits_cap - bits_b) / (bits_a - bits_b)
        mixes.append((share * sim_a + (1.0 - share) * sim_b, bits_cap, share))
    return max(mixes, default=None)


def test_criterion_11_importance_split_beats_time_sharing(capsys, sample_kg_path,
                                                          sample_corpus_path):
    policies = {"default": SweepConfig.threshold_policy, "top": ((0.0, 1.0),),
                "all": ((0.0, 0.0),)}
    means: dict[str, dict[float, tuple[float, float]]] = {}
    # (policy, SNR) -> each sentence's mean similarity over its trials
    by_sentence: dict[tuple[str, float], list[float]] = {}
    for name, policy in policies.items():
        config = SweepConfig(kg_path=str(sample_kg_path), corpus_path=str(sample_corpus_path),
                             trials_per_point=10, seed=9009, schemes=("kgrag",),
                             threshold_policy=policy)
        records = run_sweep(config)
        means[name] = {}
        for snr_db in config.snr_grid:
            point = [r for r in records if r.snr_db == snr_db]
            means[name][snr_db] = (sum(r.similarity for r in point) / len(point),
                                   sum(r.channel_bits for r in point) / len(point))
            trials: dict[int, list[float]] = {}
            for r in point:
                trials.setdefault(r.sentence_id, []).append(r.similarity)
            by_sentence[name, snr_db] = [sum(t) / len(t) for _, t in sorted(trials.items())]
    parts, ok = [], True
    for snr_db, (sim, bits) in means["default"].items():
        best = _best_time_sharing(means["all"][snr_db], means["top"][snr_db], bits)
        red = best is not None and best[0] > sim
        ok &= not red
        mix = "none fits" if best is None else f"{best[0]:.4f} @ {best[1]:.1f}"
        if best is not None:  # printed beside the gate, which stays on the means
            share = best[2]
            lead, se = _paired([d - (share * a + (1.0 - share) * t) for d, a, t in zip(
                by_sentence["default", snr_db], by_sentence["all", snr_db],
                by_sentence["top", snr_db])])
            mix += f", paired bound {lead - 1.96 * se:+.4f} (lead {lead:+.4f} SE {se:.4f})"
        parts.append(f"{snr_db:g}dB default {sim:.4f} @ {bits:.1f} vs best mix {mix}"
                     f"{' (BEATEN)' if red else ''}")
    _verdict(capsys, 11, ok, "; ".join(parts))


# -- criterion 12: every entity an exact gazetteer mention names is selected -----------

@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="community routing loses exact-name mentions on large graphs. Measured "
           "recall / empty selections: 0.51 / 28% on synthkg (11, 2000, 100), "
           "0.388 / 37.5% on (3, 8000, 80). The change that earns green removes "
           "this marker.")
def test_criterion_12_exact_mentions_are_selected(capsys, tmp_path):
    parts, ok = [], True
    for graph in ((11, 2000, 100), (3, 8000, 80)):
        kg_path, corpus_path = _synthetic_paths(tmp_path, *graph)
        ctx = PipelineContext.from_config(SweepConfig(kg_path=kg_path, corpus_path=corpus_path))
        named = found = empty = 0
        for sentence in ctx.corpus:
            selected = set(ctx.analyze(sentence).mcsg.seed_nodes)
            exact = {ctx.kg.id_of(m.surface) for m in recognize(sentence, ctx.kg)} - {None}
            named += len(exact)
            found += len(exact & selected)
            empty += not selected
            ok &= exact <= selected or len(selected) >= MAX_SELECTED
        parts.append(f"synthkg{graph}: recall {found / named:.3f} ({found}/{named}), "
                     f"empty selections {empty / len(ctx.corpus):.1%}")
    _verdict(capsys, 12, ok, "; ".join(parts))
