//! The traced run: a single thread drives a workload's seeded stream through
//! the runtime's public functions in pipeline order, one batch at a time,
//! with one span per layer per batch.  It never supplies an end-to-end
//! number; it explains them.
//!
//! Producer side: `source` (`InterleavedSource::next_round`),
//! `packet.encode` (`SyndromePacket::new` + `PacketCodec::encode*`),
//! `stage.gate.admit` (`QosGate::admit`), `stage.channel.send`
//! (`CreditChannel::try_send`).  Worker side: `stage.channel.recv`,
//! `packet.decode` (`verify` + `try_decode_into` + unpack, plus
//! `decode_error_into` when packets carry errors), the decoder (both sectors
//! plus compose), `residual` (`classify_both_sectors_into`), `frame`
//! (`PauliFrame::record`), `obs` (the sink's histogram records) and
//! `stage.gate.credit` (`QosGate::credit_decode`).  The decoder the workload
//! does not use, and residual classification on a workload without it, run
//! on the same rounds in chunks of their own ("shadow" layers), so every
//! layer has a figure on every workload; they are left out of the side sums.

use crate::closed::{
    self, frames_hash, ChunkDigest, Options, COVERIFY_ROUNDS, MIN_TIMED_CHUNKS, WARMUP_CHUNKS,
};
use crate::span::{fold, LayerTotals, OpenSpan, Tracer};
use crate::stats::{median, sorted, upper_percentile};
use crate::workload::{DecoderKind, Workload, MACHINE_ROUNDS_PER_BATCH, SEED_SETS};
use crate::Metric;
use nisqplus_core::SfqMeshDecoder;
use nisqplus_decoders::{Decoder, DynDecoder, UnionFindDecoder};
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::logical::classify_both_sectors_into;
use nisqplus_qec::{PauliFrame, PauliString, ResidualTally, Syndrome};
use nisqplus_runtime::stage::{Admission, CreditChannel, QosGate};
use nisqplus_runtime::{
    InterleavedSource, LatticeSet, LocalHistogram, LogHistogram, PacketCodec, SourcedRound,
    SyndromePacket, SyndromeSource,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's syndrome-generation cadence.
pub const CADENCE_NS: f64 = 400.0;

/// Distances of the per-distance decoder panel.
pub const PANEL_DISTANCES: [usize; 4] = [3, 5, 7, 9];

/// Rounds with a non-empty syndrome the decoder panel samples per distance
/// (an empty syndrome costs the mesh no cycles), and the cap on rounds
/// generated to find them.
const PANEL_NONTRIVIAL: usize = 512;
const PANEL_MAX_ROUNDS: usize = 16_384;

const UF_PANEL: [&str; 4] = [
    "union_find.d3",
    "union_find.d5",
    "union_find.d7",
    "union_find.d9",
];
const MESH_PANEL: [&str; 4] = ["mesh.d3", "mesh.d5", "mesh.d7", "mesh.d9"];

/// Producer-side layers, in pipeline order.
const PRODUCER: [&str; 4] = [
    "source",
    "packet.encode",
    "stage.gate.admit",
    "stage.channel.send",
];

/// Everything the traced run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRun {
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// The human-readable budget and cadence-gap table.
    pub report: Vec<String>,
    /// Rounds attempted (engine reference and layer drive).
    pub attempted: u64,
    /// Rounds in chunks whose check failed.
    pub failed: u64,
    /// Check failures, in order.
    pub errors: Vec<String>,
}

/// Reusable per-round state of one batch position.  Batches are whole
/// machine rounds of a round-robin stream, so position `j` always holds
/// lattice `j % lattices`.
struct Slot {
    lattice: usize,
    decoder: usize,
    packet: SyndromePacket,
    syndrome: Syndrome,
    x: PauliString,
    z: PauliString,
    shadow_x: PauliString,
    shadow_z: PauliString,
    error: PauliString,
    residual: PauliString,
}

/// One driven chunk.
struct DrivenChunk {
    wall_s: f64,
    setup: [f64; 3],
    rounds: u64,
    digest: ChunkDigest,
}

/// Decoders for the distinct distances of a machine, in first-seen order.
fn build_decoders(set: &LatticeSet, kind: DecoderKind) -> (Vec<usize>, Vec<DynDecoder>) {
    let mut distances = Vec::new();
    let mut decoders = Vec::new();
    for (_, spec, lattice) in set.iter() {
        if !distances.contains(&spec.distance) {
            let mut decoder = kind.factory()();
            decoder.prepare(lattice);
            distances.push(spec.distance);
            decoders.push(decoder);
        }
    }
    (distances, decoders)
}

/// How one driven chunk is timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The pipeline layers, untraced: the overhead baseline.
    Plain,
    /// The pipeline layers, one span per layer per batch.
    Traced,
    /// The pipeline layers untraced, then the shadow layers traced, so
    /// shadow work never shares a timed batch with the pipeline's.
    Shadow,
}

/// Classifies each slot's residual: against the error the packet carried
/// (`from_packet`) or, off the pipeline, the one the source drew.
fn classify(
    set: &LatticeSet,
    slots: &mut [Slot],
    sourced: &[SourcedRound],
    from_packet: bool,
    tallies: &mut [ResidualTally],
) {
    for (slot, round) in slots.iter_mut().zip(sourced) {
        let error = if from_packet {
            &slot.error
        } else {
            &round.error
        };
        let (x, z) = classify_both_sectors_into(
            set.lattice(slot.lattice),
            error,
            &slot.x,
            &mut slot.residual,
        );
        tallies[slot.lattice].record_states(x, z);
    }
}

/// Drives one chunk (the same machine and seeds as the engine's chunk of
/// that seed set) through the layers.
#[allow(clippy::too_many_lines)]
fn drive_chunk(
    workload: &Workload,
    seed: u64,
    seed_set: u64,
    rounds_per_lattice: u64,
    mode: Mode,
    tracer: &mut Tracer,
) -> Result<DrivenChunk, String> {
    let config = workload.machine(seed, seed_set, rounds_per_lattice);
    let specs = config.lattices.clone();
    let t0 = Instant::now();
    let set = LatticeSet::new(specs).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let mut source = InterleavedSource::new(&set, &config.cycle_time).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let (distances, mut decoders) = build_decoders(&set, workload.decoder);
    let t3 = Instant::now();
    let shadow_kind = match workload.decoder {
        DecoderKind::UnionFind => DecoderKind::Mesh,
        DecoderKind::Mesh => DecoderKind::UnionFind,
    };
    let (_, mut shadow) = build_decoders(&set, shadow_kind);

    let codec = if workload.residuals {
        PacketCodec::with_error_payload(&set.ancilla_bits(), &set.data_bits())
    } else {
        PacketCodec::for_lattice_bits(&set.ancilla_bits())
    };
    let gate = QosGate::for_machine(&config, &set);
    let lattices = set.len();
    let batch = MACHINE_ROUNDS_PER_BATCH as usize * lattices;
    let words = codec.words_per_packet();
    let channel = CreditChannel::new(batch, words);
    let mut slots: Vec<Slot> = (0..batch)
        .map(|j| {
            let lattice = set.lattice(j % lattices);
            let distance = set.spec(j % lattices).distance;
            let pauli = || PauliString::identity(lattice.num_data());
            Slot {
                lattice: j % lattices,
                decoder: distances.iter().position(|&d| d == distance).unwrap_or(0),
                packet: SyndromePacket::new(0, 0, 0, &Syndrome::new(lattice.num_ancillas())),
                syndrome: Syndrome::new(lattice.num_ancillas()),
                x: pauli(),
                z: pauli(),
                shadow_x: pauli(),
                shadow_z: pauli(),
                error: pauli(),
                residual: pauli(),
            }
        })
        .collect();
    let mut records = vec![vec![0u64; words]; batch];
    let mut received = vec![vec![0u64; words]; batch];
    let mut sourced: Vec<SourcedRound> = Vec::with_capacity(batch);
    let mut frames: Vec<PauliFrame> = set
        .iter()
        .map(|(_, _, l)| PauliFrame::new(l.num_data()))
        .collect();
    let mut decode_hist: Vec<LocalHistogram> =
        (0..lattices).map(|_| LocalHistogram::new()).collect();
    let mut total_hist: Vec<LocalHistogram> =
        (0..lattices).map(|_| LocalHistogram::new()).collect();
    let live = LogHistogram::new();
    let mut tallies = vec![ResidualTally::new(); lattices];
    let mut shadow_tallies = tallies.clone();
    let decoder_layer = workload.decoder.layer();
    let shadow_layer = shadow_kind.layer();
    let n = batch as u64;
    let bytes = n * words as u64 * 8;
    let mut ok = true;

    let start = Instant::now();
    for _ in 0..rounds_per_lattice / MACHINE_ROUNDS_PER_BATCH {
        tracer.set_enabled(mode == Mode::Traced);
        let batch_span = tracer.open("batch", None);
        let parent = batch_span.as_ref().map(OpenSpan::id);
        // ---- producer ----
        ok &= tracer.span("source", parent, n, 0, || {
            sourced.clear();
            for j in 0..batch {
                match source.next_round() {
                    Some(round) if round.lattice_id as usize == j % lattices => {
                        sourced.push(round);
                    }
                    _ => return false,
                }
            }
            true
        });
        tracer.span("packet.encode", parent, n, 0, || {
            for (round, record) in sourced.iter().zip(records.iter_mut()) {
                let packet = SyndromePacket::new(round.lattice_id, round.round, 0, &round.syndrome);
                if codec.carries_errors() {
                    codec.encode_with_error(&packet, &round.error, record);
                } else {
                    codec.encode(&packet, record);
                }
            }
        });
        ok &= tracer.span("stage.gate.admit", parent, n, 0, || {
            sourced
                .iter()
                .all(|round| gate.admit(round.lattice_id as usize) == Admission::Granted)
        });
        ok &= tracer.span("stage.channel.send", parent, n, bytes, || {
            records.iter().all(|record| channel.try_send(record))
        });
        // ---- worker ----
        ok &= tracer.span("stage.channel.recv", parent, n, 0, || {
            received.iter_mut().all(|record| channel.try_recv(record))
        });
        ok &= tracer.span("packet.decode", parent, n, 0, || {
            for (slot, record) in slots.iter_mut().zip(&received) {
                match codec.verify(record) {
                    Ok(id) if id as usize == slot.lattice => {}
                    _ => return false,
                }
                if codec.try_decode_into(record, &mut slot.packet).is_err() {
                    return false;
                }
                slot.packet.syndrome.write_to_syndrome(&mut slot.syndrome);
                if codec.carries_errors() {
                    codec.decode_error_into(record, slot.lattice as u32, &mut slot.error);
                }
            }
            true
        });
        tracer.span(decoder_layer, parent, n, 0, || {
            for slot in &mut slots {
                let lattice = set.lattice(slot.lattice);
                let decoder = &mut decoders[slot.decoder];
                decoder.decode_into(lattice, &slot.syndrome, Sector::X, &mut slot.x);
                decoder.decode_into(lattice, &slot.syndrome, Sector::Z, &mut slot.z);
                slot.x.compose_with(&slot.z);
            }
        });
        if workload.residuals {
            tracer.span("residual", parent, n, 0, || {
                classify(&set, &mut slots, &sourced, true, &mut tallies);
            });
        }
        tracer.span("frame", parent, n, 0, || {
            for slot in &slots {
                frames[slot.lattice].record(&slot.x);
            }
        });
        tracer.span("obs", parent, n, 0, || {
            for (j, slot) in slots.iter().enumerate() {
                // Varied, plausible nanosecond values; the cost under test
                // is the record, not the value.
                let value = 300 + (j as u64 * 37) % 2048;
                decode_hist[slot.lattice].record(value);
                total_hist[slot.lattice].record(value * 8);
                live.record_bucket(value);
            }
        });
        tracer.span("stage.gate.credit", parent, n, 0, || {
            for slot in &slots {
                gate.credit_decode(slot.lattice);
            }
        });
        tracer.close(batch_span, n, 0);
        if mode == Mode::Shadow {
            tracer.set_enabled(true);
            tracer.span(shadow_layer, None, n, 0, || {
                for slot in &mut slots {
                    let lattice = set.lattice(slot.lattice);
                    let decoder = &mut shadow[slot.decoder];
                    decoder.decode_into(lattice, &slot.syndrome, Sector::X, &mut slot.shadow_x);
                    decoder.decode_into(lattice, &slot.syndrome, Sector::Z, &mut slot.shadow_z);
                    slot.shadow_x.compose_with(&slot.shadow_z);
                }
            });
            if !workload.residuals {
                tracer.span("residual", None, n, 0, || {
                    classify(&set, &mut slots, &sourced, false, &mut shadow_tallies);
                });
            }
            tracer.set_enabled(false);
        }
        if !ok {
            return Err(format!(
                "layer drive of seed set {seed_set} broke: a round was missing, refused or rejected"
            ));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (classified, failures) = if workload.residuals {
        tallies
            .iter()
            .fold((0, 0), |(c, f), t| (c + t.rounds, f + t.failures()))
    } else {
        (0, 0)
    };
    Ok(DrivenChunk {
        wall_s,
        setup: [
            (t1 - t0).as_secs_f64(),
            (t2 - t1).as_secs_f64(),
            (t3 - t2).as_secs_f64(),
        ],
        rounds: workload.chunk_total(rounds_per_lattice),
        digest: ChunkDigest {
            classified,
            failures,
            frames: frames_hash(frames.iter().map(PauliFrame::as_pauli_string)),
        },
    })
}

/// Per-distance decoder costs at the workload's noise.
struct PanelRow {
    distance: usize,
    sim_ns_p99: f64,
}

/// Decodes a fixed seeded sample at every panel distance with both
/// decoders, one span per decoder and distance, until `budget` is spent.
/// The sample is the stream's rounds up to the [`PANEL_NONTRIVIAL`]th with a
/// non-empty syndrome.  Simulated mesh time per round is the slower of the
/// two sectors' meshes (they run side by side in hardware), in cycles × the
/// module latency; its p99 is taken over the non-empty rounds.
fn decoder_panel(
    workload: &Workload,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<Vec<PanelRow>, String> {
    struct Lane {
        lattice: Arc<Lattice>,
        syndromes: Vec<Syndrome>,
        uf: UnionFindDecoder,
        mesh: SfqMeshDecoder,
        x: PauliString,
        z: PauliString,
    }
    let mut lanes = Vec::new();
    let mut rows = Vec::new();
    for &d in &PANEL_DISTANCES {
        let lattice = Arc::new(Lattice::new(d).map_err(|e| e.to_string())?);
        let lane_seed = crate::workload::splitmix64(seed ^ (0xD15 << 8) ^ d as u64);
        let mut source = SyndromeSource::new(Arc::clone(&lattice), workload.noise(), lane_seed)
            .map_err(|e| e.to_string())?;
        let mut syndromes = Vec::new();
        let mut nontrivial = 0;
        while nontrivial < PANEL_NONTRIVIAL && syndromes.len() < PANEL_MAX_ROUNDS {
            let syndrome = source.next_syndrome();
            nontrivial += usize::from(syndrome.any_hot());
            syndromes.push(syndrome);
        }
        let mut uf = UnionFindDecoder::new();
        uf.prepare(&lattice);
        let mut mesh = SfqMeshDecoder::final_design();
        mesh.prepare(&lattice);
        let mut x = PauliString::identity(lattice.num_data());
        let mut z = PauliString::identity(lattice.num_data());
        let mut cycles: Vec<usize> = Vec::with_capacity(nontrivial);
        for syndrome in syndromes.iter().filter(|s| s.any_hot()) {
            let mut slowest = 0;
            for (sector, out) in [(Sector::X, &mut x), (Sector::Z, &mut z)] {
                mesh.decode_into(&lattice, syndrome, sector, out);
                slowest = slowest.max(mesh.last_stats().map_or(0, |s| s.cycles));
            }
            cycles.push(slowest);
        }
        if cycles.is_empty() {
            return Err(format!(
                "no non-empty syndrome in {PANEL_MAX_ROUNDS} rounds at d={d}"
            ));
        }
        cycles.sort_unstable();
        // Nearest rank: the smallest value with at least 99% at or below it.
        let rank = (cycles.len() * 99).div_ceil(100).max(1) - 1;
        rows.push(PanelRow {
            distance: d,
            sim_ns_p99: cycles[rank] as f64 * mesh.cycle_time_ps() * 1e-3,
        });
        lanes.push(Lane {
            lattice,
            syndromes,
            uf,
            mesh,
            x,
            z,
        });
    }
    let start = Instant::now();
    loop {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let n = lane.syndromes.len() as u64;
            let panel = tracer.open("panel", None);
            let parent = panel.as_ref().map(OpenSpan::id);
            tracer.span(UF_PANEL[i], parent, n, 0, || {
                for syndrome in &lane.syndromes {
                    lane.uf
                        .decode_into(&lane.lattice, syndrome, Sector::X, &mut lane.x);
                    lane.uf
                        .decode_into(&lane.lattice, syndrome, Sector::Z, &mut lane.z);
                    lane.x.compose_with(&lane.z);
                }
            });
            tracer.span(MESH_PANEL[i], parent, n, 0, || {
                for syndrome in &lane.syndromes {
                    lane.mesh
                        .decode_into(&lane.lattice, syndrome, Sector::X, &mut lane.x);
                    lane.mesh
                        .decode_into(&lane.lattice, syndrome, Sector::Z, &mut lane.z);
                    lane.x.compose_with(&lane.z);
                }
            });
            tracer.close(panel, 2 * n, 0);
        }
        if start.elapsed() >= budget {
            return Ok(rows);
        }
    }
}

/// Shares of a run's budget: engine reference, layer drive, decoder panel.
const SHARES: [f64; 3] = [0.35, 0.45, 0.20];

/// Runs the traced invocation of `workload` for about `options.seconds`.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(workload: &Workload, seed: u64, options: &Options) -> TraceRun {
    let rounds = options.rounds_for(workload);
    let mut out = TraceRun::default();
    let prefix = workload.chunk_total(COVERIFY_ROUNDS);
    out.attempted += prefix;
    if let Err(error) = closed::coverify(workload, seed) {
        out.failed += prefix;
        out.errors.push(error);
    }

    // Untraced engine chunks: the rounds/s the layer budget must explain,
    // and each seed set's reference digest.
    let mut engine = closed::ClosedLoop::default();
    let min_chunks = (WARMUP_CHUNKS + MIN_TIMED_CHUNKS).max(SEED_SETS as usize);
    let budget = Duration::from_secs_f64(options.seconds * SHARES[0]);
    let start = Instant::now();
    let mut chunk = 0;
    while chunk < min_chunks || start.elapsed() < budget {
        if let Some(c) = engine.run_checked_chunk(workload, seed, chunk, rounds) {
            if chunk >= WARMUP_CHUNKS {
                engine.chunk_rates.push(c.rate);
            }
        }
        chunk += 1;
    }
    out.attempted += engine.attempted;
    out.failed += engine.failed;
    out.errors.append(&mut engine.errors);
    let engine_rate = if engine.chunk_rates.is_empty() {
        out.errors
            .push("no engine chunk passed its checks".to_string());
        None
    } else {
        Some(upper_percentile(&engine.chunk_rates, closed::RATE_QUANTILE))
    };
    let rounds_per_s = engine_rate.map_or(f64::NAN, |p| p.value);

    // The layer drive: plain, traced and shadow chunks take turns over the
    // same seed sets; the first of each is warm-up.
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, false);
    let mut traced_wall = Vec::new();
    let mut plain_wall = Vec::new();
    let mut setups: [Vec<f64>; 3] = Default::default();
    let modes = [Mode::Plain, Mode::Traced, Mode::Shadow];
    let budget = Duration::from_secs_f64(options.seconds * SHARES[1]);
    let start = Instant::now();
    let mut chunk = 0usize;
    while chunk < modes.len() * min_chunks.min(SEED_SETS as usize) || start.elapsed() < budget {
        let mode = modes[chunk % modes.len()];
        let seed_set = (chunk / modes.len()) as u64 % SEED_SETS;
        let expected = workload.chunk_total(rounds);
        out.attempted += expected;
        let checked = drive_chunk(workload, seed, seed_set, rounds, mode, &mut tracer).and_then(
            |d| match engine.reference[seed_set as usize] {
                Some(reference) if reference != d.digest => Err(format!(
                    "layer drive of seed set {seed_set} disagrees with the engine: {:?} vs {reference:?}",
                    d.digest
                )),
                _ => Ok(d),
            },
        );
        match checked {
            Ok(d) if chunk >= modes.len() => {
                match mode {
                    Mode::Plain => plain_wall.push(d.wall_s / d.rounds as f64),
                    Mode::Traced => traced_wall.push(d.wall_s / d.rounds as f64),
                    Mode::Shadow => {}
                }
                for (samples, s) in setups.iter_mut().zip(d.setup) {
                    samples.push(s);
                }
            }
            Ok(_) => {}
            Err(error) => {
                out.failed += expected;
                out.errors.push(error);
            }
        }
        chunk += 1;
    }
    let (traced_chunks, plain_chunks) = (traced_wall.len(), plain_wall.len());
    let overhead_ratio = if traced_wall.is_empty() || plain_wall.is_empty() {
        1.0
    } else {
        median(&sorted(&traced_wall)) / median(&sorted(&plain_wall))
    };

    // The per-distance decoder panel.
    tracer.set_enabled(true);
    let drive_spans = tracer.spans().len();
    let panel = match decoder_panel(
        workload,
        seed,
        Duration::from_secs_f64(options.seconds * SHARES[2]),
        &mut tracer,
    ) {
        Ok(rows) => rows,
        Err(error) => {
            out.errors.push(format!("decoder panel: {error}"));
            Vec::new()
        }
    };
    let layers = fold(&tracer.spans()[..drive_spans]);
    let panel_layers = fold(&tracer.spans()[drive_spans..]);
    out.metrics = layer_metrics(
        workload,
        &layers,
        &panel_layers,
        &panel,
        &setups,
        rounds_per_s,
        overhead_ratio,
    );
    out.report = budget_report(workload, &layers, &out.metrics, rounds_per_s);
    if let Some(p) = engine_rate {
        out.report.insert(
            0,
            format!(
                "engine reference: p{:.1} {:.0} rounds/s over {} timed chunks, {} beyond the percentile, {} warm-up chunks dropped; {} traced and {} plain layer-drive chunks",
                p.q * 100.0,
                p.value,
                p.samples,
                p.beyond,
                WARMUP_CHUNKS,
                traced_chunks,
                plain_chunks
            ),
        );
    }
    out
}

fn ns(layers: &BTreeMap<&'static str, LayerTotals>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, LayerTotals::ns_per_round)
}

/// The worker-side layers of `workload`'s pipeline (off-pipeline shadow
/// layers excluded).
fn worker_layers(workload: &Workload) -> Vec<&'static str> {
    let mut layers = vec![
        "stage.channel.recv",
        "packet.decode",
        workload.decoder.layer(),
    ];
    if workload.residuals {
        layers.push("residual");
    }
    layers.extend(["frame", "obs", "stage.gate.credit"]);
    layers
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn layer_metrics(
    workload: &Workload,
    layers: &BTreeMap<&'static str, LayerTotals>,
    panel_layers: &BTreeMap<&'static str, LayerTotals>,
    panel: &[PanelRow],
    setups: &[Vec<f64>; 3],
    rounds_per_s: f64,
    overhead_ratio: f64,
) -> Vec<Metric> {
    let get = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let producer: f64 = PRODUCER.iter().map(|l| ns(layers, l)).sum();
    let worker: f64 = worker_layers(workload).iter().map(|l| ns(layers, l)).sum();
    let decoder_ns = ns(layers, workload.decoder.layer());
    let mut m = vec![
        metric("source.ns_per_round", ns(layers, "source"), "ns"),
        metric(
            "source.allocs_per_round",
            get("source").allocs_per_round(),
            "count",
        ),
        metric(
            "packet.encode_ns_per_round",
            ns(layers, "packet.encode"),
            "ns",
        ),
        metric(
            "packet.decode_ns_per_round",
            ns(layers, "packet.decode"),
            "ns",
        ),
        metric(
            "packet.bytes_per_round",
            get("stage.channel.send").bytes_per_round(),
            "B",
        ),
        metric(
            "packet.allocs_per_round",
            get("packet.encode").allocs_per_round() + get("packet.decode").allocs_per_round(),
            "count",
        ),
        metric(
            "stage.gate_ns_per_round",
            ns(layers, "stage.gate.admit") + ns(layers, "stage.gate.credit"),
            "ns",
        ),
        metric(
            "stage.channel_ns_per_round",
            ns(layers, "stage.channel.send") + ns(layers, "stage.channel.recv"),
            "ns",
        ),
    ];
    for kind in DecoderKind::ALL {
        let layer = kind.layer();
        let names = match kind {
            DecoderKind::UnionFind => &UF_PANEL,
            DecoderKind::Mesh => &MESH_PANEL,
        };
        m.push(metric(
            format!("{layer}.ns_per_round"),
            ns(layers, layer),
            "ns",
        ));
        for name in names {
            m.push(metric(
                format!("{name}.ns_per_round"),
                ns(panel_layers, name),
                "ns",
            ));
        }
    }
    m.push(metric(
        "mesh.allocs_per_round",
        get("mesh").allocs_per_round(),
        "count",
    ));
    for row in panel {
        m.push(metric(
            format!("mesh.d{}.sim_ns_p99", row.distance),
            row.sim_ns_p99,
            "ns",
        ));
    }
    m.push(metric(
        "residual.ns_per_round",
        ns(layers, "residual"),
        "ns",
    ));
    m.push(metric("frame.ns_per_round", ns(layers, "frame"), "ns"));
    m.push(metric("obs.record_ns_per_round", ns(layers, "obs"), "ns"));
    for (name, samples) in ["setup.lattice_set_s", "setup.source_s", "setup.prepare_s"]
        .iter()
        .zip(setups)
    {
        let value = if samples.is_empty() {
            0.0
        } else {
            median(&sorted(samples))
        };
        m.push(metric(*name, value, "s"));
    }
    m.push(metric("engine.producer_ns_per_round", producer, "ns"));
    m.push(metric("engine.worker_ns_per_round", worker, "ns"));
    m.push(metric(
        "engine.unexplained_ns_per_round",
        1e9 / rounds_per_s - producer.max(worker),
        "ns",
    ));
    let panel_own = match workload.decoder {
        DecoderKind::UnionFind => &UF_PANEL,
        DecoderKind::Mesh => &MESH_PANEL,
    };
    for (d, name) in PANEL_DISTANCES.iter().zip(panel_own) {
        let at_d = worker - decoder_ns + ns(panel_layers, name);
        m.push(metric(
            format!("engine.cadence_ratio.d{d}"),
            at_d / CADENCE_NS,
            "ratio",
        ));
    }
    m.push(metric("trace.overhead_ratio", overhead_ratio, "ratio"));
    m
}

/// The human-readable per-layer budget and cadence-gap table.
fn budget_report(
    workload: &Workload,
    layers: &BTreeMap<&'static str, LayerTotals>,
    metrics: &[Metric],
    rounds_per_s: f64,
) -> Vec<String> {
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let worker_side = worker_layers(workload);
    let producer = value("engine.producer_ns_per_round");
    let worker = value("engine.worker_ns_per_round");
    let mut lines = vec![format!(
        "layer budget for {} (self ns/round, single thread):",
        workload.name
    )];
    for (name, t) in layers {
        let side = if PRODUCER.contains(name) {
            "producer"
        } else if worker_side.contains(name) {
            "worker"
        } else if *name == "batch" {
            "tracer gaps"
        } else {
            "shadow (off the pipeline)"
        };
        lines.push(format!(
            "  {name:<20} {:>9.1} ns  {:>6.2} allocs  {side}",
            t.ns_per_round(),
            t.allocs_per_round()
        ));
    }
    let (critical, side) = if producer >= worker {
        (&PRODUCER[..], "producer")
    } else {
        (&worker_side[..], "worker")
    };
    let dominant = critical
        .iter()
        .max_by(|a, b| ns(layers, a).total_cmp(&ns(layers, b)))
        .copied()
        .unwrap_or("none");
    lines.push(format!(
        "  producer {producer:.1} ns, worker {worker:.1} ns, engine {:.1} ns/round ({:.0} rounds/s, engine chunks' p98 rate), unexplained {:.1} ns",
        1e9 / rounds_per_s,
        rounds_per_s,
        value("engine.unexplained_ns_per_round")
    ));
    lines.push(format!(
        "  critical side: {side}; dominant layer: {dominant} ({:.1} ns/round)",
        ns(layers, dominant)
    ));
    lines.push(format!(
        "cadence gap against the paper's {CADENCE_NS} ns (ns/round; worker = this workload's worker side at that distance):"
    ));
    lines.push("  d   union_find      mesh  mesh_sim_p99    worker  worker/400ns".to_string());
    for d in PANEL_DISTANCES {
        lines.push(format!(
            "  {d}  {:>11.1} {:>9.1} {:>13.2} {:>9.1} {:>13.2}",
            value(&format!("union_find.d{d}.ns_per_round")),
            value(&format!("mesh.d{d}.ns_per_round")),
            value(&format!("mesh.d{d}.sim_ns_p99")),
            value(&format!("engine.cadence_ratio.d{d}")) * CADENCE_NS,
            value(&format!("engine.cadence_ratio.d{d}")),
        ));
    }
    lines
}
