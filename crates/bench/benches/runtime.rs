//! Criterion benchmarks of the streaming runtime: ring-buffer hot path,
//! packet codec, and short end-to-end streaming runs (work-stealing pool,
//! batched windows).
//!
//! Before any timing runs, [`assert_steady_state_decode_is_allocation_free`]
//! guards the PR's core invariant with a counting global allocator: a
//! prepared decoder's `decode_into` loop must perform **zero** heap
//! allocations in steady state.  The guard fails the bench run loudly if a
//! regression reintroduces per-round allocation.
//! [`assert_obs_hot_path_is_allocation_free`] extends the same guard to the
//! observability plane: latency-histogram records and event-journal
//! publishes must not allocate either.
//!
//! After the timed suite, [`emit_bench_artifacts`] writes the
//! schema-versioned perf artifacts `BENCH_streaming.json` and
//! `BENCH_lattices.json` at the repository root (validated in CI by
//! `cargo run --example validate_bench`).  Setting `NISQ_BENCH_SOAK=1`
//! additionally runs the soak harness (`nisqplus_bench::soak`) after the
//! suite and regenerates `BENCH_soak.json` — the same driver as
//! `cargo run --release --example soak`, honouring the same
//! `NISQ_SOAK_*` environment knobs.

use criterion::{criterion_group, BenchmarkId, Criterion};
use nisqplus_core::SfqMeshDecoder;
use nisqplus_decoders::{
    Decoder, DynDecoder, GreedyMatchingDecoder, LookupDecoder, UnionFindDecoder,
};
use nisqplus_qec::error_model::{ErrorModel, PureDephasing};
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use nisqplus_runtime::report::write_bench_document;
use nisqplus_runtime::{
    BenchEntry, EventJournal, EventKind, EventSeverity, FaultInjector, LatticeDecoder,
    LogHistogram, MachineConfig, PacketCodec, RuntimeConfig, SpmcRing, StreamingEngine,
    SyndromePacket,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A pass-through allocator that counts allocations, so the bench can assert
/// the steady-state decode loop never touches the heap.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a relaxed
// atomic side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn sample_syndromes(distance: usize, p: f64, count: usize) -> (Lattice, Vec<Syndrome>) {
    let lattice = Lattice::new(distance).expect("valid distance");
    let model = PureDephasing::new(p).expect("valid probability");
    let mut rng = ChaCha8Rng::seed_from_u64(0xFEED + distance as u64);
    let syndromes = (0..count)
        .map(|_| {
            let error = model.sample(&lattice, &mut rng);
            lattice.syndrome_of(&error)
        })
        .collect();
    (lattice, syndromes)
}

/// The allocation guard: after `prepare` and one warm-up pass (which may
/// still grow scratch capacities), a prepared decoder's `decode_into` loop
/// must run the steady state with zero heap allocations.
fn assert_allocation_free(name: &str, decoder: &mut dyn Decoder, distance: usize) {
    let (lattice, syndromes) = sample_syndromes(distance, 0.06, 64);
    decoder.prepare(&lattice);
    let mut out = PauliString::identity(lattice.num_data());
    // Warm-up: first decodes may still grow arena capacities to this
    // syndrome population's high-water mark.
    for syndrome in &syndromes {
        for sector in Sector::ALL {
            decoder.decode_into(&lattice, syndrome, sector, &mut out);
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..4 {
        for syndrome in &syndromes {
            for sector in Sector::ALL {
                decoder.decode_into(&lattice, syndrome, sector, &mut out);
            }
        }
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "steady-state decode_into of `{name}` (d={distance}) performed {allocated} heap \
         allocations over 512 sector decodes; the prepared hot path must not allocate"
    );
    eprintln!("alloc-guard: {name:<16} d={distance}: 0 allocations over 512 steady-state decodes");
}

/// Runs the allocation guard for every decoder that promises an
/// allocation-free hot path, before any timing happens.
fn assert_steady_state_decode_is_allocation_free() {
    assert_allocation_free("union-find", &mut UnionFindDecoder::new(), 9);
    assert_allocation_free("greedy-matching", &mut GreedyMatchingDecoder::new(), 9);
    let lattice = Lattice::new(3).expect("valid distance");
    let mut lookup = LookupDecoder::new(&lattice).expect("d=3 fits the table");
    assert_allocation_free("lookup-table", &mut lookup, 3);
}

/// The observability plane's own allocation guard: recording a latency into
/// the log-bucket histogram and publishing an event into the bounded journal
/// are both on (or near) the decode hot path, so after construction they
/// must not touch the heap either.
fn assert_obs_hot_path_is_allocation_free() {
    let hist = LogHistogram::new();
    let journal = EventJournal::new(256);
    // Warm-up (nothing to warm, but keep the shape parallel to the decoder
    // guard): one record and one publish before counting starts.
    hist.record(1_000);
    journal.publish(EventKind::Shed, EventSeverity::Warning, Some(0), None, 0, 0);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for round in 0..512u64 {
        hist.record(round * 977 + 13);
        journal.publish(
            EventKind::BackpressureStall,
            EventSeverity::Info,
            Some((round % 4) as u32),
            Some((round % 2) as u32),
            round * 100,
            round,
        );
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "histogram record + journal publish performed {allocated} heap allocations over 512 \
         steady-state rounds; the observability hot path must not allocate"
    );
    assert_eq!(hist.count(), 513);
    assert_eq!(journal.published(), 513);
    eprintln!("alloc-guard: obs hot path      : 0 allocations over 512 records + 512 publishes");
}

/// The streaming-residual guard: classifying a decoded round's residual
/// (and a shed round's) sits directly on the worker and producer hot paths
/// when residual analysis streams, so with the scratch residual buffer
/// prepared it must not allocate either — otherwise soak-scale runs would
/// pay a heap round-trip per round.
fn assert_streaming_residual_classification_is_allocation_free() {
    use nisqplus_qec::logical::{classify_both_sectors_into, classify_shed_round, ResidualTally};
    let (lattice, syndromes) = sample_syndromes(7, 0.05, 32);
    let model = PureDephasing::new(0.05).expect("valid probability");
    let mut rng = ChaCha8Rng::seed_from_u64(0xC1A55);
    let errors: Vec<PauliString> = (0..32).map(|_| model.sample(&lattice, &mut rng)).collect();
    let mut decoder = UnionFindDecoder::new();
    decoder.prepare(&lattice);
    let mut correction = PauliString::identity(lattice.num_data());
    let mut residual = PauliString::identity(lattice.num_data());
    let mut tally = ResidualTally::default();
    // Warm-up: one classify of each kind before counting starts.
    let (x, z) = classify_both_sectors_into(&lattice, &errors[0], &correction, &mut residual);
    tally.record_states(x, z);
    let _ = classify_shed_round(&lattice, &errors[0]);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for (error, syndrome) in errors.iter().zip(&syndromes) {
        for sector in Sector::ALL {
            decoder.decode_into(&lattice, syndrome, sector, &mut correction);
        }
        let (x, z) = classify_both_sectors_into(&lattice, error, &correction, &mut residual);
        tally.record_states(x, z);
        let (sx, sz) = classify_shed_round(&lattice, error);
        tally.record_states(sx, sz);
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "streaming residual classification performed {allocated} heap allocations over 32 \
         decode+classify rounds; the in-stream residual path must not allocate"
    );
    assert_eq!(tally.rounds, 65);
    eprintln!(
        "alloc-guard: residual classify  : 0 allocations over 32 decoded + 32 shed classifications"
    );
}

/// The fault plane's allocation guard: with an empty [`FaultPlan`] (the
/// production default) the injector's hot-path hooks — the per-commit crash
/// check, the per-round corruption lookup, and the per-send stall gate —
/// sit on the decode path of every run, so they must be free of heap
/// allocations (and, plan-free, of clock reads and atomics beyond one load).
fn assert_fault_hooks_are_allocation_free() {
    let injector = FaultInjector::disabled();
    // Warm-up, parallel in shape to the other guards.
    assert!(!injector.crash_due(0, 0));
    assert!(injector.corrupt(0, 0).is_none());
    assert!(!injector.stall_active(0, 0, 0));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for round in 0..512u64 {
        assert!(!injector.crash_due((round % 8) as u32, round));
        assert!(injector.corrupt((round % 8) as u32, round).is_none());
        assert!(!injector.stall_active((round % 2) as usize, round, round * 100));
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "disabled fault-injector hooks performed {allocated} heap allocations over 512 \
         steady-state rounds; the fault-free hot path must not allocate"
    );
    eprintln!("alloc-guard: fault hooks       : 0 allocations over 512 disabled-plan rounds");
}

/// Emits the machine-readable bench artifacts at the repository root:
/// `BENCH_streaming.json` (single-lattice pipeline throughput) and
/// `BENCH_lattices.json` (multi-lattice sharding sweep).  Each entry is one
/// full engine run distilled through [`BenchEntry::from_report`]; the files
/// are schema-versioned and validated by `examples/validate_bench.rs`.
fn emit_bench_artifacts() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");

    let mut streaming = Vec::new();
    for workers in [1usize, 2] {
        let mut config = RuntimeConfig::new(5);
        config.rounds = 1_000;
        config.workers = workers;
        config.cadence_cycles = 0;
        config.queue_capacity = 256;
        let engine = StreamingEngine::new(config).expect("valid config");
        let outcome = engine.run(&|| Box::new(UnionFindDecoder::new()) as DynDecoder);
        streaming.push(BenchEntry::from_report(
            format!("streaming_1k_rounds/{workers}"),
            &outcome.report,
        ));
    }
    for batch in [4usize, 16] {
        let mut config = RuntimeConfig::new(5);
        config.rounds = 1_000;
        config.workers = 1;
        config.batch_size = batch;
        config.cadence_cycles = 0;
        config.queue_capacity = 256;
        let engine = StreamingEngine::new(config).expect("valid config");
        let outcome = engine.run(&|| Box::new(UnionFindDecoder::new()) as DynDecoder);
        streaming.push(BenchEntry::from_report(
            format!("streaming_1k_rounds_batch/{batch}"),
            &outcome.report,
        ));
    }
    let path = format!("{root}BENCH_streaming.json");
    write_bench_document(&path, "streaming", &streaming).expect("write BENCH_streaming.json");
    eprintln!("bench-artifact: wrote {path} ({} entries)", streaming.len());

    let mut lattices = Vec::new();
    for num_lattices in [1usize, 4, 8] {
        let distances: Vec<usize> = (0..num_lattices).map(|i| [3, 5, 7][i % 3]).collect();
        let mut config = MachineConfig::new(&distances, 0xFEED);
        for spec in &mut config.lattices {
            spec.rounds = 1_000 / num_lattices as u64;
            spec.cadence_cycles = 0;
        }
        config.workers = 2;
        config.queue_capacity = 256;
        let engine = StreamingEngine::with_machine(config).expect("valid config");
        let outcome = engine.run(&|| Box::new(UnionFindDecoder::new()) as DynDecoder);
        lattices.push(BenchEntry::from_report(
            format!("streaming_1k_rounds_lattices/{num_lattices}"),
            &outcome.report,
        ));
    }
    let path = format!("{root}BENCH_lattices.json");
    write_bench_document(&path, "lattices", &lattices).expect("write BENCH_lattices.json");
    eprintln!("bench-artifact: wrote {path} ({} entries)", lattices.len());
}

fn ring_benchmarks(c: &mut Criterion) {
    let ring = SpmcRing::new(1024, 3);
    let record = [7u64, 11, 13];
    let mut out = [0u64; 3];
    c.bench_function("ring_push_pop", |b| {
        b.iter(|| {
            ring.try_push(&record).expect("ring never fills");
            assert!(ring.try_pop(&mut out));
            out[0]
        })
    });
}

fn codec_benchmarks(c: &mut Criterion) {
    // d=5: 40 ancillas, a typical 3-defect round.
    let codec = PacketCodec::new(40);
    let syndrome = Syndrome::from_hot(40, &[3, 17, 31]);
    let packet = SyndromePacket::new(0, 42, 123_456, &syndrome);
    let mut record = vec![0u64; codec.words_per_packet()];
    let mut buffer = SyndromePacket::new(0, 0, 0, &Syndrome::new(40));
    c.bench_function("packet_encode_decode", |b| {
        b.iter(|| {
            codec.encode(&packet, &mut record);
            codec
                .try_decode_into(&record, &mut buffer)
                .expect("clean record decodes");
            buffer.round
        })
    });
}

fn streaming_benchmarks(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_1k_rounds");
    group.sample_size(10);
    for workers in [1usize, 2] {
        let mut config = RuntimeConfig::new(5);
        config.rounds = 1_000;
        config.workers = workers;
        config.cadence_cycles = 0; // un-paced: measure pure pipeline throughput
        config.queue_capacity = 256;
        let mut machine = MachineConfig::from(config);
        // Timed groups keep every per-round instrumentation cost in the
        // measured path (counters, histograms, journal publishes) but turn
        // off the *background* snapshot thread: on an oversubscribed host it
        // timeshares with the spinning pipeline and measures the scheduler,
        // not the pipeline.  `emit_bench_artifacts` runs the full plane.
        machine.obs.snapshot_cadence_us = 0;
        let engine = StreamingEngine::with_machine(machine).expect("valid config");
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, _| {
            b.iter(|| engine.run(&|| Box::new(SfqMeshDecoder::final_design()) as DynDecoder))
        });
    }
    group.finish();

    // The batched-window amortization sweep: same stream, one worker, growing
    // windows.  Larger k amortizes per-packet timestamping/counter overhead.
    let mut group = c.benchmark_group("streaming_1k_rounds_batch");
    group.sample_size(10);
    for batch in [1usize, 4, 16] {
        let mut config = RuntimeConfig::new(5);
        config.rounds = 1_000;
        config.workers = 1;
        config.batch_size = batch;
        config.cadence_cycles = 0;
        config.queue_capacity = 256;
        let mut machine = MachineConfig::from(config);
        machine.obs.snapshot_cadence_us = 0; // timed group: no sampler thread
        let engine = StreamingEngine::with_machine(machine).expect("valid config");
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, _| {
            b.iter(|| engine.run(&|| Box::new(UnionFindDecoder::new()) as DynDecoder))
        });
    }
    group.finish();

    // Heterogeneous decoder assignment: the same 6-lattice machine (d
    // cycling 3/5/7, 1k rounds total) served once by a homogeneous
    // union-find fleet and once with per-lattice overrides (lookup for the
    // d=3 patches, greedy matching for d=5, union-find for d=7).  Measures
    // the cost of per-(distance, factory) prepared-decoder routing and what
    // matching the algorithm to the patch buys end to end.
    let mut group = c.benchmark_group("streaming_1k_rounds_hetero");
    group.sample_size(10);
    for hetero in [false, true] {
        let distances: Vec<usize> = (0..6).map(|i| [3, 5, 7][i % 3]).collect();
        let mut config = MachineConfig::new(&distances, 0xFEED);
        // One shared factory per distance class, so equal-distance lattices
        // share one prepared decoder per worker (the intended sharing; a
        // fresh factory per lattice would defeat it and bias the numbers).
        let lookup3 = LatticeDecoder::new(|| {
            Box::new(
                LookupDecoder::new(&Lattice::new(3).expect("valid distance"))
                    .expect("d=3 fits the table"),
            ) as DynDecoder
        });
        let greedy5 = LatticeDecoder::new(|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder);
        for spec in &mut config.lattices {
            spec.rounds = 1_000 / 6;
            spec.cadence_cycles = 0; // un-paced: measure pure pipeline throughput
            if hetero {
                spec.decoder = match spec.distance {
                    3 => Some(lookup3.clone()),
                    5 => Some(greedy5.clone()),
                    _ => None, // d=7 stays on the machine-wide union-find
                };
            }
        }
        config.workers = 2;
        config.queue_capacity = 256;
        config.obs.snapshot_cadence_us = 0; // timed group: no sampler thread
        let engine = StreamingEngine::with_machine(config).expect("valid config");
        let label = if hetero {
            "lookup3+greedy5+uf7"
        } else {
            "uf-everywhere"
        };
        group.bench_with_input(BenchmarkId::from_parameter(label), &hetero, |b, _| {
            b.iter(|| engine.run(&|| Box::new(UnionFindDecoder::new()) as DynDecoder))
        });
    }
    group.finish();

    // The multi-lattice sharding sweep: 1k rounds total, spread over a
    // growing number of mixed-distance lattices (cycling d = 3, 5, 7).
    // Measures the per-round cost of serving a whole machine — header
    // routing, per-lattice prepared-state lookup, per-lattice telemetry —
    // relative to the single-lattice pipeline.
    let mut group = c.benchmark_group("streaming_1k_rounds_lattices");
    group.sample_size(10);
    for num_lattices in [1usize, 4, 8] {
        let distances: Vec<usize> = (0..num_lattices).map(|i| [3, 5, 7][i % 3]).collect();
        let mut config = MachineConfig::new(&distances, 0xFEED);
        for spec in &mut config.lattices {
            spec.rounds = 1_000 / num_lattices as u64;
            spec.cadence_cycles = 0; // un-paced: measure pure pipeline throughput
        }
        config.workers = 2;
        config.queue_capacity = 256;
        config.obs.snapshot_cadence_us = 0; // timed group: no sampler thread
        let engine = StreamingEngine::with_machine(config).expect("valid config");
        group.bench_with_input(
            BenchmarkId::from_parameter(num_lattices),
            &num_lattices,
            |b, _| b.iter(|| engine.run(&|| Box::new(UnionFindDecoder::new()) as DynDecoder)),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = ring_benchmarks, codec_benchmarks, streaming_benchmarks
}

fn main() {
    assert_steady_state_decode_is_allocation_free();
    assert_streaming_residual_classification_is_allocation_free();
    assert_obs_hot_path_is_allocation_free();
    assert_fault_hooks_are_allocation_free();
    benches();
    emit_bench_artifacts();
    // Opt-in soak mode: drive the sustained multi-lattice soak and
    // regenerate BENCH_soak.json as part of the bench run.
    if std::env::var_os("NISQ_BENCH_SOAK").is_some() {
        let (_, outcome, _) = nisqplus_bench::soak::run_and_emit();
        eprintln!(
            "soak: {} rounds, verdict {}",
            outcome.report.counters.generated,
            outcome.report.verdict()
        );
    }
}
