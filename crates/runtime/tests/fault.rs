//! Fault-injection properties: hostile wire records and crash recovery.
//!
//! Two property families pin down the robustness contract:
//!
//! * **Hostile streams** — any corruption of an encoded record (any single
//!   bit flip, or any set of distinct flips, in any header field, the
//!   payload, the padding or the checksum trailer) must surface as a typed
//!   [`PacketError`] from the validating decode path.  Never a panic, and
//!   never a silent misdecode: the checksum fold is injective per body
//!   word, so a damaged record cannot re-hash to its own trailer.
//! * **Recovery determinism** — for any (seed, crash round, worker count),
//!   killing a worker mid-run and letting the supervisor restart it yields
//!   byte-identical merged Pauli frames and per-round corrections to the
//!   same run without the crash.  Recovery is exact, not best-effort.

use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};
use nisqplus_qec::syndrome::Syndrome;
use nisqplus_runtime::fault::silence_injected_crash_panics;
use nisqplus_runtime::{
    FaultPlan, MachineConfig, NoiseSpec, PacketCodec, PushPolicy, RuntimeConfig, RuntimeOutcome,
    StreamingEngine, SyndromePacket,
};
use proptest::prelude::*;

/// A codec registered for three lattices of different ancilla counts, so
/// corrupted lattice-id fields can land on a registered lattice of the
/// wrong size (`AncillaMismatch`), an unregistered one (`UnknownLattice`),
/// or survive to the checksum check (`Corrupted`).
fn hostile_codec() -> PacketCodec {
    PacketCodec::for_lattice_bits(&[40, 24, 12])
}

/// Encodes one valid record for `lattice_id` with the given hot defects.
fn encode_record(codec: &PacketCodec, lattice_id: u32, round: u64, hot: &[usize]) -> Vec<u64> {
    let bits = codec.syndrome_bits(lattice_id);
    let hot: Vec<usize> = hot.iter().map(|&i| i % bits).collect();
    let syndrome = Syndrome::from_hot(bits, &hot);
    let packet = SyndromePacket::new(lattice_id, round, round.wrapping_mul(997), &syndrome);
    let mut record = vec![0u64; codec.words_per_packet()];
    codec.encode(&packet, &mut record);
    record
}

/// A 120-round single-lattice Block machine carrying `plan`; un-paced so
/// the property is about data integrity, not timing.
fn crash_machine(seed: u64, workers: usize, plan: FaultPlan) -> MachineConfig {
    let mut config = RuntimeConfig::new(3);
    config.noise = NoiseSpec::Depolarizing { p: 0.04 };
    config.seed = seed;
    config.rounds = 120;
    config.workers = workers;
    config.cadence_cycles = 0;
    config.queue_capacity = 128;
    config.push_policy = PushPolicy::Block;
    config.record_corrections = true;
    let mut machine = MachineConfig::from(config);
    machine.fault = plan;
    machine
}

fn run_machine(machine: MachineConfig) -> RuntimeOutcome {
    let engine = StreamingEngine::with_machine(machine).expect("valid config");
    engine.run(&|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any single bit flip anywhere in a record — version field, lattice
    /// id, ancilla count, round, timestamp, payload, padding or the
    /// checksum trailer — is rejected with a typed error, and the
    /// rejecting decode leaves the output packet untouched.
    #[test]
    fn any_single_bit_flip_is_rejected(
        lattice_id in 0u32..3,
        round in 0u64..1 << 62,
        hot in proptest::collection::vec(0usize..1000, 0..6),
        word in 0usize..6, // reduced modulo the record length below
        bit in 0u32..64,
    ) {
        let codec = hostile_codec();
        let mut record = encode_record(&codec, lattice_id, round, &hot);
        let word = word % record.len();
        record[word] ^= 1u64 << bit;

        prop_assert!(codec.verify(&record).is_err(), "verify must reject");
        prop_assert!(codec.try_decode(&record).is_err(), "try_decode must reject");

        let clean = codec.try_decode(&encode_record(&codec, lattice_id, round, &hot))
            .expect("the uncorrupted record decodes");
        let mut buffer = clean.clone();
        prop_assert!(codec.try_decode_into(&record, &mut buffer).is_err());
        prop_assert_eq!(&buffer, &clean, "a rejected decode must not touch the buffer");
    }

    /// Any *set* of distinct bit flips is rejected too: multi-bit damage
    /// across header and body cannot cancel out into an accepted record.
    #[test]
    fn any_distinct_flip_set_is_rejected(
        lattice_id in 0u32..3,
        round in 0u64..1 << 62,
        hot in proptest::collection::vec(0usize..1000, 0..6),
        raw_flips in proptest::collection::vec((0usize..6, 0u32..64), 1..8),
    ) {
        let codec = hostile_codec();
        let mut record = encode_record(&codec, lattice_id, round, &hot);
        // Distinct (word, bit) targets only: duplicates would XOR back out.
        let flips: std::collections::BTreeSet<(usize, u32)> = raw_flips
            .into_iter()
            .map(|(word, bit)| (word % record.len(), bit))
            .collect();
        for &(word, bit) in &flips {
            record[word] ^= 1u64 << bit;
        }
        prop_assert!(codec.verify(&record).is_err());
        prop_assert!(codec.try_decode(&record).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Crash recovery is exact for any (seed, crash round, worker count):
    /// the run with a mid-stream worker kill loses no rounds and commits
    /// byte-identical frames and corrections to the crash-free run.  The
    /// crash is keyed to a round of the stream, so it fires whichever worker
    /// ends up committing that round.
    #[test]
    fn recovery_is_deterministic_for_any_seed_and_crash_round(
        seed in 0u64..1_000,
        crash_round in 0u64..30,
        workers in 1usize..4,
    ) {
        silence_injected_crash_panics();
        let plan = FaultPlan::default().crash_on(0, crash_round);
        let crashed = run_machine(crash_machine(seed, workers, plan));
        let baseline = run_machine(crash_machine(seed, workers, FaultPlan::default()));

        let fault = &crashed.report.fault;
        prop_assert_eq!(fault.injected_crashes, 1, "a Block lattice commits every round, so the crash always fires");
        prop_assert_eq!(fault.observed_crashes, 1);
        prop_assert_eq!(fault.worker_restarts, 1);
        prop_assert!(fault.reconciled(), "fault books must reconcile: {}", fault);

        prop_assert_eq!(crashed.report.counters.decoded, 120);
        prop_assert_eq!(crashed.report.counters.dropped, 0);
        prop_assert_eq!(crashed.report.counters.quarantined, 0);
        prop_assert_eq!(&crashed.frame().merged(), &baseline.frame().merged(),
            "merged frames must be byte-identical across the crash");
        prop_assert_eq!(crashed.corrections.len(), baseline.corrections.len());
        for (with_crash, without) in crashed.corrections.iter().zip(&baseline.corrections) {
            prop_assert_eq!(with_crash, without,
                "per-round corrections must be byte-identical across the crash");
        }
    }
}
