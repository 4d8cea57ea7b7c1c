//! Chaos demo: one run that survives a worker crash, a poisoned wire
//! record, a burst-noise episode, and a stalled credit channel — and can
//! prove, frame by frame, that nothing protected was lost.
//!
//! A three-lattice machine under a seeded [`FaultPlan`]:
//!
//! * lattice 0 (d=5, `Block`) — the protected patch; it must come through
//!   the chaos byte-identical to a fault-free reference run,
//! * lattice 1 (d=3, `Drop`) — the corruption target: round 5's encoded
//!   record gets one bit flipped on the wire.  The worker quarantines the
//!   undecodable record, the producer sheds the round, and the frame covers
//!   it with an identity correction,
//! * lattice 2 (d=3, `Block`) — the burst target: rounds 40..60 run at 8x
//!   the base dephasing rate.  The burst is part of the stream's seeded
//!   identity, so the reference run replays the *same* burst and the frames
//!   still match exactly.
//!
//! On top of that, whichever worker commits lattice 0's round 10 is killed
//! (an injected panic) at its next batch boundary — the supervisor catches
//! the unwind, re-prepares the decoders, and the replacement adopts the
//! dead worker's frame shard — and
//! channel 0 refuses sends for 2 ms starting at machine emission 50,
//! exercising the backpressure path without tripping the watchdog.
//!
//! The assertions at the bottom are the acceptance criteria: the run ends
//! (no hang), no panic escapes (exit code 0), both `Block` lattices end
//! `BOUNDED` with zero lost rounds and merged Pauli frames byte-identical
//! to the reference, exactly one round is quarantined, and the final
//! [`FaultReport`] reconciles injected faults against observed recoveries.
//!
//! Run with `cargo run --release --example chaos_runtime`.  The fault
//! taxonomy and every `fault:` report field are documented in
//! `docs/OPERATIONS.md`.

use nisqplus_decoders::{DynDecoder, UnionFindDecoder};
use nisqplus_runtime::{
    fault::silence_injected_crash_panics, BurstOverlay, FaultPlan, LatticeSpec, MachineConfig,
    NoiseSpec, PushPolicy, RuntimeConfig, RuntimeOutcome, StreamingEngine,
};

/// Rounds streamed per lattice.
const ROUNDS: u64 = 300;

/// Per-lattice syndrome-generation period: the paper's 400 ns scaled by
/// 250x (~100 us) so the decoders keep up and the Block lattices can end
/// the run BOUNDED — the chaos, not the clock, is what's under test.
const CADENCE_CYCLES: usize = RuntimeConfig::PAPER_CADENCE_CYCLES * 250;

/// The burst episode injected into lattice 2: rounds 40..60 at 8x noise.
const BURST: BurstOverlay = BurstOverlay {
    start_round: 40,
    rounds: 20,
    factor: 8.0,
};

/// Builds the three-lattice machine; `plan` is the only difference between
/// the chaos run and the fault-free reference.
fn machine(plan: FaultPlan) -> MachineConfig {
    let spec = |distance: usize, seed: u64| {
        LatticeSpec::new(distance)
            .with_noise(NoiseSpec::PureDephasing { p: 0.02 })
            .with_seed(seed)
            .with_rounds(ROUNDS)
            .with_cadence_cycles(CADENCE_CYCLES)
    };
    let mut config = MachineConfig::new(&[5, 3, 3], 9000);
    config.lattices = vec![
        spec(5, 9000).with_push_policy(PushPolicy::Block),
        spec(3, 9001).with_push_policy(PushPolicy::Drop),
        spec(3, 9002).with_push_policy(PushPolicy::Block),
    ];
    config.workers = 2;
    config.queue_capacity = 4_096;
    config.push_policy = PushPolicy::Block;
    config.fault = plan;
    config
}

fn run(plan: FaultPlan) -> RuntimeOutcome {
    let engine = StreamingEngine::with_machine(machine(plan)).expect("valid config");
    engine.run(&|| Box::new(UnionFindDecoder::new()) as DynDecoder)
}

fn main() {
    // The injected crash is a real panic; keep its backtrace out of stderr
    // so the only panics this process prints are unexpected ones.
    silence_injected_crash_panics();

    let chaos_plan = FaultPlan::default()
        .crash_on(0, 10) // kill whichever worker commits lattice 0 round 10
        .corrupt_record(1, 5, 2, 13) // flip bit 13 of word 2, lattice 1 round 5
        .burst(2, BURST) // 8x noise on lattice 2, rounds 40..60
        .stall_channel(0, 50, 2_000_000); // channel 0 dead for 2 ms
                                          // The burst is stream content, not a failure: the reference replays it,
                                          // so the burst lattice's frames are comparable byte for byte.
    let reference_plan = FaultPlan::default().burst(2, BURST);

    println!(
        "chaos run: 3 lattices (d=5 Block, d=3 Drop, d=3 Block) x {ROUNDS} rounds on 2 workers"
    );
    println!("  plan: kill the worker committing lattice 0 round 10; poison lattice 1 round 5;");
    println!("        8x burst on lattice 2 rounds 40..60; stall channel 0 for 2 ms");
    println!();
    let chaos = run(chaos_plan);
    println!("{}", chaos.report);
    println!();
    let reference = run(reference_plan);

    let report = &chaos.report;
    let fault = &report.fault;

    // --- The run survived: crash caught, worker restarted, nothing hung. -
    assert!(fault.enabled, "the chaos run carried a plan");
    assert_eq!(fault.injected_crashes, 1);
    assert_eq!(fault.observed_crashes, 1, "the supervisor saw the crash");
    assert_eq!(fault.worker_restarts, 1, "and restarted the worker");
    assert_eq!(report.journal.counts.worker_crash, 1);
    assert_eq!(report.journal.counts.worker_restart, 1);

    // --- The poisoned record was quarantined, not decoded, not fatal. ----
    assert_eq!(fault.injected_corruptions, 1);
    assert_eq!(fault.quarantined, 1, "the worker rejected the record");
    assert_eq!(report.counters.quarantined, 1);
    assert_eq!(report.journal.counts.quarantine, 1);

    // --- The burst ran its exact window; the stall armed and released. ---
    assert_eq!(fault.planned_bursts, 1);
    assert_eq!(fault.bursts_started, 1);
    assert_eq!(fault.bursts_ended, 1);
    assert_eq!(fault.injected_stalls, 1);
    assert_eq!(
        fault.watchdog_trips, 0,
        "a 2 ms stall must ride out on backpressure, far below the watchdog"
    );
    assert!(!fault.degraded, "no forced shedding means not degraded");

    // --- The books balance: injected == observed == recovered. -----------
    assert!(
        fault.reconciled(),
        "the fault report must reconcile: {fault}"
    );

    // --- Both Block lattices lost nothing and stayed bounded. ------------
    for &id in &[0usize, 2] {
        let lattice = &report.lattices[id];
        assert_eq!(lattice.counters.decoded, ROUNDS, "lattice {id} decoded all");
        assert_eq!(lattice.counters.dropped, 0, "lattice {id} shed nothing");
        assert_eq!(lattice.verdict(), "BOUNDED", "lattice {id} stayed bounded");
    }

    // --- The Drop lattice lost exactly the poisoned round. ---------------
    let poisoned = &report.lattices[1];
    assert_eq!(poisoned.counters.decoded, ROUNDS - 1);
    assert_eq!(poisoned.counters.dropped, 1, "only the poisoned round");
    assert_eq!(
        chaos.frame_for(1).total_recorded(),
        ROUNDS,
        "the quarantined round enters the frame as an identity correction"
    );

    // --- Recovery is exact: protected frames match the reference. --------
    assert_eq!(reference.report.counters.dropped, 0);
    assert!(reference.report.fault.reconciled());
    for &id in &[0usize, 2] {
        assert_eq!(
            chaos.frame_for(id).merged(),
            reference.frame_for(id).merged(),
            "lattice {id}'s merged Pauli frame must be byte-identical to the fault-free run"
        );
    }

    println!(
        "survived: crash caught+restarted ({} restart), 1 record quarantined, burst {}..{} \
         replayed, 2 ms stall absorbed ({} watchdog trips)",
        fault.worker_restarts,
        BURST.start_round,
        BURST.end_round(),
        fault.watchdog_trips
    );
    println!(
        "recovery is exact: lattices 0 and 2 decoded {ROUNDS}/{ROUNDS} rounds BOUNDED with \
         merged frames byte-identical to the fault-free reference; fault books reconciled."
    );
}
