//! The closed-loop runs: each timed chunk is a fresh `StreamingEngine` over
//! a fixed number of rounds, checked for conservation and determinism as it
//! finishes.

use crate::alloc::allocations;
use crate::workload::{Workload, SEED_SETS};
use nisqplus_decoders::Decoder;
use nisqplus_qec::lattice::Sector;
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::ResidualTally;
use nisqplus_runtime::{RuntimeOutcome, StreamingEngine, SyndromeSource};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Leading chunks of a run that are run and checked but not timed.
pub const WARMUP_CHUNKS: usize = 2;
/// Timed chunks run even past the budget (at least [`SEED_SETS`] chunks run
/// in all, so every seed set has a reference).
pub const MIN_TIMED_CHUNKS: usize = 10;
/// Untimed `with_machine` builds opening each set-up burst.
pub const SETUP_WARMUP: usize = 8;
/// Timed `with_machine` builds in each set-up burst.
pub const SETUP_BUILDS: usize = 16;
/// Rounds per lattice co-verified against the offline reference.
pub const COVERIFY_ROUNDS: u64 = 64;
/// The quantile of per-chunk rates reported as `rounds_per_s`.  Fixed, so
/// the estimator does not move with the number of chunks a run completes;
/// 0.98 leaves at least ten chunks beyond it down to about 500 chunks, below
/// the fewest a 30 s run has completed on any workload.
pub const RATE_QUANTILE: f64 = 0.98;

/// How long a closed-loop run measures, and how large its chunks are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Wall-clock budget for the timed chunks.
    pub seconds: f64,
    /// Rounds per lattice in one chunk; `None` uses the workload's own.
    pub chunk_rounds: Option<u64>,
}

impl Options {
    /// The benchmark's settings for a run of `seconds`.
    #[must_use]
    pub fn standard(seconds: f64) -> Self {
        Options {
            seconds,
            chunk_rounds: None,
        }
    }

    /// A run small enough for a unit test: the fewest chunks, each short.
    #[must_use]
    pub fn tiny() -> Self {
        Options {
            chunk_rounds: Some(16),
            ..Options::standard(0.0)
        }
    }

    /// Rounds per lattice in one chunk of `workload`.
    #[must_use]
    pub fn rounds_for(&self, workload: &Workload) -> u64 {
        self.chunk_rounds.unwrap_or(workload.chunk_rounds)
    }
}

/// What a chunk's output must reproduce whenever its seed set runs again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkDigest {
    /// Rounds classified by the streaming residual tallies.
    pub classified: u64,
    /// Failures among them.
    pub failures: u64,
    /// A hash of every lattice's final Pauli frame.
    pub frames: u64,
}

/// Hashes a sequence of per-lattice frames into one digest word.
pub fn frames_hash<'a>(frames: impl Iterator<Item = &'a PauliString>) -> u64 {
    let mut hasher = DefaultHasher::new();
    for frame in frames {
        frame.hash(&mut hasher);
    }
    hasher.finish()
}

/// One chunk's measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chunk {
    /// Decoded rounds per second of engine wall time.
    pub rate: f64,
    /// Rounds generated.
    pub generated: u64,
    /// Allocations plus reallocations from engine build to the end of its run.
    pub allocs: u64,
    /// The chunk's checked outputs.
    pub digest: ChunkDigest,
}

/// Runs one chunk of `workload` and checks conservation: every generated
/// round decoded, none shed or quarantined, and each lattice's live failure
/// counters equal to its final residual tallies.
///
/// # Errors
///
/// Returns a description of the first check that failed.
pub fn run_chunk(
    workload: &Workload,
    seed: u64,
    seed_set: u64,
    rounds_per_lattice: u64,
) -> Result<Chunk, String> {
    let config = workload.machine(seed, seed_set, rounds_per_lattice);
    let factory = workload.decoder.factory();
    let before = allocations();
    let engine = StreamingEngine::with_machine(config).map_err(|e| e.to_string())?;
    let outcome = engine.run(&factory);
    let allocs = allocations() - before;
    let expected = workload.chunk_total(rounds_per_lattice);
    let digest = check_outcome(workload, &outcome, expected)?;
    Ok(Chunk {
        rate: outcome.report.counters.decoded as f64 / outcome.report.elapsed_s,
        generated: outcome.report.counters.generated,
        allocs,
        digest,
    })
}

fn check_outcome(
    workload: &Workload,
    outcome: &RuntimeOutcome,
    expected: u64,
) -> Result<ChunkDigest, String> {
    let c = &outcome.report.counters;
    if c.generated != expected || c.decoded != c.generated || c.dropped != 0 || c.quarantined != 0 {
        return Err(format!(
            "conservation: expected {expected}, generated {}, decoded {}, dropped {}, quarantined {}",
            c.generated, c.decoded, c.dropped, c.quarantined
        ));
    }
    let mut classified = 0;
    let mut failures = 0;
    for lattice in &outcome.report.lattices {
        if lattice.counters.generated != lattice.counters.decoded {
            return Err(format!(
                "lattice {} generated {} but decoded {}",
                lattice.lattice_id, lattice.counters.generated, lattice.counters.decoded
            ));
        }
        if !workload.residuals {
            continue;
        }
        let Some(residual) = lattice.residual else {
            return Err(format!(
                "lattice {} has no residual tally",
                lattice.lattice_id
            ));
        };
        let total = residual.total();
        if lattice.counters.live_failures() != total.failures() {
            return Err(format!(
                "lattice {}: live failure counters {} != final tally {}",
                lattice.lattice_id,
                lattice.counters.live_failures(),
                total.failures()
            ));
        }
        if total.rounds != lattice.counters.generated {
            return Err(format!(
                "lattice {} classified {} of {} rounds",
                lattice.lattice_id, total.rounds, lattice.counters.generated
            ));
        }
        classified += total.rounds;
        failures += total.failures();
    }
    let merged: Vec<PauliString> = outcome.frames.iter().map(|f| f.merged()).collect();
    Ok(ChunkDigest {
        classified,
        failures,
        frames: frames_hash(merged.iter()),
    })
}

/// Times [`SETUP_BUILDS`] warm, back-to-back `StreamingEngine::with_machine`
/// calls on the workload's chunk machine, after [`SETUP_WARMUP`] untimed ones;
/// seconds each.
///
/// # Errors
///
/// Returns the engine's error if the machine fails validation.
pub fn measure_setup(
    workload: &Workload,
    seed: u64,
    rounds_per_lattice: u64,
) -> Result<Vec<f64>, String> {
    let config = workload.machine(seed, 0, rounds_per_lattice);
    let mut samples = Vec::with_capacity(SETUP_BUILDS);
    for i in 0..SETUP_WARMUP + SETUP_BUILDS {
        let copy = config.clone();
        let start = Instant::now();
        let engine = StreamingEngine::with_machine(copy);
        let elapsed = start.elapsed().as_secs_f64();
        engine.map_err(|e| e.to_string())?;
        if i >= SETUP_WARMUP {
            samples.push(elapsed);
        }
    }
    Ok(samples)
}

/// Co-verifies the first [`COVERIFY_ROUNDS`] rounds of every lattice of seed
/// set 0:
/// the engine's recorded corrections must equal, byte for byte, an offline
/// loop through the same public decoder on the same seeded stream, and the
/// engine's residual tallies must equal the offline classification.
/// Returns the rounds verified.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn coverify(workload: &Workload, seed: u64) -> Result<u64, String> {
    let rounds = COVERIFY_ROUNDS;
    let mut config = workload.machine(seed, 0, rounds);
    config.record_corrections = true;
    let factory = workload.decoder.factory();
    let engine = StreamingEngine::with_machine(config).map_err(|e| e.to_string())?;
    let outcome = engine.run(&factory);
    check_outcome(workload, &outcome, workload.chunk_total(rounds))?;
    let mut corrections = outcome.corrections.iter();
    for (id, spec, lattice) in engine.lattice_set().iter() {
        let mut source = SyndromeSource::new(lattice.clone(), spec.noise, spec.seed)
            .map_err(|e| e.to_string())?;
        let mut decoder = factory();
        decoder.prepare(lattice);
        let mut x = PauliString::identity(lattice.num_data());
        let mut z = PauliString::identity(lattice.num_data());
        let mut tally = ResidualTally::new();
        for round in 0..rounds {
            let (error, syndrome) = source.next_error_and_syndrome();
            decoder.decode_into(lattice, &syndrome, Sector::X, &mut x);
            decoder.decode_into(lattice, &syndrome, Sector::Z, &mut z);
            x.compose_with(&z);
            let Some(engine_round) = corrections.next() else {
                return Err(format!("engine recorded no correction for {id}/{round}"));
            };
            if engine_round.lattice_id as usize != id
                || engine_round.round != round
                || engine_round.correction != x
            {
                return Err(format!(
                    "co-verification: engine correction for lattice {}/round {} differs from the offline decode of lattice {id}/round {round}",
                    engine_round.lattice_id, engine_round.round
                ));
            }
            tally.record(lattice, &error, &x);
        }
        if workload.residuals {
            let engine_tally = outcome.report.lattices[id]
                .residual
                .map(|r| r.decoded)
                .unwrap_or_default();
            if engine_tally != tally {
                return Err(format!(
                    "co-verification: lattice {id} residual tally {engine_tally:?} != offline {tally:?}"
                ));
            }
        }
    }
    if corrections.next().is_some() {
        return Err("engine recorded more corrections than rounds streamed".to_string());
    }
    Ok(workload.chunk_total(rounds))
}

/// Everything a closed-loop run measured and checked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClosedLoop {
    /// Per-chunk decoded rounds per second, timed chunks only.
    pub chunk_rates: Vec<f64>,
    /// Leading chunks run but not timed.
    pub warmup_dropped: usize,
    /// Seconds per warm `with_machine` build.
    pub setup_samples: Vec<f64>,
    /// Rounds generated by the timed chunks.
    pub timed_rounds: u64,
    /// Allocations plus reallocations during the timed chunks.
    pub timed_allocs: u64,
    /// Rounds attempted, co-verification prefix included.
    pub attempted: u64,
    /// Rounds shed, quarantined, or in a chunk whose check failed.
    pub failed: u64,
    /// The first run of each seed set.
    pub reference: Vec<Option<ChunkDigest>>,
    /// Check failures, in order.
    pub errors: Vec<String>,
}

impl ClosedLoop {
    /// Logical failures per classified round over the first run of every
    /// seed set; `None` without residual tallies.
    #[must_use]
    pub fn logical_failure_rate(&self) -> Option<f64> {
        let (classified, failures) = self
            .reference
            .iter()
            .flatten()
            .fold((0u64, 0u64), |(c, f), d| (c + d.classified, f + d.failures));
        (classified > 0).then(|| failures as f64 / classified as f64)
    }

    /// Allocations plus reallocations per generated round, timed chunks.
    #[must_use]
    pub fn allocs_per_round(&self) -> f64 {
        self.timed_allocs as f64 / self.timed_rounds.max(1) as f64
    }

    /// Runs one chunk of seed set `chunk % SEED_SETS`, checking its digest
    /// against that seed set's first run.  Returns the chunk when it passed.
    pub fn run_checked_chunk(
        &mut self,
        workload: &Workload,
        seed: u64,
        chunk: usize,
        rounds_per_lattice: u64,
    ) -> Option<Chunk> {
        if self.reference.is_empty() {
            self.reference = vec![None; SEED_SETS as usize];
        }
        let seed_set = chunk as u64 % SEED_SETS;
        let expected = workload.chunk_total(rounds_per_lattice);
        self.attempted += expected;
        let result = run_chunk(workload, seed, seed_set, rounds_per_lattice).and_then(|c| {
            match &mut self.reference[seed_set as usize] {
                Some(first) if *first != c.digest => Err(format!(
                    "seed set {seed_set} did not repeat: first {first:?}, now {:?}",
                    c.digest
                )),
                slot => {
                    *slot = Some(c.digest);
                    Ok(c)
                }
            }
        });
        match result {
            Ok(c) => Some(c),
            Err(error) => {
                self.failed += expected;
                self.errors.push(format!("chunk {chunk}: {error}"));
                None
            }
        }
    }
}

/// Runs `workload` closed-loop: co-verification first, outside the timed
/// region, then fresh-engine chunks until the budget is spent, each followed
/// by a burst of warm set-up builds (outside the chunk's timing), so the
/// set-up samples see the same host as the chunks do.
#[must_use]
pub fn run(workload: &Workload, seed: u64, options: &Options) -> ClosedLoop {
    let rounds = options.rounds_for(workload);
    let mut out = ClosedLoop::default();
    let prefix = workload.chunk_total(COVERIFY_ROUNDS);
    out.attempted += prefix;
    if let Err(error) = coverify(workload, seed) {
        out.failed += prefix;
        out.errors.push(error);
    }
    let budget = Duration::from_secs_f64(options.seconds);
    let min_chunks = (WARMUP_CHUNKS + MIN_TIMED_CHUNKS).max(SEED_SETS as usize);
    let start = Instant::now();
    let mut chunk = 0;
    while chunk < min_chunks || start.elapsed() < budget {
        let measured = out.run_checked_chunk(workload, seed, chunk, rounds);
        if chunk < WARMUP_CHUNKS {
            out.warmup_dropped += 1;
        } else if let Some(c) = measured {
            out.chunk_rates.push(c.rate);
            out.timed_rounds += c.generated;
            out.timed_allocs += c.allocs;
        }
        match measure_setup(workload, seed, rounds) {
            Ok(mut samples) => out.setup_samples.append(&mut samples),
            Err(error) => out.errors.push(format!("setup: {error}")),
        }
        chunk += 1;
    }
    out
}
