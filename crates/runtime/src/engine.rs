//! The streaming engine: the run orchestration that turns seeded syndrome
//! streams into a [`RuntimeReport`].
//!
//! The engine itself is thin by design.  All of the moving parts — paced
//! generation, QoS admission, spread placement, credit-backed channels, the
//! work-stealing mux, the prepared-decoder hot path, frame and depth sinks
//! — live as stages in [`crate::stage`], wired together by a
//! [`PipelineGraph`]:
//!
//! ```text
//! source ──► gate ──► channel[0..W] ──► steal mux ──► decode ──► sink
//!  (paced)  (QoS)    (credit loops)    (per worker, W threads)
//! ```
//!
//! [`StreamingEngine::run`] builds the graph — one credit channel per
//! worker, spread placement, own-then-steal consumption — runs it to
//! completion, and folds the [`PipelineRun`] into the final
//! [`RuntimeOutcome`]: per-lattice reports with backlog timelines, merged
//! frames, the measured-versus-model backlog comparison
//! ([`BacklogModel`](nisqplus_system::backlog::BacklogModel)), one
//! [`StageReport`](crate::stage::StageReport) per pipeline stage, and —
//! when [`MachineConfig::analyze_residuals`] is set — the measured logical
//! cost of shedding: classified in-stream under
//! [`ResidualMode::Streaming`](crate::config::ResidualMode) (workers tally
//! decoded rounds as they commit, the producer tallies shed rounds as it
//! sheds), or by replaying each lattice's seeded error stream at end of run
//! under [`ResidualMode::Replay`](crate::config::ResidualMode).
//! [`StreamingEngine::run_with`] runs the same graph with
//! [`PipelineOptions`] that attach an external observer, shorten the
//! watchdog, replay a recorded trace or record one.
//!
//! Shed rounds stay accounted for end to end: they are fed into the
//! per-lattice frame path as identity corrections, carried in
//! [`MeasuredBacklog::shed`], and priced in measured logical failures by
//! the residual analysis.

use crate::frame::ShardedPauliFrame;
use crate::lattice_set::LatticeSet;
use crate::obs::HistogramSnapshot;
use crate::residual::{analyze_lattice_residuals, streaming_residual_report};
use crate::scenario::SyndromeTrace;
use crate::source::InterleavedSource;
use crate::stage::{PipelineGraph, PipelineOptions, PipelineRun};
use crate::telemetry::{
    LatencyProfile, LatticeDepthSample, LatticeReport, RuntimeCounters, RuntimeReport,
    WorkerCounters,
};
use nisqplus_decoders::traits::DecoderFactory;
use nisqplus_qec::frame::PauliFrame;
use nisqplus_qec::logical::ResidualTally;
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::QecError;
use nisqplus_system::backlog::{BacklogComparison, MeasuredBacklog};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

pub use crate::config::{MachineConfig, PushPolicy, RuntimeConfig};

/// One round's committed correction, kept when
/// [`MachineConfig::record_corrections`] is set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundCorrection {
    /// Id of the lattice the correction belongs to.
    pub lattice_id: u32,
    /// The syndrome-generation round (within that lattice's stream) the
    /// correction belongs to.
    pub round: u64,
    /// The composed X- and Z-sector correction committed to the frame.
    pub correction: PauliString,
}

/// Everything a streaming run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOutcome {
    /// The telemetry report (counters, timelines, latencies, per-lattice
    /// breakdown, per-stage flow reports, model comparisons).
    pub report: RuntimeReport,
    /// One sharded Pauli frame per lattice, indexed by lattice id; each
    /// holds the per-worker shards and their merge for that lattice.
    pub frames: Vec<ShardedPauliFrame>,
    /// Per-round corrections sorted by `(lattice_id, round)`; empty unless
    /// [`MachineConfig::record_corrections`] was set.
    pub corrections: Vec<RoundCorrection>,
    /// The run's recorded syndrome trace; `None` unless the run was started
    /// through [`record_run`](crate::scenario::record_run) (or with
    /// [`PipelineOptions::record_trace`] set).
    pub trace: Option<SyndromeTrace>,
}

impl RuntimeOutcome {
    /// The sharded frame of lattice 0 — the whole machine for single-lattice
    /// runs.
    #[must_use]
    pub fn frame(&self) -> &ShardedPauliFrame {
        &self.frames[0]
    }

    /// The sharded frame of one lattice.
    ///
    /// # Panics
    ///
    /// Panics if `lattice_id` is out of range.
    #[must_use]
    pub fn frame_for(&self, lattice_id: usize) -> &ShardedPauliFrame {
        &self.frames[lattice_id]
    }
}

/// The streaming decode engine.
///
/// ```rust
/// use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};
/// use nisqplus_runtime::{RuntimeConfig, StreamingEngine};
///
/// let mut config = RuntimeConfig::new(3);
/// config.rounds = 64;
/// config.workers = 1;
/// config.cadence_cycles = 0; // un-paced: stream as fast as possible
/// let engine = StreamingEngine::new(config).unwrap();
/// let outcome = engine.run(&|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder);
/// assert_eq!(outcome.report.counters.decoded, 64);
/// ```
///
/// Serving several logical qubits at once — one engine, one worker pool,
/// per-lattice telemetry:
///
/// ```rust
/// use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};
/// use nisqplus_runtime::{MachineConfig, StreamingEngine};
///
/// let mut config = MachineConfig::new(&[3, 5, 3], 7);
/// for spec in &mut config.lattices {
///     spec.rounds = 32;
///     spec.cadence_cycles = 0;
/// }
/// config.workers = 2;
/// let engine = StreamingEngine::with_machine(config).unwrap();
/// let outcome = engine.run(&|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder);
/// assert_eq!(outcome.report.num_lattices, 3);
/// assert_eq!(outcome.report.counters.decoded, 96);
/// assert_eq!(outcome.report.lattices[1].counters.decoded, 32);
/// ```
#[derive(Debug)]
pub struct StreamingEngine {
    config: MachineConfig,
    set: Arc<LatticeSet>,
}

impl StreamingEngine {
    /// Validates a single-lattice configuration and builds the engine.
    ///
    /// # Errors
    ///
    /// Returns a [`QecError`] if the distance is invalid or the noise
    /// probability is outside `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `rounds`, `workers`, `queue_capacity` or `batch_size` is
    /// zero.
    pub fn new(config: RuntimeConfig) -> Result<Self, QecError> {
        Self::with_machine(config.into())
    }

    /// Validates a multi-lattice configuration and builds the engine.
    ///
    /// # Errors
    ///
    /// Returns a [`QecError`] if any lattice distance is invalid or any
    /// noise probability is outside `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the lattice list is empty, any lattice streams zero rounds,
    /// `workers`, `queue_capacity` or `batch_size` is zero, or the scenario
    /// script fails [`ScenarioScript::validate`](crate::scenario::ScenarioScript::validate)
    /// against the machine.
    pub fn with_machine(config: MachineConfig) -> Result<Self, QecError> {
        assert!(config.workers > 0, "worker pool needs at least one worker");
        assert!(config.queue_capacity > 0, "ring needs at least one slot");
        assert!(
            config.batch_size > 0,
            "batch window needs at least one round"
        );
        if config.replays_residuals() {
            // The replay oracle walks the full correction history and the
            // exact shed-round lists; both memory bounds must stay off.
            assert!(
                config.correction_cap.is_none(),
                "replay residual analysis needs the full correction history \
                 (correction_cap must be None)"
            );
            assert!(
                config.track_shed_rounds,
                "replay residual analysis needs the exact shed rounds \
                 (track_shed_rounds must stay on)"
            );
        }
        let set = Arc::new(LatticeSet::new(config.lattices.clone())?);
        // Surface configuration errors now rather than inside the source
        // stage: building a throwaway source validates every noise spec,
        // and applying the fault plan's burst overlays to it validates
        // every amplified channel too.
        let mut probe = InterleavedSource::new(&set, &config.cycle_time)?;
        for burst in &config.fault.bursts {
            let lattice_id = burst.lattice_id as usize;
            assert!(
                lattice_id < set.len(),
                "burst fault names an unknown lattice"
            );
            probe.set_burst(lattice_id, set.spec(lattice_id).noise, burst.overlay)?;
        }
        if let Err(error) = config.scenario.validate(set.len()) {
            panic!("invalid scenario script: {error}");
        }
        Ok(StreamingEngine { config, set })
    }

    /// The run configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The registry of lattices being served.
    #[must_use]
    pub fn lattice_set(&self) -> &Arc<LatticeSet> {
        &self.set
    }

    /// The lattice registered under id 0 — the whole machine for engines
    /// built from a single-lattice [`RuntimeConfig`].
    #[must_use]
    pub fn lattice(&self) -> &Arc<nisqplus_qec::lattice::Lattice> {
        self.set.lattice(0)
    }

    /// Streams every lattice's configured rounds through the worker pool
    /// under the default pipeline wiring and reports the telemetry.
    ///
    /// The calling thread becomes the source; `config.workers` decoder
    /// threads are spawned for the duration of the call.  Returns once every
    /// generated round has been decoded (or shed) and all workers have
    /// exited.
    #[must_use]
    pub fn run(&self, factory: &dyn DecoderFactory) -> RuntimeOutcome {
        self.run_with(PipelineOptions::default(), factory)
    }

    /// Like [`StreamingEngine::run`], with [`PipelineOptions`] attached: an
    /// external [`RuntimeObserver`](crate::obs::RuntimeObserver), a
    /// non-default watchdog, a trace to replay, or trace recording.  The
    /// graph's shape is the same as [`StreamingEngine::run`]'s.
    #[must_use]
    pub fn run_with(
        &self,
        options: PipelineOptions,
        factory: &dyn DecoderFactory,
    ) -> RuntimeOutcome {
        let counters = RuntimeCounters::with_topology(self.set.len(), self.config.workers);
        let graph = PipelineGraph::new(&self.config, &self.set, options);
        let run = graph.run(factory, &counters);
        self.assemble_outcome(run, &counters)
    }

    /// Folds a finished [`PipelineRun`] into the final [`RuntimeOutcome`].
    fn assemble_outcome(&self, run: PipelineRun, counters: &RuntimeCounters) -> RuntimeOutcome {
        let config = &self.config;
        let set = &self.set;
        let PipelineRun {
            worker_outputs,
            depth_timeline,
            generation_elapsed_ns,
            final_backlog,
            lattice_stats,
            lattice_shed,
            shed_tallies,
            stage_reports,
            elapsed_s,
            snapshots,
            journal,
            metrics,
            fault: injections,
            trace,
            mut noise_epochs,
        } = run;
        // Per-lattice decoder names (same on every worker — they build from
        // the same factories); the machine-level headline joins the distinct
        // names, so a heterogeneous machine reads e.g. "lookup+union-find".
        let lattice_decoder_names: Vec<String> = worker_outputs
            .first()
            .map(|o| o.lattice_decoders.clone())
            .unwrap_or_default();
        let mut distinct_names: Vec<&str> = Vec::new();
        for name in &lattice_decoder_names {
            if !distinct_names.contains(&name.as_str()) {
                distinct_names.push(name);
            }
        }
        let decoder_name = distinct_names.join("+");

        // Regroup the per-worker, per-lattice outputs by lattice.  Latency
        // samples arrive as bounded log-bucket histograms (not raw vectors),
        // so regrouping is a counts merge — O(buckets) per worker-lattice
        // pair, independent of how many rounds were decoded.
        let mut per_lattice_decode: Vec<HistogramSnapshot> =
            vec![HistogramSnapshot::empty(); set.len()];
        let mut per_lattice_total: Vec<HistogramSnapshot> =
            vec![HistogramSnapshot::empty(); set.len()];
        let mut per_lattice_shards: Vec<Vec<PauliFrame>> = vec![Vec::new(); set.len()];
        // The streaming residual path's decoded-round tallies, merged across
        // workers per lattice (absorb is an order-independent integer sum,
        // so worker interleaving cannot change the result).
        let mut decoded_tallies: Vec<ResidualTally> = vec![ResidualTally::default(); set.len()];
        let mut corrections = Vec::new();
        for output in worker_outputs {
            corrections.extend(output.corrections);
            for (lattice_id, lattice_output) in output.per_lattice.into_iter().enumerate() {
                per_lattice_decode[lattice_id].merge(&lattice_output.decode_hist);
                per_lattice_total[lattice_id].merge(&lattice_output.total_hist);
                decoded_tallies[lattice_id].absorb(&lattice_output.residuals);
                per_lattice_shards[lattice_id].push(lattice_output.frame);
            }
        }
        corrections.sort_by_key(|c| (c.lattice_id, c.round));

        // Per-lattice reports and frames.
        let mut lattices = Vec::with_capacity(set.len());
        let mut frames = Vec::with_capacity(set.len());
        let mut machine_decode = HistogramSnapshot::empty();
        let mut machine_total = HistogramSnapshot::empty();
        for (lattice_id, spec, lattice) in set.iter() {
            let decode_latency = LatencyProfile::from_histogram(&per_lattice_decode[lattice_id]);
            let total_latency = LatencyProfile::from_histogram(&per_lattice_total[lattice_id]);
            let stats = &lattice_stats[lattice_id];
            let snapshot = counters.per_lattice[lattice_id].snapshot();
            let shed_rounds = &lattice_shed[lattice_id];
            if config.track_shed_rounds {
                debug_assert_eq!(shed_rounds.len() as u64, snapshot.dropped);
            } else {
                debug_assert!(shed_rounds.is_empty(), "untracked shed lists stay empty");
            }
            // Elastic runs stream fewer rounds than configured — retired
            // lattices truncate, dormant adds may never fire, replays serve
            // whatever the trace holds — so every rate and model input is
            // normalised by what the lattice *actually* generated.
            let rounds_streamed = snapshot.generated;
            let inter_arrival_ns = stats.gen_elapsed_ns / rounds_streamed.max(1) as f64;
            let measured = MeasuredBacklog {
                rounds: rounds_streamed,
                final_backlog: stats.final_backlog,
                // Shed rounds are lost, not owed: they left the backlog the
                // moment they were dropped, so they are accounted here
                // explicitly instead of vanishing from the growth math.
                shed: snapshot.dropped,
                // Workers decode concurrently, so the aggregate service time
                // per round is the per-packet mean divided by the pool width
                // (an optimistic bound when other lattices compete for the
                // same pool; see the LatticeReport field docs).
                service_time_ns: decode_latency.summary.mean / config.workers as f64,
                inter_arrival_ns,
            };
            let comparison = BacklogComparison::against_model(&measured);
            let residual = if config.streams_residuals() {
                // Already classified in-stream: the workers tallied decoded
                // rounds, the producer tallied shed rounds — nothing to
                // replay, nothing O(rounds) to walk.
                Some(streaming_residual_report(
                    decoded_tallies[lattice_id],
                    shed_tallies[lattice_id],
                ))
            } else if config.replays_residuals() {
                Some(analyze_lattice_residuals(
                    lattice_id,
                    spec,
                    lattice,
                    &corrections,
                    shed_rounds,
                    config.fault.burst_for(lattice_id as u32),
                ))
            } else {
                None
            };
            // This lattice's slice of the depth sink's timeline: the series
            // that says when *this* patch was falling behind.
            let backlog_timeline: Vec<LatticeDepthSample> = depth_timeline
                .iter()
                .map(|sample| LatticeDepthSample {
                    round: sample.round,
                    elapsed_ns: sample.elapsed_ns,
                    backlog: sample
                        .per_lattice_backlog
                        .get(lattice_id)
                        .copied()
                        .unwrap_or(0),
                })
                .collect();
            lattices.push(LatticeReport {
                lattice_id,
                distance: spec.distance,
                decoder: lattice_decoder_names
                    .get(lattice_id)
                    .cloned()
                    .unwrap_or_default(),
                push_policy: config.policy_for(spec),
                push_policy_overridden: spec.push_policy.is_some(),
                queue_budget: spec.queue_budget,
                shed_slo: spec.shed_slo,
                residual,
                rounds: rounds_streamed,
                noise_epochs: std::mem::take(&mut noise_epochs[lattice_id]),
                cadence_ns: config.cycle_time.cycles_to_ns(spec.cadence_cycles),
                inter_arrival_ns,
                counters: snapshot,
                backlog_timeline,
                final_backlog: stats.final_backlog,
                decode_latency,
                total_latency,
                measured,
                comparison,
            });
            // Shed rounds enter the frame path as identity corrections: the
            // merged Pauli string is unchanged (nothing was corrected), but
            // the frame's recorded-cycle count owns up to every generated
            // round, so `total_recorded == generated` under shedding too.
            let mut shards = std::mem::take(&mut per_lattice_shards[lattice_id]);
            // Counted off the dropped counter, not the shed-round list: the
            // books must balance even when `track_shed_rounds` elides the
            // per-round indices.
            if snapshot.dropped > 0 {
                let mut shed_shard = PauliFrame::new(lattice.num_data());
                let identity = PauliString::identity(lattice.num_data());
                for _ in 0..snapshot.dropped {
                    shed_shard.record(&identity);
                }
                shards.push(shed_shard);
            }
            frames.push(ShardedPauliFrame::from_shards(lattice.num_data(), shards));
            machine_decode.merge(&per_lattice_decode[lattice_id]);
            machine_total.merge(&per_lattice_total[lattice_id]);
        }
        if !config.record_corrections {
            // The corrections were only recorded to feed the residual
            // analysis; the caller did not ask for them.
            corrections.clear();
        }

        let decode_latency = LatencyProfile::from_histogram(&machine_decode);
        let total_latency = LatencyProfile::from_histogram(&machine_total);
        let snapshot = counters.snapshot();
        // The machine-level books follow the same rule: rounds are what the
        // source actually emitted, not what the specs configured.
        let total_rounds = snapshot.generated;
        let inter_arrival_ns = generation_elapsed_ns / total_rounds.max(1) as f64;
        let measured = MeasuredBacklog {
            rounds: total_rounds,
            final_backlog,
            shed: snapshot.dropped,
            // Workers decode concurrently, so the aggregate service time per
            // round is the per-packet mean divided by the pool width.
            service_time_ns: decode_latency.summary.mean / config.workers as f64,
            inter_arrival_ns,
        };
        let comparison = BacklogComparison::against_model(&measured);
        let throughput_per_s = if elapsed_s > 0.0 {
            snapshot.decoded as f64 / elapsed_s
        } else {
            0.0
        };
        let max_queue_depth = depth_timeline
            .iter()
            .map(|s| s.queue_depth)
            .max()
            .unwrap_or(0);

        let outcome = RuntimeOutcome {
            report: RuntimeReport {
                decoder: decoder_name,
                num_lattices: set.len(),
                distances: set.distances(),
                workers: config.workers,
                batch_size: config.batch_size,
                rounds: total_rounds,
                cadence_ns: config.aggregate_cadence_ns(),
                inter_arrival_ns,
                elapsed_s,
                counters: snapshot,
                depth_timeline,
                max_queue_depth,
                final_backlog,
                throughput_per_s,
                decode_latency,
                total_latency,
                measured,
                comparison,
                lattices,
                worker_counters: counters
                    .per_worker
                    .iter()
                    .map(WorkerCounters::snapshot)
                    .collect(),
                fault: crate::fault::FaultReport::assemble(
                    &config.fault,
                    injections,
                    &journal.counts,
                    snapshot.quarantined,
                ),
                stages: stage_reports,
                snapshots,
                journal,
                metrics,
            },
            frames,
            corrections,
            trace,
        };
        if let Some(path) = &config.obs.export_path {
            // Export is best-effort telemetry: a failed write must never
            // fail the run that produced the data.
            if let Err(error) = crate::report::write_report(path, &outcome.report) {
                eprintln!(
                    "nisqplus-runtime: report export to {} failed: {error}",
                    path.display()
                );
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::NoiseSpec;
    use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};

    fn fast_config() -> RuntimeConfig {
        let mut config = RuntimeConfig::new(3);
        config.rounds = 200;
        config.workers = 2;
        config.cadence_cycles = 0;
        config.queue_capacity = 64;
        config
    }

    fn greedy_factory() -> impl DecoderFactory {
        || Box::new(GreedyMatchingDecoder::new()) as DynDecoder
    }

    #[test]
    fn every_round_is_decoded_exactly_once() {
        let engine = StreamingEngine::new(fast_config()).unwrap();
        let outcome = engine.run(&greedy_factory());
        let counters = outcome.report.counters;
        assert_eq!(counters.generated, 200);
        assert_eq!(counters.enqueued, 200);
        assert_eq!(counters.decoded, 200);
        assert_eq!(counters.dropped, 0);
        assert_eq!(outcome.frame().total_recorded(), 200);
        assert_eq!(outcome.report.decode_latency.summary.count, 200);
        assert!(outcome.report.throughput_per_s > 0.0);
        assert!(!outcome.report.depth_timeline.is_empty());
        // Single lattice: the per-lattice breakdown is the whole report.
        assert_eq!(outcome.report.num_lattices, 1);
        assert_eq!(outcome.report.lattices.len(), 1);
        assert_eq!(outcome.report.lattices[0].counters.decoded, 200);
        assert_eq!(outcome.report.distances, vec![3]);
    }

    #[test]
    fn recorded_corrections_cover_every_round_in_order() {
        let mut config = fast_config();
        config.record_corrections = true;
        config.workers = 3;
        let engine = StreamingEngine::new(config).unwrap();
        let outcome = engine.run(&greedy_factory());
        let rounds: Vec<u64> = outcome.corrections.iter().map(|c| c.round).collect();
        assert_eq!(rounds, (0..200).collect::<Vec<u64>>());
        assert!(outcome.corrections.iter().all(|c| c.lattice_id == 0));
    }

    #[test]
    fn drop_policy_sheds_load_on_a_tiny_ring() {
        let mut config = fast_config();
        config.queue_capacity = 2;
        config.workers = 1;
        config.rounds = 500;
        config.push_policy = PushPolicy::Drop;
        // Slow the workers enough that an un-paced producer overruns the ring.
        let factory = || {
            Box::new(crate::throttle::ThrottledDecoder::new(
                GreedyMatchingDecoder::new(),
                50_000,
            )) as DynDecoder
        };
        // Dropped rounds are shed, not owed: the backlog when generation
        // stopped is at most what fits in the channels (their credits) plus
        // one batch popped into each worker — the aggregate `decoded`
        // counter advances once per batch — never the full overrun.
        let channel_slots = config.queue_capacity.div_ceil(config.workers) * config.workers;
        let backlog_bound = (channel_slots + config.workers * config.batch_size) as u64;
        let engine = StreamingEngine::new(config).unwrap();
        let outcome = engine.run(&factory);
        let counters = outcome.report.counters;
        assert_eq!(counters.generated, 500);
        assert_eq!(counters.enqueued + counters.dropped, 500);
        assert!(counters.dropped > 0, "tiny ring should overflow");
        assert_eq!(counters.decoded, counters.enqueued);
        assert!(outcome.report.final_backlog <= backlog_bound);
        // The per-lattice slice sees the same drops.
        let lattice = &outcome.report.lattices[0];
        assert_eq!(lattice.counters.dropped, counters.dropped);
        assert!(!lattice.queue_stayed_bounded());
    }

    #[test]
    fn batched_windows_cover_every_round() {
        let mut config = fast_config();
        config.batch_size = 8;
        config.workers = 1;
        let engine = StreamingEngine::new(config).unwrap();
        let outcome = engine.run(&greedy_factory());
        let counters = outcome.report.counters;
        assert_eq!(counters.decoded, 200);
        assert_eq!(outcome.report.batch_size, 8);
        assert!(counters.batches >= 200 / 8);
        assert!(counters.batches <= 200);
        assert!(counters.mean_batch_fill() >= 1.0);
        assert_eq!(outcome.report.decode_latency.summary.count, 200);
    }

    /// Per-worker counter slices sum exactly to the aggregate counters at
    /// quiescence, and each worker's mean batch fill is internally
    /// consistent.
    #[test]
    fn per_worker_counters_sum_to_the_aggregate() {
        let mut config = fast_config();
        config.workers = 3;
        let engine = StreamingEngine::new(config).unwrap();
        let outcome = engine.run(&greedy_factory());
        let counters = outcome.report.counters;
        let workers = &outcome.report.worker_counters;
        assert_eq!(workers.len(), 3);
        assert_eq!(
            workers.iter().map(|w| w.decoded).sum::<u64>(),
            counters.decoded
        );
        assert_eq!(
            workers.iter().map(|w| w.stolen).sum::<u64>(),
            counters.stolen
        );
        assert_eq!(
            workers.iter().map(|w| w.batches).sum::<u64>(),
            counters.batches
        );
        assert_eq!(
            workers.iter().map(|w| w.stall_polls).sum::<u64>(),
            counters.stall_polls
        );
        for worker in workers {
            if worker.batches > 0 {
                assert!(worker.mean_batch_fill() >= 1.0);
                assert!(worker.mean_batch_fill() <= config_batch_size() as f64);
            }
        }
    }

    fn config_batch_size() -> usize {
        RuntimeConfig::DEFAULT_BATCH_SIZE
    }

    /// Satellite of the stage refactor: every lattice gets its own backlog
    /// timeline, aligned sample-for-sample with the aggregate one.
    #[test]
    fn per_lattice_backlog_timelines_align_with_the_aggregate() {
        let mut config = MachineConfig::new(&[3, 5], 21);
        for spec in &mut config.lattices {
            spec.rounds = 100;
            spec.cadence_cycles = 0;
        }
        config.workers = 2;
        config.queue_capacity = 512;
        let engine = StreamingEngine::with_machine(config).unwrap();
        let outcome = engine.run(&greedy_factory());
        let aggregate = &outcome.report.depth_timeline;
        assert!(!aggregate.is_empty());
        for lattice in &outcome.report.lattices {
            assert_eq!(lattice.backlog_timeline.len(), aggregate.len());
            for (own, agg) in lattice.backlog_timeline.iter().zip(aggregate) {
                assert_eq!(own.round, agg.round);
                assert_eq!(own.elapsed_ns, agg.elapsed_ns);
                assert!(own.backlog <= agg.backlog + 1);
            }
        }
        // The per-lattice series sum to the aggregate at each sample (no
        // sampling skew here: the source thread reads all counters between
        // emissions).
        for (index, sample) in aggregate.iter().enumerate() {
            let summed: u64 = outcome
                .report
                .lattices
                .iter()
                .map(|l| l.backlog_timeline[index].backlog)
                .sum();
            assert_eq!(summed, sample.per_lattice_backlog.iter().sum::<u64>());
        }
    }

    /// The run's stage reports describe the whole graph and their books
    /// balance: what the source emitted equals what the channels accepted
    /// equals what the decode stages consumed.
    #[test]
    fn stage_reports_cover_the_graph_with_balanced_flow() {
        let engine = StreamingEngine::new(fast_config()).unwrap();
        let outcome = engine.run(&greedy_factory());
        let stages = &outcome.report.stages;
        let stage_of = |name: &str| {
            stages
                .iter()
                .find(|r| r.stage == name)
                .unwrap_or_else(|| panic!("missing stage report {name}"))
        };
        assert_eq!(stage_of("source").accepted, 200);
        assert_eq!(stage_of("source").emitted, 200);
        assert_eq!(stage_of("gate").accepted, 200);
        assert_eq!(stage_of("skid").accepted, 200);
        assert_eq!(stage_of("skid").emitted, 200);
        let channel_in: u64 = stages
            .iter()
            .filter(|r| r.stage.starts_with("channel."))
            .map(|r| r.accepted)
            .sum();
        let decode_out: u64 = stages
            .iter()
            .filter(|r| r.stage.starts_with("decode."))
            .map(|r| r.emitted)
            .sum();
        assert_eq!(channel_in, 200);
        assert_eq!(decode_out, 200);
        for report in stages.iter().filter(|r| r.stage.starts_with("channel.")) {
            assert_eq!(report.credits_consumed, report.credits_issued);
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_batch_size_rejected() {
        let mut config = fast_config();
        config.batch_size = 0;
        let _ = StreamingEngine::new(config);
    }

    #[test]
    fn invalid_noise_is_rejected_up_front() {
        let mut config = fast_config();
        config.noise = NoiseSpec::PureDephasing { p: 2.0 };
        assert!(StreamingEngine::new(config).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let mut config = fast_config();
        config.workers = 0;
        let _ = StreamingEngine::new(config);
    }

    #[test]
    #[should_panic(expected = "at least one lattice")]
    fn empty_machine_rejected() {
        let config = MachineConfig {
            lattices: Vec::new(),
            ..MachineConfig::new(&[3], 0)
        };
        let _ = StreamingEngine::with_machine(config);
    }
}
