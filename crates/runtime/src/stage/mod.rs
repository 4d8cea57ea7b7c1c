//! Composable pipeline stages with credit-based flow control.
//!
//! The paper's argument is a *pipeline* argument: syndromes must flow
//! through extraction, transport, and decode without the backlog ever
//! growing.  This module rebuilds the streaming engine's hand-wired loop as
//! latency-insensitive stages in the style of hardware combinator
//! libraries — every seam between two stages is a valid/ready handshake
//! backed by a credit loop, so backpressure is a first-class, *measurable*
//! signal instead of an accident of buffer sizes:
//!
//! * [`credit`] — [`CreditCounter`], the flow-control token; exhaustion is
//!   a counted stall, never a lost record,
//! * [`channel`] — [`CreditChannel`], a credit-carrying channel over the
//!   lock-free [`SpmcRing`](crate::queue::SpmcRing),
//! * [`skid`] — [`SkidBuffer`], the one-or-two-entry buffer that decouples
//!   a producer's valid from a consumer's ready across a stalled seam,
//! * [`mux`] — [`StealMux`], the arbiter that fills a worker's batch from
//!   its home channel first and steals from a neighbour only when home is
//!   dry,
//! * [`gate`] — [`QosGate`], per-lattice admission control (push policy +
//!   outstanding-round budget as a pipeline-spanning credit loop),
//! * [`decode`] — [`DecodeStage`], the prepared-decoder hot path that turns
//!   a wire record into a composed correction,
//! * [`sink`] — [`FrameSink`] (frame commit + latency telemetry) and
//!   [`DepthSink`] (down-sampled backlog timelines, aggregate and per
//!   lattice),
//! * [`graph`] — [`PipelineGraph`], which wires the stages into the one
//!   running pipeline shape: one paced source thread spreading rounds over
//!   one credit channel per worker, N decode workers, and backpressure at
//!   every seam.
//!
//! Every stage answers for itself through a uniform [`StageReport`]
//! (credits issued/consumed, occupancy, stall cycles), and the engine folds
//! all of them into
//! [`RuntimeReport::stages`](crate::telemetry::RuntimeReport::stages) — the
//! flow-control behaviour the paper assumes of hardware, measured per seam
//! in software.  `docs/ARCHITECTURE.md` draws the graph and explains how to
//! write a new stage.

pub mod channel;
pub mod credit;
pub mod decode;
pub mod gate;
pub mod graph;
pub mod mux;
pub mod sink;
pub mod skid;

pub use channel::CreditChannel;
pub use credit::CreditCounter;
pub use decode::{DecodeStage, DecodedRound};
pub use gate::{Admission, QosGate};
pub use graph::{LatticeGenStats, PipelineGraph, PipelineOptions, PipelineRun, WorkerSeat};
pub use mux::{FillResult, StealMux};
pub use sink::{DepthSink, FrameSink, WorkerLatticeOutput, WorkerOutput};
pub use skid::SkidBuffer;

use serde::{Deserialize, Serialize};

/// One stage's uniform self-report, folded into
/// [`RuntimeReport::stages`](crate::telemetry::RuntimeReport::stages).
///
/// The fields are deliberately generic so every stage — source, gate,
/// channel, mux, decode, sink — answers the same questions: how much flowed
/// through, how often it stalled, and what its credit loop did.  A stage
/// leaves fields it has no notion of at zero.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageReport {
    /// The stage's name, unique within one run's report (worker- or
    /// channel-indexed stages are suffixed, e.g. `"channel.2"`,
    /// `"decode.0"`).
    pub stage: String,
    /// Items the stage accepted from upstream.
    pub accepted: u64,
    /// Items the stage handed downstream.
    pub emitted: u64,
    /// Items the stage refused (a full channel's rejected send, a gate's
    /// shed round).  Refusals under a blocking policy are retried and show
    /// up as [`StageReport::stall_cycles`] instead.
    pub rejected: u64,
    /// Credits the stage's loop returned to senders (replenishments).
    pub credits_issued: u64,
    /// Credits the stage's loop consumed (successful acquisitions).
    pub credits_consumed: u64,
    /// The most items ever resident in the stage at once.
    pub occupancy_peak: u64,
    /// Spin/poll iterations spent blocked on a not-ready neighbour: a
    /// source pacing to its cadence, a gate waiting for budget, a sender
    /// waiting for a slot, a worker polling empty channels.
    pub stall_cycles: u64,
}

impl StageReport {
    /// A report with the given name and every counter at zero.
    #[must_use]
    pub fn named(stage: impl Into<String>) -> Self {
        StageReport {
            stage: stage.into(),
            ..StageReport::default()
        }
    }
}
