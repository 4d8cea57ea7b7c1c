//! In-memory spans recorded around calls into the runtime's layers, and the
//! self-time arithmetic that turns them into a per-layer budget.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer's
//! epoch), the span that caused it, and the counts made at the same
//! boundaries: rounds, bytes and the calling thread's allocations.  Spans are
//! kept in memory and folded at the end; a disabled tracer reads no clock.

use crate::alloc::thread_allocations;
use crate::stats::{quantile, sorted};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `"packet.decode"`.
    pub name: &'static str,
    /// Identifier, unique within one tracer.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Rounds the span handled.
    pub rounds: u64,
    /// Bytes the span moved.
    pub bytes: u64,
    /// Allocations plus reallocations the calling thread made inside it.
    pub allocs: u64,
}

/// A span opened but not yet closed.
#[derive(Debug)]
pub struct OpenSpan {
    name: &'static str,
    id: u32,
    parent: Option<u32>,
    start_ns: u64,
    allocs: u64,
}

impl OpenSpan {
    /// The identifier children of this span name as their parent.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Records spans when enabled; does nothing (and reads no clock) when not.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next_id: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose spans are timed against one shared epoch.
    #[must_use]
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span under `parent`; `None` when the tracer is disabled.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> Option<OpenSpan> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        Some(OpenSpan {
            name,
            id,
            parent,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            allocs: thread_allocations(),
        })
    }

    /// Closes `open` (a no-op for `None`), recording its counts.
    pub fn close(&mut self, open: Option<OpenSpan>, rounds: u64, bytes: u64) {
        if let Some(open) = open {
            let end_ns = self.epoch.elapsed().as_nanos() as u64;
            let allocs = thread_allocations() - open.allocs;
            self.spans.push(Span {
                name: open.name,
                id: open.id,
                parent: open.parent,
                start_ns: open.start_ns,
                end_ns,
                rounds,
                bytes,
                allocs,
            });
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        rounds: u64,
        bytes: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, parent);
        let out = f();
        self.close(open, rounds, bytes);
        out
    }

    /// Spans recorded so far, in the order they closed.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let covered = children
                .get_mut(&span.id)
                .map_or(0, |kids| covered_ns(kids, span.start_ns, span.end_ns));
            duration - covered.min(duration)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Per-layer totals folded from spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Self time summed over the layer's spans.
    pub self_ns: u64,
    /// Rounds summed over the layer's spans.
    pub rounds: u64,
    /// Bytes summed over the layer's spans.
    pub bytes: u64,
    /// Self allocations summed over the layer's spans.
    pub allocs: u64,
    /// Self nanoseconds per round of each span that handled rounds.
    pub span_ns_per_round: Vec<f64>,
}

impl LayerTotals {
    /// Self time per round, in nanoseconds: the lower decile over the
    /// layer's spans (0 when no span handled a round).  Host noise only
    /// slows a span, so the lower decile reads the layer's own cost, the
    /// way `rounds_per_s` reads the engine's fast band.
    #[must_use]
    pub fn ns_per_round(&self) -> f64 {
        if self.span_ns_per_round.is_empty() {
            0.0
        } else {
            quantile(&sorted(&self.span_ns_per_round), 0.1)
        }
    }

    /// Allocations per round.
    #[must_use]
    pub fn allocs_per_round(&self) -> f64 {
        per_round(self.allocs, self.rounds)
    }

    /// Bytes per round.
    #[must_use]
    pub fn bytes_per_round(&self) -> f64 {
        per_round(self.bytes, self.rounds)
    }
}

fn per_round(total: u64, rounds: u64) -> f64 {
    if rounds == 0 {
        0.0
    } else {
        total as f64 / rounds as f64
    }
}

/// Folds spans into per-name totals.  Time and allocations are counted
/// as self (children's share removed); rounds and bytes as recorded.
#[must_use]
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut child_allocs: BTreeMap<u32, u64> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *child_allocs.entry(parent).or_default() += span.allocs;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(span.name).or_default();
        t.self_ns += self_ns;
        if span.rounds > 0 {
            t.span_ns_per_round
                .push(self_ns as f64 / span.rounds as f64);
        }
        t.rounds += span.rounds;
        t.bytes += span.bytes;
        t.allocs += span
            .allocs
            .saturating_sub(child_allocs.get(&span.id).copied().unwrap_or(0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            start_ns: start,
            end_ns: end,
            rounds: 10,
            bytes: 0,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_time_children_cover() {
        let spans = [
            span("batch", 0, None, 0, 100),
            span("source", 1, Some(0), 10, 30),
            span("decode", 2, Some(0), 40, 90),
            span("decode.d3", 3, Some(2), 40, 60),
            span("decode.d5", 4, Some(2), 60, 85),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 5, 20, 25]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = [
            span("parent", 0, None, 100, 200),
            span("a", 1, Some(0), 90, 150),
            span("b", 2, Some(0), 120, 170),
            span("c", 3, Some(0), 190, 250),
        ];
        // Children cover [100, 170) and [190, 200): 80 of 100 ns.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn folding_sums_self_time_and_counts_per_name() {
        let spans = [
            span("batch", 0, None, 0, 50),
            span("source", 1, Some(0), 0, 20),
            span("batch", 2, None, 50, 100),
            span("source", 3, Some(2), 60, 90),
        ];
        let totals = fold(&spans);
        assert_eq!(totals["source"].self_ns, 50);
        assert_eq!(totals["source"].rounds, 20);
        assert_eq!(totals["batch"].self_ns, 50);
        // Per-span 2.0 and 3.0 ns/round; the lower decile interpolates.
        assert!((totals["source"].ns_per_round() - 2.1).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(Instant::now(), false);
        let ran = tracer.span("source", None, 1, 0, || 7);
        assert_eq!(ran, 7);
        assert!(tracer.spans().is_empty());
        tracer.set_enabled(true);
        let batch = tracer.open("batch", None);
        let parent = batch.as_ref().map(OpenSpan::id);
        tracer.span("source", parent, 4, 32, || ());
        tracer.close(batch, 4, 0);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[0].bytes, 32);
    }
}
