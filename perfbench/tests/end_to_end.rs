//! A tiny closed-loop run of every workload reports every end-to-end metric
//! with its unit, passes its checks, and repeats its counts for a seed.
//!
//! One test per binary: the allocation counter is process-wide.

mod common;

use perfbench::closed::Options;
use perfbench::workload::WORKLOADS;
use perfbench::{measure, END_TO_END};

#[test]
fn every_workload_reports_every_end_to_end_metric_and_repeats_its_counts() {
    let declared = common::declared("end_to_end");
    let expected: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared, expected, "BENCHMARK.json and the binary disagree");
    for workload in &WORKLOADS {
        let first = measure(workload, 5, &Options::tiny());
        let second = measure(workload, 5, &Options::tiny());
        for outcome in [&first, &second] {
            assert!(outcome.correct, "{}: {:?}", workload.name, outcome.notes);
            assert_eq!(outcome.failed, 0);
            assert_eq!(common::reported(outcome), declared, "{}", workload.name);
            for m in &outcome.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {m:?}",
                    workload.name
                );
            }
        }
        assert_eq!(
            first.logical_failure_rate, second.logical_failure_rate,
            "{}",
            workload.name
        );
        assert_eq!(first.logical_failure_rate.is_some(), workload.residuals);
        // Allocation counts repeat up to the few dozen per chunk that the
        // engine's end-of-run report makes for timing-dependent content; on
        // these tiny chunks that is under 1% (about 0.01% on full chunks).
        let allocs = |o: &perfbench::Outcome| o.metric("allocs_per_round").unwrap().value;
        let (a, b) = (allocs(&first), allocs(&second));
        assert!((a - b).abs() <= 1e-2 * a, "{}: {a} vs {b}", workload.name);
    }
}
