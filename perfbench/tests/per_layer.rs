//! A tiny traced run of every workload reports every per-layer metric with
//! its unit, and its counts repeat for a seed.
//!
//! One test per binary: the allocation counter is process-wide.

mod common;

use perfbench::closed::Options;
use perfbench::trace_layers;
use perfbench::workload::WORKLOADS;

/// Per-layer metrics that count rather than time, so repeat for a seed.
const COUNTS: [&str; 8] = [
    "source.allocs_per_round",
    "packet.bytes_per_round",
    "packet.allocs_per_round",
    "mesh.allocs_per_round",
    "mesh.d3.sim_ns_p99",
    "mesh.d5.sim_ns_p99",
    "mesh.d7.sim_ns_p99",
    "mesh.d9.sim_ns_p99",
];

#[test]
fn every_workload_traces_every_per_layer_metric_and_repeats_its_counts() {
    let declared = common::declared("per_layer");
    for workload in &WORKLOADS {
        let first = trace_layers(workload, 5, &Options::tiny());
        let second = trace_layers(workload, 5, &Options::tiny());
        for outcome in [&first, &second] {
            assert!(outcome.correct, "{}: {:?}", workload.name, outcome.notes);
            assert_eq!(common::reported(outcome), declared, "{}", workload.name);
            for m in &outcome.metrics {
                // Unexplained time is a difference of two timings, and on a
                // tiny run may fall either side of zero.
                let signed = m.name == "engine.unexplained_ns_per_round";
                assert!(
                    m.value.is_finite() && (signed || m.value >= 0.0),
                    "{} {m:?}",
                    workload.name
                );
            }
        }
        for name in COUNTS {
            let value = |o: &perfbench::Outcome| o.metric(name).unwrap().value;
            assert_eq!(value(&first), value(&second), "{} {name}", workload.name);
        }
    }
}
