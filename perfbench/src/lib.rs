//! Closed-loop throughput benchmark and outside-in per-layer trace of the
//! NISQ+ streaming decode runtime.
//!
//! [`measure`] runs a workload closed-loop and reports the end-to-end
//! metrics; [`trace_layers`] is the separate traced invocation that reports the
//! per-layer budget.  Both check the program's outputs and stamp the host.
//! See `README.md` beside this crate for the definitions.

pub mod alloc;
pub mod closed;
pub mod host;
pub mod span;
pub mod stats;
pub mod trace;
pub mod workload;

use closed::Options;
use stats::{median, quantile, sorted, upper_percentile};
use workload::Workload;

/// End-to-end metrics, with units, as `--trace 0` reports them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("rounds_per_s", "1/s"),
    ("setup_s", "s"),
    ("allocs_per_round", "count"),
    ("peak_rss_mib", "MiB"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one invocation reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Rounds attempted.
    pub attempted: u64,
    /// Rounds failed: shed, quarantined, or in a chunk whose check failed.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The logical failure rate over each seed set's first chunk, where the
    /// workload classifies residuals (exact for a given seed).
    pub logical_failure_rate: Option<f64>,
}

fn fingerprint(workload: &Workload, seed: u64) -> String {
    format!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\" workload={} seed={seed} probe_ms={:.3}",
        host::nproc(),
        host::cpu_model(),
        host::rustc_version(),
        workload.name,
        host::speed_probe_ms()
    )
}

/// Runs `workload` closed-loop and reports the end-to-end metrics.
#[must_use]
pub fn measure(workload: &Workload, seed: u64, options: &Options) -> Outcome {
    let mut notes = vec![fingerprint(workload, seed)];
    let run = closed::run(workload, seed, options);
    let mut errors = run.errors.clone();
    let rate = if run.chunk_rates.is_empty() {
        errors.push("no timed chunk passed its checks".to_string());
        None
    } else {
        Some(upper_percentile(&run.chunk_rates, closed::RATE_QUANTILE))
    };
    let setup_s = if run.setup_samples.is_empty() {
        errors.push("no set-up sample".to_string());
        f64::NAN
    } else {
        quantile(&sorted(&run.setup_samples), 0.1)
    };
    let peak = host::peak_rss_mib().unwrap_or_else(|| {
        errors.push("the kernel reports no VmHWM".to_string());
        f64::NAN
    });
    if let Some(p) = rate {
        let s = sorted(&run.chunk_rates);
        notes.push(format!(
            "rounds_per_s: p{:.1} {:.0} (median {:.0}) over {} timed chunks of {} rounds, {} beyond the percentile, {} warm-up chunks dropped",
            p.q * 100.0,
            p.value,
            median(&s),
            p.samples,
            workload.chunk_total(options.rounds_for(workload)),
            p.beyond,
            run.warmup_dropped
        ));
        notes.push(format!(
            "chunk rates: p25 {:.0} p50 {:.0} p75 {:.0} p90 {:.0} p95 {:.0} max {:.0}",
            quantile(&s, 0.25),
            quantile(&s, 0.5),
            quantile(&s, 0.75),
            quantile(&s, 0.9),
            quantile(&s, 0.95),
            s[s.len() - 1]
        ));
    }
    if !run.setup_samples.is_empty() {
        let s = sorted(&run.setup_samples);
        notes.push(format!(
            "setup_s: lower decile of {} warm with_machine builds (p25 {:.4e} median {:.4e} s)",
            s.len(),
            quantile(&s, 0.25),
            median(&s)
        ));
    }
    let failure_rate = run.logical_failure_rate();
    if let Some(rate) = failure_rate {
        notes.push(format!(
            "logical_failure_rate: {rate} over the first chunk of each of {} seed sets (exact for a seed)",
            workload::SEED_SETS
        ));
    }
    let values = [
        rate.map_or(f64::NAN, |p| p.value),
        setup_s,
        run.allocs_per_round(),
        peak,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect();
    finish(
        notes,
        errors,
        run.attempted,
        run.failed,
        metrics,
        failure_rate,
    )
}

/// The traced invocation: the per-layer budget of `workload`.
#[must_use]
pub fn trace_layers(workload: &Workload, seed: u64, options: &Options) -> Outcome {
    let mut notes = vec![fingerprint(workload, seed)];
    let run = trace::run(workload, seed, options);
    notes.extend(run.report);
    finish(
        notes,
        run.errors,
        run.attempted,
        run.failed,
        run.metrics,
        None,
    )
}

fn finish(
    mut notes: Vec<String>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    logical_failure_rate: Option<f64>,
) -> Outcome {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        notes.push("check failed: a metric could not be measured".to_string());
    }
    notes.extend(errors.iter().map(|e| format!("check failed: {e}")));
    Outcome {
        correct: errors.is_empty() && finite,
        attempted,
        failed,
        metrics,
        notes,
        logical_failure_rate,
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Outcome {
    /// The one-line JSON result: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The value of the metric called `name`.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_is_one_json_object() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![Metric {
                name: "rounds_per_s".to_string(),
                value: 1234.5,
                unit: "1/s",
            }],
            notes: Vec::new(),
            logical_failure_rate: None,
        };
        assert_eq!(
            outcome.result_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"rounds_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(json_string("a\"b\\"), "\"a\\\"b\\\\\"");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
