//! The host fingerprint stamped on every result: core count, CPU model,
//! compiler version, peak resident memory, and a fixed host-speed probe that
//! lives in the benchmark's own code so it never changes with the program.

use crate::stats::{median, sorted};
use std::hint::black_box;
use std::time::Instant;

/// Logical cores available to the process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model name, or `"unknown"` where the kernel does not report one.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler that built the benchmark.
#[must_use]
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// The process's peak resident set (`VmHWM`) in MiB, if the kernel reports it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Median wall time, in milliseconds, of a fixed integer workload: a
/// xorshift stream indexing a 64 KiB table, the mix of ALU work and L1/L2
/// loads a decoder does.  A diagnostic only: it says whether the host ran
/// slow, and never changes when the program does.
#[must_use]
pub fn speed_probe_ms() -> f64 {
    let table: Vec<u64> = (0..8192u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut times = Vec::with_capacity(7);
    for _ in 0..7 {
        let start = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut acc = 0u64;
        for _ in 0..1 << 20 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(table[(x as usize) & 8191] ^ x);
        }
        black_box(acc);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    median(&sorted(&times))
}
