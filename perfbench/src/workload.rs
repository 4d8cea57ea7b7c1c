//! The benchmark's workloads: closed-loop machines served by one
//! `StreamingEngine` with the calling thread as producer and one decode
//! worker, under Block backpressure, unpaced, with the snapshot sampler off.

use nisqplus_core::SfqMeshDecoder;
use nisqplus_decoders::{DynDecoder, UnionFindDecoder};
use nisqplus_runtime::{MachineConfig, NoiseSpec, PushPolicy, ResidualMode};

/// Which decoder serves a workload's lattices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecoderKind {
    /// `nisqplus-decoders`' union-find.
    UnionFind,
    /// `nisqplus-core`'s SFQ mesh, final design.
    Mesh,
}

impl DecoderKind {
    /// Both kinds, in layer-report order.
    pub const ALL: [DecoderKind; 2] = [DecoderKind::UnionFind, DecoderKind::Mesh];

    /// The layer name the kind reports under.
    #[must_use]
    pub fn layer(self) -> &'static str {
        match self {
            DecoderKind::UnionFind => "union_find",
            DecoderKind::Mesh => "mesh",
        }
    }

    /// A factory for the kind (a plain function is a `DecoderFactory`).
    #[must_use]
    pub fn factory(self) -> fn() -> DynDecoder {
        match self {
            DecoderKind::UnionFind => || Box::new(UnionFindDecoder::new()) as DynDecoder,
            DecoderKind::Mesh => || Box::new(SfqMeshDecoder::final_design()) as DynDecoder,
        }
    }
}

/// One workload of the benchmark (why each is in it: `README.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Number of lattices in the machine.
    pub lattices: usize,
    /// Distances assigned to lattices in turn (lattice `i` gets
    /// `distances[i % len]`).
    pub distances: &'static [usize],
    /// Pure-dephasing probability per data qubit per round.
    pub p: f64,
    /// The decoder serving every lattice.
    pub decoder: DecoderKind,
    /// Whether residuals are classified in the stream (packets then carry
    /// each round's error).
    pub residuals: bool,
    /// Rounds each lattice streams in one timed chunk (a multiple of
    /// [`MACHINE_ROUNDS_PER_BATCH`], so the traced run batches evenly).
    pub chunk_rounds: u64,
}

/// Machine rounds (one round of every lattice) per traced batch.
pub const MACHINE_ROUNDS_PER_BATCH: u64 = 8;

/// Chunks cycle through this many seed sets; a repeat of a seed set must
/// reproduce its first run exactly.
pub const SEED_SETS: u64 = 8;

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "closed_uf_mixed",
        lattices: 24,
        distances: &[3, 5, 7],
        p: 0.03,
        decoder: DecoderKind::UnionFind,
        residuals: true,
        chunk_rounds: 512,
    },
    Workload {
        name: "closed_mesh_mixed",
        lattices: 24,
        distances: &[3, 5, 7],
        p: 0.03,
        decoder: DecoderKind::Mesh,
        residuals: true,
        chunk_rounds: 768,
    },
    Workload {
        name: "closed_uf_lowp",
        lattices: 96,
        distances: &[5, 7, 9],
        p: 0.001,
        decoder: DecoderKind::UnionFind,
        residuals: false,
        chunk_rounds: 160,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: a fixed, well-mixed hash for deriving seeds.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Workload {
    /// The noise channel every lattice streams.
    #[must_use]
    pub fn noise(&self) -> NoiseSpec {
        NoiseSpec::PureDephasing { p: self.p }
    }

    /// Distance of lattice `i`.
    #[must_use]
    pub fn distance(&self, i: usize) -> usize {
        self.distances[i % self.distances.len()]
    }

    /// Rounds in one chunk of `rounds_per_lattice` rounds per lattice.
    #[must_use]
    pub fn chunk_total(&self, rounds_per_lattice: u64) -> u64 {
        self.lattices as u64 * rounds_per_lattice
    }

    /// The machine of one chunk: lattice seeds derive from the workload seed
    /// and the chunk's seed set only, so the same arguments always stream
    /// the same rounds.
    #[must_use]
    pub fn machine(&self, seed: u64, seed_set: u64, rounds_per_lattice: u64) -> MachineConfig {
        let distances: Vec<usize> = (0..self.lattices).map(|i| self.distance(i)).collect();
        let mut config = MachineConfig::new(&distances, 0);
        let set_seed = splitmix64(splitmix64(seed) ^ seed_set);
        for (i, spec) in config.lattices.iter_mut().enumerate() {
            spec.seed = splitmix64(set_seed ^ i as u64);
            spec.noise = self.noise();
            spec.rounds = rounds_per_lattice;
            spec.cadence_cycles = 0;
        }
        config.workers = 1;
        config.push_policy = PushPolicy::Block;
        config.analyze_residuals = self.residuals;
        config.residual_mode = ResidualMode::Streaming;
        config.record_corrections = false;
        config.obs.snapshot_cadence_us = 0;
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machines_repeat_for_a_seed_and_differ_across_seed_sets() {
        let w = find("closed_uf_mixed").unwrap();
        let a = w.machine(7, 0, 16);
        assert_eq!(a, w.machine(7, 0, 16));
        assert_ne!(a.lattices[0].seed, w.machine(7, 1, 16).lattices[0].seed);
        assert_ne!(a.lattices[0].seed, w.machine(8, 0, 16).lattices[0].seed);
        assert_eq!(a.lattices[4].distance, 5);
        assert_eq!(a.workers, 1);
    }

    #[test]
    fn chunk_rounds_batch_evenly() {
        for w in &WORKLOADS {
            assert_eq!(w.chunk_rounds % MACHINE_ROUNDS_PER_BATCH, 0, "{}", w.name);
        }
    }
}
