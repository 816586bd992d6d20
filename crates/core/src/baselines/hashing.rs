//! Hashing (random) vertex-cut: assign each edge to `hash(src, dst) mod k`.
//!
//! PowerGraph's default placement. Zero state beyond the output — which is
//! exactly why the paper's Fig. 6 shows it at ~0 memory — and the quality
//! floor every heuristic is compared against.

use crate::error::Result;
use crate::kernel::{partition_with, KernelTable, StreamKernel};
use crate::memory::MemoryReport;
use crate::partition::PartitionRun;
use crate::partitioner::{mix64, Partitioner};
use crate::state::PartitionLoads;
use clugp_graph::stream::RestreamableStream;
use clugp_graph::types::Edge;

/// Default hash seed (shared with the distributed engine so
/// `DistAlgo::hashing()` matches `Hashing::default()`).
pub(crate) const DEFAULT_SEED: u64 = 0x4A5;

/// The random-hashing partitioner.
#[derive(Debug, Clone)]
pub struct Hashing {
    seed: u64,
}

impl Hashing {
    /// Creates a hashing partitioner with the given seed.
    pub fn new(seed: u64) -> Self {
        Hashing { seed }
    }
}

impl Default for Hashing {
    fn default() -> Self {
        Hashing::new(DEFAULT_SEED)
    }
}

/// The hashing kernel: no tables, and nothing to reconcile between
/// relaxed workers, since a placement never reads the loads.
pub(crate) struct HashingKernel {
    seed: u64,
    k: u32,
}

impl HashingKernel {
    pub(crate) fn new(seed: u64, k: u32) -> Self {
        HashingKernel { seed, k }
    }
}

impl StreamKernel for HashingKernel {
    fn tables(&self) -> Vec<KernelTable> {
        Vec::new()
    }

    fn epoch_synced(&self) -> bool {
        false
    }

    #[inline]
    fn step(&mut self, e: Edge, loads: &mut PartitionLoads) -> Result<u32> {
        let key = (u64::from(e.src) << 32) | u64::from(e.dst);
        let p = (mix64(key ^ self.seed) % u64::from(self.k)) as u32;
        loads.add(p);
        Ok(p)
    }

    fn memory(&self, _loads: &PartitionLoads) -> MemoryReport {
        MemoryReport::new() // a hash function needs no state
    }
}

impl Partitioner for Hashing {
    fn name(&self) -> &'static str {
        "Hashing"
    }

    fn partition(&mut self, stream: &mut dyn RestreamableStream, k: u32) -> Result<PartitionRun> {
        partition_with(stream, k, |_| Ok(HashingKernel::new(self.seed, k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionQuality;
    use clugp_graph::stream::InMemoryStream;
    use clugp_graph::types::Edge;

    fn ring(n: u32) -> Vec<Edge> {
        (0..n).map(|i| Edge::new(i, (i + 1) % n)).collect()
    }

    #[test]
    fn assigns_every_edge() {
        let edges = ring(100);
        let mut s = InMemoryStream::from_edges(edges.clone());
        let run = Hashing::default().partition(&mut s, 4).unwrap();
        assert_eq!(run.partitioning.assignments.len(), 100);
        run.partitioning.validate().unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        let edges = ring(50);
        let mut s = InMemoryStream::from_edges(edges);
        let a = Hashing::new(1).partition(&mut s, 8).unwrap();
        let b = Hashing::new(1).partition(&mut s, 8).unwrap();
        let c = Hashing::new(2).partition(&mut s, 8).unwrap();
        assert_eq!(a.partitioning.assignments, b.partitioning.assignments);
        assert_ne!(a.partitioning.assignments, c.partitioning.assignments);
    }

    #[test]
    fn loads_roughly_uniform() {
        let edges = ring(8000);
        let mut s = InMemoryStream::from_edges(edges);
        let run = Hashing::default().partition(&mut s, 8).unwrap();
        for &l in &run.partitioning.loads {
            assert!((800..1200).contains(&(l as usize)), "load {l} too skewed");
        }
    }

    #[test]
    fn k_one_trivial() {
        let edges = ring(10);
        let mut s = InMemoryStream::from_edges(edges.clone());
        let run = Hashing::default().partition(&mut s, 1).unwrap();
        assert!(run.partitioning.assignments.iter().all(|&p| p == 0));
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        assert!((q.replication_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reports_zero_memory() {
        let mut s = InMemoryStream::from_edges(ring(10));
        let run = Hashing::default().partition(&mut s, 2).unwrap();
        assert_eq!(run.memory.total_bytes(), 0);
    }

    #[test]
    fn rejects_k_zero() {
        let mut s = InMemoryStream::from_edges(ring(10));
        assert!(Hashing::default().partition(&mut s, 0).is_err());
    }
}
