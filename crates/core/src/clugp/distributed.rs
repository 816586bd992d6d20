//! Multi-node deployment of CLUGP (paper §III-C, closing paragraph):
//!
//! > "each distributed node accesses partial streaming edges and performs
//! > the three steps, clustering, game processing, and transformation,
//! > locally. [...] the final graph partitioning result is obtained by
//! > combining the partial partitioning results of distributed nodes."
//!
//! [`ShardedClugp`] simulates that deployment: the stream is split into
//! `shards` contiguous sub-streams (contiguity preserves crawl locality,
//! the same argument as §V-D batching), each shard runs the full three-pass
//! pipeline independently against the same `k` global partitions, and the
//! per-shard assignments are concatenated. Balance still holds globally:
//! every shard enforces `τ|E_shard|/k`, so partition loads sum to at most
//! `τ|E|/k` plus one rounding unit per shard.

use super::{Clugp, ClugpConfig};
use crate::error::Result;
use crate::memory::MemoryReport;
use crate::partition::{PartitionRun, Partitioning, Timings};
use crate::partitioner::{start_run, Partitioner};
use clugp_graph::order::StreamOrder;
use clugp_graph::stream::{collect_stream, InMemoryStream, RestreamableStream};

/// CLUGP across several independent nodes, each partitioning a contiguous
/// shard of the edge stream.
#[derive(Debug, Clone)]
pub struct ShardedClugp {
    config: ClugpConfig,
    shards: usize,
}

impl ShardedClugp {
    /// Creates a sharded deployment with `shards` nodes (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(config: ClugpConfig, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedClugp { config, shards }
    }

    /// Number of simulated nodes.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

impl Partitioner for ShardedClugp {
    fn name(&self) -> &'static str {
        "CLUGP-dist"
    }

    fn stream_order(&self) -> StreamOrder {
        StreamOrder::Bfs
    }

    fn partition(&mut self, stream: &mut dyn RestreamableStream, k: u32) -> Result<PartitionRun> {
        let started = std::time::Instant::now();
        let (n, _) = start_run(stream, k)?;
        self.config.validate()?;
        let edges = collect_stream(stream);
        let shard_len = edges.len().div_ceil(self.shards).max(1);

        // Each node runs the full three-pass pipeline on its shard. Nodes
        // are independent, so rayon order does not affect the result.
        use rayon::prelude::*;
        let shard_runs: Vec<Result<PartitionRun>> = edges
            .par_chunks(shard_len)
            .map(|chunk| {
                let mut local = InMemoryStream::new(n, chunk.to_vec());
                Clugp::new(self.config.clone()).partition(&mut local, k)
            })
            .collect();

        let mut assignments = Vec::with_capacity(edges.len());
        let mut loads = vec![0u64; k as usize];
        let mut memory = MemoryReport::new();
        let mut peak_shard_memory = 0usize;
        for (i, run) in shard_runs.into_iter().enumerate() {
            let run = run?;
            for (p, l) in loads.iter_mut().zip(&run.partitioning.loads) {
                *p += l;
            }
            assignments.extend(run.partitioning.assignments);
            peak_shard_memory = peak_shard_memory.max(run.memory.total_bytes());
            if i == 0 {
                for (name, bytes) in run.memory.items() {
                    memory.add(&format!("shard0/{name}"), *bytes);
                }
            }
        }
        memory.add("peak-shard-state", peak_shard_memory);

        Ok(PartitionRun {
            partitioning: Partitioning {
                k,
                num_vertices: n,
                assignments,
                loads,
            },
            memory,
            timings: Timings {
                total: started.elapsed(),
                ..Default::default()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionQuality;
    use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
    use clugp_graph::order::{ordered_edges, StreamOrder};

    fn web(n: u64) -> (u64, Vec<clugp_graph::types::Edge>) {
        let g = generate_web_crawl(&WebCrawlConfig {
            vertices: n,
            ..Default::default()
        });
        (g.num_vertices(), ordered_edges(&g, StreamOrder::Bfs))
    }

    #[test]
    fn covers_all_edges_and_validates() {
        let (n, edges) = web(3_000);
        let mut s = InMemoryStream::new(n, edges.clone());
        for shards in [1usize, 2, 4, 7] {
            let mut algo = ShardedClugp::new(ClugpConfig::default(), shards);
            let run = algo.partition(&mut s, 8).unwrap();
            assert_eq!(run.partitioning.assignments.len(), edges.len());
            run.partitioning.validate().unwrap();
        }
    }

    #[test]
    fn single_shard_equals_plain_clugp() {
        let (n, edges) = web(2_000);
        let mut s = InMemoryStream::new(n, edges);
        let sharded = ShardedClugp::new(ClugpConfig::default(), 1)
            .partition(&mut s, 8)
            .unwrap();
        let plain = Clugp::default().partition(&mut s, 8).unwrap();
        assert_eq!(
            sharded.partitioning.assignments,
            plain.partitioning.assignments
        );
    }

    #[test]
    fn global_balance_holds_within_shard_rounding() {
        let (n, edges) = web(4_000);
        let m = edges.len() as f64;
        let mut s = InMemoryStream::new(n, edges);
        let shards = 4usize;
        let k = 8u32;
        let run = ShardedClugp::new(ClugpConfig::default(), shards)
            .partition(&mut s, k)
            .unwrap();
        // Each shard adds at most ceil(|E_s|/k) ≤ |E_s|/k + 1.
        let bound = m / f64::from(k) + shards as f64;
        let max = *run.partitioning.loads.iter().max().unwrap() as f64;
        assert!(max <= bound, "max load {max} exceeds bound {bound}");
    }

    #[test]
    fn quality_degrades_gracefully_with_shards() {
        let (n, edges) = web(8_000);
        let mut s = InMemoryStream::new(n, edges.clone());
        let rf = |shards: usize, s: &mut InMemoryStream| {
            let run = ShardedClugp::new(ClugpConfig::default(), shards)
                .partition(s, 16)
                .unwrap();
            PartitionQuality::compute(&edges, &run.partitioning).replication_factor
        };
        let one = rf(1, &mut s);
        let four = rf(4, &mut s);
        // Sharding loses some cross-shard information but must stay in the
        // same quality regime (well below hashing-level replication).
        assert!(four < one * 1.8, "1-shard rf {one} vs 4-shard rf {four}");
    }

    #[test]
    fn deterministic_across_runs() {
        let (n, edges) = web(2_000);
        let mut s = InMemoryStream::new(n, edges);
        let mut algo = ShardedClugp::new(ClugpConfig::default(), 3);
        let a = algo.partition(&mut s, 8).unwrap();
        let b = algo.partition(&mut s, 8).unwrap();
        assert_eq!(a.partitioning.assignments, b.partitioning.assignments);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedClugp::new(ClugpConfig::default(), 0);
    }
}
