//! Grid (2D constrained) hashing — the PowerGraph/GraphBuilder "grid"
//! vertex-cut (Jain et al., GRADES'13). Not part of the paper's comparison,
//! but a standard low-cost baseline an adopter of this library would expect.
//!
//! Partitions are arranged in a `r × r` grid (`r = ceil(sqrt(k))`). Vertex
//! `v` hashes to the grid cell `(h(v) / r, h(v) mod r)` and its *constraint
//! set* is that cell's row plus column; an edge is placed on the
//! least-loaded partition in the intersection of its endpoints' constraint
//! sets (which is non-empty by construction). Replication is bounded by
//! `2r − 1 ≈ 2√k` per vertex — better worst-case than hashing, no global
//! state beyond the load array.

use crate::error::Result;
use crate::kernel::{partition_with, KernelTable, StreamKernel};
use crate::memory::MemoryReport;
use crate::partition::PartitionRun;
use crate::partitioner::{mix64, Partitioner};
use crate::state::PartitionLoads;
use clugp_graph::stream::RestreamableStream;
use clugp_graph::types::{Edge, VertexId};

/// Default hash seed (shared with the distributed engine so
/// `DistAlgo::grid()` matches `Grid::default()`).
pub(crate) const DEFAULT_SEED: u64 = 0x62D;

/// The grid-hashing partitioner.
#[derive(Debug, Clone)]
pub struct Grid {
    seed: u64,
}

impl Grid {
    /// Creates a grid partitioner with the given hash seed.
    pub fn new(seed: u64) -> Self {
        Grid { seed }
    }
}

impl Default for Grid {
    fn default() -> Self {
        Grid::new(DEFAULT_SEED)
    }
}

/// The grid kernel: least-loaded partition in the intersection of the
/// endpoints' constraint sets, union as fallback. Grid keeps no per-vertex
/// state, so every driver reconciles nothing but the loads.
pub(crate) struct GridKernel {
    seed: u64,
    r: u64,
    k: u32,
    cs_u: Vec<u32>,
    cs_v: Vec<u32>,
}

impl GridKernel {
    pub(crate) fn new(seed: u64, k: u32) -> Self {
        let r = grid_dim(k);
        GridKernel {
            seed,
            r,
            k,
            cs_u: Vec::with_capacity(2 * r as usize),
            cs_v: Vec::with_capacity(2 * r as usize),
        }
    }
}

impl StreamKernel for GridKernel {
    fn tables(&self) -> Vec<KernelTable> {
        Vec::new()
    }

    #[inline]
    fn step(&mut self, e: Edge, loads: &mut PartitionLoads) -> Result<u32> {
        let (seed, r, k) = (self.seed, self.r, self.k);
        constraint_set(e.src, seed, r, k, &mut self.cs_u);
        constraint_set(e.dst, seed, r, k, &mut self.cs_v);
        let cs_v = &self.cs_v;
        let p = loads
            .argmin_among(self.cs_u.iter().copied().filter(|p| cs_v.contains(p)))
            // Overhung grids may have disjoint sets; fall back to the
            // union (still bounded replication).
            .or_else(|| loads.argmin_among(self.cs_u.iter().chain(cs_v.iter()).copied()))
            .expect("constraint sets are never empty");
        loads.add(p);
        Ok(p)
    }

    fn memory(&self, loads: &PartitionLoads) -> MemoryReport {
        MemoryReport::of(&[("loads", loads.memory_bytes())])
    }
}

/// Grid dimension for `k` partitions.
#[inline]
fn grid_dim(k: u32) -> u64 {
    (f64::from(k)).sqrt().ceil() as u64
}

/// Constraint set of `v`: all partitions in the same grid row or column as
/// `v`'s home cell, filtered to ids `< k` (the grid may overhang when `k`
/// is not a perfect square).
fn constraint_set(v: VertexId, seed: u64, r: u64, k: u32, out: &mut Vec<u32>) {
    out.clear();
    let cell = mix64(u64::from(v) ^ seed) % (r * r);
    let (row, col) = (cell / r, cell % r);
    for c in 0..r {
        let p = row * r + c;
        if p < u64::from(k) {
            out.push(p as u32);
        }
    }
    for rr in 0..r {
        if rr != row {
            let p = rr * r + col;
            if p < u64::from(k) {
                out.push(p as u32);
            }
        }
    }
    // Overhang cells can leave an empty set; fall back to the home hash.
    if out.is_empty() {
        out.push((mix64(u64::from(v) ^ seed) % u64::from(k)) as u32);
    }
}

impl Partitioner for Grid {
    fn name(&self) -> &'static str {
        "Grid"
    }

    fn partition(&mut self, stream: &mut dyn RestreamableStream, k: u32) -> Result<PartitionRun> {
        partition_with(stream, k, |_| Ok(GridKernel::new(self.seed, k)))
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
    fn assigns_and_validates() {
        for k in [1u32, 4, 9, 12, 16, 250] {
            let edges = ring(500);
            let mut s = InMemoryStream::from_edges(edges);
            let run = Grid::default().partition(&mut s, k).unwrap();
            run.partitioning.validate().unwrap();
        }
    }

    #[test]
    fn replication_bounded_by_grid_dimension() {
        // |P(v)| ≤ 2r − 1 for every vertex.
        let k = 16u32; // r = 4
        let edges: Vec<Edge> = (0..2_000u32)
            .map(|i| Edge::new(i % 50, (i * 7 + 1) % 50))
            .collect();
        let mut s = InMemoryStream::from_edges(edges.clone());
        let run = Grid::default().partition(&mut s, k).unwrap();
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        assert!(
            q.replication_factor <= 7.0,
            "rf {} exceeds 2r-1 bound",
            q.replication_factor
        );
    }

    #[test]
    fn beats_hashing_on_dense_graph() {
        // Dense ER graph: mean degree 20, so hashing replicates vertices
        // toward min(k, degree) while Grid caps at 2√k − 1.
        let g = clugp_graph::gen::generate_er(&clugp_graph::gen::ErConfig {
            vertices: 500,
            edges: 5_000,
            seed: 77,
        });
        let edges = g.edge_vec();
        let mut s = InMemoryStream::from_edges(edges.clone());
        let grid = Grid::default().partition(&mut s, 16).unwrap();
        let hash = crate::baselines::Hashing::default()
            .partition(&mut s, 16)
            .unwrap();
        let qg = PartitionQuality::compute(&edges, &grid.partitioning);
        let qh = PartitionQuality::compute(&edges, &hash.partitioning);
        assert!(
            qg.replication_factor < qh.replication_factor,
            "grid {} vs hashing {}",
            qg.replication_factor,
            qh.replication_factor
        );
    }

    #[test]
    fn constraint_sets_intersect() {
        let (r, k, seed) = (4u64, 16u32, 1u64);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for u in 0..100u32 {
            for v in 0..100u32 {
                constraint_set(u, seed, r, k, &mut a);
                constraint_set(v, seed, r, k, &mut b);
                assert!(
                    a.iter().any(|p| b.contains(p)),
                    "empty intersection for ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn memory_reports_loads_only() {
        let mut s = InMemoryStream::from_edges(ring(100));
        let run = Grid::default().partition(&mut s, 9).unwrap();
        assert_eq!(run.memory.items(), [("loads".to_string(), 9 * 8)]);
    }

    #[test]
    fn deterministic() {
        let edges = ring(300);
        let mut s = InMemoryStream::from_edges(edges);
        let a = Grid::default().partition(&mut s, 9).unwrap();
        let b = Grid::default().partition(&mut s, 9).unwrap();
        assert_eq!(a.partitioning.assignments, b.partitioning.assignments);
    }
}
