//! HDRF — High-Degree Replicated First (Petroni et al., CIKM 2015), the
//! state-of-the-art one-pass baseline in the paper's comparison.
//!
//! For each edge `(u, v)` the partition maximizing
//!
//! ```text
//! C(u,v,p) = C_REP(u,v,p) + λ_bal · (maxload − load(p)) / (ε + maxload − minload)
//! C_REP    = g(u,p) + g(v,p)
//! g(w,p)   = [w ∈ A(p)] · (1 + (1 − θ_w))     θ_w = δ(w) / (δ(u) + δ(v))
//! ```
//!
//! is chosen, where `δ` are partial degrees. The degree-weighted `g` makes
//! the *lower*-degree endpoint's presence more valuable, so high-degree
//! vertices end up replicated — the "replicate high-degree first" rule.

use crate::error::Result;
use crate::kernel::{mask_table, partition_with, KernelTable, StreamKernel, DEGREE_TABLE};
use crate::memory::MemoryReport;
use crate::partition::PartitionRun;
use crate::partitioner::Partitioner;
use crate::state::{PartitionLoads, ReplicaTable};
use crate::vertex_table::{VertexTable, DEFAULT_MAX_VERTICES};
use clugp_graph::stream::RestreamableStream;
use clugp_graph::types::{Edge, VertexId};

/// The HDRF kernel: scores every partition and inserts both endpoints.
/// Slot 0 is the replica mask (reconciled under `BitOr`, like Greedy's),
/// slot 1 the partial degrees (under `Add`, like DBH's).
pub(crate) struct HdrfKernel {
    lambda: f64,
    epsilon: f64,
    k: u32,
    degree: VertexTable<u32>,
    replicas: ReplicaTable,
}

impl HdrfKernel {
    pub(crate) fn new(n: u64, k: u32, config: &HdrfConfig) -> Result<Self> {
        let cap = config.max_vertices;
        Ok(HdrfKernel {
            lambda: config.lambda,
            epsilon: config.epsilon,
            k,
            degree: VertexTable::with_limit(n, 0, cap)?,
            replicas: ReplicaTable::with_limit(n, k, cap)?,
        })
    }
}

impl StreamKernel for HdrfKernel {
    fn tables(&self) -> Vec<KernelTable> {
        vec![mask_table(self.replicas.words_per_row()), DEGREE_TABLE]
    }

    fn vertex_cap(&self) -> Option<(u64, &'static str)> {
        Some((self.degree.limit(), "num_vertices hint"))
    }

    fn ensure(&mut self, v: VertexId) -> Result<()> {
        self.replicas.ensure_vertices(u64::from(v) + 1)?;
        self.degree.ensure(v)
    }

    fn import(&mut self, slot: usize, v: VertexId, row: &[u64]) {
        match slot {
            0 => self.replicas.import_row(v, row),
            _ => self.degree[v] = row[0] as u32,
        }
    }

    fn export(&self, slot: usize, v: VertexId, row: &mut [u64]) {
        match slot {
            0 => self.replicas.export_row(v, row),
            _ => row[0] = u64::from(self.degree[v]),
        }
    }

    #[inline]
    fn step(&mut self, e: Edge, loads: &mut PartitionLoads) -> Result<u32> {
        let (degree, replicas) = (&mut self.degree, &mut self.replicas);
        degree.ensure(e.src.max(e.dst))?;
        replicas.ensure_vertices(u64::from(e.src.max(e.dst)) + 1)?;
        degree[e.src] += 1;
        degree[e.dst] += 1;
        let du = f64::from(degree[e.src]);
        let dv = f64::from(degree[e.dst]);
        let theta_u = du / (du + dv);
        let theta_v = 1.0 - theta_u;
        let (maxload, minload) = (loads.max() as f64, loads.min() as f64);
        let denom = self.epsilon + maxload - minload;

        let mut best_p = 0u32;
        let mut best_score = f64::NEG_INFINITY;
        for p in 0..self.k {
            let mut score = 0.0;
            if replicas.contains(e.src, p) {
                score += 1.0 + (1.0 - theta_u);
            }
            if replicas.contains(e.dst, p) {
                score += 1.0 + (1.0 - theta_v);
            }
            score += self.lambda * (maxload - loads.get(p) as f64) / denom;
            if score > best_score {
                best_score = score;
                best_p = p;
            }
        }
        replicas.insert(e.src, best_p);
        replicas.insert(e.dst, best_p);
        loads.add(best_p);
        Ok(best_p)
    }

    fn num_vertices(&self) -> u64 {
        self.replicas.num_vertices()
    }

    fn memory(&self, loads: &PartitionLoads) -> MemoryReport {
        MemoryReport::of(&[
            ("replica-table", self.replicas.memory_bytes()),
            ("degrees", self.degree.memory_bytes()),
            ("loads", loads.memory_bytes()),
        ])
    }
}

/// Tunables of HDRF.
#[derive(Debug, Clone)]
pub struct HdrfConfig {
    /// Balance weight `λ_bal`; the original paper's default is 1.0 (quality
    /// close to optimal, balance enforced softly).
    pub lambda: f64,
    /// Balance denominator smoothing term.
    pub epsilon: f64,
    /// Cap on the internal vertex id space (see `crate::vertex_table`).
    pub max_vertices: u64,
}

impl Default for HdrfConfig {
    fn default() -> Self {
        HdrfConfig {
            lambda: 1.0,
            epsilon: 1.0,
            max_vertices: DEFAULT_MAX_VERTICES,
        }
    }
}

/// The HDRF partitioner.
#[derive(Debug, Clone, Default)]
pub struct Hdrf {
    config: HdrfConfig,
}

impl Hdrf {
    /// Creates HDRF with the given configuration.
    pub fn new(config: HdrfConfig) -> Self {
        Hdrf { config }
    }
}

impl Partitioner for Hdrf {
    fn name(&self) -> &'static str {
        "HDRF"
    }

    fn partition(&mut self, stream: &mut dyn RestreamableStream, k: u32) -> Result<PartitionRun> {
        partition_with(stream, k, |n| HdrfKernel::new(n, k, &self.config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionQuality;
    use clugp_graph::gen::{generate_copying_model, CopyingModelConfig};
    use clugp_graph::order::{ordered_edges, StreamOrder};
    use clugp_graph::stream::InMemoryStream;
    use clugp_graph::types::Edge;

    #[test]
    fn assigns_all_and_validates() {
        let edges: Vec<Edge> = (0..30).map(|i| Edge::new(i % 7, (i * 3) % 7)).collect();
        let mut s = InMemoryStream::from_edges(edges);
        let run = Hdrf::default().partition(&mut s, 4).unwrap();
        run.partitioning.validate().unwrap();
    }

    #[test]
    fn memory_reports_replicas_degrees_and_loads() {
        let edges: Vec<Edge> = (0..30).map(|i| Edge::new(i % 7, (i * 3) % 7)).collect();
        let mut s = InMemoryStream::from_edges(edges);
        let run = Hdrf::default().partition(&mut s, 4).unwrap();
        let names: Vec<&str> = run.memory.items().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["replica-table", "degrees", "loads"]);
        assert_eq!(run.memory.get("degrees"), Some(7 * 4));
        assert_eq!(run.memory.get("loads"), Some(4 * 8));
    }

    #[test]
    fn triangle_stays_together() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)];
        let mut s = InMemoryStream::from_edges(edges.clone());
        let run = Hdrf::default().partition(&mut s, 8).unwrap();
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        assert!((q.replication_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hub_is_the_replicated_vertex() {
        // Star with closing spokes: hub 0 plus edges among spokes. HDRF
        // should replicate the hub rather than spokes.
        let mut edges: Vec<Edge> = (1..=60).map(|i| Edge::new(0, i)).collect();
        edges.extend((1..60).map(|i| Edge::new(i, i + 1)));
        let mut s = InMemoryStream::from_edges(edges.clone());
        let run = Hdrf::default().partition(&mut s, 4).unwrap();
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        // Hub replication dominates: replicas ≈ touched + (k−1)-ish.
        assert!(
            q.mirrors <= 30,
            "too many mirrors ({}): spokes were cut instead of the hub",
            q.mirrors
        );
    }

    #[test]
    fn balance_is_tight_on_uniform_input() {
        let edges: Vec<Edge> = (0..400u32)
            .map(|i| Edge::new(i % 97, (i * 31) % 97))
            .collect();
        let mut s = InMemoryStream::from_edges(edges.clone());
        let run = Hdrf::default().partition(&mut s, 8).unwrap();
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        assert!(q.relative_balance < 1.5, "balance {}", q.relative_balance);
    }

    #[test]
    fn beats_hashing_on_web_graph() {
        let g = generate_copying_model(&CopyingModelConfig {
            vertices: 3_000,
            ..Default::default()
        });
        let edges = ordered_edges(&g, StreamOrder::Random(11));
        let mut s = InMemoryStream::new(g.num_vertices(), edges.clone());
        let hdrf = Hdrf::default().partition(&mut s, 16).unwrap();
        let hashing = crate::baselines::Hashing::default()
            .partition(&mut s, 16)
            .unwrap();
        let qh = PartitionQuality::compute(&edges, &hdrf.partitioning);
        let qr = PartitionQuality::compute(&edges, &hashing.partitioning);
        assert!(qh.replication_factor < 0.7 * qr.replication_factor);
    }

    #[test]
    fn higher_lambda_tightens_balance() {
        let g = generate_copying_model(&CopyingModelConfig {
            vertices: 2_000,
            ..Default::default()
        });
        let edges = ordered_edges(&g, StreamOrder::Random(3));
        let mut s = InMemoryStream::new(g.num_vertices(), edges.clone());
        let soft = Hdrf::new(HdrfConfig {
            lambda: 0.1,
            ..Default::default()
        })
        .partition(&mut s, 8)
        .unwrap();
        let hard = Hdrf::new(HdrfConfig {
            lambda: 10.0,
            ..Default::default()
        })
        .partition(&mut s, 8)
        .unwrap();
        assert!(
            hard.partitioning.relative_balance() <= soft.partitioning.relative_balance() + 0.05
        );
    }
}
