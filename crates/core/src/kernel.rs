//! The kernel/driver split of the one-pass streaming baselines.
//!
//! Hashing, Grid, DBH, Greedy and HDRF each place an edge by the same
//! local steps wherever they run (the paper's §III-C has every node
//! perform them locally). A [`StreamKernel`] is those steps plus a
//! declaration of the per-vertex state they read and write. The code that
//! feeds edges to a kernel is written once per execution mode, not once
//! per algorithm:
//!
//! * [`partition_with`] — the monolith behind each baseline's
//!   `Partitioner::partition`;
//! * the sequenced and relaxed worker drivers of the AMPC engine
//!   (`ampc::worker`), which move the declared tables between shards or
//!   reconcile them at epoch barriers ([`StreamKernel::epoch_synced`]).
//!
//! Adding a streaming algorithm is one kernel impl plus its `DistAlgo` /
//! `AlgoSpec` variant (DESIGN.md §7).

use crate::ampc::table::MergeOp;
use crate::error::Result;
use crate::memory::MemoryReport;
use crate::partition::{PartitionRun, Partitioning, Timings};
use crate::partitioner::start_run;
use crate::state::PartitionLoads;
use clugp_graph::stream::{chunk_edges, try_for_each_chunk, RestreamableStream};
use clugp_graph::types::{Edge, VertexId};

/// One per-vertex table a kernel keeps, as the distributed drivers see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KernelTable {
    /// `u64` words per row.
    pub width: u32,
    /// How relaxed mode reconciles the workers' copies: `Add` tables ship
    /// deltas against the row as it was at the key's first touch in the
    /// epoch; any other op ships the full current row.
    pub merge: MergeOp,
}

/// A partial-degree table: one counter per vertex, summed across workers.
pub(crate) const DEGREE_TABLE: KernelTable = KernelTable {
    width: 1,
    merge: MergeOp::Add,
};

/// A replica-mask table of `words` bitset words per vertex; masks only
/// gain bits, so worker copies reconcile by union.
pub(crate) fn mask_table(words: usize) -> KernelTable {
    KernelTable {
        width: words as u32,
        merge: MergeOp::BitOr,
    }
}

/// The per-edge steps of a one-pass partitioner and the state they use.
///
/// Tables are addressed by slot (their index in [`StreamKernel::tables`]);
/// rows travel as `u64` words. A kernel that declares no tables reads only
/// the partition loads, which every driver owns and hands to
/// [`StreamKernel::step`].
pub(crate) trait StreamKernel {
    /// The per-vertex tables, in slot order.
    fn tables(&self) -> Vec<KernelTable>;

    /// Whether relaxed workers reconcile tables and loads at epoch
    /// barriers; `false` runs the sequenced driver in relaxed mode too.
    fn epoch_synced(&self) -> bool {
        true
    }

    /// The vertex-id cap and the name under which the monolith's table
    /// constructor rejects a vertex-count hint above it (`None`: no
    /// per-vertex state).
    fn vertex_cap(&self) -> Option<(u64, &'static str)> {
        None
    }

    /// Makes vertex `v` addressable in every table.
    fn ensure(&mut self, _v: VertexId) -> Result<()> {
        Ok(())
    }

    /// Overwrites `v`'s row of table `slot` (`v` must be ensured).
    fn import(&mut self, _slot: usize, _v: VertexId, _row: &[u64]) {}

    /// Copies `v`'s row of table `slot` into `row`.
    fn export(&self, _slot: usize, _v: VertexId, _row: &mut [u64]) {}

    /// Places one edge, counting it in `loads`, and returns its partition.
    fn step(&mut self, e: Edge, loads: &mut PartitionLoads) -> Result<u32>;

    /// One past the highest vertex id the tables cover.
    fn num_vertices(&self) -> u64 {
        0
    }

    /// The monolith's memory report: the tables plus, where the algorithm
    /// counts them, the loads.
    fn memory(&self, loads: &PartitionLoads) -> MemoryReport;
}

/// The monolith driver: resets the stream, builds the kernel for the
/// stream's vertex-count hint, and steps it over every edge.
pub(crate) fn partition_with<K: StreamKernel>(
    stream: &mut dyn RestreamableStream,
    k: u32,
    build: impl FnOnce(u64) -> Result<K>,
) -> Result<PartitionRun> {
    let start = std::time::Instant::now();
    let (n, m) = start_run(stream, k)?;
    let mut kernel = build(n)?;
    let mut assignments = Vec::with_capacity(m as usize);
    let mut loads = PartitionLoads::new(k);
    try_for_each_chunk(stream, chunk_edges(), |chunk| -> Result<()> {
        for &e in chunk {
            assignments.push(kernel.step(e, &mut loads)?);
        }
        Ok(())
    })?;
    Ok(PartitionRun {
        memory: kernel.memory(&loads),
        partitioning: Partitioning {
            k,
            num_vertices: n.max(kernel.num_vertices()),
            assignments,
            loads: loads.into_vec(),
        },
        timings: Timings {
            total: start.elapsed(),
            ..Default::default()
        },
    })
}
