//! The worker half of the coordinator/worker engine.
//!
//! A worker owns one contiguous range of the edge stream and a
//! [`StateShard`] per table. After `Configure` it sits in a serve loop:
//! it answers `StateReq`/`Scan` against its local shards, and on
//! `RunStage` it streams its edge range through *the same per-edge steps
//! the monolithic partitioners use*, which is what keeps every sequenced
//! configuration bit-identical to the monolith.
//!
//! The one-pass baselines (Hashing, Grid, DBH, Greedy, HDRF) run as a
//! `StreamKernel` (`crate::kernel`) under one of two generic drivers:
//!
//! * `Wk::drive_sequenced` — per chunk, fetch the rows of every table
//!   the kernel declares for the chunk's distinct endpoints from the
//!   owning shards (one delta-encoded [`Msg::RouteBatch`] per owner,
//!   relayed through the coordinator), import them into the kernel's
//!   dense tables, step the chunk, and write the rows back
//!   (fire-and-forget `Put` batches — frame ordering through the
//!   coordinator's star links guarantees they land before any later
//!   dependent read). Entries outside the fetched set are never read, so
//!   the tables can stay dense — same types, same indexing as the
//!   monolith. A kernel without tables streams with no routing at all.
//! * `Wk::drive_relaxed` ([`AmpcMode::Relaxed`]) — no per-chunk routing
//!   at all: the kernel streams the whole range against worker-local
//!   tables and reconciles with the fleet at epoch barriers
//!   ([`Msg::EpochDone`] / [`Msg::EpochSync`]) under each table's
//!   declared [`MergeOp`]. A kernel that does not epoch-sync (Hashing)
//!   runs `drive_sequenced` in relaxed mode too.
//!
//! The CLUGP pairs and transform stages are one body each. The mode only
//! picks where the vertex rows and the cluster → partition map come from
//! (a per-chunk fetch when sequenced, the stage-start [`Msg::TableCast`]
//! mirrors when relaxed) and where the transform's load cap starts.
//! Pass 1 keeps a body per mode, since the outputs differ: per-chunk
//! `Put` publishes when sequenced, one [`Msg::Pass1Frontier`] for the
//! coordinator to merge when relaxed. Mint keeps its own wave loop.

use super::proto::{
    AlgoSpec, BatchOp, EpochTable, InputSpec, Msg, PairsPayload, Stage, StateOp, TableDef, Token,
    WorkerSetup,
};
use super::table::{Layout, MergeOp, StateShard};
use super::transport::Transport;
use super::{AmpcMode, DEFAULT_EPOCH_CHUNKS};
use crate::baselines::dbh::DbhKernel;
use crate::baselines::greedy::GreedyKernel;
use crate::baselines::grid::GridKernel;
use crate::baselines::hashing::HashingKernel;
use crate::baselines::hdrf::HdrfKernel;
use crate::baselines::mint::{self, MintConfig, DEFAULT_WAVE_WIDTH};
use crate::baselines::HdrfConfig;
use crate::clugp::cluster_graph::PairSink;
use crate::clugp::clustering::{pass1_edge, NO_CLUSTER};
use crate::clugp::config::MigrationPolicy;
use crate::clugp::transform::transform_edge;
use crate::error::{PartitionError, Result};
use crate::kernel::{KernelTable, StreamKernel};
use crate::state::PartitionLoads;
use crate::vertex_table::VertexTable;
use clugp_graph::pack::ShardedPackReader;
use clugp_graph::stream::{chunk_edges, EdgeStream};
use clugp_graph::types::Edge;
use clugp_obs::{self as obs, Event, EventBuf};
use rustc_hash::FxHashMap;
use std::collections::hash_map::Entry;
use std::path::Path;
use std::time::{Duration, Instant};

/// Table slot 0: the algorithm's main per-vertex table (the first table
/// a [`StreamKernel`] declares; CLUGP's packed vertex rows).
pub(crate) const T_MAIN: u8 = 0;
/// Table slot 1 for CLUGP: raw-cluster volumes (pass 1 only).
pub(crate) const T_VOL: u8 = 1;
/// Table slot 2 for CLUGP: dense cluster → partition.
pub(crate) const T_CPART: u8 = 2;

/// Words per CLUGP vertex row in [`T_MAIN`].
pub(crate) const VERTEX_ROW: usize = 3;

/// Encodes one CLUGP vertex row: `(cluster + 1, or 0 for none; degree;
/// divided)`. With [`decode_vertex_row`] the only code that knows the
/// [`T_MAIN`] row format.
#[inline]
fn encode_vertex_row(cluster: u32, degree: u32, divided: bool) -> [u64; VERTEX_ROW] {
    let c = if cluster == NO_CLUSTER {
        0
    } else {
        u64::from(cluster) + 1
    };
    [c, u64::from(degree), u64::from(divided)]
}

/// Decodes one CLUGP vertex row into `(cluster, degree, divided)`.
#[inline]
pub(crate) fn decode_vertex_row(row: &[u64]) -> (u32, u32, bool) {
    let c = if row[0] == 0 {
        NO_CLUSTER
    } else {
        (row[0] - 1) as u32
    };
    (c, row[1] as u32, row[2] != 0)
}

/// CLUGP's dense per-vertex pass state, the tables a [`T_MAIN`] row
/// packs.
pub(crate) struct ClugpVertices {
    pub cluster_of: VertexTable<u32>,
    pub degree: VertexTable<u32>,
    pub divided: VertexTable<bool>,
}

impl ClugpVertices {
    pub(crate) fn new(hint: u64, max_vertices: u64) -> Result<Self> {
        Ok(ClugpVertices {
            cluster_of: VertexTable::with_limit(hint, NO_CLUSTER, max_vertices)?,
            degree: VertexTable::with_limit(hint, 0, max_vertices)?,
            divided: VertexTable::with_limit(hint, false, max_vertices)?,
        })
    }

    pub(crate) fn ensure(&mut self, v: u32) -> Result<()> {
        self.cluster_of.ensure(v)?;
        self.degree.ensure(v)?;
        self.divided.ensure(v)
    }

    /// Ensures `v`, then overwrites its state with an encoded row.
    pub(crate) fn import(&mut self, v: u32, row: &[u64]) -> Result<()> {
        self.ensure(v)?;
        (self.cluster_of[v], self.degree[v], self.divided[v]) = decode_vertex_row(row);
        Ok(())
    }

    pub(crate) fn export(&self, v: u32) -> [u64; VERTEX_ROW] {
        encode_vertex_row(self.cluster_of[v], self.degree[v], self.divided[v])
    }
}

pub(crate) fn unexpected(m: &Msg) -> PartitionError {
    PartitionError::InvalidParam(format!("unexpected protocol message: {}", m.kind()))
}

pub(crate) fn migration_from_tag(tag: u8) -> Result<MigrationPolicy> {
    Ok(match tag {
        0 => MigrationPolicy::Anchored,
        1 => MigrationPolicy::Headroom,
        2 => MigrationPolicy::Paper,
        other => {
            return Err(PartitionError::InvalidParam(format!(
                "unknown migration policy tag {other}"
            )))
        }
    })
}

pub(crate) fn migration_tag(policy: MigrationPolicy) -> u8 {
    match policy {
        MigrationPolicy::Anchored => 0,
        MigrationPolicy::Headroom => 1,
        MigrationPolicy::Paper => 2,
    }
}

/// Worker-lane span name for a stage (coordinator-lane pass spans use the
/// `pass:` prefix; the worker's view of the same work uses `stage:`).
fn stage_name(stage: &Stage) -> &'static str {
    match stage {
        Stage::Baseline => "stage:baseline",
        Stage::ClugpPass1 { .. } => "stage:pass1",
        Stage::ClugpPairs { .. } => "stage:pairs",
        Stage::ClugpTransform { .. } => "stage:transform",
    }
}

fn recv(conn: &mut dyn Transport) -> Result<Msg> {
    Msg::decode(&conn.recv()?)
}

/// Runs a worker over `conn` until `Shutdown`.
///
/// The worker expects `Configure` first, acks it, then serves state
/// requests and stages on demand. A fatal stage error is reported to the
/// coordinator as [`Msg::Err`] before the function returns it.
pub fn run_worker(mut conn: Box<dyn Transport>) -> Result<()> {
    let setup = match recv(conn.as_mut())? {
        Msg::Configure(setup) => *setup,
        Msg::Shutdown => return Ok(()),
        other => return Err(unexpected(&other)),
    };
    let shards = build_shards(&setup);
    let hb_interval =
        (setup.heartbeat_ms > 0).then(|| Duration::from_millis(u64::from(setup.heartbeat_ms)));
    let mut wk = Wk {
        conn,
        setup,
        shards,
        hb_interval,
        hb_last: Instant::now(),
        scratch: Vec::new(),
        casts: FxHashMap::default(),
        obs: EventBuf::new(),
        chunk_ts: 0,
        chunk_edges: 0,
    };
    wk.send_msg(&Msg::ConfigureOk)?;
    loop {
        match recv(wk.conn.as_mut())? {
            Msg::StateReq { table, op } => {
                let rows = wk.apply_local(table, op)?;
                wk.send_msg(&Msg::StateResp { rows })?;
            }
            Msg::StateReqBatch { keys, ops } => {
                if let Some(rows) = wk.serve_batch(&keys, &ops)? {
                    wk.send_msg(&Msg::StateRespBatch { rows })?;
                }
            }
            Msg::Scan { table } => {
                let (keys, rows) = wk.scan_local(table)?;
                wk.send_msg(&Msg::ScanResp { keys, rows })?;
            }
            Msg::TableCast { table, keys, rows } => {
                // Read-only mirror for the next relaxed stage; no ack
                // (ordered links deliver it before the RunStage behind it).
                wk.casts.insert(table, (keys, rows));
            }
            Msg::ResetTables => {
                // Recovery: drop every shard and rebuild empty; the
                // coordinator restores checkpointed rows right after.
                wk.shards = build_shards(&wk.setup);
                wk.casts.clear();
                wk.send_msg(&Msg::ResetOk)?;
            }
            Msg::RunStage {
                stage,
                token,
                mode,
                epoch,
            } => match wk.run_stage(stage, token, mode, epoch) {
                Ok((token, assignments, pairs)) => wk.send_msg(&Msg::StageDone {
                    token,
                    assignments,
                    pairs,
                })?,
                Err(e) => {
                    let _ = wk.send_msg(&Msg::Err { msg: e.to_string() });
                    return Err(e);
                }
            },
            Msg::Shutdown => return Ok(()),
            other => return Err(unexpected(&other)),
        }
    }
}

/// Builds the (empty) per-table shards `setup` describes.
fn build_shards(setup: &WorkerSetup) -> Vec<StateShard> {
    setup
        .tables
        .iter()
        .map(|t| match t.layout {
            Layout::Range { .. } => {
                StateShard::range(t.layout.base(setup.worker), t.width as usize)
            }
            Layout::Striped { .. } => StateShard::striped(t.width as usize),
        })
        .collect()
}

/// Keys split by owning worker: per owner, its keys and their positions
/// in the split key list.
type ByOwner = Vec<(Vec<u64>, Vec<usize>)>;

/// Output of one stage run: updated token, assignments in stream order,
/// and the CLUGP pairs partial (pairs stage only).
type StageOut = (Token, Vec<u32>, Option<PairsPayload>);

/// The worker's edge range, reopened for every stage.
enum Source {
    Inline {
        edges: Vec<Edge>,
        pos: usize,
    },
    Pack(clugp_graph::pack::PackedEdgeStream),
    /// Same block range as `Pack`, decoded ahead of the stage on pipeline
    /// workers (selected by the process-wide
    /// [`clugp_graph::pack::decode_options`]). Chunk-for-chunk identical
    /// to the serial variant, so stages cannot tell them apart.
    PipelinedPack(clugp_graph::pack::PipelinedPackStream),
}

impl Source {
    fn next_chunk(&mut self, buf: &mut Vec<Edge>, cap: usize) -> usize {
        match self {
            Source::Inline { edges, pos } => {
                buf.clear();
                let take = cap.max(1).min(edges.len() - *pos);
                buf.extend_from_slice(&edges[*pos..*pos + take]);
                *pos += take;
                take
            }
            Source::Pack(stream) => stream.next_chunk(buf, cap),
            Source::PipelinedPack(stream) => stream.next_chunk(buf, cap),
        }
    }

    /// A decode/IO error parked by a pack-backed stream, if any. Inline
    /// sources cannot fail.
    fn pack_error(&self) -> Option<&clugp_graph::error::GraphError> {
        match self {
            Source::Inline { .. } => None,
            Source::Pack(stream) => stream.error(),
            Source::PipelinedPack(stream) => stream.error(),
        }
    }
}

struct Wk {
    conn: Box<dyn Transport>,
    setup: WorkerSetup,
    shards: Vec<StateShard>,
    /// Keep-alive interval (None = heartbeats off).
    hb_interval: Option<Duration>,
    /// When the last heartbeat (or any stage start) was sent.
    hb_last: Instant,
    /// Reused encode buffer for every outgoing frame.
    scratch: Vec<u8>,
    /// Read-only table mirrors received via [`Msg::TableCast`] (relaxed
    /// CLUGP stages), keyed by table slot: `(keys, flattened rows)`.
    casts: FxHashMap<u8, (Vec<u64>, Vec<u64>)>,
    /// Trace events recorded during the current stage, shipped to the
    /// coordinator as one [`Msg::TraceEvents`] frame right before
    /// `StageDone` (empty unless [`WorkerSetup::trace`]).
    obs: EventBuf,
    /// Start timestamp of the chunk currently being processed (µs on this
    /// worker's clock); 0 = no chunk open.
    chunk_ts: u64,
    /// Edge count of the chunk currently being processed.
    chunk_edges: u64,
}

impl Wk {
    /// Encodes and sends `msg`, reusing the worker's scratch buffer so
    /// hot-path sends (routing, heartbeats, epoch frames) do not allocate.
    fn send_msg(&mut self, msg: &Msg) -> Result<()> {
        let mut buf = std::mem::take(&mut self.scratch);
        msg.encode_into(&mut buf);
        let res = self.conn.send(&buf);
        self.scratch = buf;
        res
    }

    /// Pulls the next chunk of the stage's edge range, first emitting a
    /// keep-alive [`Msg::Heartbeat`] when the configured interval has
    /// elapsed — without it, a stateless kernel (e.g. hashing) sends
    /// nothing for the whole stage and the coordinator's deadline could
    /// not tell "working" from "dead".
    fn next_chunk(
        &mut self,
        source: &mut Source,
        buf: &mut Vec<Edge>,
        cap: usize,
    ) -> Result<usize> {
        if let Some(interval) = self.hb_interval {
            if self.hb_last.elapsed() >= interval {
                self.send_msg(&Msg::Heartbeat)?;
                self.hb_last = Instant::now();
            }
        }
        if self.setup.trace && self.chunk_ts != 0 {
            // Close the previous chunk's span here, before blocking on the
            // next decode — stall time is attributed separately.
            self.obs
                .push(Event::span_since("chunk", self.chunk_ts, self.chunk_edges));
            self.chunk_ts = 0;
        }
        let n = source.next_chunk(buf, cap);
        if self.setup.trace && n != 0 {
            self.chunk_ts = obs::now_us();
            self.chunk_edges = n as u64;
        }
        Ok(n)
    }

    fn slot(&self, table: u8) -> Result<usize> {
        let i = table as usize;
        if i >= self.shards.len() {
            return Err(PartitionError::InvalidParam(format!(
                "unknown table slot {table}"
            )));
        }
        Ok(i)
    }

    /// Executes a single-table state op against the local shard.
    fn apply_local(&mut self, table: u8, op: StateOp) -> Result<Vec<u64>> {
        let (keys, op) = match op {
            StateOp::Get { keys } => (keys, BatchOp::Get { table }),
            StateOp::Upsert { merge, keys, rows } => (
                keys,
                BatchOp::Put {
                    table,
                    merge,
                    vals: rows,
                },
            ),
        };
        Ok(self.serve_batch(&keys, &[op])?.unwrap_or_default())
    }

    fn scan_local(&mut self, table: u8) -> Result<(Vec<u64>, Vec<u64>)> {
        let i = self.slot(table)?;
        let mut keys = Vec::new();
        let mut rows = Vec::new();
        self.shards[i].scan(|key, row| {
            keys.push(key);
            rows.extend_from_slice(row);
        });
        Ok((keys, rows))
    }

    /// Executes a batch of ops (each over the same `keys`) against the
    /// local shards. Returns the concatenated `Get` results, or `None`
    /// when the batch was pure `Put`s and there is nothing to reply.
    fn serve_batch(&mut self, keys: &[u64], ops: &[BatchOp]) -> Result<Option<Vec<u64>>> {
        let mut reply: Option<Vec<u64>> = None;
        for op in ops {
            match op {
                BatchOp::Get { table } => {
                    let i = self.slot(*table)?;
                    let shard = &mut self.shards[i];
                    let out = reply.get_or_insert_with(Vec::new);
                    out.reserve(keys.len() * shard.width());
                    for &key in keys {
                        shard.get_into(key, out);
                    }
                }
                BatchOp::Put { table, merge, vals } => {
                    let i = self.slot(*table)?;
                    let shard = &mut self.shards[i];
                    if vals.len() != keys.len() * shard.width() {
                        return Err(PartitionError::InvalidParam(
                            "batched put payload does not match key count".into(),
                        ));
                    }
                    shard.upsert_batch(*merge, keys, vals);
                }
            }
        }
        Ok(reply)
    }

    /// Looks up the defs of `tables` (which must share one layout) and
    /// splits `keys` by owning worker: per owner, its keys and their
    /// positions in `keys`.
    fn split_by_owner(
        &self,
        tables: impl Iterator<Item = u8>,
        keys: &[u64],
    ) -> Result<(Vec<TableDef>, ByOwner)> {
        let defs: Vec<TableDef> = tables
            .map(|t| self.slot(t).map(|i| self.setup.tables[i]))
            .collect::<Result<_>>()?;
        let layout = defs[0].layout;
        debug_assert!(defs.iter().all(|d| d.layout == layout));
        let workers = self.setup.workers;
        let mut by_owner = vec![(Vec::new(), Vec::new()); workers as usize];
        for (i, &key) in keys.iter().enumerate() {
            let owner = layout.owner(key, workers) as usize;
            by_owner[owner].0.push(key);
            by_owner[owner].1.push(i);
        }
        Ok((defs, by_owner))
    }

    /// Fetches `keys` from every table in `tables` (all sharing one
    /// layout), returning one flattened row vector per table, in key
    /// order. Remote owners are serviced with a single delta-encoded
    /// [`Msg::RouteBatch`] each; all requests go out before the first
    /// reply is awaited, so the relay legs overlap.
    fn fetch_group(&mut self, tables: &[u8], keys: &[u64]) -> Result<Vec<Vec<u64>>> {
        let t_route = if self.setup.trace { obs::now_us() } else { 0 };
        let (defs, by_owner) = self.split_by_owner(tables.iter().copied(), keys)?;
        let mut outs: Vec<Vec<u64>> = defs
            .iter()
            .map(|d| vec![0u64; keys.len() * d.width as usize])
            .collect();
        let me = self.setup.worker as usize;
        let ops: Vec<BatchOp> = tables.iter().map(|&t| BatchOp::Get { table: t }).collect();
        // Fire every remote request first, then collect replies in the
        // same order — the coordinator answers per-owner in send order.
        let mut pending: Vec<usize> = Vec::new();
        for (owner, (okeys, _)) in by_owner.iter().enumerate() {
            if owner == me || okeys.is_empty() {
                continue;
            }
            self.send_msg(&Msg::RouteBatch {
                to: owner as u32,
                keys: okeys.clone(),
                ops: ops.clone(),
            })?;
            pending.push(owner);
        }
        let scatter = |owner: usize, rows: &[u64], outs: &mut [Vec<u64>]| -> Result<()> {
            let (okeys, opos) = &by_owner[owner];
            let total: usize = defs.iter().map(|d| okeys.len() * d.width as usize).sum();
            if rows.len() != total {
                return Err(PartitionError::InvalidParam(
                    "batched fetch reply does not match request".into(),
                ));
            }
            let mut off = 0;
            for (t, d) in defs.iter().enumerate() {
                let width = d.width as usize;
                for (j, &pos) in opos.iter().enumerate() {
                    outs[t][pos * width..(pos + 1) * width]
                        .copy_from_slice(&rows[off + j * width..off + (j + 1) * width]);
                }
                off += okeys.len() * width;
            }
            Ok(())
        };
        if !by_owner[me].0.is_empty() {
            let okeys = by_owner[me].0.clone();
            let rows = self
                .serve_batch(&okeys, &ops)?
                .expect("get batch always yields rows");
            scatter(me, &rows, &mut outs)?;
        }
        let had_remote = !pending.is_empty();
        for owner in pending {
            match recv(self.conn.as_mut())? {
                Msg::RouteReply { rows } => scatter(owner, &rows, &mut outs)?,
                Msg::Err { msg } => return Err(PartitionError::InvalidParam(msg)),
                other => return Err(unexpected(&other)),
            }
        }
        if self.setup.trace && had_remote {
            // One span per chunk fetch that actually crossed the wire.
            self.obs
                .push(Event::span_since("route_batch", t_route, keys.len() as u64));
        }
        Ok(outs)
    }

    /// Fetches `keys` from `table`, returning rows flattened in key order.
    fn fetch(&mut self, table: u8, keys: &[u64]) -> Result<Vec<u64>> {
        Ok(self
            .fetch_group(&[table], keys)?
            .pop()
            .expect("fetch_group returns one vector per table"))
    }

    /// Writes rows for `keys` back to one or more tables (all sharing one
    /// layout) with a single fire-and-forget [`Msg::RouteBatch`] per
    /// remote owner. No acks: the frames traverse the coordinator's
    /// ordered star links, so each Put is applied at its owner before any
    /// later dependent read from this worker can arrive there.
    fn publish(&mut self, keys: &[u64], puts: Vec<(u8, MergeOp, Vec<u64>)>) -> Result<()> {
        let (defs, by_owner) = self.split_by_owner(puts.iter().map(|p| p.0), keys)?;
        let me = self.setup.worker as usize;
        for (owner, (okeys, opos)) in by_owner.into_iter().enumerate() {
            if okeys.is_empty() {
                continue;
            }
            let ops: Vec<BatchOp> = puts
                .iter()
                .zip(&defs)
                .map(|(&(table, merge, ref rows), d)| {
                    let width = d.width as usize;
                    let mut vals = Vec::with_capacity(okeys.len() * width);
                    for &pos in &opos {
                        vals.extend_from_slice(&rows[pos * width..(pos + 1) * width]);
                    }
                    BatchOp::Put { table, merge, vals }
                })
                .collect();
            if owner == me {
                self.serve_batch(&okeys, &ops)?;
            } else {
                self.send_msg(&Msg::RouteBatch {
                    to: owner as u32,
                    keys: okeys,
                    ops,
                })?;
            }
        }
        Ok(())
    }

    fn chunk_cap(&self) -> usize {
        if self.setup.chunk == 0 {
            chunk_edges()
        } else {
            self.setup.chunk as usize
        }
    }

    fn open_source(&mut self) -> Result<Source> {
        let input = std::mem::replace(
            &mut self.setup.input,
            InputSpec::Inline { edges: Vec::new() },
        );
        match input {
            InputSpec::Inline { edges } => Ok(Source::Inline { edges, pos: 0 }),
            InputSpec::Pack {
                path,
                block_start,
                block_end,
                edges,
            } => {
                let opts = clugp_graph::pack::decode_options();
                let reader = ShardedPackReader::open_with(Path::new(&path), opts.checksums)?;
                let range = block_start as usize..block_end as usize;
                let source = if opts.threads > 0 {
                    Source::PipelinedPack(reader.open_pipelined_block_range(range, opts)?)
                } else {
                    Source::Pack(reader.open_block_range(range)?)
                };
                self.setup.input = InputSpec::Pack {
                    path,
                    block_start,
                    block_end,
                    edges,
                };
                Ok(source)
            }
        }
    }

    fn restore_source(&mut self, source: Source) {
        if let Source::Inline { edges, .. } = source {
            self.setup.input = InputSpec::Inline { edges };
        }
    }

    fn run_stage(
        &mut self,
        stage: Stage,
        token: Token,
        mode: AmpcMode,
        epoch: u32,
    ) -> Result<StageOut> {
        let relaxed = mode == AmpcMode::Relaxed;
        let epoch = if epoch == 0 {
            DEFAULT_EPOCH_CHUNKS
        } else {
            epoch
        } as usize;
        // Discard decode-stall time accrued outside any stage (pipeline
        // warm-up from a previous incarnation of the source).
        let _ = obs::stall::take_thread_ns();
        self.chunk_ts = 0;
        self.chunk_edges = 0;
        let t_stage = if self.setup.trace { obs::now_us() } else { 0 };
        let mut source = self.open_source()?;
        let src = &mut source;
        let mut out = match (stage, relaxed) {
            (Stage::Baseline, _) => self.stage_baseline(token, src, relaxed, epoch),
            (Stage::ClugpPass1 { vmax }, false) => self.stage_clugp_pass1(vmax, token, src),
            (Stage::ClugpPass1 { vmax }, true) => self.stage_clugp_pass1_relaxed(vmax, token, src),
            (Stage::ClugpPairs { num_clusters: n }, _) => {
                self.stage_clugp_pairs(n, token, src, relaxed)
            }
            (Stage::ClugpTransform { lmax }, _) => {
                self.stage_clugp_transform(lmax, token, src, relaxed)
            }
        };
        if out.is_ok() {
            if let Some(e) = source.pack_error() {
                out = Err(PartitionError::InvalidParam(format!("pack stream: {e}")));
            }
        }
        self.restore_source(source);
        // Casts are per-stage: the coordinator re-broadcasts fresh mirrors
        // before every relaxed stage that needs them.
        self.casts.clear();
        if self.setup.trace && out.is_ok() {
            // The condvar wait in the pipelined pack stream runs on this
            // thread, so the thread-local stall counter is exactly this
            // stage's decode wait.
            let stall_ns = obs::stall::take_thread_ns();
            if stall_ns > 0 {
                self.obs
                    .push(Event::instant_now("decode_stall", stall_ns / 1_000));
            }
            self.obs
                .push(Event::span_since(stage_name(&stage), t_stage, 0));
            self.flush_trace()?;
        }
        out
    }

    /// Ships every event buffered during the stage as one
    /// [`Msg::TraceEvents`] frame. Sent right before `StageDone`, so the
    /// coordinator absorbs it while waiting on the stage result.
    fn flush_trace(&mut self) -> Result<()> {
        let dropped = self.obs.take_dropped();
        if self.obs.is_empty() && dropped == 0 {
            return Ok(());
        }
        let events = self.obs.drain();
        self.send_msg(&Msg::TraceEvents {
            now_us: obs::now_us(),
            dropped,
            events,
        })
    }

    fn stage_baseline(
        &mut self,
        token: Token,
        source: &mut Source,
        relaxed: bool,
        epoch: usize,
    ) -> Result<StageOut> {
        let algo = self.setup.algo.clone();
        let (token, assignments) = match algo {
            AlgoSpec::Mint {
                batch,
                wave,
                threads,
                rounds,
                alpha,
                seed,
            } => {
                let cfg = MintConfig {
                    batch_size: batch as usize,
                    wave_width: wave as usize,
                    threads: threads as usize,
                    max_rounds: rounds as usize,
                    balance_weight: alpha,
                    seed,
                };
                self.run_mint(&cfg, token, source, relaxed)?
            }
            spec => {
                let Some(mut kernel) = stream_kernel(&spec, self.setup.k)? else {
                    return Err(PartitionError::InvalidParam(
                        "CLUGP algo cannot run the baseline stage".into(),
                    ));
                };
                if relaxed && kernel.epoch_synced() {
                    self.drive_relaxed(kernel.as_mut(), token, source, epoch)?
                } else {
                    self.drive_sequenced(kernel.as_mut(), token, source)?
                }
            }
        };
        Ok((token, assignments, None))
    }

    /// Mint: waves are global — `wave_width × batch_size` edges each — so
    /// every worker solves the full waves its range completes and carries
    /// the remainder to the next worker in the token. The last worker
    /// drains the tail (partial wave / partial batch), exactly where the
    /// monolith's end-of-stream wave lands. In relaxed mode there is no
    /// token to carry a remainder on, so every worker waves over its own
    /// range and drains its own tail.
    fn run_mint(
        &mut self,
        cfg: &MintConfig,
        mut token: Token,
        source: &mut Source,
        relaxed: bool,
    ) -> Result<(Token, Vec<u32>)> {
        let k = self.setup.k;
        let wave_width = if cfg.wave_width == 0 {
            DEFAULT_WAVE_WIDTH
        } else {
            cfg.wave_width
        };
        if cfg.batch_size == 0 {
            return Err(PartitionError::InvalidParam(
                "batch_size must be positive".into(),
            ));
        }
        let wave_edges = wave_width * cfg.batch_size;
        let pool = mint::build_pool(cfg.threads)?;
        let cap = self.chunk_cap();
        let mut buf = Vec::with_capacity(cap);
        let mut assignments = Vec::new();
        let mut loads = PartitionLoads::from_vec(std::mem::take(&mut token.loads));
        let mut pending = std::mem::take(&mut token.carry);
        let commit =
            |pending_wave: &[Edge], loads: &mut PartitionLoads, assignments: &mut Vec<u32>| {
                let wave: Vec<Vec<Edge>> = pending_wave
                    .chunks(cfg.batch_size)
                    .map(<[Edge]>::to_vec)
                    .collect();
                let snapshot: Vec<u64> = loads.as_slice().to_vec();
                let outcomes = mint::solve_wave(&wave, k, &snapshot, cfg, pool.as_ref());
                for outcome in outcomes {
                    for &p in &outcome.assignments {
                        loads.add(p);
                    }
                    assignments.extend(outcome.assignments);
                }
            };
        while self.next_chunk(source, &mut buf, cap)? != 0 {
            pending.extend_from_slice(&buf);
            while pending.len() >= wave_edges {
                let rest = pending.split_off(wave_edges);
                commit(&pending, &mut loads, &mut assignments);
                pending = rest;
            }
        }
        let last = relaxed || self.setup.worker + 1 == self.setup.workers;
        if last {
            if !pending.is_empty() {
                commit(&pending, &mut loads, &mut assignments);
            }
            pending = Vec::new();
        }
        token.carry = pending;
        token.loads = loads.into_vec();
        Ok((token, assignments))
    }

    /// One relaxed-mode epoch barrier: ship the epoch's deltas, block
    /// until the coordinator broadcasts the merged committed state for the
    /// round, and adopt it. Every worker contributes exactly one
    /// [`Msg::EpochDone`] per round, so the committed state after round
    /// `r` is independent of thread scheduling — that is what keeps
    /// relaxed runs deterministic. The `last` barrier keeps answering
    /// rounds with empty deltas until every worker has reported its last.
    fn epoch_barrier(
        &mut self,
        last: bool,
        kernel: &mut dyn StreamKernel,
        tables: &[KernelTable],
        log: &mut EpochLog,
        loads: &mut PartitionLoads,
    ) -> Result<()> {
        let (mut delta, mut deltas) = log.flush(kernel, tables, loads);
        loop {
            let t_barrier = if self.setup.trace { obs::now_us() } else { 0 };
            self.send_msg(&Msg::EpochDone {
                last,
                loads: delta,
                tables: deltas,
            })?;
            let (done, committed, synced) = match recv(self.conn.as_mut())? {
                Msg::EpochSync {
                    done,
                    loads,
                    tables,
                } => (done, loads, tables),
                Msg::Err { msg } => return Err(PartitionError::InvalidParam(msg)),
                other => return Err(unexpected(&other)),
            };
            if self.setup.trace {
                self.obs
                    .push(Event::span_since("epoch:barrier", t_barrier, 0));
            }
            for t in &synced {
                adopt_synced(kernel, tables, t)?;
            }
            log.loads.clone_from(&committed);
            *loads = PartitionLoads::from_vec(committed);
            if done || !last {
                return Ok(());
            }
            delta = vec![0; loads.k() as usize];
            deltas = Vec::new();
        }
    }

    /// The sequenced baseline driver. Per chunk: fetch the rows of every
    /// declared table for the chunk's distinct endpoints in one
    /// [`Wk::fetch_group`], import them, step the kernel over the chunk,
    /// and write the rows back under `Put` in one [`Wk::publish`].
    /// A kernel without tables (Hashing, Grid) streams with no routing at
    /// all.
    fn drive_sequenced(
        &mut self,
        kernel: &mut dyn StreamKernel,
        mut token: Token,
        source: &mut Source,
    ) -> Result<(Token, Vec<u32>)> {
        let tables = kernel.tables();
        let slots: Vec<u8> = (0..tables.len() as u8).collect();
        let cap = self.chunk_cap();
        let mut buf = Vec::with_capacity(cap);
        let mut assignments = Vec::new();
        let mut loads = PartitionLoads::from_vec(std::mem::take(&mut token.loads));
        let mut keys: Vec<u64> = Vec::new();
        while self.next_chunk(source, &mut buf, cap)? != 0 {
            if !tables.is_empty() {
                distinct_endpoints(&buf, &mut keys);
                let rows = self.fetch_group(&slots, &keys)?;
                for (i, &key) in keys.iter().enumerate() {
                    let v = key as u32;
                    kernel.ensure(v)?;
                    for (slot, (def, rows)) in tables.iter().zip(&rows).enumerate() {
                        let w = def.width as usize;
                        kernel.import(slot, v, &rows[i * w..(i + 1) * w]);
                    }
                }
            }
            for &e in &buf {
                assignments.push(kernel.step(e, &mut loads)?);
            }
            if !tables.is_empty() {
                let puts = tables
                    .iter()
                    .enumerate()
                    .map(|(slot, def)| {
                        let rows = export_rows(kernel, slot, def.width, &keys);
                        (slot as u8, MergeOp::Put, rows)
                    })
                    .collect();
                self.publish(&keys, puts)?;
            }
        }
        token.loads = loads.into_vec();
        token.table_len = token.table_len.max(kernel.num_vertices());
        Ok((token, assignments))
    }

    /// The relaxed baseline driver: stream the whole range against the
    /// worker-local kernel, and every `epoch` chunks ship the epoch's
    /// changes — load deltas, plus one [`EpochTable`] per declared table
    /// over the keys touched since the last barrier — then adopt the
    /// committed rows the coordinator broadcasts back.
    fn drive_relaxed(
        &mut self,
        kernel: &mut dyn StreamKernel,
        mut token: Token,
        source: &mut Source,
        epoch: usize,
    ) -> Result<(Token, Vec<u32>)> {
        let tables = kernel.tables();
        let cap = self.chunk_cap();
        let mut buf = Vec::with_capacity(cap);
        let mut assignments = Vec::new();
        let mut loads = PartitionLoads::from_vec(std::mem::take(&mut token.loads));
        let mut log = EpochLog::new(&loads);
        let mut keys: Vec<u64> = Vec::new();
        let mut since = 0usize;
        while self.next_chunk(source, &mut buf, cap)? != 0 {
            if !tables.is_empty() {
                distinct_endpoints(&buf, &mut keys);
                for &key in &keys {
                    kernel.ensure(key as u32)?;
                    log.touch(kernel, &tables, key);
                }
            }
            for &e in &buf {
                assignments.push(kernel.step(e, &mut loads)?);
            }
            since += 1;
            if since >= epoch {
                since = 0;
                self.epoch_barrier(false, kernel, &tables, &mut log, &mut loads)?;
            }
        }
        self.epoch_barrier(true, kernel, &tables, &mut log, &mut loads)?;
        token.loads = loads.into_vec();
        token.table_len = token.table_len.max(kernel.num_vertices());
        Ok((token, assignments))
    }

    /// The CLUGP parameters `(splitting, migration tag, max_vertices)`; a
    /// CLUGP stage sent to a worker configured for another algo is a
    /// protocol error.
    fn clugp_params(&self, stage: &str) -> Result<(bool, u8, u64)> {
        match self.setup.algo {
            AlgoSpec::Clugp {
                splitting,
                migration,
                max_vertices,
            } => Ok((splitting, migration, max_vertices)),
            _ => Err(PartitionError::InvalidParam(format!(
                "{stage} stage requires the CLUGP algo"
            ))),
        }
    }

    /// CLUGP pass 1. The raw-volume scratch is kept at the full global
    /// length (the token's raw-id watermark) so `vol.push` allocates the
    /// same raw ids as the monolith. Per chunk, the touched-cluster set is
    /// closed under the kernel's operations: every volume it reads or
    /// writes belongs to a fetched chunk vertex's cluster or to a cluster
    /// created in the chunk.
    fn stage_clugp_pass1(
        &mut self,
        vmax: u64,
        mut token: Token,
        source: &mut Source,
    ) -> Result<StageOut> {
        let (splitting, migration, max_vertices) = self.clugp_params("pass-1")?;
        let migration = migration_from_tag(migration)?;
        let cap = self.chunk_cap();
        let mut buf = Vec::with_capacity(cap);
        let mut vs = ClugpVertices::new(0, max_vertices)?;
        let mut vol: Vec<u64> = vec![0; token.next_raw as usize];
        let mut vkeys: Vec<u64> = Vec::new();
        while self.next_chunk(source, &mut buf, cap)? != 0 {
            self.chunk_vertices(false, &buf, &mut vs, &mut vkeys)?;
            let ckeys = chunk_clusters(&vs, &vkeys);
            let crows = self.fetch(T_VOL, &ckeys)?;
            for (i, &ck) in ckeys.iter().enumerate() {
                vol[ck as usize] = crows[i];
            }
            let created_from = vol.len();
            for &e in &buf {
                pass1_edge(
                    e,
                    vmax,
                    splitting,
                    migration,
                    &mut vs.cluster_of,
                    &mut vs.degree,
                    &mut vs.divided,
                    &mut vol,
                    &mut token.splits,
                    &mut token.migrations,
                )?;
            }
            let mut vrows = Vec::with_capacity(vkeys.len() * VERTEX_ROW);
            for &key in &vkeys {
                vrows.extend(vs.export(key as u32));
            }
            self.publish(&vkeys, vec![(T_MAIN, MergeOp::Put, vrows)])?;
            let mut wkeys = ckeys;
            wkeys.extend((created_from..vol.len()).map(|c| c as u64));
            let wrows: Vec<u64> = wkeys.iter().map(|&c| vol[c as usize]).collect();
            self.publish(&wkeys, vec![(T_VOL, MergeOp::Put, wrows)])?;
        }
        token.next_raw = vol.len() as u64;
        token.table_len = token.table_len.max(vs.cluster_of.len());
        Ok((token, Vec::new(), None))
    }

    /// Relaxed CLUGP pass 1: cluster the worker's range entirely locally
    /// (raw cluster ids are worker-local, volumes start from zero), then
    /// ship the whole frontier — per-vertex rows plus the local volume
    /// array — as one [`Msg::Pass1Frontier`] for the coordinator to merge
    /// deterministically across workers.
    fn stage_clugp_pass1_relaxed(
        &mut self,
        vmax: u64,
        mut token: Token,
        source: &mut Source,
    ) -> Result<StageOut> {
        let (splitting, migration, max_vertices) = self.clugp_params("pass-1")?;
        let migration = migration_from_tag(migration)?;
        let cap = self.chunk_cap();
        let mut buf = Vec::with_capacity(cap);
        let mut vs = ClugpVertices::new(0, max_vertices)?;
        let mut vol: Vec<u64> = Vec::new();
        let mut vkeys: Vec<u64> = Vec::new();
        while self.next_chunk(source, &mut buf, cap)? != 0 {
            self.chunk_vertices(true, &buf, &mut vs, &mut vkeys)?;
            for &e in &buf {
                pass1_edge(
                    e,
                    vmax,
                    splitting,
                    migration,
                    &mut vs.cluster_of,
                    &mut vs.degree,
                    &mut vs.divided,
                    &mut vol,
                    &mut token.splits,
                    &mut token.migrations,
                )?;
            }
        }
        let mut keys = Vec::new();
        let mut rows = Vec::new();
        for key in 0..vs.cluster_of.len() {
            // An all-zero row is a vertex no edge of this range touched.
            let row = vs.export(key as u32);
            if row != [0; VERTEX_ROW] {
                keys.push(key);
                rows.extend(row);
            }
        }
        token.next_raw = vol.len() as u64;
        token.table_len = token.table_len.max(vs.cluster_of.len());
        self.send_msg(&Msg::Pass1Frontier { keys, rows, vol })?;
        Ok((token, Vec::new(), None))
    }

    /// Takes the mirror of `table` the coordinator broadcast ahead of a
    /// relaxed CLUGP stage, checked against the table's row `width`.
    fn take_cast(&mut self, table: u8, width: usize) -> Result<(Vec<u64>, Vec<u64>)> {
        let Some((keys, rows)) = self.casts.remove(&table) else {
            return Err(PartitionError::InvalidParam(format!(
                "relaxed CLUGP stage started without a cast of table {table}"
            )));
        };
        if rows.len() != keys.len() * width {
            return Err(PartitionError::InvalidParam(format!(
                "cast of table {table} does not match its key count"
            )));
        }
        Ok((keys, rows))
    }

    /// The vertex rows a pairs or transform stage starts from: the
    /// [`T_MAIN`] cast when relaxed, none when sequenced (each chunk
    /// fetches its own).
    fn stage_vertices(&mut self, relaxed: bool, max_vertices: u64) -> Result<ClugpVertices> {
        let mut vs = ClugpVertices::new(0, max_vertices)?;
        if relaxed {
            let (keys, rows) = self.take_cast(T_MAIN, VERTEX_ROW)?;
            for (&key, row) in keys.iter().zip(rows.chunks_exact(VERTEX_ROW)) {
                vs.import(key as u32, row)?;
            }
        }
        Ok(vs)
    }

    /// Makes every endpoint of the chunk readable in `vs`. Relaxed mode
    /// only ensures the largest one (the rows are worker-local or cast);
    /// sequenced mode imports the rows of the distinct endpoints, left in
    /// `vkeys`, from their owning shards.
    fn chunk_vertices(
        &mut self,
        relaxed: bool,
        buf: &[Edge],
        vs: &mut ClugpVertices,
        vkeys: &mut Vec<u64>,
    ) -> Result<()> {
        if relaxed {
            let top = buf.iter().map(|e| e.src.max(e.dst)).max();
            return top.map_or(Ok(()), |v| vs.ensure(v));
        }
        distinct_endpoints(buf, vkeys);
        let rows = self.fetch(T_MAIN, vkeys)?;
        for (&key, row) in vkeys.iter().zip(rows.chunks_exact(VERTEX_ROW)) {
            vs.import(key as u32, row)?;
        }
        Ok(())
    }

    /// CLUGP pairs: stream the range once against the (now dense) cluster
    /// ids and aggregate the worker's partial cluster graph. No
    /// writebacks, and in relaxed mode no routing at all.
    fn stage_clugp_pairs(
        &mut self,
        num_clusters: u64,
        token: Token,
        source: &mut Source,
        relaxed: bool,
    ) -> Result<StageOut> {
        let (_, _, max_vertices) = self.clugp_params("pairs")?;
        let mut vs = self.stage_vertices(relaxed, max_vertices)?;
        let cap = self.chunk_cap();
        let mut buf = Vec::with_capacity(cap);
        let mut sink = PairSink::new(num_clusters as usize);
        let mut vkeys: Vec<u64> = Vec::new();
        while self.next_chunk(source, &mut buf, cap)? != 0 {
            self.chunk_vertices(relaxed, &buf, &mut vs, &mut vkeys)?;
            for &e in &buf {
                sink.push(vs.cluster_of[e.src], vs.cluster_of[e.dst]);
            }
        }
        Ok((token, Vec::new(), Some(pairs_payload(sink))))
    }

    /// CLUGP pass 3: run the transformation kernel over the vertex rows
    /// and the cluster → partition map (fetched per chunk when sequenced,
    /// cast when relaxed). No writebacks — the pass only consumes state.
    ///
    /// A relaxed worker enforces an even slice of the global cap. The
    /// slice can be infeasible for this worker's share of the stream
    /// (contiguous edge ranges are not perfectly even), so the cap grows
    /// one slot per partition whenever every partition is full: the edge
    /// always has somewhere to go, and the global cap drifts by at most
    /// one slot per overflow. A sequenced run starts at the full cap, and
    /// `k · lmax ≥ |E|` (τ ≥ 1), so the rule never fires there.
    fn stage_clugp_transform(
        &mut self,
        lmax: u64,
        mut token: Token,
        source: &mut Source,
        relaxed: bool,
    ) -> Result<StageOut> {
        let (_, _, max_vertices) = self.clugp_params("transform")?;
        let k = self.setup.k;
        let mut vs = self.stage_vertices(relaxed, max_vertices)?;
        let mut cpart: Vec<u32> = Vec::new();
        let mut lmax = if relaxed {
            let (ckeys, crows) = self.take_cast(T_CPART, 1)?;
            fill_cpart(&mut cpart, &ckeys, &crows);
            lmax.div_ceil(u64::from(self.setup.workers)).max(1)
        } else {
            lmax
        };
        let cap = self.chunk_cap();
        let mut buf = Vec::with_capacity(cap);
        let mut assignments = Vec::new();
        let mut placed: u64 = token.loads.iter().sum();
        let mut vkeys: Vec<u64> = Vec::new();
        while self.next_chunk(source, &mut buf, cap)? != 0 {
            self.chunk_vertices(relaxed, &buf, &mut vs, &mut vkeys)?;
            if !relaxed {
                let ckeys = chunk_clusters(&vs, &vkeys);
                let crows = self.fetch(T_CPART, &ckeys)?;
                fill_cpart(&mut cpart, &ckeys, &crows);
            }
            for &e in &buf {
                if placed == u64::from(k).saturating_mul(lmax) {
                    lmax += 1;
                }
                placed += 1;
                let p = transform_edge(
                    e,
                    &vs.cluster_of,
                    &vs.degree,
                    &vs.divided,
                    &cpart,
                    lmax,
                    k,
                    &mut token.loads,
                    &mut token.cursor,
                    &mut token.reroutes,
                );
                assignments.push(p);
            }
        }
        token.table_len = token.table_len.max(vs.cluster_of.len());
        Ok((token, assignments, None))
    }
}

/// The clusters the fetched chunk vertices `vkeys` belong to, sorted and
/// distinct.
fn chunk_clusters(vs: &ClugpVertices, vkeys: &[u64]) -> Vec<u64> {
    let mut ckeys: Vec<u64> = vkeys
        .iter()
        .filter_map(|&key| {
            let c = vs.cluster_of[key as u32];
            (c != NO_CLUSTER).then_some(u64::from(c))
        })
        .collect();
    ckeys.sort_unstable();
    ckeys.dedup();
    ckeys
}

/// Collects the distinct endpoint ids of a chunk, sorted ascending.
fn distinct_endpoints(buf: &[Edge], keys: &mut Vec<u64>) {
    keys.clear();
    for e in buf {
        keys.push(u64::from(e.src));
        keys.push(u64::from(e.dst));
    }
    keys.sort_unstable();
    keys.dedup();
}

/// The worker's share of the cluster graph, sparse in the intra weights.
fn pairs_payload(sink: PairSink) -> PairsPayload {
    let (intra, agg) = sink.finish();
    PairsPayload {
        intra: intra
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i as u64, c))
            .collect(),
        agg,
    }
}

/// Writes fetched or cast cluster → partition rows into the dense map.
fn fill_cpart(cpart: &mut Vec<u32>, keys: &[u64], rows: &[u64]) {
    for (&ck, &p) in keys.iter().zip(rows) {
        if ck as usize >= cpart.len() {
            cpart.resize(ck as usize + 1, 0);
        }
        cpart[ck as usize] = p as u32;
    }
}

/// Exports `keys`' rows of table `slot`, flattened in key order.
fn export_rows(kernel: &dyn StreamKernel, slot: usize, width: u32, keys: &[u64]) -> Vec<u64> {
    let mut rows = vec![0u64; keys.len() * width as usize];
    for (&key, row) in keys.iter().zip(rows.chunks_exact_mut(width as usize)) {
        kernel.export(slot, key as u32, row);
    }
    rows
}

/// What a relaxed worker changed since its last epoch barrier: the loads
/// as of that barrier, and the touched keys, each with its `Add`-table
/// rows as of its first touch (the baselines its deltas are taken
/// against).
struct EpochLog {
    loads: Vec<u64>,
    /// Key → offset of its baseline rows in `baseline`.
    keys: FxHashMap<u64, usize>,
    baseline: Vec<u64>,
}

impl EpochLog {
    fn new(loads: &PartitionLoads) -> Self {
        EpochLog {
            loads: loads.as_slice().to_vec(),
            keys: FxHashMap::default(),
            baseline: Vec::new(),
        }
    }

    fn touch(&mut self, kernel: &dyn StreamKernel, tables: &[KernelTable], key: u64) {
        let Entry::Vacant(slot) = self.keys.entry(key) else {
            return;
        };
        slot.insert(self.baseline.len());
        for (t, def) in tables.iter().enumerate() {
            if def.merge == MergeOp::Add {
                let at = self.baseline.len();
                self.baseline.resize(at + def.width as usize, 0);
                kernel.export(t, key as u32, &mut self.baseline[at..]);
            }
        }
    }

    /// Drains the log into a barrier's payload: the load deltas, and one
    /// [`EpochTable`] per declared table over the touched keys ascending —
    /// deltas for `Add` tables, full rows for the others (`BitOr` is
    /// idempotent, so no baseline is needed).
    fn flush(
        &mut self,
        kernel: &dyn StreamKernel,
        tables: &[KernelTable],
        loads: &PartitionLoads,
    ) -> (Vec<u64>, Vec<EpochTable>) {
        let delta = loads
            .as_slice()
            .iter()
            .zip(&self.loads)
            .map(|(&c, &b)| c.wrapping_sub(b))
            .collect();
        let mut entries: Vec<(u64, usize)> = self.keys.drain().collect();
        entries.sort_unstable();
        let keys: Vec<u64> = entries.iter().map(|&(key, _)| key).collect();
        let mut add_off = 0;
        let out = tables
            .iter()
            .enumerate()
            .map(|(t, def)| {
                let mut rows = export_rows(kernel, t, def.width, &keys);
                if def.merge == MergeOp::Add {
                    let w = def.width as usize;
                    for (row, &(_, at)) in rows.chunks_exact_mut(w).zip(&entries) {
                        let base = &self.baseline[at + add_off..at + add_off + w];
                        for (r, b) in row.iter_mut().zip(base) {
                            *r = r.wrapping_sub(*b);
                        }
                    }
                    add_off += w;
                }
                EpochTable {
                    table: t as u8,
                    merge: def.merge,
                    keys: keys.clone(),
                    rows,
                }
            })
            .collect();
        self.baseline.clear();
        (delta, out)
    }
}

/// Adopts the committed rows of an epoch-sync frame. A committed row
/// folds in this worker's own contribution (an `Add` total or a `BitOr`
/// union), so overwriting the local row loses nothing.
fn adopt_synced(
    kernel: &mut dyn StreamKernel,
    tables: &[KernelTable],
    t: &EpochTable,
) -> Result<()> {
    let Some(def) = tables.get(t.table as usize) else {
        return Err(PartitionError::InvalidParam(format!(
            "epoch sync for unknown table slot {}",
            t.table
        )));
    };
    let w = def.width as usize;
    if t.rows.len() != t.keys.len() * w {
        return Err(PartitionError::InvalidParam(
            "epoch sync payload does not match key count".into(),
        ));
    }
    for (&key, row) in t.keys.iter().zip(t.rows.chunks_exact(w)) {
        kernel.ensure(key as u32)?;
        kernel.import(t.table as usize, key as u32, row);
    }
    Ok(())
}

/// The stream kernel a baseline [`AlgoSpec`] runs, built empty (workers
/// grow their tables on demand); `None` for the algorithms driven
/// otherwise (Mint, CLUGP).
pub(crate) fn stream_kernel(spec: &AlgoSpec, k: u32) -> Result<Option<Box<dyn StreamKernel>>> {
    Ok(Some(match *spec {
        AlgoSpec::Hashing { seed } => Box::new(HashingKernel::new(seed, k)),
        AlgoSpec::Grid { seed } => Box::new(GridKernel::new(seed, k)),
        AlgoSpec::Dbh { seed, max_vertices } => Box::new(DbhKernel::new(0, k, seed, max_vertices)?),
        AlgoSpec::Greedy { max_vertices } => Box::new(GreedyKernel::new(0, k, max_vertices)?),
        AlgoSpec::Hdrf {
            lambda,
            epsilon,
            max_vertices,
        } => Box::new(HdrfKernel::new(
            0,
            k,
            &HdrfConfig {
                lambda,
                epsilon,
                max_vertices,
            },
        )?),
        AlgoSpec::Mint { .. } | AlgoSpec::Clugp { .. } => return Ok(None),
    }))
}
