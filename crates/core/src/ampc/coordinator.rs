//! The coordinator half of the coordinator/worker engine.
//!
//! The coordinator owns no edge data. It splits the input into
//! contiguous per-worker ranges, declares the state-table layouts,
//! sequences the passes as barriers (the streaming token travels worker
//! 0‥N−1 inside each pass), relays cross-worker state traffic (the
//! transports form a star, so a worker reaches a remote shard via a
//! coordinator-forwarded [`Msg::Route`]), and runs the pass-2 work the
//! monolith does between streams: cluster compaction, the cluster graph,
//! and the game/greedy cluster assignment.
//!
//! # Fault tolerance
//!
//! With supervision enabled ([`SuperviseConfig::max_retries`] > 0) the
//! coordinator runs as a [`Supervisor`]: at every pass barrier it commits
//! a [`Checkpoint`] (token + every worker's shards), and when a worker
//! link fails retryably mid-pass — EOF, io error, deadline timeout,
//! undecodable frame — it heals the fleet (probes every worker with
//! `ResetTables`, respawns the dead ones through the host-provided
//! [`Respawner`], reconfigures them) and replays the flow from the last
//! committed barrier. Replay is exact because the pass kernels are
//! deterministic and every worker's state is restored, so a recovered
//! run stays bit-identical to an undisturbed one. Worker-*reported*
//! errors ([`Msg::Err`], e.g. a corrupt pack block) stay fatal: they are
//! deterministic and would only recur. The coordinator itself is not
//! survivable — it holds the only copy of the in-flight pass results.

use super::checkpoint::{load_latest, write_checkpoint, Checkpoint, TableDump};
use super::fault::{FaultInjectingTransport, FaultPlan};
use super::proto::{
    AlgoSpec, BatchOp, EpochTable, InputSpec, Msg, PairsPayload, Stage, StateOp, TableDef, Token,
    WorkerSetup,
};
use super::table::{Layout, MergeOp, DEFAULT_STRIPE};
use super::transport::{NetStats, Transport};
use super::worker::{
    decode_vertex_row, migration_tag, stream_kernel, unexpected, ClugpVertices, T_CPART, T_MAIN,
    VERTEX_ROW,
};
use super::{
    pack_input_specs, split_ranges, AmpcMode, DistConfig, DistInput, SuperviseConfig,
    DEFAULT_EPOCH_CHUNKS,
};
use crate::baselines::{dbh, grid, hashing, HdrfConfig, MintConfig};
use crate::clugp::cluster_graph::{merge_weighted, ClusterGraph};
use crate::clugp::clustering::{compact_clusters, NO_CLUSTER};
use crate::clugp::transform::load_cap;
use crate::clugp::{greedy_assign, solve_game, ClugpConfig, ClusterAssignMode};
use crate::error::{FaultKind, PartitionError, Result};
use crate::partition::Partitioning;
use crate::vertex_table::{cap_error, DEFAULT_MAX_VERTICES};
use clugp_graph::pack::ShardedPackReader;
use clugp_obs::{self as obs, TraceRecord};
use rustc_hash::FxHashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Host-provided factory for a replacement worker link: kills whatever is
/// left of worker `i`, brings up a fresh one (thread or process), and
/// returns the coordinator's end of its transport, ready for `Configure`.
pub type Respawner<'a> = &'a mut dyn FnMut(u32) -> Result<Box<dyn Transport>>;

/// Which partitioner a distributed run executes.
///
/// Every variant is driven through the same per-edge kernel as its
/// monolithic counterpart, so a single-worker run is bit-identical to
/// the corresponding `Partitioner` implementation.
#[derive(Debug, Clone)]
pub enum DistAlgo {
    /// PowerGraph random vertex-cut.
    Hashing {
        /// Hash seed (monolith default when built via [`DistAlgo::hashing`]).
        seed: u64,
    },
    /// 2D constrained hashing.
    Grid {
        /// Hash seed.
        seed: u64,
    },
    /// Degree-based hashing.
    Dbh {
        /// Hash seed.
        seed: u64,
        /// Vertex-id cap (see [`DEFAULT_MAX_VERTICES`]).
        max_vertices: u64,
    },
    /// PowerGraph oblivious greedy.
    Greedy {
        /// Vertex-id cap.
        max_vertices: u64,
    },
    /// High-Degree Replicated First.
    Hdrf(HdrfConfig),
    /// Quasi-streaming game partitioning.
    Mint(MintConfig),
    /// The paper's three-pass pipeline.
    Clugp(ClugpConfig),
}

impl DistAlgo {
    /// Hashing with the monolith's default seed.
    pub fn hashing() -> Self {
        DistAlgo::Hashing {
            seed: hashing::DEFAULT_SEED,
        }
    }

    /// Grid with the monolith's default seed.
    pub fn grid() -> Self {
        DistAlgo::Grid {
            seed: grid::DEFAULT_SEED,
        }
    }

    /// DBH with the monolith's defaults.
    pub fn dbh() -> Self {
        DistAlgo::Dbh {
            seed: dbh::DEFAULT_SEED,
            max_vertices: DEFAULT_MAX_VERTICES,
        }
    }

    /// Greedy with the monolith's defaults.
    pub fn greedy() -> Self {
        DistAlgo::Greedy {
            max_vertices: DEFAULT_MAX_VERTICES,
        }
    }

    /// HDRF with the monolith's defaults.
    pub fn hdrf() -> Self {
        DistAlgo::Hdrf(HdrfConfig::default())
    }

    /// Mint with the monolith's defaults.
    pub fn mint() -> Self {
        DistAlgo::Mint(MintConfig::default())
    }

    /// CLUGP with the monolith's defaults.
    pub fn clugp() -> Self {
        DistAlgo::Clugp(ClugpConfig::default())
    }

    /// The display name, matching the monolithic `Partitioner::name`.
    pub fn name(&self) -> &'static str {
        match self {
            DistAlgo::Hashing { .. } => "Hashing",
            DistAlgo::Grid { .. } => "Grid",
            DistAlgo::Dbh { .. } => "DBH",
            DistAlgo::Greedy { .. } => "Greedy",
            DistAlgo::Hdrf(_) => "HDRF",
            DistAlgo::Mint(_) => "Mint",
            DistAlgo::Clugp(cfg) => match (cfg.splitting, cfg.assign_mode) {
                (true, ClusterAssignMode::Game) => "CLUGP",
                (false, ClusterAssignMode::Game) => "CLUGP-S",
                (true, ClusterAssignMode::Greedy) => "CLUGP-G",
                (false, ClusterAssignMode::Greedy) => "CLUGP-SG",
            },
        }
    }
}

/// The result of a distributed run.
#[derive(Debug)]
pub struct DistOutcome {
    /// The final partitioning — bit-identical to the monolith's for the
    /// same stream.
    pub partitioning: Partitioning,
    /// Bytes/frames exchanged over all coordinator↔worker links,
    /// including links retired by respawns.
    pub net: NetStats,
    /// Worker count the run used.
    pub workers: u32,
    /// Pass replays the supervisor performed (0 on an undisturbed run).
    pub recoveries: u32,
    /// Total microseconds spent persisting barrier checkpoints to disk
    /// (encode + tmp write + fsync + rename). Measured on every run with
    /// a checkpoint directory, traced or not.
    pub ckpt_write_us: u64,
    /// Checkpoints persisted to disk.
    pub ckpt_writes: u64,
    /// Total microseconds spent restoring checkpointed state into the
    /// fleet (reset probes + row republish).
    pub ckpt_restore_us: u64,
    /// Checkpoint restores performed (resumes and recoveries).
    pub ckpt_restores: u64,
    /// Merged observability record: coordinator lane plus one lane per
    /// worker. Empty unless [`super::DistConfig::trace`] was set.
    pub trace: TraceRecord,
}

/// Prefixes retryable fault details with the worker index so a terminal
/// error names the link that died.
fn tag_worker(w: usize, e: PartitionError) -> PartitionError {
    match e {
        PartitionError::Fault { kind, detail } => PartitionError::Fault {
            kind,
            detail: format!("worker {w}: {detail}"),
        },
        other => other,
    }
}

struct Coord {
    conns: Vec<Box<dyn Transport>>,
    /// Stats of links replaced by respawns (their traffic still counts).
    retired: NetStats,
    /// Reused encode buffer for every outgoing frame.
    scratch: Vec<u8>,
    /// Whether this run records observability events.
    trace_on: bool,
    /// The merged record: coordinator events land on lane 0 directly,
    /// worker frames are absorbed in `recv`.
    trace: TraceRecord,
}

impl Coord {
    /// Span start helper: a timestamp when tracing, 0 (unused) otherwise.
    fn t0(&self) -> u64 {
        if self.trace_on {
            obs::now_us()
        } else {
            0
        }
    }

    /// Records a coordinator-lane span ending now.
    fn span(&mut self, name: &str, start_us: u64, arg: u64) {
        if self.trace_on {
            self.trace.push(
                obs::LANE_COORDINATOR,
                obs::Event::span_since(name, start_us, arg),
            );
        }
    }

    /// Records a coordinator-lane point event.
    fn instant(&mut self, name: &str, arg: u64) {
        if self.trace_on {
            self.trace
                .push(obs::LANE_COORDINATOR, obs::Event::instant_now(name, arg));
        }
    }

    /// Merges a worker's flushed event frame into its lane, re-basing the
    /// sender's monotonic timestamps onto the coordinator clock via the
    /// `now_us` the frame was stamped with (multi-process lanes have
    /// unrelated epochs; in-process ones get an offset near zero).
    fn absorb_trace(
        &mut self,
        from: usize,
        frame_now_us: u64,
        dropped: u64,
        events: Vec<obs::Event>,
    ) {
        if !self.trace_on {
            return;
        }
        let offset = obs::now_us() as i64 - frame_now_us as i64;
        let lane = obs::worker_lane(from as u32);
        self.trace.dropped += dropped;
        for mut e in events {
            e.ts_us = (e.ts_us as i64 + offset).max(0) as u64;
            self.trace.push(lane, e);
        }
    }

    fn send(&mut self, to: usize, msg: &Msg) -> Result<()> {
        let mut buf = std::mem::take(&mut self.scratch);
        msg.encode_into(&mut buf);
        let res = self.conns[to].send(&buf).map_err(|e| tag_worker(to, e));
        self.scratch = buf;
        res
    }

    fn recv(&mut self, from: usize) -> Result<Msg> {
        loop {
            let frame = self.conns[from].recv().map_err(|e| tag_worker(from, e))?;
            match Msg::decode(&frame) {
                // The observability side-channel piggybacks on every recv
                // path: absorb it and keep waiting for the frame this call
                // was actually after.
                Ok(Msg::TraceEvents {
                    now_us,
                    dropped,
                    events,
                }) => self.absorb_trace(from, now_us, dropped, events),
                // Proof of life from a quiet worker: it resets the recv
                // deadline simply by having arrived.
                Ok(Msg::Heartbeat) => {}
                // A worker-reported error is deterministic (bad input,
                // corrupt pack): replaying it would only fail again, so it
                // stays fatal.
                Ok(Msg::Err { msg }) => return Err(PartitionError::InvalidParam(msg)),
                Ok(msg) => return Ok(msg),
                // An undecodable frame means the link itself mangled data:
                // a respawn gets a clean stream, so this is retryable.
                Err(e) => {
                    return Err(PartitionError::fault(
                        FaultKind::Corrupt,
                        format!("worker {from}: undecodable frame: {e}"),
                    ))
                }
            }
        }
    }

    fn state_req(&mut self, to: usize, table: u8, op: StateOp) -> Result<Vec<u64>> {
        self.send(to, &Msg::StateReq { table, op })?;
        match self.recv(to)? {
            Msg::StateResp { rows } => Ok(rows),
            other => Err(unexpected(&other)),
        }
    }

    fn scan(&mut self, to: usize, table: u8) -> Result<(Vec<u64>, Vec<u64>)> {
        self.send(to, &Msg::Scan { table })?;
        match self.recv(to)? {
            Msg::ScanResp { keys, rows } => Ok((keys, rows)),
            other => Err(unexpected(&other)),
        }
    }

    /// Concatenates every worker's shard of `table`, in worker order.
    fn scan_all(&mut self, table: u8) -> Result<(Vec<u64>, Vec<u64>)> {
        let (mut keys, mut rows) = (Vec::new(), Vec::new());
        for w in 0..self.conns.len() {
            let (k, r) = self.scan(w, table)?;
            keys.extend(k);
            rows.extend(r);
        }
        Ok((keys, rows))
    }

    /// Writes `(key, row)` pairs to the owning workers' shards of `table`
    /// under `Put`, one upsert per owner.
    fn put_rows<R: AsRef<[u64]>>(
        &mut self,
        table: u8,
        layout: Layout,
        rows: impl Iterator<Item = (u64, R)>,
    ) -> Result<()> {
        let workers = self.conns.len();
        let mut by_owner: Vec<(Vec<u64>, Vec<u64>)> = vec![(Vec::new(), Vec::new()); workers];
        for (key, row) in rows {
            let owner = layout.owner(key, workers as u32) as usize;
            by_owner[owner].0.push(key);
            by_owner[owner].1.extend_from_slice(row.as_ref());
        }
        for (owner, (keys, rows)) in by_owner.into_iter().enumerate() {
            if !keys.is_empty() {
                let op = StateOp::Upsert {
                    merge: MergeOp::Put,
                    keys,
                    rows,
                };
                self.state_req(owner, table, op)?;
            }
        }
        Ok(())
    }

    /// Runs one stage as a barrier: the token travels worker 0‥N−1, and
    /// while worker `w` streams, the coordinator relays its routing
    /// traffic to the owning shards.
    fn run_stage(
        &mut self,
        stage: Stage,
        mut token: Token,
        assignments: &mut Vec<u32>,
        mut pairs_out: Option<&mut Vec<PairsPayload>>,
    ) -> Result<Token> {
        for w in 0..self.conns.len() {
            let msg = Msg::RunStage {
                stage,
                token,
                mode: AmpcMode::Sequenced,
                epoch: 0,
            };
            self.send(w, &msg)?;
            token = loop {
                match self.recv(w)? {
                    Msg::RouteBatch { to, keys, ops } => {
                        let to = to as usize;
                        if to >= self.conns.len() {
                            return Err(PartitionError::InvalidParam(format!(
                                "route target {to} out of range"
                            )));
                        }
                        // Pure-Put batches are fire-and-forget: the owner
                        // applies them without replying, and frame order on
                        // the star links keeps them ahead of later reads.
                        let wants_reply = ops.iter().any(|op| matches!(op, BatchOp::Get { .. }));
                        self.send(to, &Msg::StateReqBatch { keys, ops })?;
                        if wants_reply {
                            match self.recv(to)? {
                                Msg::StateRespBatch { rows } => {
                                    self.send(w, &Msg::RouteReply { rows })?;
                                }
                                other => return Err(unexpected(&other)),
                            }
                        }
                    }
                    Msg::StageDone {
                        token,
                        assignments: part,
                        pairs,
                    } => {
                        assignments.extend(part);
                        if let (Some(out), Some(p)) = (pairs_out.as_deref_mut(), pairs) {
                            out.push(p);
                        }
                        break token;
                    }
                    other => return Err(unexpected(&other)),
                }
            };
        }
        Ok(token)
    }

    /// Relaxed mode: starts `stage` on every worker at once (each gets a
    /// clone of `token0`).
    fn broadcast_stage(&mut self, stage: Stage, token0: &Token, epoch: u32) -> Result<()> {
        for w in 0..self.conns.len() {
            self.send(
                w,
                &Msg::RunStage {
                    stage,
                    token: token0.clone(),
                    mode: AmpcMode::Relaxed,
                    epoch,
                },
            )?;
        }
        Ok(())
    }

    /// Collects one [`Msg::StageDone`] per worker, in worker order (which
    /// is what makes relaxed merges deterministic), returning the tokens.
    fn collect_stage_done(
        &mut self,
        assignments: &mut Vec<u32>,
        mut pairs_out: Option<&mut Vec<PairsPayload>>,
    ) -> Result<Vec<Token>> {
        let mut tokens = Vec::with_capacity(self.conns.len());
        for w in 0..self.conns.len() {
            match self.recv(w)? {
                Msg::StageDone {
                    token,
                    assignments: part,
                    pairs,
                } => {
                    assignments.extend(part);
                    if let (Some(out), Some(p)) = (pairs_out.as_deref_mut(), pairs) {
                        out.push(p);
                    }
                    tokens.push(token);
                }
                other => return Err(unexpected(&other)),
            }
        }
        Ok(tokens)
    }

    /// Drives the epoch barriers of a relaxed stage: each round collects
    /// one [`Msg::EpochDone`] per worker in worker order, folds the deltas
    /// into the committed state, and broadcasts the merged rows for every
    /// key the round touched. Runs until all workers have reported their
    /// final epoch.
    fn run_epoch_rounds(&mut self, k: usize, defs: &[TableDef]) -> Result<()> {
        let workers = self.conns.len();
        let mut committed_loads = vec![0u64; k];
        let mut committed: Vec<FxHashMap<u64, Vec<u64>>> = vec![FxHashMap::default(); defs.len()];
        loop {
            let mut all_last = true;
            let mut touched: Vec<Vec<u64>> = vec![Vec::new(); defs.len()];
            for w in 0..workers {
                let (last, loads, tables) = match self.recv(w)? {
                    Msg::EpochDone {
                        last,
                        loads,
                        tables,
                    } => (last, loads, tables),
                    other => return Err(unexpected(&other)),
                };
                all_last &= last;
                if loads.len() != k {
                    return Err(PartitionError::InvalidParam(
                        "epoch loads do not match partition count".into(),
                    ));
                }
                for (c, d) in committed_loads.iter_mut().zip(&loads) {
                    *c = c.wrapping_add(*d);
                }
                for t in tables {
                    let slot = t.table as usize;
                    let Some(def) = defs.get(slot) else {
                        return Err(PartitionError::InvalidParam(format!(
                            "epoch sync for unknown table slot {}",
                            t.table
                        )));
                    };
                    let width = def.width as usize;
                    if t.rows.len() != t.keys.len() * width {
                        return Err(PartitionError::InvalidParam(
                            "epoch delta payload does not match key count".into(),
                        ));
                    }
                    for (i, &key) in t.keys.iter().enumerate() {
                        let dst = committed[slot]
                            .entry(key)
                            .or_insert_with(|| vec![0u64; width]);
                        t.merge.apply(dst, &t.rows[i * width..(i + 1) * width]);
                    }
                    touched[slot].extend_from_slice(&t.keys);
                }
            }
            let mut sync_tables = Vec::new();
            for (slot, keys) in touched.iter_mut().enumerate() {
                if keys.is_empty() {
                    continue;
                }
                keys.sort_unstable();
                keys.dedup();
                let width = defs[slot].width as usize;
                let mut rows = Vec::with_capacity(keys.len() * width);
                for key in keys.iter() {
                    rows.extend_from_slice(&committed[slot][key]);
                }
                sync_tables.push(EpochTable {
                    table: slot as u8,
                    merge: MergeOp::Put,
                    keys: std::mem::take(keys),
                    rows,
                });
            }
            // Epoch drift: how many distinct keys this reconcile had to
            // merge and rebroadcast (ROADMAP item 4 wants this visible
            // before the EpochSync filtering work can be tuned).
            let drift: u64 = sync_tables.iter().map(|t| t.keys.len() as u64).sum();
            self.instant("epoch_sync", drift);
            for w in 0..workers {
                self.send(
                    w,
                    &Msg::EpochSync {
                        done: all_last,
                        loads: committed_loads.clone(),
                        tables: sync_tables.clone(),
                    },
                )?;
            }
            if all_last {
                return Ok(());
            }
        }
    }

    /// Collects one [`Msg::Pass1Frontier`] per worker, in worker order.
    fn collect_pass1_frontiers(&mut self) -> Result<Vec<Pass1Part>> {
        let mut parts = Vec::with_capacity(self.conns.len());
        for w in 0..self.conns.len() {
            match self.recv(w)? {
                Msg::Pass1Frontier { keys, rows, vol } => {
                    if rows.len() != keys.len() * VERTEX_ROW {
                        return Err(PartitionError::InvalidParam(
                            "pass-1 frontier payload does not match key count".into(),
                        ));
                    }
                    parts.push(Pass1Part { keys, rows, vol });
                }
                other => return Err(unexpected(&other)),
            }
        }
        Ok(parts)
    }
}

/// One worker's locally-clustered pass-1 result (relaxed mode).
struct Pass1Part {
    keys: Vec<u64>,
    rows: Vec<u64>,
    vol: Vec<u64>,
}

/// Applies the scripted fault wrapper for `(worker, incarnation)`, if any.
fn wrap_link(
    faults: &FaultPlan,
    worker: u32,
    incarnation: u32,
    link: Box<dyn Transport>,
) -> Box<dyn Transport> {
    match faults.script(worker, incarnation) {
        Some(script) => Box::new(FaultInjectingTransport::new(link, script.clone())),
        None => link,
    }
}

/// The coordinator's supervision state: the live links, the policy, the
/// last committed barrier checkpoint, and everything needed to respawn
/// and reconfigure a worker ([`WorkerSetup`]s, incarnation counters, the
/// fault plan for wrapping replacement links).
struct Supervisor<'a> {
    coord: Coord,
    policy: SuperviseConfig,
    faults: FaultPlan,
    respawn: Option<Respawner<'a>>,
    /// Retained setups for reconfiguring respawned workers. Only kept
    /// when `max_retries > 0` (inline inputs make this a full copy of the
    /// edge stream).
    setups: Vec<WorkerSetup>,
    incarnation: Vec<u32>,
    table_defs: Vec<TableDef>,
    /// Last committed checkpoint; recovery replays the flow from here.
    last: Option<Checkpoint>,
    ckpt_dir: Option<PathBuf>,
    recoveries: u32,
    /// Checkpoint persist/restore durations, accumulated on every run
    /// (the metrics snapshot and the bench fault leg report them even
    /// when event tracing is off).
    ckpt_write_us: u64,
    ckpt_writes: u64,
    ckpt_restore_us: u64,
    ckpt_restores: u64,
    // Checkpoint fingerprint, filled in by `drive`. Relaxed runs use a
    // distinct "<name>+relaxed" fingerprint: their checkpoints are not
    // interchangeable with sequenced ones.
    algo_name: String,
    k: u32,
    m: u64,
    n_hint: u64,
}

impl<'a> Supervisor<'a> {
    fn new(
        conns: Vec<Box<dyn Transport>>,
        algo_name: String,
        cfg: &DistConfig,
        respawn: Option<Respawner<'a>>,
    ) -> Supervisor<'a> {
        let n = conns.len();
        let policy = cfg.supervise.clone();
        let faults = cfg.faults.clone();
        let deadline = deadline_of(&policy);
        let conns: Vec<Box<dyn Transport>> = conns
            .into_iter()
            .enumerate()
            .map(|(w, link)| {
                let mut link = wrap_link(&faults, w as u32, 0, link);
                if deadline.is_some() {
                    link.set_deadline(deadline);
                }
                link
            })
            .collect();
        Supervisor {
            coord: Coord {
                conns,
                retired: NetStats::default(),
                scratch: Vec::new(),
                trace_on: cfg.trace,
                trace: TraceRecord::default(),
            },
            policy,
            faults,
            respawn,
            setups: Vec::new(),
            incarnation: vec![0; n],
            table_defs: Vec::new(),
            last: None,
            ckpt_dir: cfg.checkpoint_dir.clone(),
            recoveries: 0,
            ckpt_write_us: 0,
            ckpt_writes: 0,
            ckpt_restore_us: 0,
            ckpt_restores: 0,
            algo_name,
            k: 0,
            m: 0,
            n_hint: 0,
        }
    }

    fn workers(&self) -> u32 {
        self.coord.conns.len() as u32
    }

    /// Whether barriers commit checkpoints. On when recovery could use
    /// them (retries allowed) or the user asked for them on disk.
    fn checkpointing(&self) -> bool {
        self.policy.max_retries > 0 || self.ckpt_dir.is_some()
    }

    fn can_retry(&self) -> bool {
        self.recoveries < self.policy.max_retries
    }

    /// Backs off (exponentially), then probes every worker and respawns
    /// the dead ones. After `heal` the fleet is uniformly configured and
    /// empty, ready for [`Supervisor::restore`].
    fn recover(&mut self) -> Result<()> {
        self.recoveries += 1;
        self.coord.instant("retry", u64::from(self.recoveries));
        let exp = self.recoveries.saturating_sub(1).min(16);
        let wait = self.policy.backoff.saturating_mul(1u32 << exp);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        self.heal()
    }

    fn heal(&mut self) -> Result<()> {
        for w in 0..self.coord.conns.len() {
            // The probe doubles as the reset: a live worker answers
            // `ResetOk` and is left empty; anything else — timeout, EOF,
            // a stale frame from the aborted pass — condemns the link.
            if self.probe_reset(w).is_ok() {
                continue;
            }
            self.respawn_worker(w)?;
        }
        Ok(())
    }

    fn probe_reset(&mut self, w: usize) -> Result<()> {
        self.coord.send(w, &Msg::ResetTables)?;
        match self.coord.recv(w)? {
            Msg::ResetOk => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    fn respawn_worker(&mut self, w: usize) -> Result<()> {
        let Some(respawn) = self.respawn.as_mut() else {
            return Err(PartitionError::fault(
                FaultKind::Disconnected,
                format!("worker {w} is unresponsive and the host provides no respawner"),
            ));
        };
        if w >= self.setups.len() {
            return Err(PartitionError::fault(
                FaultKind::Disconnected,
                format!("worker {w} lost before its setup was retained"),
            ));
        }
        self.coord.retired.merge(self.coord.conns[w].stats());
        self.coord.instant("respawn", w as u64);
        let link = respawn(w as u32).map_err(|e| tag_worker(w, e))?;
        self.incarnation[w] += 1;
        let mut link = wrap_link(&self.faults, w as u32, self.incarnation[w], link);
        let deadline = deadline_of(&self.policy);
        if deadline.is_some() {
            link.set_deadline(deadline);
        }
        self.coord.conns[w] = link;
        self.coord
            .send(w, &Msg::Configure(Box::new(self.setups[w].clone())))?;
        match self.coord.recv(w)? {
            Msg::ConfigureOk => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Enters barrier `seq`: on a resume targeting exactly this barrier,
    /// restores the checkpointed state and token; otherwise commits a
    /// fresh checkpoint of the current state and hands back `fresh`.
    fn enter_segment(
        &mut self,
        seq: u64,
        stage: Stage,
        fresh: Token,
        resume: Option<&Checkpoint>,
        m_real: u64,
        num_clusters: u64,
    ) -> Result<Token> {
        if let Some(ck) = resume {
            if ck.seq == seq {
                self.restore(ck)?;
                return Ok(ck.token.clone());
            }
        }
        self.barrier(seq, stage, &fresh, m_real, num_clusters)?;
        Ok(fresh)
    }

    /// Commits a checkpoint of the complete distributed state. `m_real`
    /// and `num_clusters` carry the coordinator-side scalars a replay
    /// needs to skip finished segments.
    fn barrier(
        &mut self,
        seq: u64,
        stage: Stage,
        token: &Token,
        m_real: u64,
        num_clusters: u64,
    ) -> Result<()> {
        if !self.checkpointing() {
            return Ok(());
        }
        let defs = self.table_defs.clone();
        let mut tables = Vec::with_capacity(defs.len());
        for (t, def) in defs.iter().enumerate() {
            // At the first barrier every table is still factory-empty, so
            // an empty dump (restore = plain reset) is exact.
            let (keys, rows) = if seq > 1 {
                self.coord.scan_all(t as u8)?
            } else {
                (Vec::new(), Vec::new())
            };
            tables.push(TableDump {
                width: def.width,
                keys,
                rows,
            });
        }
        let ck = Checkpoint {
            seq,
            stage,
            token: token.clone(),
            algo: self.algo_name.clone(),
            k: self.k,
            m: self.m,
            n_hint: self.n_hint,
            m_real,
            num_clusters,
            tables,
        };
        if let Some(dir) = &self.ckpt_dir {
            let t0 = self.coord.t0();
            let started = Instant::now();
            write_checkpoint(dir, &ck)?;
            self.ckpt_write_us += started.elapsed().as_micros() as u64;
            self.ckpt_writes += 1;
            self.coord.span("checkpoint:write", t0, seq);
        }
        self.last = Some(ck);
        Ok(())
    }

    /// Resets every worker and republishes the checkpointed rows to the
    /// owning shards. A mid-pass failure leaves *all* workers dirty (the
    /// sequenced earlier workers already published), so restore always
    /// rebuilds the whole fleet, not just the respawned links.
    fn restore(&mut self, ck: &Checkpoint) -> Result<()> {
        let t0 = self.coord.t0();
        let started = Instant::now();
        for w in 0..self.coord.conns.len() {
            self.probe_reset(w)?;
        }
        let defs = self.table_defs.clone();
        for (t, dump) in ck.tables.iter().enumerate() {
            let Some(def) = defs.get(t) else {
                return Err(PartitionError::InvalidParam(format!(
                    "checkpoint has {} tables but the run declares {}",
                    ck.tables.len(),
                    defs.len()
                )));
            };
            if dump.rows.len() != dump.keys.len() * def.width as usize {
                return Err(PartitionError::InvalidParam(format!(
                    "checkpoint table {t} rows do not match its key count"
                )));
            }
            let rows = dump.keys.iter().copied();
            let rows = rows.zip(dump.rows.chunks_exact(def.width as usize));
            self.coord.put_rows(t as u8, def.layout, rows)?;
        }
        self.ckpt_restore_us += started.elapsed().as_micros() as u64;
        self.ckpt_restores += 1;
        self.coord.span("checkpoint:restore", t0, ck.seq);
        Ok(())
    }

    fn shutdown(&mut self) {
        for w in 0..self.coord.conns.len() {
            let _ = self.coord.send(w, &Msg::Shutdown);
        }
    }

    fn net(&self) -> NetStats {
        let mut net = self.coord.retired;
        for conn in &self.coord.conns {
            net.merge(conn.stats());
        }
        net
    }
}

/// The per-link recv/send deadline, when supervision needs one. Active
/// retries force a bound even without an explicit timeout: probing a
/// possibly-dead worker must not hang.
fn deadline_of(policy: &SuperviseConfig) -> Option<Duration> {
    if policy.worker_timeout.is_some() || policy.max_retries > 0 {
        Some(policy.effective_timeout())
    } else {
        None
    }
}

/// Runs the coordinator over `conns` (one transport per worker) and
/// returns the merged outcome. Workers are always sent `Shutdown`, even
/// when the run fails, so hosting threads can join. `respawn`, when
/// provided, lets the supervisor replace a dead worker mid-run (see the
/// module docs on fault tolerance).
pub fn run_coordinator(
    conns: Vec<Box<dyn Transport>>,
    algo: &DistAlgo,
    input: DistInput<'_>,
    k: u32,
    cfg: &DistConfig,
    respawn: Option<Respawner<'_>>,
) -> Result<DistOutcome> {
    let workers = conns.len() as u32;
    let algo_name = match cfg.mode {
        AmpcMode::Sequenced => algo.name().to_string(),
        AmpcMode::Relaxed => format!("{}+relaxed", algo.name()),
    };
    let mut sup = Supervisor::new(conns, algo_name, cfg, respawn);
    let result = drive(&mut sup, algo, input, k, cfg);
    sup.shutdown();
    Ok(DistOutcome {
        partitioning: result?,
        net: sup.net(),
        workers,
        recoveries: sup.recoveries,
        ckpt_write_us: sup.ckpt_write_us,
        ckpt_writes: sup.ckpt_writes,
        ckpt_restore_us: sup.ckpt_restore_us,
        ckpt_restores: sup.ckpt_restores,
        trace: std::mem::take(&mut sup.coord.trace),
    })
}

/// Monolith-parity check for the vertex-id cap: the monolith fails when
/// its table hint exceeds the (clamped) cap, before streaming an edge.
fn check_cap(n_hint: u64, limit: u64, what: &str) -> Result<()> {
    let cap = limit.min(DEFAULT_MAX_VERTICES);
    if n_hint > cap {
        return Err(cap_error(what, n_hint, cap));
    }
    Ok(())
}

fn drive(
    sup: &mut Supervisor<'_>,
    algo: &DistAlgo,
    input: DistInput<'_>,
    k: u32,
    cfg: &DistConfig,
) -> Result<Partitioning> {
    let workers = sup.workers();
    // Same validation order as the monolith: config first, then k, then
    // algorithm-specific parameter checks, then the table-cap check.
    if let DistAlgo::Clugp(cfg) = algo {
        cfg.validate()?;
    }
    if k == 0 {
        return Err(PartitionError::InvalidParam("k must be at least 1".into()));
    }
    if let DistAlgo::Mint(cfg) = algo {
        if cfg.batch_size == 0 {
            return Err(PartitionError::InvalidParam(
                "batch_size must be positive".into(),
            ));
        }
    }

    let (n_hint, m_hint, inputs) = match input {
        DistInput::Edges {
            num_vertices,
            edges,
        } => {
            let specs: Vec<InputSpec> = split_ranges(edges.len() as u64, workers)
                .into_iter()
                .map(|(s, e)| InputSpec::Inline {
                    edges: edges[s as usize..e as usize].to_vec(),
                })
                .collect();
            (num_vertices, edges.len() as u64, specs)
        }
        DistInput::Pack(path) => {
            let (n, m) = {
                let reader = ShardedPackReader::open(path)?;
                (reader.header().num_vertices, reader.header().num_edges)
            };
            (n, m, pack_input_specs(path, workers)?)
        }
    };

    let algo_spec = match algo {
        DistAlgo::Hashing { seed } => AlgoSpec::Hashing { seed: *seed },
        DistAlgo::Grid { seed } => AlgoSpec::Grid { seed: *seed },
        DistAlgo::Dbh { seed, max_vertices } => AlgoSpec::Dbh {
            seed: *seed,
            max_vertices: *max_vertices,
        },
        DistAlgo::Greedy { max_vertices } => AlgoSpec::Greedy {
            max_vertices: *max_vertices,
        },
        DistAlgo::Hdrf(cfg) => AlgoSpec::Hdrf {
            lambda: cfg.lambda,
            epsilon: cfg.epsilon,
            max_vertices: cfg.max_vertices,
        },
        DistAlgo::Mint(cfg) => AlgoSpec::Mint {
            batch: cfg.batch_size as u64,
            wave: cfg.wave_width as u64,
            threads: cfg.threads as u64,
            rounds: cfg.max_rounds as u64,
            alpha: cfg.balance_weight,
            seed: cfg.seed,
        },
        DistAlgo::Clugp(cfg) => AlgoSpec::Clugp {
            splitting: cfg.splitting,
            migration: migration_tag(cfg.migration),
            max_vertices: cfg.max_vertices,
        },
    };

    // A stream kernel declares its own tables and vertex cap; CLUGP's
    // three tables are fixed by its passes.
    let kernel = stream_kernel(&algo_spec, k)?;
    if let Some((limit, what)) = kernel.as_ref().and_then(|kn| kn.vertex_cap()) {
        check_cap(n_hint, limit, what)?;
    }
    if let DistAlgo::Clugp(cfg) = algo {
        check_cap(n_hint, cfg.max_vertices, "num_vertices hint")?;
    }
    let vrange = Layout::range_for(n_hint, workers);
    let striped = Layout::Striped {
        stripe: DEFAULT_STRIPE,
    };
    let tables: Vec<TableDef> = match (&kernel, algo) {
        (Some(kernel), _) => kernel
            .tables()
            .iter()
            .map(|t| TableDef {
                layout: vrange,
                width: t.width,
            })
            .collect(),
        (None, DistAlgo::Clugp(_)) => vec![
            TableDef {
                layout: vrange,
                width: VERTEX_ROW as u32,
            },
            TableDef {
                layout: striped,
                width: 1,
            },
            TableDef {
                layout: striped,
                width: 1,
            },
        ],
        (None, _) => Vec::new(),
    };
    // Kernels reconcile their tables and loads at relaxed epoch barriers
    // unless they declare otherwise (Hashing); Mint streams straight to
    // StageDone.
    let epoch_synced = kernel.as_ref().is_some_and(|kn| kn.epoch_synced());

    let heartbeat_ms = cfg.supervise.heartbeat_ms();
    let mut setups = Vec::with_capacity(workers as usize);
    for (w, input) in inputs.into_iter().enumerate() {
        setups.push(WorkerSetup {
            worker: w as u32,
            workers,
            k,
            chunk: cfg.chunk_edges.min(u32::MAX as usize) as u32,
            heartbeat_ms,
            algo: algo_spec.clone(),
            input,
            tables: tables.clone(),
            trace: cfg.trace,
        });
    }
    for (w, setup) in setups.iter().enumerate() {
        sup.coord
            .send(w, &Msg::Configure(Box::new(setup.clone())))?;
    }
    for w in 0..workers as usize {
        match sup.coord.recv(w)? {
            Msg::ConfigureOk => {}
            other => return Err(unexpected(&other)),
        }
    }

    sup.table_defs = tables;
    sup.k = k;
    sup.m = m_hint;
    sup.n_hint = n_hint;
    if sup.policy.max_retries > 0 {
        // Only retained when a respawn could need to re-Configure.
        sup.setups = setups;
    }

    let mut resume: Option<Checkpoint> = if cfg.resume {
        let Some(dir) = &sup.ckpt_dir else {
            return Err(PartitionError::InvalidParam(
                "resume requires a checkpoint directory".into(),
            ));
        };
        load_latest(dir, &sup.algo_name, k, m_hint)
    } else {
        None
    };

    let mode = cfg.mode;
    let epoch = if cfg.epoch_chunks == 0 {
        DEFAULT_EPOCH_CHUNKS
    } else {
        cfg.epoch_chunks
    };

    // The recovery loop: replay the flow from the last committed barrier
    // until it finishes, a fault exhausts the retry budget, or a fatal
    // (deterministic) error surfaces.
    loop {
        let attempt = match algo {
            DistAlgo::Clugp(cfg) => {
                clugp_flow(sup, cfg, n_hint, m_hint, k, resume.as_ref(), mode, epoch)
            }
            _ => baseline_flow(sup, epoch_synced, n_hint, k, resume.as_ref(), mode, epoch),
        };
        match attempt {
            Ok(p) => return Ok(p),
            Err(e) if e.is_retryable() && sup.can_retry() => {
                sup.recover()?;
                resume = sup.last.clone();
            }
            Err(e) => return Err(e),
        }
    }
}

/// Single-stage baselines behind one barrier: a replay restarts the whole
/// (only) pass from an empty-table state.
#[allow(clippy::too_many_arguments)]
fn baseline_flow(
    sup: &mut Supervisor<'_>,
    epoch_synced: bool,
    n_hint: u64,
    k: u32,
    resume: Option<&Checkpoint>,
    mode: AmpcMode,
    epoch: u32,
) -> Result<Partitioning> {
    let stage = Stage::Baseline;
    let fresh = Token {
        loads: vec![0; k as usize],
        ..Default::default()
    };
    let token0 = sup.enter_segment(1, stage, fresh, resume, 0, 0)?;
    let t0 = sup.coord.t0();
    let mut assignments = Vec::new();
    let token = match mode {
        AmpcMode::Sequenced => sup.coord.run_stage(stage, token0, &mut assignments, None)?,
        AmpcMode::Relaxed => {
            sup.coord.broadcast_stage(stage, &token0, epoch)?;
            // Epoch-synced algos exchange deltas mid-stage; the others
            // (Hashing, Mint) just stream to StageDone and the coordinator
            // sums their load tallies.
            if epoch_synced {
                let defs = sup.table_defs.clone();
                sup.coord.run_epoch_rounds(k as usize, &defs)?;
            }
            let tokens = sup.coord.collect_stage_done(&mut assignments, None)?;
            merge_relaxed_tokens(tokens, !epoch_synced)
        }
    };
    sup.coord
        .span("pass:baseline", t0, assignments.len() as u64);
    Ok(Partitioning {
        k,
        // Kernels report their table length in the token; the others
        // leave it 0.
        num_vertices: n_hint.max(token.table_len),
        assignments,
        loads: token.loads,
    })
}

/// Folds per-worker relaxed tokens into one, in worker order. Loads are
/// summed only when the stage did not epoch-sync them (epoch-synced
/// stages already return the committed totals in every token).
fn merge_relaxed_tokens(tokens: Vec<Token>, sum_loads: bool) -> Token {
    let mut iter = tokens.into_iter();
    let mut merged = iter.next().unwrap_or_default();
    for t in iter {
        if sum_loads {
            for (a, b) in merged.loads.iter_mut().zip(&t.loads) {
                *a = a.wrapping_add(*b);
            }
        }
        merged.cursor = merged.cursor.max(t.cursor);
        merged.next_raw += t.next_raw;
        merged.splits += t.splits;
        merged.migrations += t.migrations;
        merged.reroutes += t.reroutes;
        merged.table_len = merged.table_len.max(t.table_len);
    }
    merged
}

/// Merges locally-clustered pass-1 frontiers into global vertex state.
///
/// Each worker's raw cluster ids are offset by the running total, so ids
/// stay distinct. A vertex claimed by several workers (it appears in more
/// than one range) goes to the cluster with the larger volume, ties to
/// the lower-indexed worker (strict `>` while scanning workers in
/// ascending order); degrees sum and divided-flags OR across claims.
/// Returns the global raw-cluster count.
fn merge_pass1_frontiers(parts: Vec<Pass1Part>, vs: &mut ClugpVertices) -> Result<u64> {
    let total: u64 = parts.iter().map(|p| p.vol.len() as u64).sum();
    if total >= u64::from(NO_CLUSTER) {
        return Err(PartitionError::InvalidParam(format!(
            "relaxed pass 1 produced {total} raw clusters, above the id limit"
        )));
    }
    let mut vols: Vec<u64> = Vec::with_capacity(total as usize);
    for p in &parts {
        vols.extend_from_slice(&p.vol);
    }
    // The winning claim's volume per vertex, keyed by vertex id.
    let mut best_vol: FxHashMap<u32, u64> = FxHashMap::default();
    let mut base = 0u64;
    for p in &parts {
        for (&key, row) in p.keys.iter().zip(p.rows.chunks_exact(VERTEX_ROW)) {
            let v = key as u32;
            vs.ensure(v)?;
            let (local, d, dv) = decode_vertex_row(row);
            vs.degree[v] = vs.degree[v].saturating_add(d);
            vs.divided[v] |= dv;
            if local != NO_CLUSTER {
                let c = (base + u64::from(local)) as u32;
                let cv = vols[c as usize];
                let cur = best_vol.get(&v).copied();
                if cur.is_none_or(|b| cv > b) {
                    best_vol.insert(v, cv);
                    vs.cluster_of[v] = c;
                }
            }
        }
        base += p.vol.len() as u64;
    }
    Ok(total)
}

/// Scans a striped/ranged table off every worker's shards and broadcasts
/// the concatenation to the whole fleet as a read-only [`Msg::TableCast`]
/// mirror for the next relaxed stage.
fn cast_table(sup: &mut Supervisor<'_>, table: u8) -> Result<()> {
    let (keys, rows) = sup.coord.scan_all(table)?;
    for w in 0..sup.coord.conns.len() {
        sup.coord.send(
            w,
            &Msg::TableCast {
                table,
                keys: keys.clone(),
                rows: rows.clone(),
            },
        )?;
    }
    Ok(())
}

/// The CLUGP three-pass flow: pass 1 streams clustering through the
/// sharded vertex/volume tables; the coordinator then compacts clusters
/// (recomputing dense volumes from degrees), republishes dense rows,
/// collects the sharded cluster-graph partials, solves the game, pushes
/// the cluster→partition map, and runs the transformation pass.
///
/// The flow is segmented at three barriers (before pass 1, pass 2a, and
/// pass 3); `resume` — from crash recovery or `--resume` — skips segments
/// the checkpoint already finished, carrying `m_real` / `num_clusters`
/// from it instead of recomputing them.
#[allow(clippy::too_many_arguments)]
fn clugp_flow(
    sup: &mut Supervisor<'_>,
    cfg: &ClugpConfig,
    n_hint: u64,
    m_hint: u64,
    k: u32,
    resume: Option<&Checkpoint>,
    mode: AmpcMode,
    epoch: u32,
) -> Result<Partitioning> {
    let workers = sup.workers();
    let relaxed = mode == AmpcMode::Relaxed;
    let target = resume.map_or(0, |ck| ck.seq);
    let m_real: u64;
    let num_clusters: u64;

    if target > 1 {
        let ck = resume.expect("target > 1 implies a checkpoint");
        m_real = ck.m_real;
        num_clusters = ck.num_clusters;
    } else {
        // Pass 1 (same hint rule as the monolith: no length hint disables
        // splitting by an effectively infinite vmax).
        let vmax = if m_hint > 0 {
            cfg.vmax(m_hint, k)
        } else {
            u64::MAX
        };
        let stage = Stage::ClugpPass1 { vmax };
        let token0 = sup.enter_segment(1, stage, Token::default(), resume, 0, 0)?;
        let t0 = sup.coord.t0();

        // Assemble the authoritative vertex state: sequenced runs scan the
        // sharded tables; relaxed runs merge the locally-clustered
        // frontiers every worker ships ahead of StageDone.
        let mut vs = ClugpVertices::new(n_hint, cfg.max_vertices)?;
        let mut no_assign = Vec::new();
        let raw_count = if relaxed {
            sup.coord.broadcast_stage(stage, &token0, epoch)?;
            let parts = sup.coord.collect_pass1_frontiers()?;
            sup.coord.collect_stage_done(&mut no_assign, None)?;
            merge_pass1_frontiers(parts, &mut vs)? as usize
        } else {
            let token = sup.coord.run_stage(stage, token0, &mut no_assign, None)?;
            for w in 0..workers as usize {
                let (keys, rows) = sup.coord.scan(w, T_MAIN)?;
                if rows.len() != keys.len() * VERTEX_ROW {
                    return Err(PartitionError::InvalidParam(
                        "pass-1 scan payload does not match key count".into(),
                    ));
                }
                for (&key, row) in keys.iter().zip(rows.chunks_exact(VERTEX_ROW)) {
                    vs.import(key as u32, row)?;
                }
            }
            token.next_raw as usize
        };
        // Exact edge count, independent of the hint (each edge added 2).
        m_real = vs.degree.iter().map(|&d| u64::from(d)).sum::<u64>() / 2;

        // Pass 2a prelude: dense cluster ids (volumes recomputed from
        // degrees, so the raw volume table is no longer needed).
        let (nc, _volumes) = compact_clusters(&mut vs.cluster_of, &vs.degree, raw_count);
        num_clusters = u64::from(nc);

        // Republish dense vertex rows for every vertex so passes 2b/3
        // see dense ids wherever they fetch from.
        let rows = (0..vs.cluster_of.len()).map(|v| (v, vs.export(v as u32)));
        let layout = sup.table_defs[T_MAIN as usize].layout;
        sup.coord.put_rows(T_MAIN, layout, rows)?;
        // Pass 1 proper plus the coordinator's compaction/republish work
        // between passes — the "streaming clustering" half of Fig. 10.
        sup.coord.span("pass:pass1", t0, m_real);
    }

    if target <= 2 {
        // Pass 2a: the cluster graph, from per-worker partials merged in
        // worker (= stream) order.
        let stage = Stage::ClugpPairs { num_clusters };
        let token0 = sup.enter_segment(2, stage, Token::default(), resume, m_real, num_clusters)?;
        let t0 = sup.coord.t0();
        let mut no_assign = Vec::new();
        let mut pairs: Vec<PairsPayload> = Vec::new();
        if relaxed {
            // The cast must follow enter_segment: a resumed run restores
            // the shards first, and the scan reads the restored rows.
            cast_table(sup, T_MAIN)?;
            sup.coord.broadcast_stage(stage, &token0, epoch)?;
            sup.coord
                .collect_stage_done(&mut no_assign, Some(&mut pairs))?;
        } else {
            sup.coord
                .run_stage(stage, token0, &mut no_assign, Some(&mut pairs))?;
        }
        let mut intra = vec![0u64; num_clusters as usize];
        let mut agg: Vec<(u64, u32)> = Vec::new();
        for part in &pairs {
            for &(c, w) in &part.intra {
                intra[c as usize] += w;
            }
            agg = merge_weighted(&agg, &part.agg);
        }
        let cg = ClusterGraph::from_parts(num_clusters as u32, intra, &agg);

        // Pass 2b: cluster → partition.
        let cluster_partition = match cfg.assign_mode {
            ClusterAssignMode::Game => solve_game(&cg, k, cfg)?.partition_of,
            ClusterAssignMode::Greedy => greedy_assign::greedy_assign(&cg, k),
        };
        let rows = cluster_partition
            .iter()
            .enumerate()
            .map(|(c, &p)| (c as u64, [u64::from(p)]));
        let layout = sup.table_defs[T_CPART as usize].layout;
        sup.coord.put_rows(T_CPART, layout, rows)?;
        // Cluster graph + game/greedy assignment + map publish — the
        // "partitioning" half of Fig. 10.
        sup.coord.span("pass:pairs", t0, num_clusters);
    }

    // Pass 3: partition transformation under the balance cap.
    let lmax = load_cap(cfg.tau, m_real, k);
    let stage = Stage::ClugpTransform { lmax };
    let token0 = sup.enter_segment(
        3,
        stage,
        Token {
            loads: vec![0; k as usize],
            ..Default::default()
        },
        resume,
        m_real,
        num_clusters,
    )?;
    let t0 = sup.coord.t0();
    let mut assignments = Vec::new();
    let token = if relaxed {
        cast_table(sup, T_MAIN)?;
        cast_table(sup, T_CPART)?;
        sup.coord.broadcast_stage(stage, &token0, epoch)?;
        let tokens = sup.coord.collect_stage_done(&mut assignments, None)?;
        merge_relaxed_tokens(tokens, true)
    } else {
        sup.coord.run_stage(stage, token0, &mut assignments, None)?
    };
    sup.coord
        .span("pass:transform", t0, assignments.len() as u64);
    Ok(Partitioning {
        k,
        // `table_len` is the max vertex id (+1) any worker saw — the same
        // quantity the monolith reads off its table — so this matches the
        // pre-supervision `n_hint.max(cluster_of.len())` while staying
        // computable on a resumed run that never scanned pass-1 state.
        num_vertices: n_hint.max(token.table_len),
        assignments,
        loads: token.loads,
    })
}
