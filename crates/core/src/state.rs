//! Mutable partitioning state shared by the algorithms: the replica table
//! (`P(v)` sets) and partition load tracking.

use crate::error::Result;
use crate::vertex_table::{cap_error, DEFAULT_MAX_VERTICES};
use clugp_graph::types::VertexId;

/// Per-vertex replica counts at the narrowest width that can hold `k`:
/// `u16` rows when `k ≤ u16::MAX` (every experiment in the paper), `u32`
/// rows beyond. A count is bounded by `k`, so the width is decided once at
/// construction — half the count bytes on the common path, still safe for
/// `k > 65535`.
#[derive(Debug, Clone)]
enum Counts {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl Counts {
    fn with_len(len: usize, k: u32) -> Self {
        if k <= u32::from(u16::MAX) {
            Counts::Narrow(vec![0; len])
        } else {
            Counts::Wide(vec![0; len])
        }
    }

    fn len(&self) -> usize {
        match self {
            Counts::Narrow(v) => v.len(),
            Counts::Wide(v) => v.len(),
        }
    }

    fn resize(&mut self, len: usize) {
        match self {
            Counts::Narrow(v) => v.resize(len, 0),
            Counts::Wide(v) => v.resize(len, 0),
        }
    }

    #[inline]
    fn get(&self, v: usize) -> u32 {
        match self {
            Counts::Narrow(c) => u32::from(c[v]),
            Counts::Wide(c) => c[v],
        }
    }

    /// Increments the count of `v`, returning the previous value.
    #[inline]
    fn bump(&mut self, v: usize) -> u32 {
        match self {
            // Cannot wrap: counts are bounded by k ≤ u16::MAX in this arm.
            Counts::Narrow(c) => {
                let prev = c[v];
                c[v] = prev + 1;
                u32::from(prev)
            }
            Counts::Wide(c) => {
                let prev = c[v];
                c[v] = prev + 1;
                prev
            }
        }
    }

    #[inline]
    fn set(&mut self, v: usize, c: u32) {
        match self {
            // Safe: counts are bounded by k ≤ u16::MAX in this arm.
            Counts::Narrow(vec) => vec[v] = c as u16,
            Counts::Wide(vec) => vec[v] = c,
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            Counts::Narrow(v) => v.capacity() * 2,
            Counts::Wide(v) => v.capacity() * 4,
        }
    }
}

/// Tracks, for every vertex, the set of partitions holding a replica of it —
/// the `P(v)` of the paper — as one bitset row of `ceil(k/64)` words per
/// vertex plus a per-vertex count.
///
/// This is simultaneously (a) the evaluation structure behind the
/// replication factor and (b) the "global status table" that the
/// heuristic-based baselines (Greedy, HDRF) must maintain, which is exactly
/// the state the paper charges them for in the memory experiment (Fig. 6).
///
/// Vertices are compact internal ids (see `clugp_graph::idmap`); sizing is
/// checked (`k × n` cannot overflow into a silent misallocation) and growth
/// is capped by a `max_vertices` limit, so adversarial id/dimension requests
/// fail with a clean error instead of aborting.
#[derive(Debug, Clone)]
pub struct ReplicaTable {
    words_per_row: usize,
    k: u32,
    bits: Vec<u64>,
    counts: Counts,
    limit: u64,
    total_replicas: u64,
    touched_vertices: u64,
}

/// Checked `words_per_row × num_vertices`, failing cleanly when the product
/// exceeds the cap-independent addressable size (the satellite guard for
/// 32-bit-usize targets).
fn checked_words(words_per_row: usize, num_vertices: u64, k: u32) -> Result<usize> {
    (words_per_row as u64)
        .checked_mul(num_vertices)
        .and_then(|w| usize::try_from(w).ok())
        .ok_or_else(|| {
            crate::error::PartitionError::InvalidParam(format!(
                "replica table of k={k} × n={num_vertices} overflows addressable memory"
            ))
        })
}

impl ReplicaTable {
    /// Creates an empty table for `num_vertices` vertices and `k` partitions
    /// with the [`DEFAULT_MAX_VERTICES`] growth limit.
    ///
    /// # Errors
    ///
    /// [`crate::error::PartitionError::InvalidParam`] if `num_vertices`
    /// exceeds the limit or `k × n` overflows addressable memory.
    pub fn new(num_vertices: u64, k: u32) -> Result<Self> {
        Self::with_limit(num_vertices, k, DEFAULT_MAX_VERTICES)
    }

    /// Creates an empty table with an explicit `max_vertices` growth limit.
    pub fn with_limit(num_vertices: u64, k: u32, limit: u64) -> Result<Self> {
        let limit = limit.min(DEFAULT_MAX_VERTICES);
        if num_vertices > limit {
            return Err(cap_error("num_vertices", num_vertices, limit));
        }
        let words_per_row = (k as usize).div_ceil(64).max(1);
        let words = checked_words(words_per_row, num_vertices, k)?;
        Ok(ReplicaTable {
            words_per_row,
            k,
            bits: vec![0; words],
            counts: Counts::with_len(num_vertices as usize, k),
            limit,
            total_replicas: 0,
            touched_vertices: 0,
        })
    }

    /// Number of partitions this table was sized for.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The configured growth limit.
    pub(crate) fn limit(&self) -> u64 {
        self.limit
    }

    /// Number of vertices this table was sized for.
    pub fn num_vertices(&self) -> u64 {
        self.counts.len() as u64
    }

    /// Grows the table to cover at least `num_vertices` vertices.
    ///
    /// # Errors
    ///
    /// [`crate::error::PartitionError::InvalidParam`] if the request exceeds
    /// the `max_vertices` limit or overflows addressable memory.
    #[inline]
    pub fn ensure_vertices(&mut self, num_vertices: u64) -> Result<()> {
        if num_vertices as usize <= self.counts.len() {
            return Ok(());
        }
        self.grow(num_vertices)
    }

    #[cold]
    fn grow(&mut self, num_vertices: u64) -> Result<()> {
        if num_vertices > self.limit {
            return Err(cap_error("num_vertices", num_vertices, self.limit));
        }
        let words = checked_words(self.words_per_row, num_vertices, self.k)?;
        self.counts.resize(num_vertices as usize);
        self.bits.resize(words, 0);
        Ok(())
    }

    /// Returns `true` if partition `p` holds a replica of `v`.
    #[inline]
    pub fn contains(&self, v: VertexId, p: u32) -> bool {
        debug_assert!(p < self.k);
        let row = v as usize * self.words_per_row;
        self.bits[row + (p as usize >> 6)] & (1u64 << (p & 63)) != 0
    }

    /// Records a replica of `v` in partition `p`.
    /// Returns `true` if the replica is new.
    #[inline]
    pub fn insert(&mut self, v: VertexId, p: u32) -> bool {
        debug_assert!(p < self.k);
        let row = v as usize * self.words_per_row;
        let word = &mut self.bits[row + (p as usize >> 6)];
        let mask = 1u64 << (p & 63);
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        if self.counts.bump(v as usize) == 0 {
            self.touched_vertices += 1;
        }
        self.total_replicas += 1;
        true
    }

    /// `|P(v)|`: the number of partitions holding `v`.
    #[inline]
    pub fn count(&self, v: VertexId) -> u32 {
        self.counts.get(v as usize)
    }

    /// `Σ_v |P(v)|` over all vertices.
    pub fn total_replicas(&self) -> u64 {
        self.total_replicas
    }

    /// Number of vertices with at least one replica (i.e. that appeared in
    /// the stream).
    pub fn touched_vertices(&self) -> u64 {
        self.touched_vertices
    }

    /// Replication factor with the touched-vertex denominator (isolated
    /// vertices never enter any partition; see DESIGN.md). Returns 0.0 if no
    /// vertex was touched.
    pub fn replication_factor(&self) -> f64 {
        if self.touched_vertices == 0 {
            0.0
        } else {
            self.total_replicas as f64 / self.touched_vertices as f64
        }
    }

    /// Iterates the partitions holding `v` in ascending order.
    pub fn partitions_of(&self, v: VertexId) -> impl Iterator<Item = u32> + '_ {
        let row = v as usize * self.words_per_row;
        let words = &self.bits[row..row + self.words_per_row];
        let k = self.k;
        words
            .iter()
            .enumerate()
            .flat_map(move |(wi, &w)| BitIter { word: w }.map(move |b| (wi as u32) * 64 + b))
            .filter(move |&p| p < k)
    }

    /// Bitset words per row (`ceil(k/64)`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Copies `v`'s bitset row into `out` (`words_per_row()` words).
    ///
    /// # Panics
    ///
    /// Panics if `v` is beyond the table or `out` is too short.
    pub fn export_row(&self, v: VertexId, out: &mut [u64]) {
        let row = v as usize * self.words_per_row;
        out[..self.words_per_row].copy_from_slice(&self.bits[row..row + self.words_per_row]);
    }

    /// Overwrites `v`'s bitset row with `words`, fixing the per-vertex count
    /// and the global replica/touched tallies. This is the bulk ingress used
    /// by the sharded state service and the placement snapshot loader; bits
    /// at positions `>= k` must be clear.
    ///
    /// # Panics
    ///
    /// Panics if `v` is beyond the table or `words` is too short.
    pub fn import_row(&mut self, v: VertexId, words: &[u64]) {
        let row = v as usize * self.words_per_row;
        let old: u32 = self.bits[row..row + self.words_per_row]
            .iter()
            .map(|w| w.count_ones())
            .sum();
        let new: u32 = words[..self.words_per_row]
            .iter()
            .map(|w| w.count_ones())
            .sum();
        self.bits[row..row + self.words_per_row].copy_from_slice(&words[..self.words_per_row]);
        self.counts.set(v as usize, new);
        self.total_replicas = self.total_replicas - u64::from(old) + u64::from(new);
        match (old, new) {
            (0, n) if n > 0 => self.touched_vertices += 1,
            (o, 0) if o > 0 => self.touched_vertices -= 1,
            _ => {}
        }
    }

    /// Bytes of heap memory held by the table.
    pub fn memory_bytes(&self) -> usize {
        self.bits.capacity() * 8 + self.counts.memory_bytes()
    }

    /// What the pre-compaction dense layout (fixed `u32` counts) would have
    /// held for the same dimensions — the honest comparison point of the
    /// `experiments memory` trajectory artifact.
    pub fn memory_bytes_seed_layout(&self) -> usize {
        self.bits.capacity() * 8 + self.counts.len() * 4
    }
}

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(b)
    }
}

/// Per-partition edge counts with O(1) max/min queries maintained lazily.
///
/// `k` is at most a few hundred in all experiments, so a linear rescan on
/// demand is cheap; the struct exists to keep that policy in one place.
#[derive(Debug, Clone)]
pub struct PartitionLoads {
    loads: Vec<u64>,
    total: u64,
}

impl PartitionLoads {
    /// Creates `k` empty partitions.
    pub fn new(k: u32) -> Self {
        PartitionLoads {
            loads: vec![0; k as usize],
            total: 0,
        }
    }

    /// Rebuilds the tracker from a load vector (one entry per partition),
    /// e.g. when a distributed worker resumes from a token's loads.
    pub(crate) fn from_vec(loads: Vec<u64>) -> Self {
        let total = loads.iter().sum();
        PartitionLoads { loads, total }
    }

    /// Number of partitions.
    pub fn k(&self) -> u32 {
        self.loads.len() as u32
    }

    /// Adds one edge to partition `p`.
    #[inline]
    pub fn add(&mut self, p: u32) {
        self.loads[p as usize] += 1;
        self.total += 1;
    }

    /// Edge count of partition `p`.
    #[inline]
    pub fn get(&self, p: u32) -> u64 {
        self.loads[p as usize]
    }

    /// Total number of assigned edges.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Maximum partition load.
    pub fn max(&self) -> u64 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Minimum partition load.
    pub fn min(&self) -> u64 {
        self.loads.iter().copied().min().unwrap_or(0)
    }

    /// Index of a least-loaded partition (lowest id wins ties).
    pub fn argmin(&self) -> u32 {
        let mut best = 0usize;
        for (i, &l) in self.loads.iter().enumerate() {
            if l < self.loads[best] {
                best = i;
            }
        }
        best as u32
    }

    /// Least-loaded partition among `candidates` (first wins ties);
    /// `None` if `candidates` is empty.
    pub fn argmin_among(&self, candidates: impl IntoIterator<Item = u32>) -> Option<u32> {
        let mut best: Option<(u32, u64)> = None;
        for p in candidates {
            let l = self.loads[p as usize];
            match best {
                Some((_, bl)) if bl <= l => {}
                _ => best = Some((p, l)),
            }
        }
        best.map(|(p, _)| p)
    }

    /// Immutable view of the raw load array.
    pub fn as_slice(&self) -> &[u64] {
        &self.loads
    }

    /// Consumes self, returning the load vector.
    pub fn into_vec(self) -> Vec<u64> {
        self.loads
    }

    /// Bytes of heap memory held.
    pub fn memory_bytes(&self) -> usize {
        self.loads.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_count() {
        let mut t = ReplicaTable::new(4, 8).unwrap();
        assert!(t.insert(0, 3));
        assert!(!t.insert(0, 3));
        assert!(t.insert(0, 7));
        assert_eq!(t.count(0), 2);
        assert_eq!(t.count(1), 0);
        assert_eq!(t.total_replicas(), 2);
        assert_eq!(t.touched_vertices(), 1);
    }

    #[test]
    fn contains_matches_insert() {
        let mut t = ReplicaTable::new(2, 130).unwrap();
        assert!(!t.contains(1, 129));
        t.insert(1, 129);
        assert!(t.contains(1, 129));
        assert!(!t.contains(1, 64));
    }

    #[test]
    fn partitions_of_iterates_in_order() {
        let mut t = ReplicaTable::new(1, 200).unwrap();
        for p in [5u32, 64, 130, 199] {
            t.insert(0, p);
        }
        let got: Vec<u32> = t.partitions_of(0).collect();
        assert_eq!(got, vec![5, 64, 130, 199]);
    }

    #[test]
    fn replication_factor_touched_denominator() {
        let mut t = ReplicaTable::new(10, 4).unwrap();
        t.insert(0, 0);
        t.insert(0, 1);
        t.insert(1, 2);
        // 3 replicas over 2 touched vertices; 8 isolated vertices ignored.
        assert!((t.replication_factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_table_rf_zero() {
        let t = ReplicaTable::new(5, 4).unwrap();
        assert_eq!(t.replication_factor(), 0.0);
    }

    #[test]
    fn ensure_vertices_grows() {
        let mut t = ReplicaTable::new(1, 4).unwrap();
        t.ensure_vertices(10).unwrap();
        t.insert(9, 3);
        assert!(t.contains(9, 3));
        assert_eq!(t.num_vertices(), 10);
    }

    #[test]
    fn k_one_uses_single_word() {
        let mut t = ReplicaTable::new(3, 1).unwrap();
        t.insert(2, 0);
        assert_eq!(t.count(2), 1);
        assert_eq!(t.partitions_of(2).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn memory_bytes_nonzero() {
        let t = ReplicaTable::new(100, 64).unwrap();
        assert!(t.memory_bytes() >= 100 * 8 + 100 * 2);
    }

    #[test]
    fn count_survives_k_beyond_u16() {
        // A u16 count silently wrapped once |P(v)| exceeded 65535; with
        // k > u16::MAX a single vertex can legitimately reach such counts.
        let k = u32::from(u16::MAX) + 5;
        let mut t = ReplicaTable::new(1, k).unwrap();
        for p in 0..k {
            assert!(t.insert(0, p));
        }
        assert_eq!(t.count(0), k);
        assert_eq!(t.total_replicas(), u64::from(k));
        assert_eq!(t.partitions_of(0).count(), k as usize);
    }

    #[test]
    fn oversized_dimension_requests_fail_cleanly() {
        use crate::error::PartitionError;
        // A stream lying about its vertex count (u64::MAX) used to abort or
        // OOM in the `words_per_row * n as usize` sizing; now it is a clean
        // InvalidParam at construction and at growth.
        assert!(matches!(
            ReplicaTable::new(u64::MAX, 8),
            Err(PartitionError::InvalidParam(_))
        ));
        let mut t = ReplicaTable::new(4, 8).unwrap();
        assert!(matches!(
            t.ensure_vertices(u64::MAX),
            Err(PartitionError::InvalidParam(_))
        ));
        // The table stays usable after a rejected growth.
        assert!(t.insert(3, 1));
    }

    #[test]
    fn configurable_cap_bounds_growth() {
        let mut t = ReplicaTable::with_limit(4, 8, 100).unwrap();
        t.ensure_vertices(100).unwrap();
        assert!(t.ensure_vertices(101).is_err());
        assert!(ReplicaTable::with_limit(101, 8, 100).is_err());
    }

    #[test]
    fn counts_are_narrow_for_small_k_and_wide_beyond_u16() {
        // k ≤ u16::MAX → 2-byte counts; the seed layout charged 4 bytes.
        let narrow = ReplicaTable::new(1000, 64).unwrap();
        assert!(narrow.memory_bytes() < narrow.memory_bytes_seed_layout());
        assert_eq!(
            narrow.memory_bytes_seed_layout() - narrow.memory_bytes(),
            1000 * 2
        );
        // k > u16::MAX → 4-byte counts; identical to the seed layout.
        let wide = ReplicaTable::new(10, u32::from(u16::MAX) + 5).unwrap();
        assert_eq!(wide.memory_bytes(), wide.memory_bytes_seed_layout());
    }

    #[test]
    fn loads_track_and_argmin() {
        let mut l = PartitionLoads::new(3);
        l.add(1);
        l.add(1);
        l.add(2);
        assert_eq!(l.get(0), 0);
        assert_eq!(l.get(1), 2);
        assert_eq!(l.total(), 3);
        assert_eq!(l.max(), 2);
        assert_eq!(l.min(), 0);
        assert_eq!(l.argmin(), 0);
    }

    #[test]
    fn argmin_among_subset() {
        let mut l = PartitionLoads::new(4);
        l.add(0);
        l.add(2);
        l.add(2);
        assert_eq!(l.argmin_among([2, 0]), Some(0));
        assert_eq!(l.argmin_among([2, 3]), Some(3));
        assert_eq!(l.argmin_among(std::iter::empty()), None);
    }

    #[test]
    fn argmin_among_first_wins_ties() {
        let l = PartitionLoads::new(4);
        assert_eq!(l.argmin_among([3, 1, 2]), Some(3));
    }
}
