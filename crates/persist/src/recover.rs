//! Crash recovery: newest valid snapshot + WAL tail replay.
//!
//! The recovery invariant is simple to state: after a crash at *any* byte
//! of any persistence file, recovery reconstructs exactly the state whose
//! durability was acknowledged — every snapshot-covered record plus the
//! longest valid WAL prefix beyond it — and never fails on corruption it
//! can route around:
//!
//! 1. Snapshots are tried newest-first; a corrupt or torn snapshot is
//!    *skipped* (the previous one is still there precisely because
//!    publishing is atomic and pruning is conservative).
//! 2. The WAL is replayed by the longest-valid-prefix rule
//!    (see [`crate::wal`]); records already folded into the chosen
//!    snapshot (`lsn < snapshot_lsn`) are skipped.
//! 3. The only hard error beyond I/O is a *gap*: a log whose first
//!    surviving record is newer than the snapshot covers. That state
//!    cannot be reconstructed faithfully, so it is reported rather than
//!    papered over (it cannot arise from crashes alone — only from
//!    deleting files by hand).
//!
//! ## Source-grouped tail replay
//!
//! The tail is not replayed in arrival order. Its ops are gathered and
//! stable-bucketed by source, then applied as one batch, so each vertex's
//! edgeblock subtree (and CAL group) stays hot while its ops land instead
//! of being revisited cold once per record. Buckets are ordered by the
//! position of each source's **first insert** in the tail: SGH registers a
//! source on insert (a delete on an unseen source misses without
//! registering it), so this order reproduces the dense ids in-order replay
//! would assign. Ranking by first *op* would not — a source whose first op
//! is a missed delete would be registered too early. Sources the tail only
//! deletes from share one trailing bucket. Every source's ops keep their
//! log order, so the recovered store has the same sources, dense order,
//! tier transitions and per-vertex edge structure as in-order replay; only
//! arena block placement and the edge order inside a CAL group differ.

use std::path::{Path, PathBuf};

use gtinker_core::hash::source_hash;
use gtinker_core::GraphTinker;
use gtinker_stinger::Stinger;
use gtinker_types::{Edge, EdgeBatch, StingerConfig, TinkerConfig, UpdateOp, VertexId};

use crate::format::{PersistError, Result};
use crate::snapshot::{list_snapshots, load_stinger_snapshot, load_tinker_snapshot};
use crate::wal::{replay, WalRecord, WalReplay};

/// What a recovery pass did, for logging and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL position of the snapshot the store was rebuilt from
    /// (0 when starting from an empty store).
    pub snapshot_lsn: u64,
    /// Path of that snapshot, if one was used.
    pub snapshot_path: Option<PathBuf>,
    /// Newer snapshots that failed validation and were skipped.
    pub snapshots_skipped: usize,
    /// WAL records applied on top of the snapshot.
    pub replayed_records: u64,
    /// Update operations those records carried.
    pub replayed_ops: u64,
    /// Whether a torn/corrupt WAL tail was cut off.
    pub wal_truncated: bool,
    /// LSN the next appended record should get
    /// (`max(snapshot_lsn, end of valid log)`).
    pub next_lsn: u64,
}

/// A loaded snapshot: the store, its LSN, and the file it came from.
type LoadedSnapshot<T> = (T, u64, PathBuf);

/// Picks the newest snapshot in `dir` that loads and verifies, skipping
/// corrupt ones. Returns `(loaded, skipped_count)`.
fn best_snapshot<T>(
    dir: &Path,
    load: impl Fn(&Path) -> Result<(T, u64)>,
) -> Result<(Option<LoadedSnapshot<T>>, usize)> {
    let mut skipped = 0;
    for entry in list_snapshots(dir)?.into_iter().rev() {
        match load(&entry.path) {
            Ok((store, lsn)) => return Ok((Some((store, lsn, entry.path)), skipped)),
            Err(PersistError::Io(m)) => return Err(PersistError::Io(m)),
            Err(_) => skipped += 1,
        }
    }
    Ok((None, skipped))
}

/// Index of the first record beyond `snapshot_lsn`, enforcing the no-gap
/// rule on the tail that starts there.
fn tail_start(records: &[WalRecord], snapshot_lsn: u64) -> Result<usize> {
    let start = records.partition_point(|r| r.lsn < snapshot_lsn);
    for (expected, rec) in (snapshot_lsn..).zip(&records[start..]) {
        if rec.lsn != expected {
            return Err(PersistError::Corrupt(format!(
                "gap between snapshot (lsn {snapshot_lsn}) and log record {}",
                rec.lsn
            )));
        }
    }
    Ok(start)
}

/// `rank` of a source with no insert in the tail: it replays in the one
/// trailing bucket.
const UNRANKED: u32 = u32::MAX;

/// Marks a free entry of [`SourceSlots`].
const FREE: u32 = u32::MAX;

/// Source id -> grouping slot, slots assigned in first-sight order: a
/// linear-probing table keyed by [`source_hash`], at most half full. (The
/// store's own `SghUnit` would do the same job but counts every source it
/// registers in the live-vertex metrics.)
struct SourceSlots {
    /// `(source, slot)` entries; `slot == FREE` marks a free entry.
    table: Vec<(VertexId, u32)>,
    /// Slot -> source.
    sources: Vec<VertexId>,
}

impl SourceSlots {
    fn new() -> Self {
        SourceSlots { table: vec![(0, FREE); 1024], sources: Vec::new() }
    }

    /// The slot of `src`, assigning the next one on first sight.
    fn slot_of(&mut self, src: VertexId) -> u32 {
        let mask = self.table.len() - 1;
        let mut i = source_hash(src) as usize & mask;
        while self.table[i].1 != FREE {
            if self.table[i].0 == src {
                return self.table[i].1;
            }
            i = (i + 1) & mask;
        }
        let slot = self.sources.len() as u32;
        self.table[i] = (src, slot);
        self.sources.push(src);
        if self.sources.len() * 2 > self.table.len() {
            self.grow();
        }
        slot
    }

    fn grow(&mut self) {
        self.table = vec![(0, FREE); self.table.len() * 2];
        let mask = self.table.len() - 1;
        for (slot, &src) in self.sources.iter().enumerate() {
            let mut i = source_hash(src) as usize & mask;
            while self.table[i].1 != FREE {
                i = (i + 1) & mask;
            }
            self.table[i] = (src, slot as u32);
        }
    }
}

/// Per-source grouping state, indexed by the source's grouping slot.
struct Bucket {
    /// Order of the source's first insert in the tail, or [`UNRANKED`].
    rank: u32,
    /// Op count after pass 1; the next write position during pass 2.
    cursor: usize,
}

/// `op` with its source replaced by `src`.
fn with_src(op: UpdateOp, src: VertexId) -> UpdateOp {
    match op {
        UpdateOp::Insert(e) => UpdateOp::Insert(Edge { src, ..e }),
        UpdateOp::Delete { dst, .. } => UpdateOp::Delete { src, dst },
    }
}

/// The ops of `tail`, stable-bucketed by source: buckets in order of each
/// source's first insert, delete-only sources in one trailing bucket, log
/// order kept within every bucket (see the module docs for why). Each
/// record's batch is dropped once its ops are bucketed, so the extra peak
/// memory is the one output buffer plus a few words per distinct source.
fn group_by_source(mut tail: Vec<WalRecord>) -> EdgeBatch {
    // Pass 1: give every distinct source a slot (in first-op order), count
    // its ops and rank it by first insert. Each op's source is rewritten
    // to its slot in place, so pass 2 indexes the buckets directly instead
    // of probing the table again.
    let mut slots = SourceSlots::new();
    let mut buckets: Vec<Bucket> = Vec::new();
    let mut by_rank: Vec<u32> = Vec::new();
    for rec in &mut tail {
        rec.batch = std::mem::take(&mut rec.batch)
            .into_iter()
            .map(|op| {
                let slot = slots.slot_of(op.src());
                if slot as usize == buckets.len() {
                    buckets.push(Bucket { rank: UNRANKED, cursor: 0 });
                }
                let b = &mut buckets[slot as usize];
                b.cursor += 1;
                if op.is_insert() && b.rank == UNRANKED {
                    b.rank = by_rank.len() as u32;
                    by_rank.push(slot);
                }
                with_src(op, slot)
            })
            .collect();
    }

    // Bucket starts: exclusive prefix sums in rank order; the trailing
    // bucket starts after the last ranked one.
    let mut trailing = 0;
    for &slot in &by_rank {
        let b = &mut buckets[slot as usize];
        trailing += std::mem::replace(&mut b.cursor, trailing);
    }
    drop(by_rank);

    // Pass 2: scatter with the original sources restored, consuming the
    // records.
    let len = tail.iter().map(|rec| rec.batch.len()).sum();
    let mut out = vec![UpdateOp::Delete { src: 0, dst: 0 }; len];
    for rec in tail {
        for op in rec.batch {
            let slot = op.src();
            let b = &mut buckets[slot as usize];
            let cursor = if b.rank == UNRANKED { &mut trailing } else { &mut b.cursor };
            out[*cursor] = with_src(op, slots.sources[slot as usize]);
            *cursor += 1;
        }
    }
    out.into_iter().collect()
}

/// Shared recovery skeleton over a log scan: restore the newest valid
/// snapshot, then apply the tail beyond it as one source-grouped batch.
fn recover_with_scan<T>(
    dir: &Path,
    scan: WalReplay,
    load: impl Fn(&Path) -> Result<(T, u64)>,
    fresh: impl FnOnce() -> Result<T>,
    apply: impl FnOnce(&mut T, &EdgeBatch),
) -> Result<(T, RecoveryReport)> {
    let (best, snapshots_skipped) = best_snapshot(dir, load)?;
    let (mut store, snapshot_lsn, snapshot_path) = match best {
        Some((s, lsn, path)) => (s, lsn, Some(path)),
        None => (fresh()?, 0, None),
    };
    let WalReplay { mut records, next_lsn, truncated, .. } = scan;
    records.drain(..tail_start(&records, snapshot_lsn)?);
    let replayed_records = records.len() as u64;
    let ops = group_by_source(records);
    apply(&mut store, &ops);
    let report = RecoveryReport {
        snapshot_lsn,
        snapshot_path,
        snapshots_skipped,
        replayed_records,
        replayed_ops: ops.len() as u64,
        wal_truncated: truncated,
        next_lsn: next_lsn.max(snapshot_lsn),
    };
    Ok((store, report))
}

/// Recovers a [`GraphTinker`] from `dir` (snapshots and WAL segments side
/// by side). With no valid snapshot, starts from an empty store built with
/// `default_config`. Read-only: the torn tail, if any, is ignored but not
/// truncated on disk (opening a [`crate::DurableTinker`] truncates it).
pub fn recover_tinker(
    dir: &Path,
    default_config: TinkerConfig,
) -> Result<(GraphTinker, RecoveryReport)> {
    recover_tinker_with_scan(dir, replay(dir)?, default_config)
}

/// [`recover_tinker`] over a log scan the caller already has.
pub(crate) fn recover_tinker_with_scan(
    dir: &Path,
    scan: WalReplay,
    default_config: TinkerConfig,
) -> Result<(GraphTinker, RecoveryReport)> {
    recover_with_scan(
        dir,
        scan,
        load_tinker_snapshot,
        || GraphTinker::new(default_config).map_err(Into::into),
        |g, b| {
            g.apply_batch(b);
        },
    )
}

/// Recovers a [`Stinger`] from `dir`, mirroring [`recover_tinker`]
/// (including the source-grouped tail replay). Edge sets and per-vertex
/// chains match in-order replay; the `ts_first`/`ts_recent` clock does
/// not, because it counts operations in apply order. That clock is
/// internal to the store and is not snapshotted either.
pub fn recover_stinger(
    dir: &Path,
    default_config: StingerConfig,
) -> Result<(Stinger, RecoveryReport)> {
    recover_with_scan(
        dir,
        replay(dir)?,
        load_stinger_snapshot,
        || Stinger::new(default_config).map_err(Into::into),
        |s, b| {
            s.apply_batch(b);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{corrupt_file, Fault};
    use crate::snapshot::write_tinker_snapshot;
    use crate::wal::{WalOptions, WalWriter};
    use gtinker_types::Edge;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gtinker_rec_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn batch(i: u32) -> EdgeBatch {
        let mut b = EdgeBatch::new();
        for j in 0..6 {
            b.push_insert(Edge::new(i % 37, (i * 5 + j) % 101, j + 1));
        }
        if i.is_multiple_of(4) {
            b.push_delete(i % 37, (i * 5) % 101);
        }
        b
    }

    fn ground_truth(n: u32) -> GraphTinker {
        let mut g = GraphTinker::with_defaults();
        for i in 0..n {
            g.apply_batch(&batch(i));
        }
        g
    }

    fn edge_set(g: &GraphTinker) -> Vec<(u32, u32, u32)> {
        let mut v = Vec::new();
        g.for_each_edge_main(|s, d, w| v.push((s, d, w)));
        v.sort_unstable();
        v
    }

    fn record(lsn: u64, batch: EdgeBatch) -> WalRecord {
        WalRecord { lsn, batch, segment: 0, end_offset: 0 }
    }

    #[test]
    fn grouping_ranks_sources_by_first_insert() {
        let mut a = EdgeBatch::new();
        a.push_delete(5, 1); // before 5's first insert: a miss, must stay first
        a.push_insert(Edge::new(7, 2, 1));
        a.push_insert(Edge::new(5, 3, 1));
        let mut b = EdgeBatch::new();
        b.push_delete(9, 1); // 9 is never inserted: trailing bucket
        b.push_insert(Edge::new(7, 4, 1));
        b.push_delete(5, 3);
        b.push_delete(2, 8); // trailing too, after 9's delete in log order
        let grouped = group_by_source(vec![record(0, a), record(1, b)]);
        let order: Vec<(u32, u32, bool)> =
            grouped.iter().map(|op| (op.src(), op.dst(), op.is_insert())).collect();
        assert_eq!(
            order,
            vec![
                (7, 2, true),
                (7, 4, true),
                (5, 1, false),
                (5, 3, true),
                (5, 3, false),
                (9, 1, false),
                (2, 8, false),
            ]
        );
    }

    #[test]
    fn source_slots_follow_first_sight_across_growth() {
        let mut slots = SourceSlots::new();
        let ids: Vec<u32> = (0..5000u32).map(|i| i.wrapping_mul(0x9E37_79B9) ^ 7).collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(slots.slot_of(id), i as u32, "first sight of {id}");
        }
        for (i, &id) in ids.iter().enumerate().rev() {
            assert_eq!(slots.slot_of(id), i as u32, "repeat of {id}");
        }
        assert_eq!(slots.sources, ids);
        assert!(slots.table.len() >= 2 * ids.len(), "table stays at most half full");
    }

    #[test]
    fn grouped_replay_keeps_sgh_order() {
        let dir = tmpdir("sghorder");
        let (mut w, _) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        // Source 3 is deleted from before anything else is inserted; its
        // dense id must still come after 1 and 2, as in-order replay has it.
        let mut first = EdgeBatch::new();
        first.push_delete(3, 0);
        first.push_insert(Edge::new(1, 0, 1));
        let mut second = EdgeBatch::new();
        second.push_insert(Edge::new(2, 0, 1));
        second.push_insert(Edge::new(3, 1, 1));
        second.push_insert(Edge::new(1, 3, 1));
        w.append(&first).unwrap();
        w.append(&second).unwrap();
        drop(w);
        let (g, report) = recover_tinker(&dir, TinkerConfig::default()).unwrap();
        assert_eq!(report.replayed_ops, 5);
        let mut truth = GraphTinker::with_defaults();
        truth.apply_batch(&first);
        truth.apply_batch(&second);
        assert_eq!(g.sources(), vec![1, 2, 3]);
        assert_eq!(g.sources(), truth.sources());
        assert_eq!(edge_set(&g), edge_set(&truth));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovers_from_wal_only() {
        let dir = tmpdir("walonly");
        let (mut w, _) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        for i in 0..10u32 {
            w.append(&batch(i)).unwrap();
        }
        drop(w);
        let (g, report) = recover_tinker(&dir, TinkerConfig::default()).unwrap();
        assert_eq!(report.replayed_records, 10);
        let ops: usize = (0..10).map(|i| batch(i).len()).sum();
        assert_eq!(report.replayed_ops, ops as u64);
        assert_eq!(report.snapshot_lsn, 0);
        assert!(report.snapshot_path.is_none());
        assert_eq!(report.next_lsn, 10);
        assert_eq!(edge_set(&g), edge_set(&ground_truth(10)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovers_from_snapshot_plus_tail() {
        let dir = tmpdir("snaptail");
        let (mut w, _) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        for i in 0..6u32 {
            w.append(&batch(i)).unwrap();
        }
        write_tinker_snapshot(&dir, &ground_truth(6), 6).unwrap();
        for i in 6..10u32 {
            w.append(&batch(i)).unwrap();
        }
        drop(w);
        let (g, report) = recover_tinker(&dir, TinkerConfig::default()).unwrap();
        assert_eq!(report.snapshot_lsn, 6);
        assert_eq!(report.replayed_records, 4);
        let ops: usize = (6..10).map(|i| batch(i).len()).sum();
        assert_eq!(report.replayed_ops, ops as u64, "only the tail's ops are replayed");
        assert_eq!(report.next_lsn, 10);
        assert_eq!(edge_set(&g), edge_set(&ground_truth(10)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older() {
        let dir = tmpdir("fallback");
        let (mut w, _) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        for i in 0..8u32 {
            w.append(&batch(i)).unwrap();
        }
        drop(w);
        write_tinker_snapshot(&dir, &ground_truth(4), 4).unwrap();
        let newest = write_tinker_snapshot(&dir, &ground_truth(8), 8).unwrap();
        corrupt_file(&newest, Fault::BitFlip { at: 60, bit: 3 }).unwrap();
        let (g, report) = recover_tinker(&dir, TinkerConfig::default()).unwrap();
        assert_eq!(report.snapshots_skipped, 1);
        assert_eq!(report.snapshot_lsn, 4);
        assert_eq!(report.replayed_records, 4, "records 4..8 replayed on the older snapshot");
        assert_eq!(edge_set(&g), edge_set(&ground_truth(8)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_newer_than_torn_log_wins() {
        let dir = tmpdir("newer");
        let (mut w, _) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        for i in 0..10u32 {
            w.append(&batch(i)).unwrap();
        }
        let seg = w.current_segment().to_path_buf();
        drop(w);
        write_tinker_snapshot(&dir, &ground_truth(10), 10).unwrap();
        // Tear the log back to ~nothing; the snapshot still covers lsn 10.
        corrupt_file(&seg, Fault::Truncate { at: 40 }).unwrap();
        let (g, report) = recover_tinker(&dir, TinkerConfig::default()).unwrap();
        assert_eq!(report.snapshot_lsn, 10);
        assert_eq!(report.replayed_records, 0);
        assert_eq!(report.next_lsn, 10);
        assert!(report.wal_truncated);
        assert_eq!(edge_set(&g), edge_set(&ground_truth(10)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_recovers_to_empty_store() {
        let dir = tmpdir("emptyrec");
        let (g, report) = recover_tinker(&dir, TinkerConfig::default()).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(report.next_lsn, 0);
        assert_eq!(report.replayed_records, 0);
        assert_eq!(report.replayed_ops, 0);
    }

    #[test]
    fn gap_between_snapshot_and_log_is_an_error() {
        let dir = tmpdir("gap");
        let (mut w, _) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        for i in 0..6u32 {
            w.append(&batch(i)).unwrap();
        }
        drop(w);
        // A snapshot at lsn 2 with the log's first record at lsn 4 cannot
        // be reconstructed faithfully. Manufacture it by renaming the
        // segment (only hand-editing can produce this).
        write_tinker_snapshot(&dir, &ground_truth(2), 2).unwrap();
        let segs = crate::wal::list_segments(&dir).unwrap();
        let data = fs::read(&segs[0].1).unwrap();
        fs::remove_file(&segs[0].1).unwrap();
        // Rewrite header to claim first_lsn = 4 under the matching name.
        let mut hdr = crate::format::ByteWriter::new();
        hdr.put_bytes(crate::wal::WAL_MAGIC);
        hdr.put_u64(4);
        let mut forged = hdr.into_bytes();
        // Keep record payloads; they carry lsns 0.. so replay stops at the
        // first record anyway unless we also forge lsns — simplest gap:
        // empty segment claiming to start at 4.
        let _ = data;
        fs::write(dir.join(crate::wal::segment_file_name(4)), &forged).unwrap();
        forged.clear();
        let r = recover_tinker(&dir, TinkerConfig::default());
        // An empty forged segment yields no records: snapshot wins, no gap
        // error needed. Now forge one record at lsn 4 to force the gap.
        assert!(r.is_ok());
        let rec = crate::wal::encode_record(4, &batch(4));
        let mut file_bytes = fs::read(dir.join(crate::wal::segment_file_name(4))).unwrap();
        file_bytes.extend_from_slice(&rec);
        fs::write(dir.join(crate::wal::segment_file_name(4)), &file_bytes).unwrap();
        let err = recover_tinker(&dir, TinkerConfig::default()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "gap must be reported: {err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stinger_recovery_mirrors_tinker() {
        let dir = tmpdir("stinger");
        let (mut w, _) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        for i in 0..8u32 {
            w.append(&batch(i)).unwrap();
        }
        drop(w);
        let mut truth = Stinger::with_defaults();
        for i in 0..8u32 {
            truth.apply_batch(&batch(i));
        }
        let (s, report) = recover_stinger(&dir, StingerConfig::default()).unwrap();
        assert_eq!(report.replayed_records, 8);
        assert_eq!(s.num_edges(), truth.num_edges());
        let mut a = Vec::new();
        s.for_each_edge(|x, y, z| a.push((x, y, z)));
        let mut b = Vec::new();
        truth.for_each_edge(|x, y, z| b.push((x, y, z)));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        fs::remove_dir_all(&dir).ok();
    }
}
