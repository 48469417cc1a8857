//! [`DurableTinker`]: a [`GraphTinker`] whose updates survive crashes.
//!
//! The write path is WAL-first: a batch is appended (and synced, per
//! policy) *before* it is acknowledged, so an acknowledged
//! [`apply_batch`](DurableTinker::apply_batch) is recoverable by
//! definition. Snapshots fold the log into a single checksummed image and
//! prune segments the image fully covers, bounding recovery time by the
//! snapshot interval rather than the lifetime of the graph.
//!
//! # Pipelined group commit
//!
//! In the default (inline) mode every `apply_batch` serializes WAL
//! encode/append/fsync ahead of the in-memory apply, so the store idles
//! during the disk I/O and the disk idles during the apply. Enabling
//! [`set_pipelined`](DurableTinker::set_pipelined) moves the [`WalWriter`]
//! onto a dedicated thread and overlaps the two stages:
//!
//! ```text
//! wal thread : | append k | append k+1 | append k+2 |
//! caller     : |  (wait)  |  apply k   | apply k+1  |   <- one batch behind
//!                ack k ----^   ack k+1 ---^
//! ```
//!
//! `apply_batch(k+1)` hands batch *k+1* to the WAL thread, applies the
//! *previously acknowledged* batch *k* to the store while the log I/O for
//! *k+1* is in flight, and only then blocks for *k+1*'s durable
//! acknowledgement. Two invariants survive the overlap:
//!
//! 1. **WAL-first acknowledgement**: `apply_batch` returns only after the
//!    batch's record is durable per the sync policy — a batch is never
//!    acked before it could be recovered.
//! 2. **The store never runs ahead of the acked log**: only acknowledged
//!    batches are applied in memory, so a failed append leaves the store
//!    exactly at the acked prefix (the in-memory state lags the log by at
//!    most the one pending batch, which [`sync`](DurableTinker::sync),
//!    [`snapshot`](DurableTinker::snapshot) and reads through
//!    [`store`](DurableTinker::store) fold in on demand... see below).
//!
//! Because the store may lag by the pending batch between calls, `store()`
//! is exact only after a [`sync`](DurableTinker::sync) (or any
//! `set_pipelined(false)` / [`snapshot`](DurableTinker::snapshot)); the
//! mutating entry points fold the pending batch in themselves.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use gtinker_core::GraphTinker;
use gtinker_types::{EdgeBatch, TinkerConfig};

use crate::format::{PersistError, Result};
use crate::recover::{recover_tinker_with_scan, RecoveryReport};
use crate::snapshot::write_tinker_snapshot;
use crate::wal::{prune_segments, WalOptions, WalWriter};

enum WalCmd {
    /// Append one batch; acked with its LSN once durable per policy.
    Append(Arc<EdgeBatch>),
    /// Force buffered records to disk; acked with the next LSN.
    Sync,
}

/// The WAL writer, moved onto its own thread for pipelined group commit.
/// Commands are processed in order; each is acknowledged on `ack_rx`
/// only after the corresponding disk work finished.
struct WalThread {
    tx: Option<Sender<WalCmd>>,
    ack_rx: Receiver<Result<u64>>,
    handle: Option<JoinHandle<WalWriter>>,
}

impl WalThread {
    fn spawn(mut wal: WalWriter) -> Self {
        let (tx, rx) = std::sync::mpsc::channel::<WalCmd>();
        let (ack_tx, ack_rx) = std::sync::mpsc::channel::<Result<u64>>();
        let handle = std::thread::Builder::new()
            .name("gtinker-wal".into())
            .spawn(move || {
                while let Ok(cmd) = rx.recv() {
                    let resp = match cmd {
                        WalCmd::Append(batch) => wal.append(&batch),
                        WalCmd::Sync => wal.sync().map(|()| wal.next_lsn()),
                    };
                    if ack_tx.send(resp).is_err() {
                        break;
                    }
                }
                wal
            })
            .expect("spawn wal thread");
        WalThread { tx: Some(tx), ack_rx, handle: Some(handle) }
    }

    fn send(&self, cmd: WalCmd) -> Result<()> {
        match &self.tx {
            Some(tx) if tx.send(cmd).is_ok() => Ok(()),
            _ => Err(PersistError::Io("wal thread exited".into())),
        }
    }

    fn recv_ack(&self) -> Result<u64> {
        self.ack_rx.recv().map_err(|_| PersistError::Io("wal thread exited".into()))?
    }

    /// Shuts the thread down and returns the writer.
    fn join(mut self) -> Result<WalWriter> {
        self.tx.take();
        let handle = self.handle.take().expect("wal thread joined twice");
        handle.join().map_err(|_| PersistError::Io("wal thread panicked".into()))
    }
}

impl Drop for WalThread {
    /// Closes the command queue and joins, so queued appends still reach
    /// the log (and the segment file is closed) before the writer is lost.
    fn drop(&mut self) {
        self.tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// A [`GraphTinker`] paired with a WAL and snapshot directory.
///
/// All mutation goes through [`apply_batch`](Self::apply_batch) so the log
/// never lags the store; the store itself is reachable read-only via
/// [`store`](Self::store).
pub struct DurableTinker {
    store: GraphTinker,
    /// Inline mode: the writer, owned directly. Exactly one of
    /// `wal`/`wal_thread` is `Some`.
    wal: Option<WalWriter>,
    /// Pipelined mode: the writer, owned by its thread.
    wal_thread: Option<WalThread>,
    /// Pipelined mode: the youngest *acknowledged* batch, durable in the
    /// log but not yet applied to the in-memory store.
    pending: Option<Arc<EdgeBatch>>,
    /// Mirror of the writer's next LSN while it lives on the WAL thread.
    next_lsn: u64,
    dir: PathBuf,
}

impl DurableTinker {
    /// Opens (or creates) a durable store in `dir`, recovering whatever a
    /// previous process — cleanly shut down or not — left behind. Any torn
    /// WAL tail is truncated on disk so new appends extend a valid log.
    /// `default_config` is used only when no snapshot exists yet.
    pub fn open(
        dir: &Path,
        default_config: TinkerConfig,
        wal_opts: WalOptions,
    ) -> Result<(Self, RecoveryReport)> {
        let (mut wal, scan) = WalWriter::open(dir, wal_opts)?;
        let (store, report) = recover_tinker_with_scan(dir, scan, default_config)?;
        // A snapshot newer than the surviving log (its records were lost
        // to a tear after being folded in): restart the log at the
        // snapshot so new records are not shadowed by it.
        wal.reset_to(report.snapshot_lsn)?;
        let next_lsn = wal.next_lsn();
        let d = DurableTinker {
            store,
            wal: Some(wal),
            wal_thread: None,
            pending: None,
            next_lsn,
            dir: dir.to_path_buf(),
        };
        Ok((d, report))
    }

    /// Whether pipelined group commit is active.
    pub fn is_pipelined(&self) -> bool {
        self.wal_thread.is_some()
    }

    /// Switches between inline (`false`, the default) and pipelined
    /// (`true`) group commit. Disabling drains the pipeline: the pending
    /// batch is applied and the WAL thread is joined, so the store and log
    /// are exact when this returns. Enabling/disabling an already-matching
    /// mode is a no-op.
    pub fn set_pipelined(&mut self, enabled: bool) -> Result<()> {
        if enabled == self.is_pipelined() {
            return Ok(());
        }
        if enabled {
            let wal = self.wal.take().expect("inline mode owns the writer");
            self.next_lsn = wal.next_lsn();
            self.wal_thread = Some(WalThread::spawn(wal));
        } else {
            self.apply_pending();
            let thread = self.wal_thread.take().expect("pipelined mode owns the thread");
            let wal = thread.join()?;
            self.next_lsn = wal.next_lsn();
            self.wal = Some(wal);
        }
        Ok(())
    }

    /// Folds the pending (acknowledged, durable) batch into the store.
    fn apply_pending(&mut self) {
        if let Some(batch) = self.pending.take() {
            let _t = gtinker_core::trace::span_arg(
                gtinker_core::SpanId::DurablePendingApply,
                batch.len() as u64,
            );
            self.store.apply_batch(&batch);
        }
    }

    /// The underlying store, read-only. In pipelined mode the in-memory
    /// state may lag the log by the one pending batch; call
    /// [`sync`](Self::sync) first for an exact read.
    pub fn store(&self) -> &GraphTinker {
        &self.store
    }

    /// Consumes the wrapper, returning the in-memory store with every
    /// acknowledged batch applied.
    pub fn into_store(mut self) -> GraphTinker {
        self.apply_pending();
        self.store
    }

    /// The persistence directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// LSN the next batch will be logged at (= batches applied so far).
    pub fn next_lsn(&self) -> u64 {
        match &self.wal {
            Some(wal) => wal.next_lsn(),
            None => self.next_lsn,
        }
    }

    /// Logs `batch`, applies it, and returns the batch's LSN once the
    /// record is durable per the sync policy.
    ///
    /// Inline mode appends, then applies. Pipelined mode hands the batch
    /// to the WAL thread, applies the *previous* acknowledged batch while
    /// the append/sync is in flight, then blocks for this batch's durable
    /// acknowledgement (it becomes the new pending batch). Either way the
    /// store only ever contains acknowledged batches: if the append
    /// fails, the failed batch never touches the store.
    pub fn apply_batch(&mut self, batch: &EdgeBatch) -> Result<u64> {
        if let Some(wal) = &mut self.wal {
            let lsn = wal.append(batch)?;
            self.store.apply_batch(batch);
            return Ok(lsn);
        }
        let batch = Arc::new(batch.clone());
        let send = {
            let thread = self.wal_thread.as_ref().expect("pipelined mode owns the thread");
            thread.send(WalCmd::Append(Arc::clone(&batch)))
        };
        send?;
        // Overlap: fold in the previously acked batch while the WAL
        // thread encodes, appends and (per policy) syncs this one.
        self.apply_pending();
        let lsn = {
            let _t = gtinker_core::trace::span(gtinker_core::SpanId::DurableAckWait);
            self.wal_thread.as_ref().expect("pipelined").recv_ack()?
        };
        self.pending = Some(batch);
        self.next_lsn = lsn + 1;
        Ok(lsn)
    }

    /// Forces logged batches to stable storage (for `SyncPolicy::Never` /
    /// `EveryN` callers at a consistency point). In pipelined mode this is
    /// also a pipeline barrier: the pending batch is applied, so store and
    /// log agree when it returns.
    pub fn sync(&mut self) -> Result<()> {
        match &mut self.wal {
            Some(wal) => wal.sync(),
            None => {
                self.apply_pending();
                let thread = self.wal_thread.as_ref().expect("pipelined mode owns the thread");
                thread.send(WalCmd::Sync)?;
                self.next_lsn = thread.recv_ack()?;
                Ok(())
            }
        }
    }

    /// Snapshots the current state at the current LSN and prunes WAL
    /// segments the snapshot fully covers. Returns the snapshot path.
    /// (A pipeline barrier: in pipelined mode the pending batch is folded
    /// in and synced before the image is written.)
    pub fn snapshot(&mut self) -> Result<PathBuf> {
        self.sync()?;
        let lsn = self.next_lsn();
        let path = write_tinker_snapshot(&self.dir, &self.store, lsn)?;
        prune_segments(&self.dir, lsn)?;
        Ok(path)
    }
}

impl std::fmt::Debug for DurableTinker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableTinker")
            .field("dir", &self.dir)
            .field("next_lsn", &self.next_lsn())
            .field("pipelined", &self.is_pipelined())
            .field("num_edges", &self.store.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::recover_tinker;
    use crate::wal::SyncPolicy;
    use gtinker_types::Edge;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gtinker_dur_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn batch(i: u32) -> EdgeBatch {
        let mut b = EdgeBatch::new();
        for j in 0..5 {
            b.push_insert(Edge::new(i % 23, (i * 3 + j) % 71, j + 1));
        }
        b
    }

    fn edge_set(g: &GraphTinker) -> Vec<(u32, u32, u32)> {
        let mut v = Vec::new();
        g.for_each_edge_main(|s, d, w| v.push((s, d, w)));
        v.sort_unstable();
        v
    }

    /// Copies every regular file of `src` into `dst` — a crash image of
    /// the persistence directory at a moment in time.
    fn copy_dir(src: &Path, dst: &Path) {
        fs::create_dir_all(dst).unwrap();
        for entry in fs::read_dir(src).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_file() {
                fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
            }
        }
    }

    #[test]
    fn open_apply_reopen_recovers_everything() {
        let dir = tmpdir("reopen");
        let (mut d, report) =
            DurableTinker::open(&dir, TinkerConfig::default(), WalOptions::default()).unwrap();
        assert_eq!(report.next_lsn, 0);
        for i in 0..12u32 {
            assert_eq!(d.apply_batch(&batch(i)).unwrap(), i as u64);
        }
        let live = edge_set(d.store());
        drop(d);
        let (d, report) =
            DurableTinker::open(&dir, TinkerConfig::default(), WalOptions::default()).unwrap();
        assert_eq!(report.replayed_records, 12);
        assert_eq!(d.next_lsn(), 12);
        assert_eq!(edge_set(d.store()), live);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_prunes_and_later_opens_replay_less() {
        let dir = tmpdir("snap");
        let opts = WalOptions { segment_bytes: 200, ..WalOptions::default() };
        let (mut d, _) = DurableTinker::open(&dir, TinkerConfig::default(), opts).unwrap();
        for i in 0..10u32 {
            d.apply_batch(&batch(i)).unwrap();
        }
        let snap = d.snapshot().unwrap();
        assert!(snap.exists());
        for i in 10..14u32 {
            d.apply_batch(&batch(i)).unwrap();
        }
        let live = edge_set(d.store());
        drop(d);
        let (d, report) = DurableTinker::open(&dir, TinkerConfig::default(), opts).unwrap();
        assert_eq!(report.snapshot_lsn, 10);
        assert_eq!(report.replayed_records, 4, "only post-snapshot records replay");
        assert_eq!(edge_set(d.store()), live);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_log_behind_snapshot_does_not_shadow_new_appends() {
        let dir = tmpdir("shadow");
        let (mut d, _) =
            DurableTinker::open(&dir, TinkerConfig::default(), WalOptions::default()).unwrap();
        for i in 0..8u32 {
            d.apply_batch(&batch(i)).unwrap();
        }
        d.snapshot().unwrap();
        drop(d);
        // Destroy the (pruned, now empty-tail) log entirely: the snapshot
        // at lsn 8 is newer than the surviving log (nothing).
        for (_, p) in crate::wal::list_segments(&dir).unwrap() {
            fs::remove_file(p).unwrap();
        }
        let (mut d, report) =
            DurableTinker::open(&dir, TinkerConfig::default(), WalOptions::default()).unwrap();
        assert_eq!(report.snapshot_lsn, 8);
        // New appends must land at lsn >= 8, not at 0 where recovery
        // would skip them as snapshot-covered.
        assert_eq!(d.apply_batch(&batch(8)).unwrap(), 8);
        let live = edge_set(d.store());
        drop(d);
        let (d, report) =
            DurableTinker::open(&dir, TinkerConfig::default(), WalOptions::default()).unwrap();
        assert_eq!(report.replayed_records, 1);
        assert_eq!(edge_set(d.store()), live);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_matches_inline_and_reopens() {
        let a = tmpdir("pipe_inline");
        let b = tmpdir("pipe_pipelined");
        let (mut inline, _) =
            DurableTinker::open(&a, TinkerConfig::default(), WalOptions::default()).unwrap();
        let (mut piped, _) =
            DurableTinker::open(&b, TinkerConfig::default(), WalOptions::default()).unwrap();
        piped.set_pipelined(true).unwrap();
        assert!(piped.is_pipelined());
        for i in 0..20u32 {
            let want = inline.apply_batch(&batch(i)).unwrap();
            assert_eq!(piped.apply_batch(&batch(i)).unwrap(), want);
        }
        piped.sync().unwrap();
        assert_eq!(edge_set(piped.store()), edge_set(inline.store()));
        assert_eq!(piped.next_lsn(), inline.next_lsn());
        drop(piped);
        let (back, report) =
            DurableTinker::open(&b, TinkerConfig::default(), WalOptions::default()).unwrap();
        assert_eq!(report.replayed_records, 20);
        assert_eq!(edge_set(back.store()), edge_set(inline.store()));
        fs::remove_dir_all(&a).ok();
        fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn pipelined_never_acks_before_durable() {
        // Crash injection at the overlap boundary: immediately after each
        // acknowledged apply_batch — the instant the pending batch is
        // durable in the log but not yet folded into the in-memory store —
        // image the directory as if the process lost power, and recover
        // from the image. Every acknowledged batch must come back.
        let dir = tmpdir("pipeack");
        let opts = WalOptions { sync: SyncPolicy::EveryRecord, ..WalOptions::default() };
        let (mut d, _) = DurableTinker::open(&dir, TinkerConfig::default(), opts).unwrap();
        d.set_pipelined(true).unwrap();
        let mut model = GraphTinker::with_defaults();
        for i in 0..10u32 {
            let b = batch(i);
            assert_eq!(d.apply_batch(&b).unwrap(), i as u64, "ack carries the batch LSN");
            model.apply_batch(&b);
            let crash = tmpdir(&format!("pipeack_crash{i}"));
            copy_dir(&dir, &crash);
            let (g, report) = recover_tinker(&crash, TinkerConfig::default()).unwrap();
            assert_eq!(
                report.replayed_records,
                (i + 1) as u64,
                "acked batch {i} missing from the log at its ack boundary"
            );
            assert_eq!(edge_set(&g), edge_set(&model), "recovered state != acked prefix");
            fs::remove_dir_all(&crash).ok();
        }
        d.sync().unwrap();
        assert_eq!(edge_set(d.store()), edge_set(&model));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_snapshot_folds_pending_batch_in() {
        let dir = tmpdir("pipesnap");
        let (mut d, _) =
            DurableTinker::open(&dir, TinkerConfig::default(), WalOptions::default()).unwrap();
        d.set_pipelined(true).unwrap();
        for i in 0..6u32 {
            d.apply_batch(&batch(i)).unwrap();
        }
        d.snapshot().unwrap();
        drop(d);
        let (d, report) =
            DurableTinker::open(&dir, TinkerConfig::default(), WalOptions::default()).unwrap();
        assert_eq!(report.snapshot_lsn, 6, "snapshot must cover the pending batch");
        assert_eq!(report.replayed_records, 0);
        assert_eq!(d.next_lsn(), 6);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn toggling_pipelined_off_drains_and_restores_inline_mode() {
        let dir = tmpdir("pipetoggle");
        let (mut d, _) =
            DurableTinker::open(&dir, TinkerConfig::default(), WalOptions::default()).unwrap();
        d.set_pipelined(true).unwrap();
        d.apply_batch(&batch(0)).unwrap();
        assert_eq!(d.store().num_edges(), 0, "pending batch lags the store");
        d.set_pipelined(false).unwrap();
        assert!(!d.is_pipelined());
        assert_eq!(d.store().num_edges(), 5, "drain folds the pending batch in");
        d.apply_batch(&batch(1)).unwrap();
        assert_eq!(d.next_lsn(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn into_store_applies_pending_batch() {
        let dir = tmpdir("pipeinto");
        let (mut d, _) =
            DurableTinker::open(&dir, TinkerConfig::default(), WalOptions::default()).unwrap();
        d.set_pipelined(true).unwrap();
        d.apply_batch(&batch(3)).unwrap();
        let g = d.into_store();
        assert_eq!(g.num_edges(), 5);
        fs::remove_dir_all(&dir).ok();
    }
}
