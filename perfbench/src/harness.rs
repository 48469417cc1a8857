//! Pieces every workload shares: run parameters, the run directory, the
//! durable store (WAL + pooled shards), and the correctness comparisons.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gtinker_core::{GraphTinker, ParallelTinker};
use gtinker_persist::{recover_tinker, WalOptions, WalWriter};
use gtinker_types::{Edge, EdgeBatch, TinkerConfig, UpdateOp};

use crate::inputs::Inputs;
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::mean;

/// Interval shards (and pool workers) in every workload: one per core of
/// the 2-vCPU reference machine.
pub const SHARDS: usize = 2;

/// Each run makes [`WARMUP_PASSES`] and then this many measured passes —
/// set-up, timed stream, recoveries — and reports the mean of every metric
/// over the measured ones. `ingest` passes are the shortest, so it makes
/// more of them, in about the time the others take for five.
pub fn passes(workload: &str) -> usize {
    if workload == "ingest" {
        8
    } else {
        5
    }
}

/// Passes that run first and are checked but not measured: they meet a cold
/// page cache, allocator and WAL directory.
pub const WARMUP_PASSES: usize = 1;

/// Base edges per preload record: the base reaches the WAL and the store
/// in large batches, as a bulk load would.
const PRELOAD_CHUNK: usize = 1 << 16;

/// Where runs keep their WAL directories, span dumps and exact counts,
/// relative to the directory the benchmark runs from.
pub const RUN_ROOT: &str = ".bench_run";

/// Run parameters from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Miniature inputs for the benchmark's own tests.
    pub tiny: bool,
    /// The last pass runs the model checks.
    pub last_pass: bool,
    /// A warm-up pass is checked but not measured; it keeps its WAL as the
    /// reference the measured passes recover between set-up and stream.
    pub warmup: bool,
}

impl Params {
    /// In a traced run every fourth unit stays untraced, so the run can
    /// report what tracing costs a unit.
    pub fn traced_unit(&self, seq: u64) -> bool {
        self.trace && seq % 4 != 3
    }
}

/// A directory under [`RUN_ROOT`] that is removed when dropped.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
}

/// Where a run keeps its warm-up pass's WAL. Every pass of a run writes the
/// same log, so this one stands for any of them.
pub fn reference_dir(tag: &str) -> PathBuf {
    Path::new(RUN_ROOT).join(format!("{tag}-reference-{}", std::process::id()))
}

impl RunDir {
    pub fn new(tag: &str) -> Result<Self, String> {
        let path = Path::new(RUN_ROOT).join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of WAL segments in the directory.
    pub fn wal_bytes(&self) -> u64 {
        std::fs::read_dir(&self.path)
            .map(|rd| {
                rd.flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "wal"))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The system under test: a WAL-first pooled store, as `gtinker ingest`
/// runs it (default config, `SyncPolicy::EveryRecord`).
pub struct Durable {
    pub tag: &'static str,
    pub wal: WalWriter,
    pub store: ParallelTinker,
    /// Pool batches the preload used; the stream's batch `k` is pool batch
    /// `base_batches + k`.
    pub base_batches: u64,
    // Declared last so the WAL file closes before the directory goes.
    pub dir: RunDir,
}

impl Durable {
    /// Opens a fresh WAL and preloads `base` through it.
    pub fn open(tag: &'static str, views: bool, base: &[Edge]) -> Result<Self, String> {
        let dir = RunDir::new(tag)?;
        let (mut wal, _) =
            WalWriter::open(dir.path(), WalOptions::default()).map_err(|e| e.to_string())?;
        let config = TinkerConfig::default();
        let store = if views {
            ParallelTinker::new_with_views(config, SHARDS)
        } else {
            ParallelTinker::new(config, SHARDS)
        }
        .map_err(|e| e.to_string())?;
        let mut base_batches = 0;
        for chunk in base.chunks(PRELOAD_CHUNK) {
            let b = EdgeBatch::inserts(chunk);
            wal.append(&b).map_err(|e| e.to_string())?;
            store.apply_batch(&b);
            base_batches += 1;
        }
        Ok(Durable { tag, wal, store, base_batches, dir })
    }

    /// Live-shard structure bytes (`memory_breakdown` total).
    pub fn live_bytes(&self) -> u64 {
        (0..self.store.num_instances())
            .map(|i| self.store.with_instance(i, |g| g.memory_breakdown().4 as u64))
            .sum()
    }
}

/// Acknowledges one stream batch the way `gtinker ingest` does: WAL append,
/// then pooled apply, each in a child span of `root`. Returns whether the
/// append succeeded and the apply reported exactly the batch's inserts as
/// new and its deletes as hits, as every batch of a generated stream must.
pub fn ack_batch(
    wal: &mut WalWriter,
    store: &ParallelTinker,
    tracer: &mut Tracer,
    root: Option<usize>,
    k: u64,
    b: &EdgeBatch,
) -> bool {
    let appended = tracer.child(root, "persist.append", k, || wal.append(b));
    let res = tracer.child(root, "pool.apply", k, || store.apply_batch(b));
    let inserts = b.ops().iter().filter(|op| matches!(op, UpdateOp::Insert(_))).count() as u64;
    appended.is_ok()
        && (res.inserted, res.deleted, res.updated, res.not_found)
            == (inserts, b.len() as u64 - inserts, 0, 0)
}

/// Runs one set-up, returning its result and the seconds it took.
pub fn timed_setup<T>(build: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t = Instant::now();
    let kept = build()?;
    Ok((kept, t.elapsed().as_secs_f64()))
}

/// Edge key used by the models.
fn key(src: u32, dst: u32) -> u64 {
    (u64::from(src) << 32) | u64::from(dst)
}

/// The expected final edge set: `base` with every batch replayed over it.
pub fn replay_model(base: &[Edge], batches: &[EdgeBatch]) -> HashMap<u64, u32> {
    let mut model = HashMap::with_capacity(base.len());
    for e in base {
        model.insert(key(e.src, e.dst), e.weight);
    }
    for b in batches {
        for op in b.ops() {
            match *op {
                UpdateOp::Insert(e) => {
                    model.insert(key(e.src, e.dst), e.weight);
                }
                UpdateOp::Delete { src, dst } => {
                    model.remove(&key(src, dst));
                }
            }
        }
    }
    model
}

/// Whether `visit` yields exactly the model's edges and weights.
pub fn matches_model(
    model: &HashMap<u64, u32>,
    visit: impl FnOnce(&mut dyn FnMut(u32, u32, u32)),
) -> Result<(), String> {
    let mut seen = 0u64;
    let mut wrong = 0u64;
    visit(&mut |s, d, w| {
        seen += 1;
        if model.get(&key(s, d)) != Some(&w) {
            wrong += 1;
        }
    });
    if wrong == 0 && seen == model.len() as u64 {
        Ok(())
    } else {
        Err(format!("{seen} edges seen, {} expected, {wrong} not in the model", model.len()))
    }
}

/// Times one `recover_tinker` over `dir`, returning the store and seconds.
fn recover_timed(dir: &Path) -> Result<(GraphTinker, f64), String> {
    let t = Instant::now();
    let (store, _) = recover_tinker(dir, TinkerConfig::default()).map_err(|e| e.to_string())?;
    Ok((store, t.elapsed().as_secs_f64()))
}

/// The first of a measured pass's two timed recoveries: the warm-up pass's
/// WAL, recovered between set-up and stream. Recovery is bound by memory
/// latency, which other tenants of a shared host move by up to 40% for
/// seconds at a time; two recoveries a stream apart meet two of those
/// phases where two in a row meet one. Returns the seconds and the edges
/// recovered, or `None` in the warm-up pass.
pub fn recover_reference(tag: &str, p: &Params) -> Result<Option<(f64, u64)>, String> {
    if p.warmup {
        return Ok(None);
    }
    recover_timed(&reference_dir(tag))
        .map(|(store, secs)| Some((secs, store.num_edges())))
        .map_err(|e| format!("recover the reference WAL: {e}"))
}

/// The end-of-pass work every workload shares. The WAL is synced and the
/// live store released; then `recover_tinker` rebuilds the store from the
/// run's WAL. `recover_s` and `persist.recover_meps` come from the mean of
/// this recovery and the pass's `reference` one, which must have recovered
/// as many edges. In the last pass both the live and the recovered store
/// must hold exactly the replayed stream. The warm-up pass keeps its WAL as
/// the run's reference.
pub fn verify_and_recover(
    d: Durable,
    inputs: Inputs,
    ops: u64,
    p: &Params,
    reference: Option<(f64, u64)>,
    r: &mut Report,
) -> Result<(), String> {
    let replayed = inputs.base.len() as u64 + ops;
    let model = p.last_pass.then(|| replay_model(&inputs.base, &inputs.batches));
    drop(inputs);
    if let Some(model) = &model {
        r.check(
            matches_model(model, |f| d.store.for_each_edge(f))
                .map_err(|e| format!("live store vs stream replay: {e}")),
        );
    }
    let Durable { tag, mut wal, store, dir, .. } = d;
    wal.sync().map_err(|e| e.to_string())?;
    drop((wal, store));
    let (recovered, secs) = recover_timed(dir.path())?;
    if let Some(model) = &model {
        r.check(
            matches_model(model, |f| recovered.for_each_edge(f))
                .map_err(|e| format!("recovered store vs stream replay: {e}")),
        );
    }
    let mut samples = vec![secs];
    if let Some((ref_secs, ref_edges)) = reference {
        samples.push(ref_secs);
        r.check(if ref_edges == recovered.num_edges() {
            Ok(())
        } else {
            Err(format!(
                "reference WAL recovered {ref_edges} edges, this pass's WAL {}",
                recovered.num_edges()
            ))
        });
    }
    drop(recovered);
    let secs = mean(&samples);
    r.set("recover_s", secs);
    r.set("persist.recover_meps", replayed as f64 / secs / 1e6);
    if p.warmup {
        let keep = reference_dir(tag);
        let _ = std::fs::remove_dir_all(&keep);
        std::fs::rename(dir.path(), &keep)
            .map_err(|e| format!("keep {} as {}: {e}", dir.path().display(), keep.display()))?;
    }
    Ok(())
}
