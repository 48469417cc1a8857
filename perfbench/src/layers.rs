//! Per-layer metrics every workload derives the same way: tinker counters
//! from `ParallelTinker::stats()`, process counters from the global
//! registry, and span statistics from the traced run.

use gtinker_core::{metrics, ProbeStats};

use crate::report::Report;
use crate::spans::Attribution;

/// Process-wide counters read as deltas over the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    claimed_ops: u64,
    settle_waits: u64,
    fold_batches: u64,
    repair_invalidated: u64,
    repair_iters: u64,
    delete_fallbacks: u64,
}

impl Counters {
    pub fn now() -> Self {
        let m = metrics::global();
        Counters {
            claimed_ops: m.pool_claimed_ops.get(),
            settle_waits: m.pool_settle_waits.get(),
            fold_batches: m.epoch_fold_batches.get(),
            repair_invalidated: m.engine_repair_invalidated.get(),
            repair_iters: m.engine_repair_iters.get(),
            delete_fallbacks: m.engine_delete_fallbacks.get(),
        }
    }

    /// Reports the deltas since `self` for a timed phase that dispatched
    /// `ops` ops in `batches` batches to a pool of `shards` workers, and ran
    /// `repairs` incremental repairs.
    pub fn report(&self, r: &mut Report, ops: u64, batches: u64, shards: usize, repairs: u64) {
        let now = Counters::now();
        // Every worker scans every op and claims its own interval's share.
        r.set(
            "pool.claim_ratio",
            (now.claimed_ops - self.claimed_ops) as f64 / (ops * shards as u64).max(1) as f64,
        );
        r.set("pool.settle_waits", (now.settle_waits - self.settle_waits) as f64);
        r.set(
            "epoch.fold_batches_per_batch",
            (now.fold_batches - self.fold_batches) as f64 / batches.max(1) as f64,
        );
        if repairs > 0 {
            let d = |a: u64, b: u64| (a - b) as f64 / repairs as f64;
            r.set("engine.repair_cone_mean", d(now.repair_invalidated, self.repair_invalidated));
            r.set("engine.repair_iters_mean", d(now.repair_iters, self.repair_iters));
        }
        r.set("engine.delete_fallbacks", (now.delete_fallbacks - self.delete_fallbacks) as f64);
    }
}

/// A counter that must read 0 over the timed phase: readers that settle the
/// pool on `serve`, or repairs that fall back to a full recompute on
/// `analytics`. A non-zero value fails the run.
pub fn stays_zero(r: &Report, name: &str) -> Result<(), String> {
    match r.get(name) {
        Some(0.0) => Ok(()),
        other => Err(format!("{name} must stay 0, read {other:?}")),
    }
}

/// Tinker work over the timed phase, from the live shards' own probe
/// statistics. The global `tinker_*` counters would double-count with
/// views on, because every replica fold re-applies the batch.
pub fn tinker_metrics(r: &mut Report, before: &ProbeStats, after: &ProbeStats) {
    let ops = (after.operations - before.operations).max(1) as f64;
    r.set("tinker.cells_per_op", (after.cells_inspected - before.cells_inspected) as f64 / ops);
    r.set(
        "tinker.tag_groups_per_op",
        (after.tag_group_scans - before.tag_group_scans) as f64 / ops,
    );
    r.set(
        "tinker.branches_per_kop",
        (after.branches_created - before.branches_created) as f64 / ops * 1e3,
    );
    r.set("tinker.max_depth", f64::from(after.max_depth));
    let misses = (after.delete_misses - before.delete_misses) as f64;
    let deletes = (after.deletes - before.deletes) as f64;
    r.set(
        "tinker.delete_miss_ratio",
        if deletes + misses > 0.0 { misses / (deletes + misses) } else { 0.0 },
    );
}

/// Span-derived per-layer metrics of a traced run.
pub fn span_metrics(r: &mut Report, a: &Attribution) {
    let wall = a.root_wall_ns.max(1) as f64;
    let latency = |r: &mut Report, name: &str, p50: &'static str, p99: &'static str| {
        let s = a.stat(name);
        if s.count > 0 {
            r.latency(p50, p99, 99.0, &s.durations_us);
        }
    };
    latency(r, "persist.append", "persist.append_p50_us", "persist.append_p99_us");
    latency(r, "pool.apply", "pool.apply_p50_us", "pool.apply_p99_us");
    latency(r, "tinker.scan", "tinker.scan_p50_us", "tinker.scan_p99_us");
    latency(r, "epoch.pin", "epoch.pin_p50_us", "epoch.pin_p99_us");
    latency(r, "engine.bfs_repair", "engine.bfs_repair_p50_us", "engine.bfs_repair_p99_us");
    latency(r, "engine.cc_repair", "engine.cc_repair_p50_us", "engine.cc_repair_p99_us");
    let q = a.stat("engine.query");
    if q.count > 0 {
        r.set("engine.query_p50_ms", q.durations_us.median() / 1e3);
    }
    r.set("persist.append_share", a.stat("persist.append").self_ns as f64 / wall);
    r.set("pool.apply_share", a.stat("pool.apply").self_ns as f64 / wall);
    for (layer, spans, self_s) in [
        ("persist", "persist.spans", "persist.self_s"),
        ("pool", "pool.spans", "pool.self_s"),
        ("tinker", "tinker.spans", "tinker.self_s"),
        ("epoch", "epoch.spans", "epoch.self_s"),
        ("engine", "engine.spans", "engine.self_s"),
    ] {
        let count: u64 = a
            .by_name
            .iter()
            .filter(|(n, _)| n.split('.').next() == Some(layer))
            .map(|(_, s)| s.count)
            .sum();
        r.set(spans, count as f64);
        r.set(self_s, *a.layer_self_ns.get(layer).unwrap_or(&0) as f64 / 1e9);
    }
    r.set("tinker.share", a.share("tinker"));
    r.set("epoch.share", a.share("epoch"));
    r.set("engine.share", a.share("engine"));
    r.set("trace.unattributed_share", a.unattributed_ns as f64 / wall);
    r.set("trace.unattributed_roots", a.unattributed_roots as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nonzero_must_stay_zero_counter_fails() {
        let mut r = Report::default();
        assert!(stays_zero(&r, "pool.settle_waits").is_err(), "unmeasured is not zero");
        r.set("pool.settle_waits", 0.0);
        assert!(stays_zero(&r, "pool.settle_waits").is_ok());
        r.set("pool.settle_waits", 2.0);
        r.check(stays_zero(&r, "pool.settle_waits"));
        assert!(!r.correct());
    }
}
