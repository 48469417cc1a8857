//! The metric catalogue and the run's output: a human-readable table and,
//! as the last line of standard output, one JSON object.
//!
//! `BENCHMARK.json` lists the same names; `GLOSSARY.md` explains each.

use std::collections::BTreeMap;

use crate::stats::{mean, Sample};

/// End-to-end metrics in the JSON line of an untraced run: measured and
/// non-zero on every workload, and steady enough across runs to gate on.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("bytes_per_edge", "B"), ("recover_s", "s")];

/// End-to-end metrics printed in the table only, for the workloads listed:
/// those that exist on only some workloads, and the write-path timings,
/// whose run-to-run spread on the 2-vCPU reference host is wider than any
/// bound a regression gate may use (up to 0.45 of the median over 10 seeds;
/// see GLOSSARY.md).
pub const TABLE_ONLY: &[(&str, &str, &[&str])] = &[
    ("ingest_meps", "Mop/s", &["ingest", "serve", "analytics"]),
    ("ack_p50_us", "us", &["ingest", "serve", "analytics"]),
    ("ack_p99_us", "us", &["ingest", "serve", "analytics"]),
    ("read_p50_us", "us", &["serve"]),
    ("read_p99_us", "us", &["serve"]),
    ("query_p50_ms", "ms", &["serve"]),
    ("query_p90_ms", "ms", &["serve"]),
    ("freshness_p50_ms", "ms", &["serve"]),
    ("freshness_p90_ms", "ms", &["serve"]),
    ("result_lag_p50_ms", "ms", &["analytics"]),
    ("result_lag_p99_ms", "ms", &["analytics"]),
];

/// Per-layer metrics in the JSON line of a traced run: `(name, unit)`. A
/// metric whose layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("persist.append_p50_us", "us"),
    ("persist.append_p99_us", "us"),
    ("persist.append_share", "ratio"),
    ("persist.bytes_per_op", "B"),
    ("persist.recover_meps", "Mop/s"),
    ("persist.spans", "count"),
    ("persist.self_s", "s"),
    ("pool.apply_p50_us", "us"),
    ("pool.apply_p99_us", "us"),
    ("pool.apply_share", "ratio"),
    ("pool.claim_ratio", "ratio"),
    ("pool.settle_waits", "count"),
    ("pool.spans", "count"),
    ("pool.self_s", "s"),
    ("tinker.cells_per_op", "count"),
    ("tinker.tag_groups_per_op", "count"),
    ("tinker.branches_per_kop", "count"),
    ("tinker.max_depth", "count"),
    ("tinker.delete_miss_ratio", "ratio"),
    ("tinker.bytes_per_edge", "B"),
    ("tinker.scan_p50_us", "us"),
    ("tinker.scan_p99_us", "us"),
    ("tinker.share", "ratio"),
    ("tinker.spans", "count"),
    ("tinker.self_s", "s"),
    ("epoch.pin_p50_us", "us"),
    ("epoch.pin_p99_us", "us"),
    ("epoch.fold_batches_per_batch", "count"),
    ("epoch.backlog_depth_max", "count"),
    ("epoch.replica_bytes_per_edge", "B"),
    ("epoch.share", "ratio"),
    ("epoch.spans", "count"),
    ("epoch.self_s", "s"),
    ("engine.query_p50_ms", "ms"),
    ("engine.query_edges", "count"),
    ("engine.query_iters", "count"),
    ("engine.bfs_repair_p50_us", "us"),
    ("engine.bfs_repair_p99_us", "us"),
    ("engine.cc_repair_p50_us", "us"),
    ("engine.cc_repair_p99_us", "us"),
    ("engine.share", "ratio"),
    ("engine.repair_cone_mean", "count"),
    ("engine.repair_iters_mean", "count"),
    ("engine.delete_fallbacks", "count"),
    ("engine.spans", "count"),
    ("engine.self_s", "s"),
    ("load.late_max_ms", "ms"),
    ("load.wait_p99_us", "us"),
    ("datasets.generate_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
    ("trace.unattributed_roots", "count"),
];

/// Metrics that are exact counts: two runs of one workload with one seed
/// must report them identically. `(name, workloads)`.
///
/// `engine.repair_cone_mean` and `engine.repair_iters_mean` are left out:
/// the repair path re-seeds a cone from an in-edge index held in std
/// `HashMap`s, whose iteration order differs per process, and on equal
/// messages the first one injected becomes the witness. The values stay
/// exact; the witness forest, and so later cones, do not.
pub const EXACT: &[(&str, &[&str])] = &[
    ("tinker.cells_per_op", &["ingest", "serve", "analytics"]),
    ("tinker.tag_groups_per_op", &["ingest", "serve", "analytics"]),
    ("tinker.branches_per_kop", &["ingest", "serve", "analytics"]),
    ("tinker.max_depth", &["ingest", "serve", "analytics"]),
    ("tinker.delete_miss_ratio", &["ingest", "serve", "analytics"]),
    ("tinker.bytes_per_edge", &["ingest", "serve", "analytics"]),
    ("pool.claim_ratio", &["ingest", "serve", "analytics"]),
    ("persist.bytes_per_op", &["ingest", "serve", "analytics"]),
    ("bytes_per_edge", &["ingest", "analytics"]),
];

fn known(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.0 == name)
        || TABLE_ONLY.iter().any(|m| m.0 == name)
        || PER_LAYER.iter().any(|m| m.0 == name)
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Remarks printed under the table (percentile substitutions, sizes).
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Samples summarized over all passes together, for metrics whose
    /// percentile one pass is too short to support.
    pooled: Vec<Pooled>,
}

/// `(p50 name, tail name, tail percentile, sample)`.
type Pooled = (Option<&'static str>, &'static str, f64, Sample);

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(known(name), "metric {name} is not in the catalogue");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Sets a median and a tail metric from one sample, noting when the
    /// sample could not support the named percentile.
    pub fn latency(&mut self, p50: &'static str, tail: &'static str, target: f64, s: &Sample) {
        self.set(p50, s.median());
        self.latency_tail(tail, target, s);
    }

    fn latency_tail(&mut self, tail: &'static str, target: f64, s: &Sample) {
        let t = s.tail(target);
        self.set(tail, t.value);
        if t.percentile < target {
            self.notes.push(format!(
                "{tail}: {} samples support only p{} (p{target} needs {}); reported p{}",
                t.n,
                t.percentile,
                (crate::stats::MIN_BEYOND / (1.0 - target / 100.0)).ceil(),
                t.percentile
            ));
        }
    }

    /// Like [`latency`](Self::latency), but a run reports the metrics from
    /// all its passes' samples together.
    pub fn pooled_latency(
        &mut self,
        p50: &'static str,
        tail: &'static str,
        target: f64,
        s: Sample,
    ) {
        self.latency(p50, tail, target, &s);
        self.pooled.push((Some(p50), tail, target, s));
    }

    /// A tail metric a run reports from all its passes' samples together.
    pub fn pooled_tail(&mut self, tail: &'static str, target: f64, s: Sample) {
        self.set(tail, s.tail(target).value);
        self.pooled.push((None, tail, target, s));
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn attempts(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records one correctness check.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The exact counts of `workload`, one `name value` line each.
    pub fn exact_lines(&self, workload: &str) -> Vec<String> {
        EXACT
            .iter()
            .filter(|(_, ws)| ws.contains(&workload))
            .map(|(name, _)| format!("{name} {}", self.get(name).unwrap_or(f64::NAN)))
            .collect()
    }

    /// Human-readable table of every end-to-end metric (with `n/a` where a
    /// metric does not apply) and, for traced runs, every per-layer one.
    pub fn table(&self, workload: &str, trace: bool) -> String {
        let mut out = format!("# {workload}: end-to-end\n");
        let row = |name: &str, unit: &str, v: Option<f64>| match v {
            Some(v) => format!("{name:<32} {v:>14.4} {unit}\n"),
            None => format!("{name:<32} {:>14} {unit}\n", "n/a"),
        };
        for &(name, unit) in END_TO_END {
            out += &row(name, unit, self.get(name));
        }
        for &(name, unit, only) in TABLE_ONLY {
            out += &row(name, unit, if only.contains(&workload) { self.get(name) } else { None });
        }
        out += &row("failed_pct", "%", Some(self.failed_pct()));
        if trace {
            out += &format!("# {workload}: per layer (traced run)\n");
            for &(name, unit) in PER_LAYER {
                out += &row(name, unit, Some(self.get(name).unwrap_or(0.0)));
            }
        }
        for n in &self.notes {
            out += &format!("# note: {n}\n");
        }
        for f in &self.failures {
            out += &format!("# FAILED: {f}\n");
        }
        out
    }

    /// The result line: the end-to-end metrics of an untraced run, or the
    /// per-layer metrics of a traced one. A metric that could not be
    /// computed (not finite) fails the run rather than print invalid JSON.
    pub fn json(&mut self, trace: bool) -> String {
        let names: Vec<(&str, &str)> = if trace { PER_LAYER.to_vec() } else { END_TO_END.to_vec() };
        let mut metrics = Vec::new();
        for (name, unit) in names {
            let v = match self.get(name) {
                Some(v) if v.is_finite() => v,
                None if trace => 0.0,
                other => {
                    self.failed += 1;
                    self.failures.push(format!("{name} not measured ({other:?})"));
                    0.0
                }
            };
            metrics.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

impl Report {
    /// Combines the passes of one run. The first `warmup` passes count only
    /// toward attempts, failures and checks: they run on a cold page cache,
    /// allocator and WAL directory. Every metric of the measured passes is
    /// combined by one rule, the mean: a pass's values wander by about 10%
    /// with the host's memory speed and rarely jump. Over three sets of 10
    /// seeds, the mean of the passes' `recover_s` spread at most 0.22 across
    /// a set, their median at most 0.25. Pooled samples are merged and
    /// summarized once; the notes are the last pass's, plus each end-to-end
    /// metric's per-pass values.
    pub fn combine(passes: Vec<Report>, warmup: usize) -> Report {
        let mut out = Report::default();
        let measured = &passes[warmup.min(passes.len())..];
        let names: std::collections::BTreeSet<&'static str> =
            measured.iter().flat_map(|r| r.values.keys().copied()).collect();
        let mut spread = Vec::new();
        for name in names {
            let vals: Vec<f64> = measured.iter().filter_map(|r| r.get(name)).collect();
            out.values.insert(name, mean(&vals));
            if END_TO_END.iter().any(|m| m.0 == name)
                || ["ingest_meps", "ack_p50_us"].contains(&name)
            {
                let vals: Vec<String> = vals.iter().map(|v| format!("{v:.4}")).collect();
                spread.push(format!("{name} per pass: {}", vals.join(", ")));
            }
        }
        let mut pooled: Vec<Pooled> = Vec::new();
        for (i, r) in passes.into_iter().enumerate() {
            out.attempted += r.attempted;
            out.failed += r.failed;
            out.failures.extend(r.failures.into_iter().map(|f| format!("pass {i}: {f}")));
            if i < warmup {
                continue;
            }
            out.notes = r.notes;
            for (p50, tail, target, s) in r.pooled {
                match pooled.iter_mut().find(|e| e.1 == tail) {
                    Some(e) => e.3.extend(&s),
                    None => pooled.push((p50, tail, target, s)),
                }
            }
        }
        out.notes.retain(|n| !n.contains("samples support only"));
        for (p50, tail, target, s) in pooled {
            match p50 {
                Some(p50) => out.latency(p50, tail, target, &s),
                None => out.latency_tail(tail, target, &s),
            }
        }
        out.notes.extend(spread);
        out
    }
}

/// Relative cost of tracing a unit: how much longer the median traced unit
/// took than the median untraced one, in percent.
pub fn overhead_pct(traced: &Sample, untraced: &Sample) -> f64 {
    let base = untraced.median();
    if base == 0.0 {
        return 0.0;
    }
    (traced.median() / base - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_exact_names_exist() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(TABLE_ONLY.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for (name, _) in EXACT {
            assert!(known(name), "{name}");
        }
    }

    #[test]
    fn json_line_has_every_listed_metric() {
        let mut r = Report::default();
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.attempts(10, 0);
        let line = r.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for &(name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}")));
        }
        assert!(!line.contains("persist."));
    }

    #[test]
    fn passes_combine_by_mean_after_the_warmup() {
        let pass = |v: f64, failed: u64| {
            let mut r = Report::default();
            r.set("setup_s", v);
            r.set("ingest_meps", v * 10.0);
            r.attempts(10, failed);
            r
        };
        // The warm-up pass is slow and failed a check: its values stay out
        // of the mean, its failure does not.
        let warmup = pass(100.0, 1);
        let mut a = pass(1.0, 0);
        let mut b = pass(2.0, 0);
        let mut c = pass(6.0, 0);
        c.set("recover_s", 4.0);
        let mut long = Sample::default();
        for v in 1..=60 {
            long.push(f64::from(v));
        }
        a.pooled_latency("query_p50_ms", "query_p90_ms", 90.0, long.clone());
        b.pooled_latency("query_p50_ms", "query_p90_ms", 90.0, long);
        let (mut warm, mut cold) = (Sample::default(), Sample::default());
        warm.push(5.0);
        cold.push(1e6);
        b.pooled_tail("ack_p99_us", 99.0, warm);
        let mut w = warmup;
        w.pooled_tail("ack_p99_us", 99.0, cold);
        let r = Report::combine(vec![w, a, b, c], 1);
        assert_eq!(r.get("setup_s"), Some(3.0));
        assert_eq!(r.get("ingest_meps"), Some(30.0));
        assert_eq!(r.get("recover_s"), Some(4.0));
        // 120 pooled samples support p90 where 60 per pass did not.
        assert_eq!(r.get("query_p90_ms"), Some(54.0));
        assert!(r.notes.iter().all(|n| !n.contains("support only")));
        // The warm-up's sample stays out of the pooled tail...
        assert_eq!(r.get("ack_p99_us"), Some(5.0));
        // ...but its failure still fails the run.
        assert_eq!((r.attempted, r.failed), (40, 1));
        assert!(!r.correct());
    }

    #[test]
    fn unmeasured_end_to_end_metric_fails_the_run() {
        let mut r = Report::default();
        r.set("setup_s", f64::NAN);
        let line = r.json(false);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(!line.contains("NaN"));
    }
}
