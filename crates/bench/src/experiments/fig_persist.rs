//! Durability costs (no paper counterpart — the paper's GraphTinker is
//! memory-only): snapshot write/load bandwidth, WAL append throughput per
//! sync policy, and recovery time as a function of how much log must be
//! replayed, on the Hollywood-2009 RMAT stand-in.
//!
//! Alongside the TSV the run emits `BENCH_persist.json`.

use std::path::PathBuf;
use std::time::Instant;

use gtinker_core::GraphTinker;
use gtinker_persist::{
    load_tinker_snapshot, recover_tinker, write_tinker_snapshot, SyncPolicy, WalOptions, WalWriter,
};
use gtinker_types::{EdgeBatch, TinkerConfig};

use crate::cli::Args;
use crate::experiments::common::{dataset_batches, hollywood};
use crate::report::{f3, meps, Table};

struct SnapshotSample {
    bytes: u64,
    write_ms: f64,
    load_ms: f64,
    write_mbps: f64,
    load_mbps: f64,
}

struct AppendSample {
    policy: &'static str,
    ms: f64,
    meps: f64,
}

struct RecoverySample {
    records: u64,
    ops: u64,
    ms: f64,
    meps: f64,
}

fn mbps(bytes: u64, secs: f64) -> f64 {
    if secs == 0.0 {
        0.0
    } else {
        bytes as f64 / secs / 1e6
    }
}

/// A scratch directory under the system temp dir, fresh for this run.
fn scratch(tag: &str) -> PathBuf {
    let d =
        std::env::temp_dir().join(format!("gtinker_bench_persist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn measure_snapshot(g: &GraphTinker) -> SnapshotSample {
    let dir = scratch("snap");
    let t0 = Instant::now();
    let path = write_tinker_snapshot(&dir, g, 0).expect("snapshot write");
    let write_secs = t0.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let t0 = Instant::now();
    let (back, _) = load_tinker_snapshot(&path).expect("snapshot load");
    let load_secs = t0.elapsed().as_secs_f64();
    assert_eq!(back.num_edges(), g.num_edges(), "snapshot must restore every edge");
    let _ = std::fs::remove_dir_all(&dir);
    SnapshotSample {
        bytes,
        write_ms: write_secs * 1e3,
        load_ms: load_secs * 1e3,
        write_mbps: mbps(bytes, write_secs),
        load_mbps: mbps(bytes, load_secs),
    }
}

fn measure_append(batches: &[EdgeBatch], policy: SyncPolicy, label: &'static str) -> AppendSample {
    let dir = scratch(label);
    let opts = WalOptions { sync: policy, ..WalOptions::default() };
    let (mut wal, _) = WalWriter::open(&dir, opts).expect("wal open");
    let ops: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let t0 = Instant::now();
    for b in batches {
        wal.append(b).expect("wal append");
    }
    wal.sync().expect("wal sync");
    let dur = t0.elapsed();
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    AppendSample { policy: label, ms: dur.as_secs_f64() * 1e3, meps: meps(ops, dur) }
}

fn measure_recovery(batches: &[EdgeBatch], records: usize) -> RecoverySample {
    let dir = scratch(&format!("rec{records}"));
    let opts = WalOptions { sync: SyncPolicy::Never, ..WalOptions::default() };
    let (mut wal, _) = WalWriter::open(&dir, opts).expect("wal open");
    let mut ops = 0u64;
    for b in &batches[..records] {
        wal.append(b).expect("wal append");
        ops += b.len() as u64;
    }
    wal.sync().expect("wal sync");
    drop(wal);
    let t0 = Instant::now();
    let (g, report) = recover_tinker(&dir, TinkerConfig::default()).expect("recover");
    let dur = t0.elapsed();
    assert_eq!(report.replayed_records, records as u64);
    assert_eq!(report.replayed_ops, ops);
    assert!(g.num_edges() > 0 || ops == 0);
    let _ = std::fs::remove_dir_all(&dir);
    RecoverySample {
        records: records as u64,
        ops,
        ms: dur.as_secs_f64() * 1e3,
        meps: meps(ops, dur),
    }
}

fn to_json(
    edges: u64,
    snap: &SnapshotSample,
    appends: &[AppendSample],
    recoveries: &[RecoverySample],
) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"persist\",\n");
    out.push_str(&format!("  \"edges\": {edges},\n"));
    out.push_str(&format!(
        "  \"snapshot\": {{\"bytes\": {}, \"write_mbps\": {:.3}, \"load_mbps\": {:.3}}},\n",
        snap.bytes, snap.write_mbps, snap.load_mbps
    ));
    out.push_str("  \"wal_append_meps\": {");
    for (i, a) in appends.iter().enumerate() {
        out.push_str(&format!(
            "\"{}\": {:.3}{}",
            a.policy,
            a.meps,
            if i + 1 == appends.len() { "" } else { ", " }
        ));
    }
    out.push_str("},\n  \"recovery\": [\n");
    for (i, r) in recoveries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"records\": {}, \"ops\": {}, \"ms\": {:.3}, \"meps\": {:.3}}}{}\n",
            r.records,
            r.ops,
            r.ms,
            r.meps,
            if i + 1 == recoveries.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the durability benchmark; also writes `<out-dir>/BENCH_persist.json`.
pub fn run(args: &Args) -> Table {
    let spec = hollywood(args.scale_factor);
    let batches = dataset_batches(&spec, args.batches, false);
    let total_ops: u64 = batches.iter().map(|b| b.len() as u64).sum();

    let mut g = GraphTinker::with_defaults();
    for b in &batches {
        g.apply_batch(b);
    }

    let mut t = Table::new(
        "fig_persist",
        &format!(
            "Durability: snapshot MB/s, WAL append Medges/s, recovery vs log length \
             ({}, {} ops, {} batches)",
            spec.name,
            total_ops,
            batches.len()
        ),
        &["stage", "size", "time_ms", "throughput"],
    );

    let snap = measure_snapshot(&g);
    t.push_row(vec![
        "snapshot_write".into(),
        format!("{} B", snap.bytes),
        f3(snap.write_ms),
        format!("{} MB/s", f3(snap.write_mbps)),
    ]);
    t.push_row(vec![
        "snapshot_load".into(),
        format!("{} B", snap.bytes),
        f3(snap.load_ms),
        format!("{} MB/s", f3(snap.load_mbps)),
    ]);

    let appends = vec![
        measure_append(&batches, SyncPolicy::Never, "never"),
        measure_append(&batches, SyncPolicy::EveryN(8), "every8"),
        measure_append(&batches, SyncPolicy::EveryRecord, "always"),
    ];
    for a in &appends {
        t.push_row(vec![
            format!("wal_append[{}]", a.policy),
            format!("{total_ops} ops"),
            f3(a.ms),
            format!("{} Medges/s", f3(a.meps)),
        ]);
    }

    let mut lengths: Vec<usize> = [batches.len() / 4, batches.len() / 2, batches.len()]
        .into_iter()
        .filter(|&n| n > 0)
        .collect();
    lengths.dedup();
    let recoveries: Vec<RecoverySample> =
        lengths.iter().map(|&n| measure_recovery(&batches, n)).collect();
    for r in &recoveries {
        t.push_row(vec![
            format!("recover[{} records]", r.records),
            format!("{} ops", r.ops),
            f3(r.ms),
            format!("{} Medges/s", f3(r.meps)),
        ]);
    }

    let json = to_json(total_ops, &snap, &appends, &recoveries);
    let path = std::path::Path::new(&args.out_dir).join("BENCH_persist.json");
    if let Err(e) =
        std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, json))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_enough() {
        let s = to_json(
            100,
            &SnapshotSample {
                bytes: 1200,
                write_ms: 0.1,
                load_ms: 0.1,
                write_mbps: 10.0,
                load_mbps: 20.0,
            },
            &[
                AppendSample { policy: "never", ms: 1.0, meps: 5.0 },
                AppendSample { policy: "always", ms: 5.0, meps: 1.0 },
            ],
            &[RecoverySample { records: 4, ops: 100, ms: 2.0, meps: 0.05 }],
        );
        assert!(s.starts_with('{') && s.trim_end().ends_with('}'));
        assert!(s.contains("\"write_mbps\": 10.000"));
        assert!(s.contains("\"never\": 5.000, \"always\": 1.000"));
        assert!(!s.contains("},\n  ]"), "no trailing comma before array close");
    }

    #[test]
    fn tiny_end_to_end_run() {
        let dir =
            std::env::temp_dir().join(format!("gtinker_fig_persist_out_{}", std::process::id()));
        let args = Args {
            scale_factor: 4096,
            batches: 4,
            threads: vec![1],
            out_dir: dir.to_string_lossy().into_owned(),
        };
        let t = run(&args);
        assert!(t.render().contains("snapshot_write"));
        assert!(dir.join("BENCH_persist.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
