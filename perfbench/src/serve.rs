//! `serve`: reads beside writes.
//!
//! An open-loop writer sends 1000-op batches on a fixed schedule (WAL
//! append, then pooled apply into a store built with epoch views, so every
//! op is applied twice: live, then folded into the read replica). One
//! closed-loop reader runs a 49:1 mix with 200 µs think time: 49 point
//! reads (`pin_view`, then `out_degree` and `for_each_out_edge`, as the
//! `/neighbors` handler does) and one cold BFS (`pin_view`, then
//! `Engine::run_from_roots`, as `/query/bfs` does). `epoch` and the engine
//! do most of the read-side work; a read-path change that costs the writer
//! shows in `ack_p99_us`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gtinker_core::{metrics, ParallelTinker};
use gtinker_engine::{algorithms::Bfs, Engine, ModePolicy};
use gtinker_types::VertexId;

use crate::harness::{self, timed_setup, Durable, Params};
use crate::ingest;
use crate::inputs::{self, ChurnShape, Inputs, Rng};
use crate::layers::{self, Counters};
use crate::load::{self, Schedule, Send};
use crate::report::{overhead_pct, Report};
use crate::spans::Tracer;
use crate::stats::Sample;

/// Writer schedule: 200 batches of 1000 ops per second (200k ops/s). The
/// 2-vCPU reference machine sustains this with the reader running; at
/// 400k ops/s the writer fell behind without bound (1.7 s late by the end
/// of a 10 s run), which measures the backlog rather than the system.
const BATCHES_PER_SECOND: u64 = 200;

/// Reader mix: every `QUERY_EVERY`-th operation is a BFS query, the rest
/// point reads.
const QUERY_EVERY: u64 = 50;

const THINK: Duration = Duration::from_micros(200);

/// Half the ops delete a base edge, so the graph keeps its size and a
/// query late in the run costs what one early in the run does. The base is
/// smaller than `ingest`'s at the same average degree, and holds every edge
/// the stream deletes.
fn sizes(p: &Params) -> (u32, usize, ChurnShape, u64) {
    let shape = |batches| ChurnShape { ops_per_batch: 1000, delete_every: 2, batches };
    let (base, shape, rate) = if p.tiny {
        (40_000, shape(40), 2_000)
    } else {
        let batches = (p.seconds * BATCHES_PER_SECOND) as usize;
        (600_000.max(batches * 600), shape(batches), BATCHES_PER_SECOND)
    };
    ((base / ingest::DEGREE) as u32, base, shape, rate)
}

/// What the reader thread measured.
struct ReaderOut {
    tracer: Tracer,
    read_us: Sample,
    traced_us: Sample,
    untraced_us: Sample,
    query_ms: Sample,
    fresh_ms: Sample,
    query_edges: Sample,
    query_iters: Sample,
    backlog_max: i64,
    attempted: u64,
    failed: u64,
}

/// Shared state the reader needs to judge freshness: batch `k` of the
/// stream is pool batch `base_batches + k`, acked at `acked_ns[k] - 1`
/// nanoseconds into the schedule (0 = not acked yet).
struct Stamps<'a> {
    acked_ns: &'a [AtomicU64],
    base_batches: u64,
    sched: Schedule,
}

impl Stamps<'_> {
    /// Time since the oldest batch that was acked but is not in a view of
    /// `epoch`; 0 when there is none.
    fn staleness_ms(&self, epoch: u64) -> f64 {
        let idx = epoch.saturating_sub(self.base_batches) as usize;
        match self.acked_ns.get(idx).map(|a| a.load(Ordering::Acquire)) {
            Some(stamp) if stamp > 0 => self.sched.now_ns().saturating_sub(stamp - 1) as f64 / 1e6,
            _ => 0.0,
        }
    }
}

fn reader(
    p: &Params,
    store: &ParallelTinker,
    sources: &[VertexId],
    stamps: &Stamps<'_>,
    done: &AtomicBool,
    epoch: Instant,
) -> ReaderOut {
    let mut out = ReaderOut {
        tracer: Tracer::new(p.trace, epoch),
        read_us: Sample::default(),
        traced_us: Sample::default(),
        untraced_us: Sample::default(),
        query_ms: Sample::default(),
        fresh_ms: Sample::default(),
        query_edges: Sample::default(),
        query_iters: Sample::default(),
        backlog_max: 0,
        attempted: 0,
        failed: 0,
    };
    let mut rng = Rng::new(p.seed ^ 0x00C0_FFEE);
    let mut last_epoch = 0;
    let mut i = 0u64;
    while !done.load(Ordering::Acquire) {
        let is_query = i % QUERY_EVERY == QUERY_EVERY - 1;
        let v = sources[rng.below(sources.len())];
        let is_traced = p.traced_unit(i);
        let tr = &mut out.tracer;
        let start = Instant::now();
        let root = tr.root(if is_query { "serve.query" } else { "serve.read" }, i, is_traced);
        let ok = match tr.child(root, "epoch.pin", i, || store.pin_view()) {
            None => false,
            Some(view) => {
                out.backlog_max = out.backlog_max.max(metrics::global().epoch_backlog_depth.get());
                let monotone = view.epoch() >= last_epoch;
                last_epoch = view.epoch();
                let answered = if is_query {
                    let (report, root_value) = tr.child(root, "engine.query", i, || {
                        let mut e = Engine::new(Bfs::new(v), ModePolicy::hybrid());
                        let report = e.run_from_roots(&view);
                        (report, e.values().get(v as usize).copied())
                    });
                    out.fresh_ms.push(stamps.staleness_ms(view.epoch()));
                    out.query_edges.push(report.total_edges_processed as f64);
                    out.query_iters.push(report.num_iterations() as f64);
                    root_value == Some(0)
                } else {
                    let (degree, scanned) = tr.child(root, "tinker.scan", i, || {
                        let degree = view.out_degree(v);
                        let mut scanned = 0u32;
                        view.for_each_out_edge(v, |_, _| scanned += 1);
                        (degree, scanned)
                    });
                    degree == scanned
                };
                tr.child(root, "epoch.unpin", i, || drop(view));
                monotone && answered
            }
        };
        tr.end(root);
        let us = start.elapsed().as_secs_f64() * 1e6;
        if is_query {
            out.query_ms.push(us / 1e3);
        } else {
            out.read_us.push(us);
            (if is_traced { &mut out.traced_us } else { &mut out.untraced_us }).push(us);
        }
        out.attempted += 1;
        out.failed += u64::from(!ok);
        i += 1;
        std::thread::sleep(THINK);
    }
    out
}

pub fn run(p: &Params, r: &mut Report) -> Result<Tracer, String> {
    let (vertices, base_edges, shape, rate) = sizes(p);
    let mut generate_s = 0.0;
    let ((inputs, mut d), setup_s) = timed_setup(|| {
        let t = Instant::now();
        let inputs: Inputs = inputs::hollywood(vertices, base_edges, shape, p.seed);
        generate_s = t.elapsed().as_secs_f64();
        let d = Durable::open("serve", true, &inputs.base)?;
        // Warm-up pin: the first pin folds the whole base into the read
        // replicas while holding each shard's backlog lock; left to the
        // timed phase it would stall the writer for the whole fold.
        drop(d.store.pin_view().ok_or("store built without views")?);
        Ok((inputs, d))
    })?;
    r.set("setup_s", setup_s);
    let reference = harness::recover_reference(d.tag, p)?;
    r.set("datasets.generate_s", generate_s);

    let n = inputs.batches.len();
    let stats0 = d.store.stats();
    let counters = Counters::now();
    let wal0 = d.dir.wal_bytes();
    let acked_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let done = AtomicBool::new(false);
    let epoch = Instant::now();
    let sched = Schedule::new(epoch, Duration::from_nanos(1_000_000_000 / rate));
    let stamps = Stamps { acked_ns: &acked_ns, base_batches: d.base_batches, sched };
    let mut tracer = Tracer::new(p.trace, epoch);
    let mut sends = Vec::with_capacity(n);
    let mut failed = 0;
    let mut ops = 0u64;
    let (store, wal) = (&d.store, &mut d.wal);
    let out = std::thread::scope(|s| {
        let reader = s.spawn(|| reader(p, store, &inputs.sources, &stamps, &done, epoch));
        for (k, b) in inputs.batches.iter().enumerate() {
            let k64 = k as u64;
            sched.wait_for(k64);
            let start_ns = sched.now_ns();
            let is_traced = p.traced_unit(k64);
            let root = tracer.root("serve.batch", k64, is_traced);
            let ok = harness::ack_batch(wal, store, &mut tracer, root, k64, b);
            tracer.end(root);
            let ack_ns = sched.now_ns();
            acked_ns[k].store(ack_ns + 1, Ordering::Release);
            let send = Send { due_ns: sched.due_ns(k64), start_ns, ack_ns };
            sends.push(send);
            ops += b.len() as u64;
            failed += u64::from(!ok);
        }
        done.store(true, Ordering::Release);
        reader.join().expect("reader thread panicked")
    });
    r.attempts(n as u64, failed);
    r.attempts(out.attempted, out.failed);
    // The timed phase ends with the last ack.
    let phase_s = sends.last().map_or(0, |s| s.ack_ns) as f64 / 1e9;
    r.set("ingest_meps", ops as f64 / phase_s / 1e6);
    let late = load::lateness(&sends);
    r.set("ack_p50_us", late.ack_us.median());
    r.pooled_tail("ack_p99_us", 99.0, late.ack_us);
    r.set("load.late_max_ms", late.late_max_ms);
    r.set("load.wait_p99_us", late.wait_us.tail(99.0).value);
    r.notes.push(format!(
        "last pass: {} batches, {} point reads, {} queries",
        n,
        out.read_us.len(),
        out.query_ms.len()
    ));
    r.pooled_latency("read_p50_us", "read_p99_us", 99.0, out.read_us);
    r.pooled_latency("query_p50_ms", "query_p90_ms", 90.0, out.query_ms);
    r.pooled_latency("freshness_p50_ms", "freshness_p90_ms", 90.0, out.fresh_ms);
    r.set("engine.query_edges", out.query_edges.mean());
    r.set("engine.query_iters", out.query_iters.mean());
    r.set("epoch.backlog_depth_max", out.backlog_max as f64);
    r.set("persist.bytes_per_op", (d.dir.wal_bytes() - wal0) as f64 / ops as f64);
    layers::tinker_metrics(r, &stats0, &d.store.stats());
    counters.report(r, ops, n as u64, harness::SHARDS, 0);
    r.check(layers::stays_zero(r, "pool.settle_waits"));

    // Final flush, then one pin that must see exactly the live store.
    d.store.flush();
    let live_edges = d.store.num_edges();
    let live_bytes = d.live_bytes() as f64;
    {
        let view = d.store.pin_view().ok_or("store built without views")?;
        let replica_bytes: u64 = (0..view.num_instances())
            .map(|i| view.with_instance(i, |g| g.memory_breakdown().4 as u64))
            .sum();
        r.check(if view.num_edges() == live_edges {
            Ok(())
        } else {
            Err(format!("final view has {} edges, live store {live_edges}", view.num_edges()))
        });
        r.set("bytes_per_edge", (live_bytes + replica_bytes as f64) / live_edges as f64);
        r.set("epoch.replica_bytes_per_edge", replica_bytes as f64 / view.num_edges() as f64);
    }
    r.set("tinker.bytes_per_edge", live_bytes / live_edges as f64);
    if p.trace {
        tracer.absorb(out.tracer);
        r.set("trace.overhead_pct", overhead_pct(&out.traced_us, &out.untraced_us));
    }

    harness::verify_and_recover(d, inputs, ops, p, reference, r)?;
    Ok(tracer)
}
