//! `analytics`: streaming incremental analytics.
//!
//! A symmetrized Graph500 RMAT graph (sparse, low degree) takes churn
//! batches through the WAL and the pool; after each ack,
//! `DynamicRunner::after_batch` repairs BFS and then CC (incremental
//! restart, hybrid mode policy). Engine repair does most of the work, and
//! tinker runs its low-degree, mostly single-subblock path. It bypasses
//! `epoch` (no views) and contrasts with `ingest` for `tinker` and
//! `persist`.

use std::time::Instant;

use gtinker_engine::{
    algorithms::{Bfs, Cc},
    DynamicRunner, Engine, GraphStore, IncrementalState, ModePolicy, RestartPolicy,
};
use gtinker_types::EdgeBatch;

use crate::harness::{self, timed_setup, Durable, Params};
use crate::inputs::{self, ChurnShape, Inputs};
use crate::layers::{self, Counters};
use crate::report::{overhead_pct, Report};
use crate::spans::Tracer;
use crate::stats::Sample;

/// Timed batches per `--seconds` (see `ingest`). The p99 result lag needs
/// at least 1000 batches; it is taken over all passes together.
const BATCHES_PER_SECOND: u64 = 120;

fn sizes(p: &Params) -> (u32, ChurnShape) {
    let shape = |batches| ChurnShape { ops_per_batch: 1000, delete_every: 3, batches };
    if p.tiny {
        (11, shape(30))
    } else {
        (18, shape((p.seconds * BATCHES_PER_SECOND) as usize))
    }
}

fn runner<P: IncrementalState>(program: P) -> DynamicRunner<P> {
    DynamicRunner::new(program, ModePolicy::hybrid(), RestartPolicy::Incremental)
}

/// Whether the runner's values equal a cold full-processing fixpoint over
/// the final store.
fn matches_cold<P: IncrementalState + Clone, S: GraphStore + Sync>(
    name: &str,
    inc: &DynamicRunner<P>,
    store: &S,
) -> Result<(), String>
where
    P::Value: PartialEq,
{
    let mut cold = Engine::new(inc.engine().program().clone(), ModePolicy::AlwaysFull);
    cold.run_from_roots(store);
    let n = store.vertex_space() as usize;
    let (a, b) = (inc.engine().values(), cold.values());
    if a.len() < n || b.len() < n {
        return Err(format!("{name}: value arrays shorter than the vertex space"));
    }
    let wrong = (0..n).filter(|&v| a[v] != b[v]).count();
    if wrong == 0 {
        Ok(())
    } else {
        Err(format!("{name}: {wrong} of {n} incremental values differ from the cold fixpoint"))
    }
}

pub fn run(p: &Params, r: &mut Report) -> Result<Tracer, String> {
    let (scale, shape) = sizes(p);
    let mut generate_s = 0.0;
    let ((inputs, mut d, mut bfs, mut cc), setup_s) = timed_setup(|| {
        let t = Instant::now();
        let inputs: Inputs = inputs::rmat_symmetric(scale, 0.75, shape, p.seed);
        generate_s = t.elapsed().as_secs_f64();
        let d = Durable::open("analytics", false, &inputs.base)?;
        // The first repair builds the runner's in-edge index and the
        // initial fixpoint; that is set-up, not per-batch cost.
        let (mut bfs, mut cc) = (runner(Bfs::new(inputs.root)), runner(Cc::new()));
        bfs.after_batch(&d.store, &EdgeBatch::new());
        cc.after_batch(&d.store, &EdgeBatch::new());
        Ok((inputs, d, bfs, cc))
    })?;
    r.set("setup_s", setup_s);
    let reference = harness::recover_reference(d.tag, p)?;
    r.set("datasets.generate_s", generate_s);

    let stats0 = d.store.stats();
    let counters = Counters::now();
    let wal0 = d.dir.wal_bytes();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(p.trace, epoch);
    let (mut ack, mut lag) = (Sample::default(), Sample::default());
    let (mut traced, mut untraced) = (Sample::default(), Sample::default());
    let mut failed = 0;
    let mut ops = 0u64;
    for (k, b) in inputs.batches.iter().enumerate() {
        let k = k as u64;
        let is_traced = p.traced_unit(k);
        let start = Instant::now();
        let root = tracer.root("analytics.batch", k, is_traced);
        let ok = harness::ack_batch(&mut d.wal, &d.store, &mut tracer, root, k, b);
        ack.push(start.elapsed().as_secs_f64() * 1e6);
        tracer.child(root, "engine.bfs_repair", k, || bfs.after_batch(&d.store, b));
        tracer.child(root, "engine.cc_repair", k, || cc.after_batch(&d.store, b));
        tracer.end(root);
        let us = start.elapsed().as_secs_f64() * 1e6;
        lag.push(us / 1e3);
        (if is_traced { &mut traced } else { &mut untraced }).push(us);
        ops += b.len() as u64;
        failed += u64::from(!ok);
    }
    let phase_s = epoch.elapsed().as_secs_f64();
    let batches = inputs.batches.len() as u64;
    r.attempts(batches, failed);
    r.set("ingest_meps", ops as f64 / phase_s / 1e6);
    r.set("ack_p50_us", ack.median());
    r.pooled_tail("ack_p99_us", 99.0, ack);
    r.pooled_latency("result_lag_p50_ms", "result_lag_p99_ms", 99.0, lag);
    r.set("persist.bytes_per_op", (d.dir.wal_bytes() - wal0) as f64 / ops as f64);
    layers::tinker_metrics(r, &stats0, &d.store.stats());
    counters.report(r, ops, batches, harness::SHARDS, 2 * batches);
    r.check(layers::stays_zero(r, "engine.delete_fallbacks"));
    let bytes = d.live_bytes() as f64 / d.store.num_edges() as f64;
    r.set("bytes_per_edge", bytes);
    r.set("tinker.bytes_per_edge", bytes);
    if p.trace {
        r.set("trace.overhead_pct", overhead_pct(&traced, &untraced));
    }

    r.check(matches_cold("bfs", &bfs, &d.store));
    r.check(matches_cold("cc", &cc, &d.store));
    harness::verify_and_recover(d, inputs, ops, p, reference, r)?;
    Ok(tracer)
}
