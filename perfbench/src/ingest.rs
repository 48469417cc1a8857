//! `ingest`: durable closed-loop ingest with one writer.
//!
//! Each batch is appended to the WAL (fsync per record) and then applied
//! through the shard pool; no views, no readers. On a Hollywood-like
//! power-law graph the work sits in `persist`, `pool` and `tinker` (deep
//! RHH subblocks, branch-out, tombstones), and `epoch` and `engine` do
//! none — so a change to those two must predict no change here. After the
//! stream, `recover_tinker` replays the run's WAL.

use std::time::Instant;

use crate::harness::{self, timed_setup, Durable, Params};
use crate::inputs::{self, ChurnShape, Inputs};
use crate::layers::{self, Counters};
use crate::report::{overhead_pct, Report};
use crate::spans::Tracer;
use crate::stats::Sample;

/// Timed batches per `--seconds`: sized so the stream takes about that
/// long on the 2-vCPU reference machine. The work is fixed per run, so two
/// commits always apply the same stream.
const BATCHES_PER_SECOND: u64 = 240;

/// Base edges per vertex: the Hollywood-like average degree of ~100.
pub const DEGREE: usize = 100;

fn sizes(p: &Params) -> (u32, usize, ChurnShape) {
    let shape = |batches| ChurnShape { ops_per_batch: 1000, delete_every: 4, batches };
    let (base, shape) = if p.tiny {
        (40_000, shape(40))
    } else {
        (1_000_000, shape((p.seconds * BATCHES_PER_SECOND) as usize))
    };
    ((base / DEGREE) as u32, base, shape)
}

pub fn run(p: &Params, r: &mut Report) -> Result<Tracer, String> {
    let (vertices, base_edges, shape) = sizes(p);
    let mut generate_s = 0.0;
    let ((inputs, mut d), setup_s) = timed_setup(|| {
        let t = Instant::now();
        let inputs: Inputs = inputs::hollywood(vertices, base_edges, shape, p.seed);
        generate_s = t.elapsed().as_secs_f64();
        let d = Durable::open("ingest", false, &inputs.base)?;
        Ok((inputs, d))
    })?;
    r.set("setup_s", setup_s);
    let reference = harness::recover_reference(d.tag, p)?;
    r.set("datasets.generate_s", generate_s);

    let stats0 = d.store.stats();
    let counters = Counters::now();
    let wal0 = d.dir.wal_bytes();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(p.trace, epoch);
    let (mut ack, mut traced, mut untraced) =
        (Sample::default(), Sample::default(), Sample::default());
    let mut failed = 0;
    let mut ops = 0u64;
    for (k, b) in inputs.batches.iter().enumerate() {
        let k = k as u64;
        let is_traced = p.traced_unit(k);
        let start = Instant::now();
        let root = tracer.root("ingest.batch", k, is_traced);
        let ok = harness::ack_batch(&mut d.wal, &d.store, &mut tracer, root, k, b);
        tracer.end(root);
        let us = start.elapsed().as_secs_f64() * 1e6;
        ack.push(us);
        (if is_traced { &mut traced } else { &mut untraced }).push(us);
        ops += b.len() as u64;
        failed += u64::from(!ok);
    }
    let phase_s = epoch.elapsed().as_secs_f64();
    r.attempts(inputs.batches.len() as u64, failed);
    r.set("ingest_meps", ops as f64 / phase_s / 1e6);
    r.set("ack_p50_us", ack.median());
    r.pooled_tail("ack_p99_us", 99.0, ack);
    r.set("persist.bytes_per_op", (d.dir.wal_bytes() - wal0) as f64 / ops as f64);
    layers::tinker_metrics(r, &stats0, &d.store.stats());
    counters.report(r, ops, inputs.batches.len() as u64, harness::SHARDS, 0);
    let bytes = d.live_bytes() as f64 / d.store.num_edges() as f64;
    r.set("bytes_per_edge", bytes);
    r.set("tinker.bytes_per_edge", bytes);
    if p.trace {
        r.set("trace.overhead_pct", overhead_pct(&traced, &untraced));
    }

    harness::verify_and_recover(d, inputs, ops, p, reference, r)?;
    Ok(tracer)
}
