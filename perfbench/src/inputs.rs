//! Input generation: a preloaded base graph plus a churn stream of update
//! batches, all derived from the run's seed.
//!
//! Every edge is drawn once, de-duplicated and shuffled, then split into a
//! base (preloaded during set-up) and a held-out tail. Timed inserts take
//! tail edges in order, so each is new to the store; timed deletes take
//! base edges in order, so each removes a live edge exactly once. No update
//! in the stream can miss, and the expected final edge set is known.

use gtinker_datasets::{PowerLawConfig, RmatConfig};
use gtinker_types::{Edge, EdgeBatch, VertexId, Weight};

/// Seeded SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The generated inputs of one workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Edges preloaded during set-up, in load order.
    pub base: Vec<Edge>,
    /// The timed update stream.
    pub batches: Vec<EdgeBatch>,
    /// Vertices with base out-edges, ascending: read and query targets.
    pub sources: Vec<VertexId>,
    /// Highest base out-degree vertex (the analytics BFS root).
    pub root: VertexId,
}

/// Shape of a churn stream.
#[derive(Debug, Clone, Copy)]
pub struct ChurnShape {
    /// Update ops per batch, as the store sees them.
    pub ops_per_batch: usize,
    /// Every `delete_every`-th op deletes a base edge.
    pub delete_every: usize,
    pub batches: usize,
}

fn key(src: VertexId, dst: VertexId) -> u64 {
    (u64::from(src) << 32) | u64::from(dst)
}

fn unkey(k: u64, seed: u64) -> Edge {
    let (src, dst) = ((k >> 32) as VertexId, k as VertexId);
    // Weights derive from the pair, so de-duplication needs no payload.
    let w = (Rng::new(k ^ seed).next_u64() % 64) as Weight + 1;
    Edge::new(src, dst, w)
}

/// Sorted, de-duplicated, self-loop-free keys, then shuffled.
fn distinct_shuffled(mut keys: Vec<u64>, rng: &mut Rng) -> Vec<u64> {
    keys.retain(|&k| (k >> 32) != (k & 0xFFFF_FFFF));
    keys.sort_unstable();
    keys.dedup();
    rng.shuffle(&mut keys);
    keys
}

fn sources_and_root(base: &[Edge]) -> (Vec<VertexId>, VertexId) {
    let space = base.iter().map(|e| e.src.max(e.dst) as usize + 1).max().unwrap_or(1);
    let mut degree = vec![0u32; space];
    for e in base {
        degree[e.src as usize] += 1;
    }
    let sources = (0..space as VertexId).filter(|&v| degree[v as usize] > 0).collect();
    // Highest degree, lowest id on ties.
    let root = (0..space).max_by_key(|&v| (degree[v], std::cmp::Reverse(v))).unwrap_or(0);
    (sources, root as VertexId)
}

/// Directed Hollywood-like power-law graph (average degree ~100, heavy
/// skew) with a churn stream over it.
pub fn hollywood(vertices: u32, base_edges: usize, shape: ChurnShape, seed: u64) -> Inputs {
    let inserts = shape.batches * (shape.ops_per_batch - shape.ops_per_batch / shape.delete_every);
    let deletes = shape.batches * (shape.ops_per_batch / shape.delete_every);
    assert!(deletes <= base_edges, "stream deletes more edges than the base holds");
    let need = base_edges + inserts;
    let mut rng = Rng::new(seed);
    let mut raw = need as u64 + need as u64 / 8;
    let keys = loop {
        let mut cfg = PowerLawConfig::hollywood_like(vertices, seed);
        cfg.num_edges = raw;
        let keys = cfg.generate().iter().map(|e| key(e.src, e.dst)).collect();
        let keys = distinct_shuffled(keys, &mut rng);
        if keys.len() >= need {
            break keys;
        }
        raw += raw / 4;
    };
    let base: Vec<Edge> = keys[..base_edges].iter().map(|&k| unkey(k, seed)).collect();
    let tail = &keys[base_edges..];
    let mut batches = Vec::with_capacity(shape.batches);
    let (mut t, mut d) = (0, 0);
    for _ in 0..shape.batches {
        let mut b = EdgeBatch::with_capacity(shape.ops_per_batch);
        for i in 0..shape.ops_per_batch {
            if (i + 1) % shape.delete_every == 0 {
                b.push_delete(base[d].src, base[d].dst);
                d += 1;
            } else {
                b.push_insert(unkey(tail[t], seed));
                t += 1;
            }
        }
        batches.push(b);
    }
    let (sources, root) = sources_and_root(&base);
    Inputs { base, batches, sources, root }
}

/// Undirected Graph500 RMAT graph (sparse, low degree), stored
/// symmetrized: every base edge and every update appears in both
/// directions, so `ops_per_batch` counts directed ops. `base_share` of the
/// distinct pairs is preloaded; the rest is the held-out tail.
pub fn rmat_symmetric(scale: u32, base_share: f64, shape: ChurnShape, seed: u64) -> Inputs {
    let undirected_ops = shape.ops_per_batch / 2;
    let deletes = shape.batches * (undirected_ops / shape.delete_every);
    let inserts = shape.batches * undirected_ops - deletes;
    // The tail (1 - base_share of the pairs) must cover the stream's inserts.
    let need = ((inserts as f64 / (1.0 - base_share)) as usize).max(1 << scale);
    let mut rng = Rng::new(seed);
    let mut raw = need as u64 + need as u64 / 4;
    let (pairs, split) = loop {
        let keys = RmatConfig::graph500(scale, raw, seed)
            .generate()
            .iter()
            .map(|e| key(e.src.min(e.dst), e.src.max(e.dst)))
            .collect();
        let pairs = distinct_shuffled(keys, &mut rng);
        let split = (pairs.len() as f64 * base_share) as usize;
        if pairs.len() - split >= inserts && split >= deletes {
            break (pairs, split);
        }
        raw += raw / 4;
    };
    let mut base = Vec::with_capacity(split * 2);
    for &k in &pairs[..split] {
        let e = unkey(k, seed);
        base.push(e);
        base.push(e.reversed());
    }
    let mut batches = Vec::with_capacity(shape.batches);
    let (mut t, mut d) = (split, 0);
    for _ in 0..shape.batches {
        let mut b = EdgeBatch::with_capacity(shape.ops_per_batch);
        for i in 0..undirected_ops {
            if (i + 1) % shape.delete_every == 0 {
                let e = unkey(pairs[d], seed);
                b.push_delete(e.src, e.dst);
                b.push_delete(e.dst, e.src);
                d += 1;
            } else {
                let e = unkey(pairs[t], seed);
                b.push_insert(e);
                b.push_insert(e.reversed());
                t += 1;
            }
        }
        batches.push(b);
    }
    let (sources, root) = sources_and_root(&base);
    Inputs { base, batches, sources, root }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtinker_types::UpdateOp;
    use std::collections::HashSet;

    fn shape(delete_every: usize) -> ChurnShape {
        ChurnShape { ops_per_batch: 40, delete_every, batches: 25 }
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = hollywood(500, 2_000, shape(4), 7);
        let b = hollywood(500, 2_000, shape(4), 7);
        assert_eq!(a.base, b.base);
        assert_eq!(a.batches, b.batches);
        let c = hollywood(500, 2_000, shape(4), 8);
        assert_ne!(a.base, c.base);
    }

    #[test]
    fn hollywood_stream_inserts_new_edges_and_deletes_live_ones() {
        let inp = hollywood(500, 2_000, shape(4), 3);
        let mut live: HashSet<(u32, u32)> = inp.base.iter().map(|e| (e.src, e.dst)).collect();
        assert_eq!(live.len(), inp.base.len(), "base has duplicate pairs");
        let mut deletes = 0;
        for b in &inp.batches {
            assert_eq!(b.len(), 40);
            for op in b.ops() {
                match *op {
                    UpdateOp::Insert(e) => assert!(live.insert((e.src, e.dst)), "insert not new"),
                    UpdateOp::Delete { src, dst } => {
                        assert!(live.remove(&(src, dst)), "delete misses");
                        deletes += 1;
                    }
                }
            }
        }
        assert_eq!(deletes, 25 * 10);
        assert!(inp.sources.binary_search(&inp.root).is_ok());
    }

    #[test]
    fn rmat_stream_is_symmetric() {
        let inp = rmat_symmetric(10, 0.75, shape(3), 5);
        let mut live: HashSet<(u32, u32)> = inp.base.iter().map(|e| (e.src, e.dst)).collect();
        assert!(live.iter().all(|&(s, d)| live.contains(&(d, s))));
        for b in &inp.batches {
            for op in b.ops() {
                match *op {
                    UpdateOp::Insert(e) => assert!(live.insert((e.src, e.dst))),
                    UpdateOp::Delete { src, dst } => assert!(live.remove(&(src, dst))),
                }
            }
            assert!(live.iter().all(|&(s, d)| live.contains(&(d, s))));
        }
    }
}
