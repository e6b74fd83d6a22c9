//! Shard layout shared by the two parallel backends of this crate,
//! [`crate::PooledSimulator`] and [`crate::ProcessSimulator`], plus the
//! default shard count their `new` constructors use.
//!
//! Shards are contiguous node ranges ([`ShardLayout`]), so each shard
//! also owns the contiguous range of directed edge indices of its
//! nodes' out-edges (CSR alignment): message queues and per-edge
//! counters are sliced per shard, never shared. Reading shards in
//! ascending order is therefore reading edges in ascending global
//! order, the delivery order of the sequential reference engine; both
//! backends splice deliveries in that order, so the layout is what
//! keeps their results identical at every shard count.

use powersparse_graphs::partition::shard_ranges;
use powersparse_graphs::Graph;
use std::ops::Range;

/// The worker count used by the engines' `new` constructors:
/// `POWERSPARSE_THREADS`, else `RAYON_NUM_THREADS`, else the machine's
/// available parallelism.
pub fn default_shards() -> usize {
    for var in ["POWERSPARSE_THREADS", "RAYON_NUM_THREADS"] {
        if let Ok(s) = std::env::var(var) {
            if let Ok(v) = s.trim().parse::<usize>() {
                if v >= 1 {
                    return v;
                }
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Nodes per shard below which extra workers stop paying for themselves;
/// the engines' `new` constructors cap the default worker count with
/// this.
pub const MIN_NODES_PER_SHARD: usize = 64;

/// The default worker count for `graph`: [`default_shards`], capped so
/// each worker keeps at least [`MIN_NODES_PER_SHARD`] nodes. The single
/// definition both engines' `new` constructors use — the default must
/// never drift between backends.
pub fn capped_default_shards(graph: &Graph) -> usize {
    let cap = (graph.n() / MIN_NODES_PER_SHARD).max(1);
    default_shards().min(cap)
}

/// The contiguous, CSR-aligned shard partition of a graph: which nodes,
/// which directed edges and (inverted) which shard owns each node.
#[derive(Debug, Clone)]
pub struct ShardLayout {
    /// Contiguous node range owned by each shard.
    pub node_ranges: Vec<Range<usize>>,
    /// Directed-edge range owned by each shard (CSR-aligned with
    /// `node_ranges`).
    pub edge_ranges: Vec<Range<usize>>,
    /// Owning shard of each node.
    pub shard_of: Vec<u32>,
}

impl ShardLayout {
    /// Partitions `graph` into at most `shards` load-balanced shards
    /// (clamped to the node count, so no shard is guaranteed empty).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(graph: &Graph, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let shards = shards.min(graph.n().max(1));
        let offsets = graph.offsets();
        let node_ranges = shard_ranges(graph, shards);
        let edge_ranges: Vec<Range<usize>> = node_ranges
            .iter()
            .map(|r| offsets[r.start] as usize..offsets[r.end] as usize)
            .collect();
        let mut shard_of = vec![0u32; graph.n()];
        for (w, r) in node_ranges.iter().enumerate() {
            for s in &mut shard_of[r.clone()] {
                *s = w as u32;
            }
        }
        Self {
            node_ranges,
            edge_ranges,
            shard_of,
        }
    }

    /// Number of shards (= worker threads in parallel stages).
    pub fn shards(&self) -> usize {
        self.node_ranges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersparse_graphs::generators;

    #[test]
    fn layout_is_contiguous_and_csr_aligned() {
        let g = generators::connected_gnp(100, 0.06, 3);
        for shards in [1usize, 2, 5, 9] {
            let layout = ShardLayout::new(&g, shards);
            assert_eq!(layout.shards(), shards.min(g.n()));
            let mut node_cursor = 0;
            let offsets = g.offsets();
            for (w, (nr, er)) in layout
                .node_ranges
                .iter()
                .zip(&layout.edge_ranges)
                .enumerate()
            {
                assert_eq!(nr.start, node_cursor, "node ranges must be contiguous");
                node_cursor = nr.end;
                assert_eq!(er.start, offsets[nr.start] as usize);
                assert_eq!(er.end, offsets[nr.end] as usize);
                for v in nr.clone() {
                    assert_eq!(layout.shard_of[v], w as u32);
                }
            }
            assert_eq!(node_cursor, g.n());
        }
    }

    #[test]
    fn layout_clamps_to_node_count() {
        let g = generators::path(3);
        let layout = ShardLayout::new(&g, 64);
        assert_eq!(layout.shards(), 3);
    }
}
