//! Pipelined ID-set exchange (Lemma 4.1): learning the distance-`(s+1)`
//! `Q`-neighborhood from the distance-`s` one, and extending the BFS trees
//! rooted at `Q` by one level.

use crate::engine::{RoundEngine, RoundPhase};
use crate::trees::QTrees;
use powersparse_graphs::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// Each node sends its ID set to every neighbor (pipelined by the engine:
/// a set of `t` IDs is one `t·id_bits`-bit message). Returns, per node,
/// the sets received from each neighbor, keyed by the neighbor's ID.
///
/// This is the communication core of Lemma 4.1; with
/// `|set| ≤ Δ̂` the measured cost is `O(Δ̂ · id_bits / bandwidth)` rounds.
pub fn exchange_with_neighbors<E: RoundEngine>(
    sim: &mut E,
    sets: &[BTreeSet<u32>],
) -> Vec<BTreeMap<u32, BTreeSet<u32>>> {
    send_sets(
        sim,
        sets,
        |mine: &mut BTreeMap<u32, BTreeSet<u32>>, from, ids| {
            mine.insert(from.0, ids.iter().copied().collect());
        },
    )
}

/// The exchange behind [`exchange_with_neighbors`]: every node with a
/// nonempty set sends it to all neighbors, and `absorb(state, from, ids)`
/// folds each received set into the receiver's state.
fn send_sets<E: RoundEngine, S: Clone + Default + Send>(
    sim: &mut E,
    sets: &[BTreeSet<u32>],
    absorb: impl Fn(&mut S, NodeId, &[u32]) + Sync,
) -> Vec<S> {
    let n = sim.graph().n();
    assert_eq!(sets.len(), n);
    let id_bits = sim.graph().id_bits();
    let mut received: Vec<S> = vec![S::default(); n];
    let mut phase = sim.phase::<Vec<u32>>();
    phase.step_stateless(|v, _in, out| {
        let s = &sets[v.index()];
        if s.is_empty() {
            return;
        }
        let payload: Vec<u32> = s.iter().copied().collect();
        let bits = payload.len() * id_bits;
        for i in 0..out.neighbors(v).len() {
            let w = out.neighbors(v)[i];
            out.send(v, w, payload.clone(), bits);
        }
    });
    let max_set = sets.iter().map(BTreeSet::len).max().unwrap_or(0) as u64;
    let budget = 8 * (max_set + 2) * id_bits as u64;
    phase.settle(budget, &mut received, |mine, _v, inbox| {
        for (from, ids) in inbox {
            absorb(mine, *from, ids);
        }
    });
    received
}

/// Lemma 4.1, first claim: from per-node knowledge of `N^s(v, Q)` (the
/// `sets`), every node learns `N^{s+1}(v, Q) = ∪_{w ∈ N(v)} N^s(w, Q)`
/// (with `v` itself removed; neighborhoods are non-inclusive).
pub fn exchange_id_sets<E: RoundEngine>(sim: &mut E, sets: &[BTreeSet<u32>]) -> Vec<BTreeSet<u32>> {
    let received = exchange_with_neighbors(sim, sets);
    let n = sets.len();
    let mut out: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
    for i in 0..n {
        let mut u: BTreeSet<u32> = sets[i].clone();
        for s in received[i].values() {
            u.extend(s.iter().copied());
        }
        u.remove(&(i as u32));
        out[i] = u;
    }
    out
}

/// Bootstraps per-node knowledge of `N^1(v, Q)` and the depth-1 BFS trees
/// rooted at the members of `Q`, in one communication round: every member
/// broadcasts its own ID; every receiver records the sender as a tree
/// ancestor, and every member records all its neighbors (the receivers of
/// its broadcast) as descendants. This establishes invariant **I3** for
/// `s = 0 → 1` and is the starting point for iterated [`extend_trees`]
/// calls.
pub fn init_knowledge_and_trees<E: RoundEngine>(
    sim: &mut E,
    q: &[bool],
) -> (Vec<BTreeSet<u32>>, QTrees) {
    let g = sim.graph();
    let n = g.n();
    assert_eq!(q.len(), n);
    let id_bits = g.id_bits();
    let roots: Vec<NodeId> = q
        .iter()
        .enumerate()
        .filter(|(_, &m)| m)
        .map(|(i, _)| NodeId::from(i))
        .collect();
    let children: Vec<Vec<(u32, NodeId)>> = g
        .nodes()
        .map(|r| {
            let kids = if q[r.index()] { g.neighbors(r) } else { &[] };
            kids.iter().map(|&w| (r.0, w)).collect()
        })
        .collect();
    let mut trees = QTrees::new_roots(n, &roots);
    // Per node: the (root, ancestor) links it heard, one per Q-neighbor.
    let mut parents: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); n];
    let mut phase = sim.phase::<u32>();
    phase.step_stateless(|v, _in, out| {
        if q[v.index()] {
            out.broadcast(v, v.0, id_bits);
        }
    });
    phase.settle(8 * id_bits as u64, &mut parents, |mine, _v, inbox| {
        mine.extend(inbox.iter().map(|&(from, x)| (x, from)));
    });
    drop(phase);
    let sets = parents
        .iter()
        .map(|links| links.iter().map(|&(x, _)| x).collect())
        .collect();
    trees.attach_level(&parents, &children);
    (sets, trees)
}

/// Lemma 4.1, second claim: additionally extends each depth-`s` BFS tree
/// `T_x` (for `x ∈ Q`) to depth `s+1`. For every newly learned ID
/// `x ∈ N^{s+1}(v,Q) \ N^s(v,Q)`, `v` picks one neighbor `w_x` that sent
/// `ID(x)` (the smallest, for determinism), sets `ancestor(T_x, v) = w_x`
/// and sends a confirmation carrying `ID(x)` so `w_x` records `v` as a
/// descendant.
///
/// Returns the new sets `N^{s+1}(v, Q)`.
pub fn extend_trees<E: RoundEngine>(
    sim: &mut E,
    sets: &[BTreeSet<u32>],
    trees: &mut QTrees,
) -> Vec<BTreeSet<u32>> {
    // Per node: every (x, w) with x in the set received from neighbor w.
    let heard: Vec<Vec<(u32, NodeId)>> = send_sets(sim, sets, |mine: &mut Vec<_>, from, ids| {
        mine.extend(ids.iter().map(|&x| (x, from)));
    });
    let n = sets.len();
    let id_bits = sim.graph().id_bits();

    // Per node: the (root, chosen neighbor) attachments, by root.
    let mut chosen: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); n];
    let mut out_sets: Vec<BTreeSet<u32>> = Vec::with_capacity(n);
    for (i, mut heard) in heard.into_iter().enumerate() {
        let own = i as u32;
        // Sorted by (x, w), so the first pair kept per x names the
        // smallest neighbor that knows x.
        heard.sort_unstable();
        heard.dedup_by_key(|&mut (x, _)| x);
        let known = &sets[i];
        chosen[i] = heard
            .iter()
            .copied()
            .filter(|&(x, _)| x != own && !known.contains(&x))
            .collect();
        let heard_ids = heard.into_iter().map(|(x, _)| x);
        out_sets.push(
            known
                .iter()
                .copied()
                .chain(heard_ids)
                .filter(|&x| x != own)
                .collect(),
        );
    }

    // Confirmation round(s): v → w_x carrying ID(x). Costs id_bits per
    // confirmation, pipelined by the engine. Each w_x records the senders
    // as its descendants in T_x.
    let mut phase = sim.phase::<u32>();
    phase.step_stateless(|v, _in, out| {
        for &(x, w) in &chosen[v.index()] {
            out.send(v, w, x, id_bits);
        }
    });
    let max_new = chosen.iter().map(Vec::len).max().unwrap_or(0) as u64;
    let mut confirmed: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); n];
    phase.settle(
        8 * (max_new + 2) * id_bits as u64,
        &mut confirmed,
        |mine, _w, inbox| {
            mine.extend(inbox.iter().map(|&(from, x)| (x, from)));
        },
    );
    drop(phase);
    trees.attach_level(&chosen, &confirmed);
    out_sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulator};
    use powersparse_graphs::{generators, power, Graph};

    /// Ground-truth initial knowledge: each v knows N^1(v, Q).
    fn initial_sets(g: &Graph, q: &[bool]) -> Vec<BTreeSet<u32>> {
        g.nodes()
            .map(|v| {
                power::q_neighborhood(g, v, 1, q)
                    .into_iter()
                    .map(|w| w.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn exchange_computes_next_neighborhood() {
        let g = generators::grid(5, 5);
        let q: Vec<bool> = (0..25).map(|i| i % 3 == 0).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let s1 = initial_sets(&g, &q);
        let s2 = exchange_id_sets(&mut sim, &s1);
        for v in g.nodes() {
            let expect: BTreeSet<u32> = power::q_neighborhood(&g, v, 2, &q)
                .into_iter()
                .map(|w| w.0)
                .collect();
            assert_eq!(s2[v.index()], expect, "node {v}");
        }
    }

    #[test]
    fn iterated_exchange_reaches_distance_s() {
        let g = generators::connected_gnp(40, 0.07, 2);
        let q: Vec<bool> = (0..40).map(|i| i % 7 == 0).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let mut sets = initial_sets(&g, &q);
        for s in 2..=3usize {
            sets = exchange_id_sets(&mut sim, &sets);
            for v in g.nodes() {
                let expect: BTreeSet<u32> = power::q_neighborhood(&g, v, s, &q)
                    .into_iter()
                    .map(|w| w.0)
                    .collect();
                assert_eq!(sets[v.index()], expect, "node {v} at s={s}");
            }
        }
    }

    #[test]
    fn pipelining_cost_scales_with_set_size() {
        // Dense Q on a clique-ish graph: sets are large, so the exchange
        // must take ~|set|·id_bits/bandwidth rounds.
        let g = generators::complete(24);
        let q = vec![true; 24];
        let mut sim = Simulator::new(&g, SimConfig::with_bandwidth(16));
        let sets = initial_sets(&g, &q);
        let before = sim.metrics().rounds;
        let _ = exchange_id_sets(&mut sim, &sets);
        let spent = sim.metrics().rounds - before;
        // 23 ids × 5 bits / 16 bw ≈ 8 rounds.
        assert!(spent >= 6, "expected pipelining cost, got {spent} rounds");
    }

    #[test]
    fn init_matches_ground_truth() {
        let g = generators::grid(4, 4);
        let q: Vec<bool> = (0..16).map(|i| i % 4 == 1).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let (sets, trees) = init_knowledge_and_trees(&mut sim, &q);
        assert_eq!(sets, initial_sets(&g, &q));
        assert_eq!(trees.depth, 1);
        // Every Q-neighbor pair is a tree link.
        for v in g.nodes() {
            for &x in &sets[v.index()] {
                if g.has_edge(v, NodeId(x)) {
                    assert_eq!(trees.parent_of(v, x), Some(Some(NodeId(x))));
                }
            }
        }
    }

    #[test]
    fn tree_extension_builds_bfs_trees() {
        let g = generators::path(6);
        let q: Vec<bool> = (0..6).map(|i| i == 0 || i == 5).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let (mut sets, mut trees) = init_knowledge_and_trees(&mut sim, &q);
        // Extend once: depth-2 trees.
        sets = extend_trees(&mut sim, &sets, &mut trees);
        assert_eq!(trees.depth, 2);
        // Node 2 is in tree 0 at level 2 with parent 1.
        assert_eq!(trees.parent_of(NodeId(2), 0), Some(Some(NodeId(1))));
        assert_eq!(trees.level_of(NodeId(2), 0), Some(2));
        // Node 3 is in tree 5 at level 2.
        assert_eq!(trees.parent_of(NodeId(3), 5), Some(Some(NodeId(4))));
        // Node 2 not yet in tree 5 (distance 3).
        assert_eq!(trees.parent_of(NodeId(2), 5), None);
        let _ = sets;
    }

    #[test]
    fn tree_levels_are_graph_distances() {
        let g = generators::grid(4, 6);
        let q_nodes: Vec<NodeId> = vec![NodeId(0), NodeId(11), NodeId(23)];
        let q: Vec<bool> = (0..24).map(|i| [0usize, 11, 23].contains(&i)).collect();
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let (mut sets, mut trees) = init_knowledge_and_trees(&mut sim, &q);
        for _ in 0..2 {
            sets = extend_trees(&mut sim, &sets, &mut trees);
        }
        for &root in &q_nodes {
            let d = powersparse_graphs::bfs::distances(&g, root);
            for v in g.nodes() {
                if let Some(lvl) = trees.level_of(v, root.0) {
                    assert_eq!(Some(lvl), d[v.index()], "root {root} node {v}");
                }
            }
        }
    }
}
