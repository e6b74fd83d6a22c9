//! Distributed tree structures: the global spanning BFS tree and the
//! per-root depth-bounded BFS trees around a sparse set `Q` ("known
//! distributedly" in the sense of Section 2 of the paper: each node knows
//! its ancestor and descendants per tree plus the root's ID).

use powersparse_graphs::NodeId;

/// A spanning BFS tree rooted at `root`, known distributedly.
#[derive(Debug, Clone)]
pub struct GlobalTree {
    /// The root (e.g. the elected leader).
    pub root: NodeId,
    /// `parent[v]`; `None` for the root.
    pub parent: Vec<Option<NodeId>>,
    /// Children lists (derived from `parent`).
    pub children: Vec<Vec<NodeId>>,
    /// `level[v] = dist(root, v)`.
    pub level: Vec<u32>,
    /// Tree depth: `max level`.
    pub depth: u32,
}

impl GlobalTree {
    /// Builds the derived fields from parent pointers and levels.
    ///
    /// # Panics
    ///
    /// Panics if exactly the root lacks a parent or levels are
    /// inconsistent with parents.
    pub fn from_parents(root: NodeId, parent: Vec<Option<NodeId>>, level: Vec<u32>) -> Self {
        assert_eq!(parent.len(), level.len());
        assert!(parent[root.index()].is_none(), "root must have no parent");
        assert_eq!(level[root.index()], 0, "root level must be 0");
        let mut children = vec![Vec::new(); parent.len()];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                assert_eq!(
                    level[i],
                    level[p.index()] + 1,
                    "level of node {i} inconsistent with parent"
                );
                children[p.index()].push(NodeId::from(i));
            } else {
                assert_eq!(i, root.index(), "non-root node {i} has no parent");
            }
        }
        let depth = level.iter().copied().max().unwrap_or(0);
        Self {
            root,
            parent,
            children,
            level,
            depth,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.parent.len()
    }
}

/// Depth-`s` BFS trees rooted at every node of a set `Q`, represented by
/// per-node links as the paper requires for invariant **I3** (each node
/// knows, for each tree it belongs to, the root's ID, its ancestor and its
/// descendants).
///
/// Layout: two flat vectors per node, both sorted, so every lookup is a
/// binary search over one contiguous slice and a tree level is added by
/// one merge per node ([`QTrees::attach_level`]):
/// * `links[v]`: one `TreeLink` `(root, parent, level)` per tree `v`
///   belongs to, sorted by root. A root's own entry has level 0 and
///   parent = itself.
/// * `children[v]`: one `(root, child)` pair per descendant of `v`,
///   sorted by `(root, child)`, so the children of `v` in one tree are a
///   contiguous run in ascending ID order.
#[derive(Debug, Clone, Default)]
pub struct QTrees {
    /// Current tree depth.
    pub depth: usize,
    links: Vec<Vec<TreeLink>>,
    children: Vec<Vec<(u32, NodeId)>>,
}

/// One node's membership in one tree: the tree's root ID, the node's
/// ancestor in that tree (the node itself for the root) and
/// `dist(root, node)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TreeLink {
    root: u32,
    parent: NodeId,
    level: u32,
}

impl QTrees {
    /// Depth-0 trees: each root is alone in its tree.
    pub fn new_roots(n: usize, roots: &[NodeId]) -> Self {
        let mut links = vec![Vec::new(); n];
        for &r in roots {
            links[r.index()].push(TreeLink {
                root: r.0,
                parent: r,
                level: 0,
            });
        }
        Self {
            depth: 0,
            links,
            children: vec![Vec::new(); n],
        }
    }

    fn link(&self, v: NodeId, root: u32) -> Option<&TreeLink> {
        let links = &self.links[v.index()];
        links
            .binary_search_by_key(&root, |l| l.root)
            .ok()
            .map(|i| &links[i])
    }

    /// `v`'s ancestor in the tree rooted at `root`: `None` when `v` is not
    /// in that tree, `Some(None)` when `v` is its root.
    pub fn parent_of(&self, v: NodeId, root: u32) -> Option<Option<NodeId>> {
        self.link(v, root)
            .map(|l| (l.level > 0).then_some(l.parent))
    }

    /// `dist(root, v)` in the tree rooted at `root`, or `None` when `v`
    /// is not in that tree.
    pub fn level_of(&self, v: NodeId, root: u32) -> Option<u32> {
        self.link(v, root).map(|l| l.level)
    }

    /// `v`'s descendants in the tree rooted at `root` as `(root, child)`
    /// pairs in ascending child order; empty when `v` has none there.
    pub fn children_of(&self, v: NodeId, root: u32) -> &[(u32, NodeId)] {
        let kids = &self.children[v.index()];
        let lo = kids.partition_point(|&(r, _)| r < root);
        let hi = lo + kids[lo..].partition_point(|&(r, _)| r == root);
        &kids[lo..hi]
    }

    /// IDs of the tree roots.
    pub fn roots(&self) -> Vec<NodeId> {
        (0..self.links.len())
            .map(NodeId::from)
            .filter(|&v| self.level_of(v, v.0) == Some(0))
            .collect()
    }

    /// Trees that `v` belongs to, by root ID.
    pub fn trees_of(&self, v: NodeId) -> Vec<u32> {
        self.links[v.index()].iter().map(|l| l.root).collect()
    }

    /// Grows every tree by one level, to depth `self.depth + 1`.
    /// `parents[v]` lists the `(root, ancestor)` pairs of the trees `v`
    /// joins at the new level; `children[w]` lists the `(root, child)`
    /// pairs of the descendants `w` gains. Both may come in any order.
    ///
    /// # Panics
    ///
    /// Panics if a node joins a tree it is already in.
    pub fn attach_level(
        &mut self,
        parents: &[Vec<(u32, NodeId)>],
        children: &[Vec<(u32, NodeId)>],
    ) {
        let n = self.links.len();
        assert!(parents.len() == n && children.len() == n);
        let level = self.depth as u32 + 1;
        // A stable sort finds the sorted old run and merges the new
        // entries into it.
        for (v, (links, new)) in self.links.iter_mut().zip(parents).enumerate() {
            if new.is_empty() {
                continue;
            }
            links.extend(new.iter().map(|&(root, parent)| TreeLink {
                root,
                parent,
                level,
            }));
            links.sort_by_key(|l| l.root);
            if let Some(w) = links.windows(2).find(|w| w[0].root == w[1].root) {
                panic!("v{v} joins tree of root {} twice", w[0].root);
            }
        }
        for (kids, new) in self.children.iter_mut().zip(children) {
            if !new.is_empty() {
                kids.extend_from_slice(new);
                kids.sort();
            }
        }
        self.depth += 1;
    }

    /// Drops every tree whose root is not in `keep` (mask over node IDs).
    /// Used when a sparsification iteration discards `Q_{s-1} \ Q_s`
    /// ("the trees of nodes in `Q_{s-1} \ Q_s` are not used anymore").
    pub fn retain_roots(&mut self, keep: &[bool]) {
        for links in &mut self.links {
            links.retain(|l| keep[l.root as usize]);
        }
        for kids in &mut self.children {
            kids.retain(|&(r, _)| keep[r as usize]);
        }
    }

    /// Number of trees that use the directed edge `w → v` or `v → w`
    /// (i.e. `v` is a child of `w` or vice versa), summed over roots.
    /// Used to verify the `P = 2Δ̂` tree-congestion bound of Lemma 4.2.
    pub fn trees_using_edge(&self, v: NodeId, w: NodeId) -> usize {
        let below = |a: NodeId, b: NodeId| {
            self.links[a.index()]
                .iter()
                .filter(|l| l.level > 0 && l.parent == b)
                .count()
        };
        below(v, w) + below(w, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_tree_from_parents() {
        // Path 0-1-2 rooted at 1.
        let t = GlobalTree::from_parents(
            NodeId(1),
            vec![Some(NodeId(1)), None, Some(NodeId(1))],
            vec![1, 0, 1],
        );
        assert_eq!(t.depth, 1);
        assert_eq!(t.children[1], vec![NodeId(0), NodeId(2)]);
        assert_eq!(t.n(), 3);
    }

    #[test]
    #[should_panic(expected = "inconsistent with parent")]
    fn inconsistent_levels_panic() {
        GlobalTree::from_parents(NodeId(0), vec![None, Some(NodeId(0))], vec![0, 2]);
    }

    /// Adds one tree level from `(root, node, parent)` links, recording
    /// both ends of every link.
    fn grow(t: &mut QTrees, links: &[(u32, u32, u32)]) {
        let n = t.links.len();
        let mut parents = vec![Vec::new(); n];
        let mut children = vec![Vec::new(); n];
        for &(root, v, p) in links {
            parents[v as usize].push((root, NodeId(p)));
            children[p as usize].push((root, NodeId(v)));
        }
        t.attach_level(&parents, &children);
    }

    #[test]
    fn qtrees_roots_and_attach() {
        let mut t = QTrees::new_roots(5, &[NodeId(0), NodeId(4)]);
        assert_eq!(t.roots(), vec![NodeId(0), NodeId(4)]);
        grow(&mut t, &[(0, 1, 0), (4, 3, 4)]);
        grow(&mut t, &[(0, 2, 1)]);
        assert_eq!(t.depth, 2);
        assert_eq!(t.trees_of(NodeId(1)), vec![0]);
        assert_eq!(t.children_of(NodeId(0), 0), &[(0, NodeId(1))]);
        assert_eq!(t.level_of(NodeId(2), 0), Some(2));
        assert_eq!(t.parent_of(NodeId(2), 0), Some(Some(NodeId(1))));
        assert_eq!(t.parent_of(NodeId(0), 0), Some(None));
        assert_eq!(t.parent_of(NodeId(2), 4), None);
        assert_eq!(t.trees_using_edge(NodeId(1), NodeId(0)), 1);
        assert_eq!(t.trees_using_edge(NodeId(2), NodeId(3)), 0);
    }

    #[test]
    fn retain_roots_drops_trees() {
        let mut t = QTrees::new_roots(4, &[NodeId(0), NodeId(3)]);
        grow(&mut t, &[(0, 1, 0), (3, 1, 3)]);
        let mut keep = vec![false; 4];
        keep[3] = true;
        t.retain_roots(&keep);
        assert_eq!(t.roots(), vec![NodeId(3)]);
        assert_eq!(t.trees_of(NodeId(1)), vec![3]);
        assert!(t.children_of(NodeId(0), 0).is_empty());
        assert_eq!(t.children_of(NodeId(3), 3), &[(3, NodeId(1))]);
    }

    #[test]
    fn node_in_multiple_trees() {
        let mut t = QTrees::new_roots(3, &[NodeId(0), NodeId(2)]);
        grow(&mut t, &[(0, 1, 0), (2, 1, 2)]);
        assert_eq!(t.trees_of(NodeId(1)), vec![0, 2]);
        assert_eq!(t.trees_using_edge(NodeId(1), NodeId(0)), 1);
        assert_eq!(t.trees_using_edge(NodeId(1), NodeId(2)), 1);
    }

    #[test]
    fn children_runs_are_per_root_and_ascending() {
        // Star around 2 with roots 0 and 4 on either side: node 2 has
        // children 1 and 3 in both trees at level 2.
        let mut t = QTrees::new_roots(6, &[NodeId(0), NodeId(4)]);
        grow(&mut t, &[(0, 2, 0), (4, 2, 4)]);
        grow(&mut t, &[(4, 3, 2), (0, 3, 2), (4, 1, 2), (0, 1, 2)]);
        let kids = [(0, NodeId(1)), (0, NodeId(3))];
        assert_eq!(t.children_of(NodeId(2), 0), &kids);
        assert_eq!(t.children_of(NodeId(2), 4), &kids.map(|(_, c)| (4, c)));
        assert!(t.children_of(NodeId(2), 1).is_empty());
        assert!(t.children_of(NodeId(2), 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "v1 joins tree of root 0 twice")]
    fn joining_a_tree_twice_panics() {
        let mut t = QTrees::new_roots(2, &[NodeId(0)]);
        grow(&mut t, &[(0, 1, 0)]);
        grow(&mut t, &[(0, 1, 0)]);
    }
}
