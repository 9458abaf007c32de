//! Geometric cluster tree: recursive bisection of a point cloud.
//!
//! The tree defines (a) the permutation from original indices to *cluster
//! order* in which all H-matrix data lives, and (b) the hierarchy of index
//! ranges the block structure is built from. Splitting is by median along
//! the longest bounding-box axis, which keeps the tree balanced regardless
//! of the point distribution.

use crate::geometry::{Aabb, Point3};

/// Index of a node inside [`ClusterTree::nodes`].
pub type ClusterNodeId = usize;

/// One cluster: a contiguous range `begin..end` of the permuted index array.
#[derive(Debug, Clone)]
pub struct ClusterNode {
    /// Start of the cluster's range in the permuted index array.
    pub begin: usize,
    /// End (exclusive) of the cluster's range.
    pub end: usize,
    /// Bounding box of the cluster's points.
    pub bbox: Aabb,
    /// `(left, right)` child node ids, `None` for leaves.
    pub children: Option<(ClusterNodeId, ClusterNodeId)>,
}

impl ClusterNode {
    /// Number of points in the cluster.
    pub fn len(&self) -> usize {
        self.end - self.begin
    }

    /// Whether the cluster holds no points.
    pub fn is_empty(&self) -> bool {
        self.begin == self.end
    }
}

/// Binary geometric cluster tree over a point cloud.
#[derive(Debug, Clone)]
pub struct ClusterTree {
    /// `perm[pos] = original index` — cluster order to original order.
    pub perm: Vec<usize>,
    /// `inv_perm[original] = pos` — original order to cluster order.
    pub inv_perm: Vec<usize>,
    /// All nodes; the root is index 0, children always follow parents.
    pub nodes: Vec<ClusterNode>,
    /// Leaf capacity used at construction.
    pub leaf_size: usize,
}

impl ClusterTree {
    /// Build a tree over `points` with leaves of at most `leaf_size` points.
    ///
    /// # Examples
    ///
    /// ```
    /// use csolve_hmat::{ClusterTree, Point3};
    ///
    /// let pts: Vec<Point3> = (0..16).map(|i| Point3::new(i as f64, 0.0, 0.0)).collect();
    /// let tree = ClusterTree::build(&pts, 4);
    /// assert_eq!(tree.len(), 16);
    /// assert_eq!(tree.node(tree.root()).len(), 16);
    /// // Every leaf respects the capacity.
    /// assert!(tree.leaf_ranges().iter().all(|r| r.len() <= 4));
    /// ```
    pub fn build(points: &[Point3], leaf_size: usize) -> Self {
        assert!(leaf_size >= 1);
        let n = points.len();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut nodes = Vec::new();
        if n > 0 {
            build_rec(points, &mut perm, 0, n, leaf_size, &mut nodes);
        } else {
            nodes.push(ClusterNode {
                begin: 0,
                end: 0,
                bbox: Aabb::empty(),
                children: None,
            });
        }
        let mut inv_perm = vec![0usize; n];
        for (pos, &orig) in perm.iter().enumerate() {
            inv_perm[orig] = pos;
        }
        Self {
            perm,
            inv_perm,
            nodes,
            leaf_size,
        }
    }

    /// Id of the root cluster (the full index range).
    pub fn root(&self) -> ClusterNodeId {
        0
    }

    /// Node by id.
    pub fn node(&self, id: ClusterNodeId) -> &ClusterNode {
        &self.nodes[id]
    }

    /// Number of points the tree was built over.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the tree covers no points.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Leaf index ranges in cluster order (the tile boundaries a BLR-style
    /// partitioning would use).
    pub fn leaf_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            let nd = self.node(id);
            match nd.children {
                None => out.push(nd.begin..nd.end),
                Some((l, r)) => {
                    stack.push(r);
                    stack.push(l);
                }
            }
        }
        out.sort_by_key(|r| r.start);
        out
    }

    /// Apply the permutation: gather `src` (original order) into cluster
    /// order.
    pub fn to_cluster_order<T: Copy>(&self, src: &[T]) -> Vec<T> {
        assert_eq!(src.len(), self.len());
        self.perm.iter().map(|&orig| src[orig]).collect()
    }

    /// Inverse: scatter cluster-order `src` back to original order.
    pub fn to_original_order<T: Copy>(&self, src: &[T]) -> Vec<T> {
        assert_eq!(src.len(), self.len());
        let mut out = vec![src[0]; self.len()];
        for (pos, &orig) in self.perm.iter().enumerate() {
            out[orig] = src[pos];
        }
        out
    }
}

/// Recursive median split; returns the id of the created node.
fn build_rec(
    points: &[Point3],
    perm: &mut [usize],
    begin: usize,
    end: usize,
    leaf_size: usize,
    nodes: &mut Vec<ClusterNode>,
) -> ClusterNodeId {
    let bbox = Aabb::from_points(perm[begin..end].iter().map(|&i| &points[i]));
    let id = nodes.len();
    nodes.push(ClusterNode {
        begin,
        end,
        bbox,
        children: None,
    });
    let len = end - begin;
    if len <= leaf_size {
        return id;
    }
    let axis = bbox.longest_axis();
    let mid = begin + len / 2;
    // Median partition along the chosen axis (select_nth keeps O(n)).
    perm[begin..end].select_nth_unstable_by(mid - begin, |&a, &b| {
        points[a]
            .coord(axis)
            .partial_cmp(&points[b].coord(axis))
            .unwrap()
    });
    let left = build_rec(points, perm, begin, mid, leaf_size, nodes);
    let right = build_rec(points, perm, mid, end, leaf_size, nodes);
    nodes[id].children = Some((left, right));
    id
}

/// Standard admissibility: `min(diam(σ), diam(τ)) ≤ η·dist(σ, τ)`.
pub fn admissible(a: &ClusterNode, b: &ClusterNode, eta: f64) -> bool {
    let d = a.bbox.dist(&b.bbox);
    if d <= 0.0 {
        return false;
    }
    a.bbox.diam().min(b.bbox.diam()) <= eta * d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(nx: usize, ny: usize) -> Vec<Point3> {
        let mut pts = Vec::new();
        for i in 0..nx {
            for j in 0..ny {
                pts.push(Point3::new(i as f64, j as f64, 0.0));
            }
        }
        pts
    }

    #[test]
    fn permutation_is_a_bijection() {
        let pts = grid_points(13, 7);
        let t = ClusterTree::build(&pts, 8);
        let mut seen = vec![false; pts.len()];
        for &i in &t.perm {
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for orig in 0..pts.len() {
            assert_eq!(t.perm[t.inv_perm[orig]], orig);
        }
    }

    #[test]
    fn leaves_partition_the_range() {
        let pts = grid_points(10, 10);
        let t = ClusterTree::build(&pts, 16);
        let ranges = t.leaf_ranges();
        let mut cursor = 0;
        for r in &ranges {
            assert_eq!(r.start, cursor, "contiguous leaves");
            assert!(r.end - r.start <= 16, "leaf size bound");
            assert!(r.end > r.start);
            cursor = r.end;
        }
        assert_eq!(cursor, 100);
    }

    #[test]
    fn children_cover_parent_exactly() {
        let pts = grid_points(9, 5);
        let t = ClusterTree::build(&pts, 4);
        for nd in &t.nodes {
            if let Some((l, r)) = nd.children {
                assert_eq!(t.node(l).begin, nd.begin);
                assert_eq!(t.node(l).end, t.node(r).begin);
                assert_eq!(t.node(r).end, nd.end);
                // Balanced median split: sizes differ by at most 1.
                let ll = t.node(l).len() as i64;
                let rl = t.node(r).len() as i64;
                assert!((ll - rl).abs() <= 1);
            }
        }
    }

    #[test]
    fn clusters_geometrically_localized() {
        // Two well separated blobs must end up in different first-level
        // children.
        let mut pts = grid_points(4, 4);
        for p in grid_points(4, 4) {
            pts.push(Point3::new(p.x + 100.0, p.y, p.z));
        }
        let t = ClusterTree::build(&pts, 8);
        let (l, r) = t.node(t.root()).children.unwrap();
        let d = t.node(l).bbox.dist(&t.node(r).bbox);
        assert!(d > 90.0, "split separated the blobs (dist {d})");
        assert!(admissible(t.node(l), t.node(r), 1.0));
    }

    #[test]
    fn admissibility_diagonal_blocks_rejected() {
        let pts = grid_points(8, 8);
        let t = ClusterTree::build(&pts, 4);
        let root = t.node(t.root());
        assert!(
            !admissible(root, root, 100.0),
            "self block never admissible"
        );
    }

    #[test]
    fn order_round_trip() {
        let pts = grid_points(5, 5);
        let t = ClusterTree::build(&pts, 4);
        let orig: Vec<f64> = (0..25).map(|i| i as f64).collect();
        let clustered = t.to_cluster_order(&orig);
        let back = t.to_original_order(&clustered);
        assert_eq!(orig, back);
    }

    #[test]
    fn single_point_and_empty() {
        let t = ClusterTree::build(&[Point3::new(1.0, 2.0, 3.0)], 4);
        assert_eq!(t.len(), 1);
        assert_eq!(t.leaf_ranges(), vec![0..1]);
        let te = ClusterTree::build(&[], 4);
        assert_eq!(te.len(), 0);
    }
}
