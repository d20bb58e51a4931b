//! Multi-source BFS as Boolean SpMSpM (paper §5.1.2).
//!
//! One MS-BFS iteration is the Boolean product of the frontier matrix `F`
//! (searches × vertices) with the adjacency matrix `S`; visited filtering
//! happens offline (outside the timed kernel), matching the paper's setup.

use crate::spmspm::gustavson;
use drt_tensor::{CsMatrix, MajorAxis};

/// One frontier expansion: `F' = bool(F · S)` (values forced to 1.0).
///
/// # Panics
///
/// Panics when `f.ncols() != s.nrows()`.
pub fn frontier_step(f: &CsMatrix, s: &CsMatrix) -> CsMatrix {
    let product = gustavson(f, s).z;
    let entries: Vec<(u32, u32, f64)> = product.iter().map(|(r, c, _)| (r, c, 1.0)).collect();
    CsMatrix::from_entries(product.nrows(), product.ncols(), entries, MajorAxis::Row)
}

/// Filter visited vertices out of a frontier (the offline step): keeps
/// only entries absent from `visited` (same shape as the frontier).
pub fn filter_visited(frontier: &CsMatrix, visited: &CsMatrix) -> CsMatrix {
    let entries: Vec<(u32, u32, f64)> =
        frontier.iter().filter(|&(r, c, _)| visited.get(r, c) == 0.0).collect();
    CsMatrix::from_entries(frontier.nrows(), frontier.ncols(), entries, MajorAxis::Row)
}

/// Run full MS-BFS from initial frontier `f0`, returning the frontier of
/// every level (after visited filtering), as the workload generator does.
pub fn msbfs(f0: &CsMatrix, s: &CsMatrix, max_iters: usize) -> Vec<CsMatrix> {
    let mut visited = f0.clone();
    let mut frontier = f0.clone();
    let mut levels = vec![f0.clone()];
    for _ in 1..max_iters {
        if frontier.nnz() == 0 {
            break;
        }
        let expanded = frontier_step(&frontier, s);
        let next = filter_visited(&expanded, &visited);
        if next.nnz() == 0 {
            break;
        }
        // visited ∪= next.
        let mut ent: Vec<(u32, u32, f64)> = visited.iter().collect();
        ent.extend(next.iter());
        ent.dedup();
        visited = CsMatrix::from_entries(visited.nrows(), visited.ncols(), ent, MajorAxis::Row);
        // Clamp summed duplicates back to 1.0.
        let ones: Vec<(u32, u32, f64)> = visited.iter().map(|(r, c, _)| (r, c, 1.0)).collect();
        visited = CsMatrix::from_entries(visited.nrows(), visited.ncols(), ones, MajorAxis::Row);
        levels.push(next.clone());
        frontier = next;
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_tensor::CooMatrix;
    use drt_workloads::msbfs;
    use drt_workloads::patterns::unstructured;

    fn path_graph(n: u32) -> CsMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            coo.push(i, i + 1, 1.0).expect("ok");
        }
        CsMatrix::from_coo(&coo, MajorAxis::Row)
    }

    #[test]
    fn frontier_step_advances_path() {
        let s = path_graph(5);
        let f0 = CsMatrix::from_entries(1, 5, vec![(0, 0, 1.0)], MajorAxis::Row);
        let f1 = frontier_step(&f0, &s);
        assert_eq!(f1.nnz(), 1);
        assert_eq!(f1.get(0, 1), 1.0);
    }

    #[test]
    fn msbfs_levels_match_workload_generator() {
        // The kernel-level MS-BFS must agree with drt-workloads' generator
        // on per-level frontier sizes.
        let s = unstructured(64, 64, 512, 2.0, 3);
        let w = msbfs::build(&s, 16, 12, 3);
        let levels = super::msbfs(&w.frontiers[0], &w.adjacency, 12);
        assert_eq!(levels.len(), w.frontiers.len());
        for (ours, theirs) in levels.iter().zip(&w.frontiers) {
            assert!(ours.logically_eq(theirs), "frontier level mismatch");
        }
    }

    #[test]
    fn filter_visited_removes_overlap() {
        let f = CsMatrix::from_entries(1, 4, vec![(0, 1, 1.0), (0, 2, 1.0)], MajorAxis::Row);
        let v = CsMatrix::from_entries(1, 4, vec![(0, 1, 1.0)], MajorAxis::Row);
        let out = filter_visited(&f, &v);
        assert_eq!(out.nnz(), 1);
        assert_eq!(out.get(0, 2), 1.0);
    }

    #[test]
    fn bfs_terminates_on_disconnected_graph() {
        let s = CsMatrix::zero(8, 8, MajorAxis::Row);
        let f0 = CsMatrix::from_entries(2, 8, vec![(0, 0, 1.0), (1, 7, 1.0)], MajorAxis::Row);
        let levels = msbfs(&f0, &s, 100);
        assert_eq!(levels.len(), 1);
    }
}
