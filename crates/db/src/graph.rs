//! Directed graphs and the one cycle finder. The 1SR oracle (is the
//! serialization graph acyclic?) and deadlock detection (does the
//! wait-for graph hold a cycle?) ask the same question of the same code.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A directed graph over nodes `0..n` in compressed sparse rows: the
/// successors of `a` are `succ[start[a]..start[a + 1]]`, in the order
/// their edges were given.
pub(crate) struct Csr {
    start: Vec<usize>,
    succ: Vec<u32>,
}

impl Csr {
    /// Builds the graph from edges in any order, bucketed stably by
    /// source. Duplicate edges are kept.
    pub(crate) fn new(n: usize, edges: &[(u32, u32)]) -> Self {
        // Out-degrees summed inclusively leave `start[a]` at the end of
        // `a`'s range; filling from the last edge back walks each cursor
        // down to the range's start and keeps the given order.
        let mut start = vec![0usize; n + 1];
        for &(a, _) in edges {
            start[a as usize] += 1;
        }
        for a in 1..=n {
            start[a] += start[a - 1];
        }
        let mut succ = vec![0u32; edges.len()];
        for &(a, b) in edges.iter().rev() {
            start[a as usize] -= 1;
            succ[start[a as usize]] = b;
        }
        Csr { start, succ }
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }

    fn successors(&self, a: usize) -> &[u32] {
        &self.succ[self.start[a]..self.start[a + 1]]
    }

    /// Kahn's algorithm, smallest ready node first; `None` if the graph
    /// has a cycle ([`first_cycle`] names one).
    pub(crate) fn topological_order(&self) -> Option<Vec<usize>> {
        let n = self.len();
        let mut indegree = vec![0u32; n];
        for &b in &self.succ {
            indegree[b as usize] += 1;
        }
        let mut ready: BinaryHeap<Reverse<usize>> =
            (0..n).filter(|&a| indegree[a] == 0).map(Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(a)) = ready.pop() {
            order.push(a);
            for &b in self.successors(a) {
                let b = b as usize;
                indegree[b] -= 1;
                if indegree[b] == 0 {
                    ready.push(Reverse(b));
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// [`first_cycle`]'s depth-first search, over dense indices.
    fn find_cycle(&self) -> Option<Vec<usize>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color = vec![Color::White; self.len()];
        for root in 0..self.len() {
            if color[root] != Color::White {
                continue;
            }
            // The grey path, each node with the successor to try next.
            let mut path = vec![(root, 0usize)];
            color[root] = Color::Grey;
            while let Some((node, next)) = path.last_mut() {
                let Some(&succ) = self.successors(*node).get(*next) else {
                    color[*node] = Color::Black;
                    path.pop();
                    continue;
                };
                let succ = succ as usize;
                *next += 1;
                match color[succ] {
                    Color::Grey => {
                        let from = path
                            .iter()
                            .position(|&(p, _)| p == succ)
                            .expect("grey nodes are on the path");
                        return Some(path[from..].iter().map(|&(p, _)| p).collect());
                    }
                    Color::White => {
                        color[succ] = Color::Grey;
                        path.push((succ, 0));
                    }
                    Color::Black => {}
                }
            }
        }
        None
    }
}

/// The first cycle of the directed graph `edges`, in edge order, or
/// `None` if it is acyclic.
///
/// The search starts from the smallest node and goes up; each node's
/// successors are tried in the order their edges appear in `edges`
/// (duplicates allowed), and the first back edge closes the cycle. The
/// input order is therefore part of the answer when two cycles share a
/// node: callers that need a canonical cycle pass sorted edges.
pub fn first_cycle<T: Ord + Copy>(edges: &[(T, T)]) -> Option<Vec<T>> {
    let mut nodes: Vec<T> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let index = |t: T| u32::try_from(nodes.binary_search(&t).expect("a node")).expect("< 2^32");
    let dense: Vec<(u32, u32)> = edges.iter().map(|&(a, b)| (index(a), index(b))).collect();
    let cycle = Csr::new(nodes.len(), &dense).find_cycle()?;
    Some(cycle.into_iter().map(|i| nodes[i]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successors_keep_the_given_order() {
        let g = Csr::new(3, &[(2, 0), (0, 2), (2, 1), (0, 1), (0, 2)]);
        assert_eq!(g.successors(0), [2, 1, 2]);
        assert!(g.successors(1).is_empty());
        assert_eq!(g.successors(2), [0, 1]);
    }

    #[test]
    fn the_given_order_picks_the_cycle() {
        // Two cycles close through node 1. Its successors are tried as
        // given, so 1 → 3 → 1 is found first; sorted, it would be 1 → 2.
        let edges = [(1, 3), (1, 2), (2, 1), (3, 1)];
        assert_eq!(first_cycle(&edges), Some(vec![1, 3]));
        let mut sorted = edges;
        sorted.sort_unstable();
        assert_eq!(first_cycle(&sorted), Some(vec![1, 2]));
    }

    #[test]
    fn acyclic_graphs_have_no_cycle_and_a_smallest_first_order() {
        assert_eq!(first_cycle::<u32>(&[]), None);
        assert_eq!(first_cycle(&[(5, 1), (5, 1), (1, 9)]), None);
        let g = Csr::new(4, &[(3, 1), (2, 1), (1, 0)]);
        assert_eq!(g.topological_order(), Some(vec![2, 3, 1, 0]));
    }

    #[test]
    fn a_cycle_stalls_the_sort_and_is_reported_from_its_entry() {
        assert_eq!(first_cycle(&[(4, 4)]), Some(vec![4]));
        let edges = [(0, 1), (1, 2), (2, 3), (3, 1)];
        assert_eq!(Csr::new(4, &edges).topological_order(), None);
        assert_eq!(first_cycle(&edges), Some(vec![1, 2, 3]));
    }
}
