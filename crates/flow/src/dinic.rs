//! Dinic's max-flow algorithm over integer capacities.
//!
//! Strongly polynomial (`O(V²E)` in general, `O(E√V)` on unit-ish
//! bipartite networks like `N(R,S)`), and — crucially for Lemma 2 — it
//! produces an **integral** max flow whenever all capacities are integers,
//! which is exactly the integrality theorem the paper invokes.

use bagcons_core::{AbortReason, Deadline};

/// Identifier of a directed edge added with [`FlowNetwork::add_edge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeId(usize);

#[derive(Clone, Debug)]
struct Edge {
    to: usize,
    /// Residual capacity.
    cap: u64,
    /// Index of the reverse edge in `edges`.
    rev: usize,
}

/// A directed flow network with `u64` capacities, solved once.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    adj: Vec<Vec<usize>>, // vertex -> edge indices
    edges: Vec<Edge>,
    /// Original capacity of each forward edge (for flow reconstruction).
    orig_cap: Vec<(usize, u64)>, // EdgeId -> (edge index, original cap)
}

impl FlowNetwork {
    /// Creates a network with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
            orig_cap: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Adds a directed edge `u → v` with capacity `cap`; returns its id.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: u64) -> EdgeId {
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "vertex out of range"
        );
        let e = self.edges.len();
        self.edges.push(Edge {
            to: v,
            cap,
            rev: e + 1,
        });
        self.edges.push(Edge {
            to: u,
            cap: 0,
            rev: e,
        });
        self.adj[u].push(e);
        self.adj[v].push(e + 1);
        let id = EdgeId(self.orig_cap.len());
        self.orig_cap.push((e, cap));
        id
    }

    /// The flow currently routed through edge `id` (original capacity
    /// minus residual).
    pub fn flow(&self, id: EdgeId) -> u64 {
        let (e, cap) = self.orig_cap[id.0];
        cap - self.edges[e].cap
    }

    /// Computes a maximum `s → t` flow and returns its value.
    ///
    /// The value is returned as `u128` because it is a *sum* of `u64`
    /// capacities and can exceed `u64::MAX` even though each individual
    /// edge flow fits in a `u64`.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u128 {
        let (total, aborted) = self.max_flow_governed(s, t, &Deadline::NONE);
        debug_assert!(aborted.is_none(), "Deadline::NONE never fires");
        total
    }

    /// Augmenting paths between deadline polls in
    /// [`FlowNetwork::max_flow_governed`]'s blocking-flow loop: frequent
    /// enough that a stuck phase is noticed quickly, sparse enough that
    /// the `Instant::now()` syscall is noise against the DFS work.
    const PATHS_PER_POLL: u32 = 64;

    /// [`FlowNetwork::max_flow`] under a cooperative [`Deadline`]: the
    /// deadline is polled before each BFS phase and every
    /// `PATHS_PER_POLL` augmenting paths inside the blocking-flow loop.
    ///
    /// Returns `(augmented, abort)`. On abort (`Some` reason) the network
    /// holds a **valid feasible flow** — every DFS augmentation is
    /// path-atomic, so conservation holds and `augmented` units really
    /// were routed `s → t`; it is just not certified maximal. Residual
    /// capacities persist, so a later call continues from that flow.
    pub fn max_flow_governed(
        &mut self,
        s: usize,
        t: usize,
        deadline: &Deadline,
    ) -> (u128, Option<AbortReason>) {
        assert_ne!(s, t, "source and sink must differ");
        let n = self.adj.len();
        let mut total: u128 = 0;
        let mut level = vec![-1i32; n];
        let mut it = vec![0usize; n];
        let mut paths: u32 = 0;
        loop {
            if let Some(r) = deadline.poll() {
                return (total, Some(r));
            }
            // BFS phase: layered residual graph.
            level.iter_mut().for_each(|l| *l = -1);
            level[s] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for &e in &self.adj[u] {
                    let edge = &self.edges[e];
                    if edge.cap > 0 && level[edge.to] < 0 {
                        level[edge.to] = level[u] + 1;
                        queue.push_back(edge.to);
                    }
                }
            }
            if level[t] < 0 {
                // Maximality certified: no augmenting path remains.
                return (total, None);
            }
            // DFS phase: blocking flow.
            it.iter_mut().for_each(|i| *i = 0);
            loop {
                let pushed = self.dfs(s, t, u64::MAX, &level, &mut it);
                if pushed == 0 {
                    break;
                }
                total += pushed as u128;
                paths += 1;
                if paths % Self::PATHS_PER_POLL == 0 {
                    if let Some(r) = deadline.poll() {
                        return (total, Some(r));
                    }
                }
            }
        }
    }

    fn dfs(&mut self, u: usize, t: usize, limit: u64, level: &[i32], it: &mut [usize]) -> u64 {
        if u == t {
            return limit;
        }
        while it[u] < self.adj[u].len() {
            let e = self.adj[u][it[u]];
            let (to, cap) = (self.edges[e].to, self.edges[e].cap);
            if cap > 0 && level[to] == level[u] + 1 {
                let pushed = self.dfs(to, t, limit.min(cap), level, it);
                if pushed > 0 {
                    self.edges[e].cap -= pushed;
                    let rev = self.edges[e].rev;
                    self.edges[rev].cap += pushed;
                    return pushed;
                }
            }
            it[u] += 1;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        let e = net.add_edge(0, 1, 7);
        assert_eq!(net.max_flow(0, 1), 7);
        assert_eq!(net.flow(e), 7);
    }

    #[test]
    fn series_takes_minimum() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5);
        net.add_edge(1, 2, 3);
        assert_eq!(net.max_flow(0, 2), 3);
    }

    #[test]
    fn parallel_paths_add() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 4);
        net.add_edge(1, 3, 4);
        net.add_edge(0, 2, 6);
        net.add_edge(2, 3, 6);
        assert_eq!(net.max_flow(0, 3), 10);
    }

    #[test]
    fn classic_clrs_instance() {
        // CLRS figure 26.1-style network, known max flow 23.
        let mut net = FlowNetwork::new(6);
        net.add_edge(0, 1, 16);
        net.add_edge(0, 2, 13);
        net.add_edge(1, 2, 10);
        net.add_edge(2, 1, 4);
        net.add_edge(1, 3, 12);
        net.add_edge(3, 2, 9);
        net.add_edge(2, 4, 14);
        net.add_edge(4, 3, 7);
        net.add_edge(3, 5, 20);
        net.add_edge(4, 5, 4);
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn needs_augmenting_through_back_edge() {
        // The classic "cross" example where a naive greedy fails.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(1, 2, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(2, 3, 1);
        assert_eq!(net.max_flow(0, 3), 2);
    }

    #[test]
    fn disconnected_sink() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn flow_conservation_on_bipartite_instance() {
        // bipartite matching-like network
        let mut net = FlowNetwork::new(6);
        // 0 = s, 1,2 = left, 3,4 = right, 5 = t
        let s1 = net.add_edge(0, 1, 2);
        let s2 = net.add_edge(0, 2, 2);
        let m11 = net.add_edge(1, 3, 2);
        let m14 = net.add_edge(1, 4, 2);
        let m23 = net.add_edge(2, 3, 2);
        let t1 = net.add_edge(3, 5, 2);
        let t2 = net.add_edge(4, 5, 2);
        let v = net.max_flow(0, 5);
        assert_eq!(v, 4);
        // conservation at vertex 1: in = out
        assert_eq!(net.flow(s1), net.flow(m11) + net.flow(m14));
        assert_eq!(net.flow(s2), net.flow(m23));
        assert_eq!(net.flow(t1) + net.flow(t2), 4);
    }

    #[test]
    fn huge_capacities_no_overflow() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, u64::MAX);
        net.add_edge(0, 2, u64::MAX);
        net.add_edge(1, 3, u64::MAX);
        net.add_edge(2, 3, u64::MAX);
        assert_eq!(net.max_flow(0, 3), 2 * (u64::MAX as u128));
    }

    #[test]
    fn max_flow_is_idempotent() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5);
        net.add_edge(1, 2, 5);
        assert_eq!(net.max_flow(0, 2), 5);
        // residual graph has no augmenting path left
        assert_eq!(net.max_flow(0, 2), 0);
    }

    /// An expired deadline aborts the search before any augmentation;
    /// the network stays a valid (here: zero) flow and a later
    /// ungoverned call resumes to the true maximum.
    #[test]
    fn governed_abort_banks_partial_flow_and_resumes() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5);
        net.add_edge(1, 2, 5);
        let expired = Deadline::at(std::time::Instant::now());
        let (got, aborted) = net.max_flow_governed(0, 2, &expired);
        assert_eq!(got, 0, "no phase ran under an expired deadline");
        assert_eq!(aborted, Some(AbortReason::DeadlineExceeded));
        assert_eq!(net.max_flow(0, 2), 5, "resume finds the full flow");
    }

    /// A cancelled token reports `Cancelled`, not `DeadlineExceeded`.
    #[test]
    fn governed_abort_reports_cancellation() {
        use bagcons_core::CancelToken;
        let token = CancelToken::new();
        token.cancel();
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 3);
        let (got, aborted) = net.max_flow_governed(0, 1, &Deadline::cancelled_by(token));
        assert_eq!(got, 0);
        assert_eq!(aborted, Some(AbortReason::Cancelled));
    }
}
