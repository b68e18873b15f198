//! Critical-path extraction by predecessor backtracking.

use tv_netlist::{Netlist, NodeId};

use crate::graph::ArcGraph;
use crate::propagate::{Arrivals, Edge, PhaseResult};

/// One step of a timing path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStep {
    /// The node transitioning.
    pub node: NodeId,
    /// Which way it transitions.
    pub edge: Edge,
    /// When, ns from the phase's opening edge.
    pub at: f64,
}

/// A worst-case path from a source to an endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingPath {
    /// Steps in causal order (source first).
    pub steps: Vec<PathStep>,
}

impl TimingPath {
    /// The endpoint's arrival, ns.
    ///
    /// # Panics
    ///
    /// Never — paths always have at least one step.
    pub fn arrival(&self) -> f64 {
        self.steps.last().expect("paths are non-empty").at
    }

    /// The endpoint node.
    pub fn endpoint(&self) -> NodeId {
        self.steps.last().expect("paths are non-empty").node
    }

    /// Number of steps (stages traversed plus the source).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the path is empty (never true for extracted paths).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Renders the path with node names, one step per line.
    pub fn display(&self, netlist: &Netlist) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for step in &self.steps {
            let dir = match step.edge {
                Edge::Rise => "↑",
                Edge::Fall => "↓",
            };
            let _ = writeln!(
                s,
                "  {:>9.3} ns  {} {}",
                step.at,
                dir,
                netlist.node_name(step.node)
            );
        }
        s
    }
}

/// Backtracks the worst path ending at `(node, edge)`.
///
/// Returns `None` if that transition never happens in this case.
pub fn backtrack(
    graph: &impl ArcGraph,
    arrivals: &Arrivals,
    node: NodeId,
    edge: Edge,
) -> Option<TimingPath> {
    let mut steps = Vec::new();
    let mut cur = node;
    let mut cur_edge = edge;
    let mut guard = 0usize;
    loop {
        let at = match cur_edge {
            Edge::Rise => arrivals.rise(cur)?,
            Edge::Fall => arrivals.fall(cur)?,
        };
        steps.push(PathStep {
            node: cur,
            edge: cur_edge,
            at,
        });
        let pred = match cur_edge {
            Edge::Rise => arrivals.pred_rise[cur.index()],
            Edge::Fall => arrivals.pred_fall[cur.index()],
        };
        match pred {
            None => break, // reached a source
            Some(p) => {
                let arc = graph.arc(p.arc);
                cur = arc.from;
                cur_edge = p.from_edge;
            }
        }
        guard += 1;
        if guard > graph.arc_count() + 8 {
            // Only possible when propagation was cut off mid-cycle; the
            // partial path is still informative.
            break;
        }
    }
    steps.reverse();
    Some(TimingPath { steps })
}

/// The `k` worst endpoint paths of a phase result, latest first.
pub fn critical_paths(graph: &impl ArcGraph, result: &PhaseResult, k: usize) -> Vec<TimingPath> {
    result
        .endpoints
        .iter()
        .take(k)
        .filter_map(|&(node, _)| {
            let edge = result.arrivals.worst_edge(node)?;
            backtrack(graph, &result.arrivals, node, edge)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{PhaseCase, TimingGraph};
    use crate::options::DelayModel;
    use crate::propagate::propagate;
    use tv_clocks::qualify::qualify_with_flow;
    use tv_flow::{analyze, RuleSet};
    use tv_netlist::{NetlistBuilder, Tech};

    fn chain(n: usize) -> (tv_netlist::Netlist, NodeId, NodeId) {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let mut prev = a;
        for i in 0..n {
            let next = b.node(format!("n{i}"));
            b.inverter(format!("i{i}"), prev, next);
            prev = next;
        }
        let nl = b.finish().unwrap();
        let a = nl.node_by_name("a").unwrap();
        let out = nl.node_by_name(&format!("n{}", n - 1)).unwrap();
        (nl, a, out)
    }

    fn analyze_chain(
        nl: &tv_netlist::Netlist,
        src: NodeId,
        end: NodeId,
    ) -> (TimingGraph, PhaseResult) {
        let flow = analyze(nl, &RuleSet::all());
        let q = qualify_with_flow(nl, &flow);
        let g = TimingGraph::build(
            nl,
            &flow,
            &q,
            PhaseCase::all_active(),
            DelayModel::Elmore,
            1.0,
        );
        let r = propagate(nl, &g, &[src], &[end], &tv_rc::SlopeModel::calibrated());
        (g, r)
    }

    #[test]
    fn path_visits_every_chain_stage_in_order() {
        let (nl, a, out) = chain(4);
        let (g, r) = analyze_chain(&nl, a, out);
        let paths = critical_paths(&g, &r, 1);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.len(), 5); // source + 4 stages
        assert_eq!(p.steps[0].node, a);
        assert_eq!(p.endpoint(), out);
        // Times strictly increase along the path.
        for w in p.steps.windows(2) {
            assert!(w[1].at > w[0].at);
        }
        // Edges alternate through inverters.
        for w in p.steps.windows(2) {
            assert_eq!(w[1].edge, w[0].edge.flipped());
        }
    }

    #[test]
    fn path_arrival_matches_endpoint_arrival() {
        let (nl, a, out) = chain(3);
        let (g, r) = analyze_chain(&nl, a, out);
        let p = &critical_paths(&g, &r, 1)[0];
        assert!((p.arrival() - r.arrival(out).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn top_k_is_bounded_by_endpoints() {
        let (nl, a, out) = chain(2);
        let (g, r) = analyze_chain(&nl, a, out);
        let paths = critical_paths(&g, &r, 10);
        assert_eq!(paths.len(), 1, "only one endpoint exists");
    }

    #[test]
    fn display_renders_names_and_arrows() {
        let (nl, a, out) = chain(2);
        let (g, r) = analyze_chain(&nl, a, out);
        let p = &critical_paths(&g, &r, 1)[0];
        let text = p.display(&nl);
        assert!(text.contains('a'));
        assert!(text.contains('↑') || text.contains('↓'));
    }

    #[test]
    fn backtrack_of_impossible_edge_is_none() {
        let (nl, a, out) = chain(1);
        let flow = analyze(&nl, &RuleSet::all());
        let q = qualify_with_flow(&nl, &flow);
        let g = TimingGraph::build(
            &nl,
            &flow,
            &q,
            PhaseCase::all_active(),
            DelayModel::Elmore,
            1.0,
        );
        // No sources at all: nothing arrives anywhere.
        let r = propagate(&nl, &g, &[], &[out], &tv_rc::SlopeModel::calibrated());
        assert!(backtrack(&g, &r.arrivals, out, Edge::Rise).is_none());
        let _ = a;
    }
}
