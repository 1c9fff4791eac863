//! The cross-component lineage graph.
//!
//! The paper requires provenance "tracked across components": an answer must
//! cite not just base rows, but the query that computed it, the model call
//! that generated the query, and the datasets consulted. [`LineageGraph`] is
//! that record: a small DAG of artifacts connected by `derivedFrom` edges,
//! built incrementally as a conversation turn flows through the layers, and
//! rendered as part of every explanation.

use crate::{ProvenanceError, Result};
use std::fmt;

/// What kind of artifact a lineage node records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A registered dataset (name).
    Dataset(String),
    /// A user utterance.
    Utterance(String),
    /// A model call (description, e.g. "intent classification").
    ModelCall(String),
    /// A generated query (SQL text).
    Query(String),
    /// A non-SQL computation (e.g. "seasonal decomposition, period 6").
    Computation(String),
    /// A produced answer (short description).
    Answer(String),
}

impl NodeKind {
    /// Human label of the node kind.
    pub(crate) fn kind_label(&self) -> &'static str {
        match self {
            NodeKind::Dataset(_) => "dataset",
            NodeKind::Utterance(_) => "utterance",
            NodeKind::ModelCall(_) => "model-call",
            NodeKind::Query(_) => "query",
            NodeKind::Computation(_) => "computation",
            NodeKind::Answer(_) => "answer",
        }
    }

    /// The payload text.
    pub fn payload(&self) -> &str {
        match self {
            NodeKind::Dataset(s)
            | NodeKind::Utterance(s)
            | NodeKind::ModelCall(s)
            | NodeKind::Query(s)
            | NodeKind::Computation(s)
            | NodeKind::Answer(s) => s,
        }
    }
}

/// Node identifier within one graph.
pub(crate) type NodeId = usize;

#[derive(Debug, Clone)]
struct Node {
    kind: NodeKind,
    /// Nodes this one was derived from.
    parents: Vec<NodeId>,
}

/// The lineage DAG of a session.
#[derive(Debug, Clone, Default)]
pub struct LineageGraph {
    nodes: Vec<Node>,
}

impl LineageGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node derived from `parents`. Unknown parents are rejected
    /// (edges always point to existing nodes, so the graph stays acyclic).
    pub fn add(&mut self, kind: NodeKind, parents: &[NodeId]) -> Result<NodeId> {
        for &p in parents {
            if p >= self.nodes.len() {
                return Err(ProvenanceError::UnknownNode(p));
            }
        }
        self.nodes.push(Node { kind, parents: parents.to_vec() });
        Ok(self.nodes.len() - 1)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The kind of a node.
    pub fn kind(&self, id: NodeId) -> Result<&NodeKind> {
        self.nodes.get(id).map(|n| &n.kind).ok_or(ProvenanceError::UnknownNode(id))
    }

    /// Direct parents of a node.
    pub fn parents(&self, id: NodeId) -> Result<&[NodeId]> {
        self.nodes.get(id).map(|n| n.parents.as_slice()).ok_or(ProvenanceError::UnknownNode(id))
    }

    /// Render the derivation of `id` as an indented trace ("where-from").
    pub fn trace(&self, id: NodeId) -> Result<String> {
        if id >= self.nodes.len() {
            return Err(ProvenanceError::UnknownNode(id));
        }
        let mut out = String::new();
        self.trace_into(id, 0, &mut out);
        Ok(out)
    }

    fn trace_into(&self, id: NodeId, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let n = &self.nodes[id];
        let _ = writeln!(
            out,
            "{}{} [{}]: {}",
            "  ".repeat(depth),
            id,
            n.kind.kind_label(),
            n.kind.payload()
        );
        for &p in &n.parents {
            self.trace_into(p, depth + 1, out);
        }
    }

    /// "Where-to" analysis (the forward direction the paper pairs with
    /// where-from, feeding Guidance): all nodes derived, transitively, from
    /// `id`.
    pub fn descendants(&self, id: NodeId) -> Result<Vec<NodeId>> {
        if id >= self.nodes.len() {
            return Err(ProvenanceError::UnknownNode(id));
        }
        let mut out = Vec::new();
        let mut frontier = vec![id];
        let mut seen = vec![false; self.nodes.len()];
        while let Some(cur) = frontier.pop() {
            for (i, n) in self.nodes.iter().enumerate() {
                if !seen[i] && n.parents.contains(&cur) {
                    seen[i] = true;
                    out.push(i);
                    frontier.push(i);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }
}

impl fmt::Display for LineageGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, n) in self.nodes.iter().enumerate() {
            writeln!(f, "{i} [{}] {} <- {:?}", n.kind.kind_label(), n.kind.payload(), n.parents)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> (LineageGraph, NodeId) {
        let mut g = LineageGraph::new();
        let utt = g.add(NodeKind::Utterance("seasonality insights please".into()), &[]).unwrap();
        let ds = g.add(NodeKind::Dataset("barometer".into()), &[]).unwrap();
        let call = g.add(NodeKind::ModelCall("intent classification".into()), &[utt]).unwrap();
        let query =
            g.add(NodeKind::Query("SELECT value FROM barometer".into()), &[call, ds]).unwrap();
        let comp =
            g.add(NodeKind::Computation("seasonal decomposition period=6".into()), &[query]).unwrap();
        let ans = g.add(NodeKind::Answer("period 6, confidence 90%".into()), &[comp]).unwrap();
        (g, ans)
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut g = LineageGraph::new();
        assert!(matches!(
            g.add(NodeKind::Answer("x".into()), &[4]),
            Err(ProvenanceError::UnknownNode(4))
        ));
    }

    #[test]
    fn trace_renders_indented_derivation() {
        let (g, ans) = session();
        let t = g.trace(ans).unwrap();
        assert!(t.contains("[answer]"));
        assert!(t.contains("[computation]"));
        assert!(t.contains("    ")); // indentation present
        assert!(g.trace(99).is_err());
    }

    #[test]
    fn descendants_where_to() {
        let (g, _) = session();
        // dataset node 1 flows into query(3), computation(4), answer(5)
        assert_eq!(g.descendants(1).unwrap(), vec![3, 4, 5]);
        assert!(g.descendants(5).unwrap().is_empty());
    }

    #[test]
    fn display_lists_nodes() {
        let (g, _) = session();
        let s = g.to_string();
        assert_eq!(s.lines().count(), 6);
        assert!(s.contains("barometer"));
    }

    #[test]
    fn accessors_validate_ids() {
        let (g, _) = session();
        assert!(g.kind(99).is_err());
        assert!(g.parents(99).is_err());
        assert_eq!(g.parents(0).unwrap(), &[] as &[usize]);
    }
}
