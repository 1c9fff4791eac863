//! The conversation graph data model.
//!
//! Nodes represent the actors and artifacts of a conversation (the user, the
//! system, LLM agents, tools, and produced answers); edges capture what
//! happened (utterances, actions) and — crucially for guidance — what *could
//! have* happened ([`EdgeKind::Alternative`] branches with confidence
//! metadata). The planner walks this structure to "carry enough information
//! to provide users with alternative options as opposed to the traditional
//! single-answer approach".

use crate::{GuidanceError, Result};
use std::fmt;

/// Who/what a node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRole {
    /// The human user.
    User,
    /// The orchestrating system.
    System,
    /// An LLM agent.
    LlmAgent,
    /// A tool / computation.
    Tool,
    /// A produced answer artifact.
    Answer,
}

impl NodeRole {
    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            NodeRole::User => "user",
            NodeRole::System => "system",
            NodeRole::LlmAgent => "llm",
            NodeRole::Tool => "tool",
            NodeRole::Answer => "answer",
        }
    }
}

/// What an edge records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// A realized utterance.
    Utterance,
    /// A realized action (query executed, computation run).
    Action,
    /// A speculative alternative that was considered but not taken.
    Alternative,
    /// Explicit user feedback on a node.
    Feedback,
}

/// A node in the conversation graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvNode {
    /// Actor/artifact role.
    pub role: NodeRole,
    /// Payload (utterance text, action description, answer summary …).
    pub content: String,
    /// Turn index the node belongs to.
    pub turn: usize,
}

/// An edge in the conversation graph.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ConvEdge {
    /// Source node.
    pub from: usize,
    /// Target node.
    pub to: usize,
    /// Kind of transition.
    pub kind: EdgeKind,
    /// Confidence / utility annotation in `[0, 1]`.
    pub confidence: f64,
}

/// The conversation graph.
#[derive(Debug, Clone, Default)]
pub struct ConversationGraph {
    nodes: Vec<ConvNode>,
    edges: Vec<ConvEdge>,
}

impl ConversationGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, role: NodeRole, content: impl Into<String>, turn: usize) -> usize {
        self.nodes.push(ConvNode { role, content: content.into(), turn });
        self.nodes.len() - 1
    }

    /// Add an edge; both endpoints must exist.
    pub fn add_edge(&mut self, from: usize, to: usize, kind: EdgeKind, confidence: f64) -> Result<()> {
        if from >= self.nodes.len() {
            return Err(GuidanceError::UnknownNode(from));
        }
        if to >= self.nodes.len() {
            return Err(GuidanceError::UnknownNode(to));
        }
        self.edges.push(ConvEdge { from, to, kind, confidence: confidence.clamp(0.0, 1.0) });
        Ok(())
    }

    /// Node accessor.
    pub fn node(&self, id: usize) -> Result<&ConvNode> {
        self.nodes.get(id).ok_or(GuidanceError::UnknownNode(id))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The alternative branches recorded at a node, ranked by confidence —
    /// the "where-to" options shown to the user.
    pub fn alternatives(&self, id: usize) -> Vec<(&ConvNode, f64)> {
        let mut alts: Vec<(&ConvNode, f64)> = self
            .edges
            .iter()
            .filter(|e| e.from == id && e.kind == EdgeKind::Alternative)
            .filter_map(|e| self.nodes.get(e.to).map(|n| (n, e.confidence)))
            .collect();
        alts.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        alts
    }
}

impl fmt::Display for ConversationGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, n) in self.nodes.iter().enumerate() {
            writeln!(f, "{i} [{} t{}] {}", n.role.label(), n.turn, n.content)?;
        }
        for e in &self.edges {
            writeln!(f, "{} -> {} [{:?} {:.2}]", e.from, e.to, e.kind, e.confidence)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (ConversationGraph, usize) {
        let mut g = ConversationGraph::new();
        let u = g.add_node(NodeRole::User, "overview of the workforce", 0);
        let s = g.add_node(NodeRole::System, "offer two datasets", 0);
        let a1 = g.add_node(NodeRole::Answer, "employment distribution", 0);
        let a2 = g.add_node(NodeRole::Answer, "labour market barometer", 0);
        g.add_edge(u, s, EdgeKind::Utterance, 1.0).unwrap();
        g.add_edge(s, a1, EdgeKind::Alternative, 0.6).unwrap();
        g.add_edge(s, a2, EdgeKind::Alternative, 0.9).unwrap();
        g.add_edge(u, a2, EdgeKind::Feedback, 1.0).unwrap();
        (g, s)
    }

    #[test]
    fn nodes_and_edges_connect() {
        let (g, s) = sample();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edges.iter().filter(|e| e.from == s).count(), 2);
        assert_eq!(g.node(0).unwrap().role, NodeRole::User);
        assert!(g.node(99).is_err());
    }

    #[test]
    fn edges_validate_endpoints() {
        let mut g = ConversationGraph::new();
        let n = g.add_node(NodeRole::User, "hi", 0);
        assert!(g.add_edge(n, 5, EdgeKind::Action, 0.5).is_err());
        assert!(g.add_edge(7, n, EdgeKind::Action, 0.5).is_err());
    }

    #[test]
    fn alternatives_ranked_by_confidence() {
        let (g, s) = sample();
        let alts = g.alternatives(s);
        assert_eq!(alts.len(), 2);
        assert_eq!(alts[0].0.content, "labour market barometer");
        assert!(alts[0].1 > alts[1].1);
    }

    #[test]
    fn confidence_clamped() {
        let mut g = ConversationGraph::new();
        let a = g.add_node(NodeRole::User, "a", 0);
        let b = g.add_node(NodeRole::System, "b", 0);
        g.add_edge(a, b, EdgeKind::Action, 7.0).unwrap();
        assert_eq!(g.edges[0].confidence, 1.0);
    }

    #[test]
    fn display_renders() {
        let (g, _) = sample();
        let s = g.to_string();
        assert!(s.contains("[user t0]"));
        assert!(s.contains("Alternative"));
    }
}
