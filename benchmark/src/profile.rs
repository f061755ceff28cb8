//! Summing `vlc_prof` profiles across the many short-lived tracers of a
//! traced pass.

use std::collections::BTreeMap;
use vlc_prof::{Profile, ProfileNode, PROF_SCHEMA};

/// Per-call-path sums over any number of profiles.
#[derive(Debug, Clone, Default)]
pub struct ProfileSum {
    nodes: BTreeMap<String, ProfileNode>,
}

impl ProfileSum {
    /// Adds every node of `profile`.
    pub fn add(&mut self, profile: &Profile) {
        for node in &profile.nodes {
            self.add_node(node);
        }
    }

    /// Adds one node, summing into the node with the same path.
    pub fn add_node(&mut self, node: &ProfileNode) {
        let sum = self
            .nodes
            .entry(node.path.clone())
            .or_insert_with(|| ProfileNode {
                path: node.path.clone(),
                calls: 0,
                incl_s: 0.0,
                self_s: 0.0,
                allocs: 0,
                deallocs: 0,
            });
        sum.calls += node.calls;
        sum.incl_s += node.incl_s;
        sum.self_s += node.self_s;
        sum.allocs += node.allocs;
        sum.deallocs += node.deallocs;
    }

    /// Σ self time over every path whose last frame is `leaf`.
    pub fn self_s(&self, leaf: &str) -> f64 {
        self.with_leaf(leaf).fold(0.0, |sum, n| sum + n.self_s)
    }

    /// Σ inclusive time over every path whose last frame is `leaf`.
    pub fn incl_s(&self, leaf: &str) -> f64 {
        self.with_leaf(leaf).fold(0.0, |sum, n| sum + n.incl_s)
    }

    fn with_leaf<'a>(&'a self, leaf: &'a str) -> impl Iterator<Item = &'a ProfileNode> {
        self.nodes.values().filter(move |n| n.leaf() == leaf)
    }

    /// The sums as a `densevlc-prof/1` profile.
    pub fn to_profile(&self, jobs: usize) -> Profile {
        Profile {
            schema: PROF_SCHEMA.to_string(),
            jobs,
            nodes: self.nodes.values().cloned().collect(),
        }
    }
}
