//! A generic is-a hierarchy (directed acyclic graph) with subsumption.
//!
//! Both the domain-ontology class hierarchy and the Fig. 2 capability
//! hierarchy are instances of this structure. The broker's reasoning engine
//! uses it to answer subsumption questions such as *"an agent that does all
//! query processing certainly does relational query processing"*.

use crate::SortedSet;
use infosleuth_kqml::Text;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Errors raised when building a taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaxonomyError {
    /// Adding the edge would create a cycle through the named node.
    Cycle(String),
    /// The referenced node was never declared.
    UnknownNode(String),
    /// The node already exists.
    Duplicate(String),
}

impl fmt::Display for TaxonomyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaxonomyError::Cycle(n) => write!(f, "edge would create a cycle through '{n}'"),
            TaxonomyError::UnknownNode(n) => write!(f, "unknown taxonomy node '{n}'"),
            TaxonomyError::Duplicate(n) => write!(f, "taxonomy node '{n}' already exists"),
        }
    }
}

impl std::error::Error for TaxonomyError {}

/// An is-a DAG over string-named nodes. Multiple parents are allowed
/// (a capability or class may specialize several broader concepts).
///
/// Beside its edges every node keeps its transitive closure — the sorted
/// runs of its strict ancestors and strict descendants — patched by the
/// `add_*` calls (rare: a taxonomy is built once and then read), so a
/// subsumption question is a binary search and walks nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Taxonomy {
    nodes: BTreeMap<String, Node>,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Node {
    parents: BTreeSet<String>,
    children: BTreeSet<String>,
    ancestors: SortedSet<Text>,
    descendants: SortedSet<Text>,
}

impl Taxonomy {
    pub fn new() -> Self {
        Taxonomy::default()
    }

    /// Declares a root node (no parents).
    pub fn add_root(&mut self, name: impl Into<String>) -> Result<(), TaxonomyError> {
        let name = name.into();
        if self.nodes.contains_key(&name) {
            return Err(TaxonomyError::Duplicate(name));
        }
        self.nodes.insert(name, Node::default());
        Ok(())
    }

    /// Declares `child` with a single parent. The parent must exist.
    pub fn add_child(
        &mut self,
        parent: impl Into<String>,
        child: impl Into<String>,
    ) -> Result<(), TaxonomyError> {
        let (parent, child) = (parent.into(), child.into());
        if !self.nodes.contains_key(&parent) {
            return Err(TaxonomyError::UnknownNode(parent));
        }
        if self.nodes.contains_key(&child) {
            return Err(TaxonomyError::Duplicate(child));
        }
        self.nodes.insert(child.clone(), Node::default());
        self.link(&parent, &child);
        Ok(())
    }

    /// Adds an extra is-a edge between two existing nodes, rejecting cycles.
    pub fn add_edge(
        &mut self,
        parent: impl AsRef<str>,
        child: impl AsRef<str>,
    ) -> Result<(), TaxonomyError> {
        let (parent, child) = (parent.as_ref(), child.as_ref());
        if !self.nodes.contains_key(parent) {
            return Err(TaxonomyError::UnknownNode(parent.to_string()));
        }
        if !self.nodes.contains_key(child) {
            return Err(TaxonomyError::UnknownNode(child.to_string()));
        }
        // parent ⊑ child would close a cycle.
        if parent == child || self.is_descendant(parent, child) {
            return Err(TaxonomyError::Cycle(child.to_string()));
        }
        self.link(parent, child);
        Ok(())
    }

    /// Records the edge between two declared nodes and closes over it:
    /// `parent` and everything above it now sit above `child` and
    /// everything below it.
    fn link(&mut self, parent: &str, child: &str) {
        let above: Vec<Text> = std::iter::once(Text::from(parent))
            .chain(self.ancestors(parent).iter().cloned())
            .collect();
        let below: Vec<Text> = std::iter::once(Text::from(child))
            .chain(self.descendants(child).iter().cloned())
            .collect();
        self.node_mut(parent).children.insert(child.to_string());
        self.node_mut(child).parents.insert(parent.to_string());
        for a in &above {
            self.node_mut(a).descendants.extend(below.iter().cloned());
        }
        for d in &below {
            self.node_mut(d).ancestors.extend(above.iter().cloned());
        }
    }

    fn node_mut(&mut self, name: &str) -> &mut Node {
        self.nodes.get_mut(name).expect("edges and closure runs name declared nodes")
    }

    /// Whether the node has been declared.
    pub fn contains(&self, name: &str) -> bool {
        self.nodes.contains_key(name)
    }

    /// All declared node names.
    pub fn nodes(&self) -> impl Iterator<Item = &str> {
        self.nodes.keys().map(String::as_str)
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Direct parents of a node.
    pub fn parents_of(&self, name: &str) -> impl Iterator<Item = &str> {
        self.nodes.get(name).into_iter().flat_map(|n| &n.parents).map(String::as_str)
    }

    /// Direct children of a node.
    pub fn children_of(&self, name: &str) -> impl Iterator<Item = &str> {
        self.nodes.get(name).into_iter().flat_map(|n| &n.children).map(String::as_str)
    }

    /// Whether `node` is a strict descendant of `ancestor`.
    pub fn is_descendant(&self, node: &str, ancestor: &str) -> bool {
        self.ancestors(node).binary_search_by(|a| a.as_bytes().cmp(ancestor.as_bytes())).is_ok()
    }

    /// Whether `node` is `ancestor` or one of its descendants. This is the
    /// paper's capability-coverage relation: an agent advertising
    /// `query-processing` covers a request for `select`, but not vice versa
    /// — coverage asks whether the *requested* service lies at or below the
    /// *advertised* one.
    pub fn is_descendant_or_self(&self, node: &str, ancestor: &str) -> bool {
        node == ancestor || self.is_descendant(node, ancestor)
    }

    /// All strict ancestors of a node, in name order (no duplicates);
    /// empty for an undeclared name.
    pub fn ancestors(&self, name: &str) -> &[Text] {
        self.nodes.get(name).map_or(&[], |n| n.ancestors.as_slice())
    }

    /// All strict descendants of a node, in name order (no duplicates);
    /// empty for an undeclared name.
    pub fn descendants(&self, name: &str) -> &[Text] {
        self.nodes.get(name).map_or(&[], |n| n.descendants.as_slice())
    }

    /// The depth of a node: 0 for roots, otherwise 1 + min parent depth.
    /// Used to rank matches: deeper (more specific) advertised concepts are
    /// better semantic matches.
    pub fn depth(&self, name: &str) -> Option<usize> {
        if !self.contains(name) {
            return None;
        }
        // BFS upward; depth = shortest path to any root.
        let mut queue: VecDeque<(&str, usize)> = VecDeque::from([(name, 0)]);
        let mut seen = BTreeSet::new();
        while let Some((n, d)) = queue.pop_front() {
            let mut ps = self.parents_of(n).peekable();
            if ps.peek().is_none() {
                return Some(d);
            }
            for p in ps {
                if seen.insert(p) {
                    queue.push_back((p, d + 1));
                }
            }
        }
        Some(0)
    }

    /// All (ancestor, descendant) pairs in the transitive closure, including
    /// reflexive pairs.
    pub fn closure_pairs(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (name, node) in &self.nodes {
            out.push((name.clone(), name.clone()));
            for anc in &node.ancestors {
                out.push((anc.to_string(), name.clone()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(run: &[Text]) -> Vec<&str> {
        run.iter().map(Text::as_str).collect()
    }

    /// Builds the Fig. 2 capability hierarchy shape.
    fn fig2() -> Taxonomy {
        let mut t = Taxonomy::new();
        t.add_root("query-processing").unwrap();
        t.add_child("query-processing", "relational").unwrap();
        t.add_child("query-processing", "object-oriented").unwrap();
        for leaf in ["select", "project", "join", "union"] {
            t.add_child("relational", leaf).unwrap();
        }
        t
    }

    #[test]
    fn fig2_subsumption_matches_paper_semantics() {
        let t = fig2();
        // "if an agent does all query processing, then it certainly does
        // relational query processing and could process a simple select"
        assert!(t.is_descendant_or_self("select", "query-processing"));
        assert!(t.is_descendant_or_self("relational", "query-processing"));
        // "just because an agent can process a simple select query does not
        // mean that it can do any relational query"
        assert!(!t.is_descendant_or_self("relational", "select"));
        assert!(!t.is_descendant_or_self("query-processing", "select"));
    }

    #[test]
    fn reflexive_coverage() {
        let t = fig2();
        assert!(t.is_descendant_or_self("select", "select"));
        assert!(!t.is_descendant("select", "select"));
    }

    #[test]
    fn ancestors_and_descendants() {
        let t = fig2();
        assert_eq!(names(t.ancestors("select")), ["query-processing", "relational"]);
        let d = t.descendants("query-processing");
        assert_eq!(d.len(), 6);
        assert!(d.contains(&Text::from("join")));
        assert!(t.descendants("select").is_empty());
        assert!(t.ancestors("nope").is_empty() && t.descendants("nope").is_empty());
    }

    /// The reference the stored closure is held to: a breadth-first walk
    /// over the edges, sorted.
    fn walked<'a, I: Iterator<Item = &'a str>>(
        start: &'a str,
        next: impl Fn(&'a str) -> I,
    ) -> Vec<&'a str> {
        let mut queue: VecDeque<&str> = next(start).collect();
        let mut seen = BTreeSet::new();
        while let Some(n) = queue.pop_front() {
            if seen.insert(n) {
                queue.extend(next(n));
            }
        }
        seen.into_iter().collect()
    }

    fn assert_closure_is_the_walk(t: &Taxonomy) {
        for node in t.nodes() {
            assert_eq!(names(t.ancestors(node)), walked(node, |n| t.parents_of(n)), "above {node}");
            assert_eq!(
                names(t.descendants(node)),
                walked(node, |n| t.children_of(n)),
                "below {node}"
            );
            for other in t.nodes() {
                let reachable = walked(node, |n| t.parents_of(n)).contains(&other);
                assert_eq!(t.is_descendant(node, other), reachable, "{node} under {other}");
            }
        }
    }

    #[test]
    fn closure_equals_the_walk_after_every_mutation() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut below = move |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let mut t = Taxonomy::new();
        let (mut declared, mut rejected) = (0, 0);
        for _ in 0..120 {
            let name = |i: usize| format!("closure-n{i}");
            let before = t.clone();
            let outcome = match below(4) {
                0 => t.add_root(name(declared)),
                1 if declared > 0 => t.add_child(name(below(declared)), name(declared)),
                _ if declared > 1 => t.add_edge(name(below(declared)), name(below(declared))),
                _ => continue,
            };
            match outcome {
                Ok(()) => declared = t.len(),
                // A refused mutation (a cycle, mostly) leaves every run as it was.
                Err(_) => {
                    rejected += 1;
                    assert_eq!(t, before);
                }
            }
            assert_closure_is_the_walk(&t);
        }
        assert!(declared > 20 && rejected > 5, "{declared} nodes, {rejected} refusals");
        assert!(t.nodes().any(|n| t.parents_of(n).count() > 1), "no multi-parent node built");
    }

    #[test]
    fn depth_ranks_specificity() {
        let t = fig2();
        assert_eq!(t.depth("query-processing"), Some(0));
        assert_eq!(t.depth("relational"), Some(1));
        assert_eq!(t.depth("select"), Some(2));
        assert_eq!(t.depth("nope"), None);
    }

    #[test]
    fn multi_parent_nodes() {
        let mut t = fig2();
        t.add_root("statistics").unwrap();
        t.add_child("statistics", "aggregation").unwrap();
        // `multimedia-join` specializes both join and aggregation.
        t.add_child("join", "multimedia-join").unwrap();
        t.add_edge("aggregation", "multimedia-join").unwrap();
        assert!(t.is_descendant("multimedia-join", "statistics"));
        assert!(t.is_descendant("multimedia-join", "query-processing"));
        assert_eq!(t.depth("multimedia-join"), Some(2)); // min path via statistics
    }

    #[test]
    fn cycles_are_rejected() {
        let mut t = fig2();
        assert_eq!(
            t.add_edge("select", "query-processing"),
            Err(TaxonomyError::Cycle("query-processing".to_string()))
        );
        assert_eq!(t.add_edge("select", "select"), Err(TaxonomyError::Cycle("select".to_string())));
    }

    #[test]
    fn unknown_and_duplicate_nodes_are_rejected() {
        let mut t = fig2();
        assert!(matches!(t.add_child("missing", "x"), Err(TaxonomyError::UnknownNode(_))));
        assert!(matches!(t.add_child("relational", "select"), Err(TaxonomyError::Duplicate(_))));
        assert!(matches!(t.add_root("relational"), Err(TaxonomyError::Duplicate(_))));
        assert!(matches!(t.add_edge("relational", "missing"), Err(TaxonomyError::UnknownNode(_))));
    }

    #[test]
    fn closure_pairs_include_reflexive_and_transitive() {
        let t = fig2();
        let pairs = t.closure_pairs();
        assert!(pairs.contains(&("select".to_string(), "select".to_string())));
        assert!(pairs.contains(&("query-processing".to_string(), "select".to_string())));
        assert!(!pairs.contains(&("select".to_string(), "query-processing".to_string())));
    }
}
