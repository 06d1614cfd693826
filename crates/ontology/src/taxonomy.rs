//! A generic is-a hierarchy (directed acyclic graph) with subsumption.
//!
//! Both the domain-ontology class hierarchy and the Fig. 2 capability
//! hierarchy are instances of this structure. The broker's reasoning engine
//! uses it to answer subsumption questions such as *"an agent that does all
//! query processing certainly does relational query processing"*.

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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Taxonomy {
    /// node → direct parents
    parents: BTreeMap<String, BTreeSet<String>>,
    /// node → direct children (inverse of `parents`)
    children: BTreeMap<String, BTreeSet<String>>,
}

impl Taxonomy {
    pub fn new() -> Self {
        Taxonomy::default()
    }

    /// Declares a root node (no parents).
    pub fn add_root(&mut self, name: impl Into<String>) -> Result<(), TaxonomyError> {
        let name = name.into();
        if self.parents.contains_key(&name) {
            return Err(TaxonomyError::Duplicate(name));
        }
        self.parents.insert(name.clone(), BTreeSet::new());
        self.children.insert(name, BTreeSet::new());
        Ok(())
    }

    /// Declares `child` with a single parent. The parent must exist.
    pub fn add_child(
        &mut self,
        parent: impl Into<String>,
        child: impl Into<String>,
    ) -> Result<(), TaxonomyError> {
        let (parent, child) = (parent.into(), child.into());
        if !self.parents.contains_key(&parent) {
            return Err(TaxonomyError::UnknownNode(parent));
        }
        if self.parents.contains_key(&child) {
            return Err(TaxonomyError::Duplicate(child));
        }
        self.parents.insert(child.clone(), BTreeSet::from([parent.clone()]));
        self.children.insert(child.clone(), BTreeSet::new());
        self.children.get_mut(&parent).expect("parent exists").insert(child);
        Ok(())
    }

    /// Adds an extra is-a edge between two existing nodes, rejecting cycles.
    pub fn add_edge(
        &mut self,
        parent: impl AsRef<str>,
        child: impl AsRef<str>,
    ) -> Result<(), TaxonomyError> {
        let (parent, child) = (parent.as_ref(), child.as_ref());
        if !self.parents.contains_key(parent) {
            return Err(TaxonomyError::UnknownNode(parent.to_string()));
        }
        if !self.parents.contains_key(child) {
            return Err(TaxonomyError::UnknownNode(child.to_string()));
        }
        // parent ⊑ child would close a cycle.
        if parent == child || self.is_descendant(parent, child) {
            return Err(TaxonomyError::Cycle(child.to_string()));
        }
        self.parents.get_mut(child).expect("checked").insert(parent.to_string());
        self.children.get_mut(parent).expect("checked").insert(child.to_string());
        Ok(())
    }

    /// Whether the node has been declared.
    pub fn contains(&self, name: &str) -> bool {
        self.parents.contains_key(name)
    }

    /// All declared node names.
    pub fn nodes(&self) -> impl Iterator<Item = &str> {
        self.parents.keys().map(String::as_str)
    }

    pub fn len(&self) -> usize {
        self.parents.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Direct parents of a node.
    pub fn parents_of(&self, name: &str) -> impl Iterator<Item = &str> {
        self.parents.get(name).into_iter().flatten().map(String::as_str)
    }

    /// Direct children of a node.
    pub fn children_of(&self, name: &str) -> impl Iterator<Item = &str> {
        self.children.get(name).into_iter().flatten().map(String::as_str)
    }

    /// Whether `node` is a strict descendant of `ancestor`.
    pub fn is_descendant(&self, node: &str, ancestor: &str) -> bool {
        if node == ancestor {
            return false;
        }
        let mut queue: VecDeque<&str> = self.parents_of(node).collect();
        let mut seen = BTreeSet::new();
        while let Some(n) = queue.pop_front() {
            if n == ancestor {
                return true;
            }
            if seen.insert(n) {
                queue.extend(self.parents_of(n));
            }
        }
        false
    }

    /// Whether `node` is `ancestor` or one of its descendants. This is the
    /// paper's capability-coverage relation: an agent advertising
    /// `query-processing` covers a request for `select`, but not vice versa
    /// — coverage asks whether the *requested* service lies at or below the
    /// *advertised* one.
    pub fn is_descendant_or_self(&self, node: &str, ancestor: &str) -> bool {
        node == ancestor || self.is_descendant(node, ancestor)
    }

    /// All strict ancestors of a node, breadth-first (no duplicates).
    pub fn ancestors(&self, name: &str) -> Vec<String> {
        let mut queue: VecDeque<&str> = self.parents_of(name).collect();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut out = Vec::new();
        while let Some(n) = queue.pop_front() {
            if seen.insert(n) {
                out.push(n.to_string());
                queue.extend(self.parents_of(n));
            }
        }
        out
    }

    /// All strict descendants of a node, breadth-first (no duplicates).
    pub fn descendants(&self, name: &str) -> Vec<String> {
        let mut queue: VecDeque<&str> = self.children_of(name).collect();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut out = Vec::new();
        while let Some(n) = queue.pop_front() {
            if seen.insert(n) {
                out.push(n.to_string());
                queue.extend(self.children_of(n));
            }
        }
        out
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
    /// reflexive pairs. This is what the broker compiles into its deductive
    /// database as `isa` facts.
    pub fn closure_pairs(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for node in self.parents.keys() {
            out.push((node.clone(), node.clone()));
            for anc in self.ancestors(node) {
                out.push((anc, node.clone()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(t.ancestors("select"), vec!["relational", "query-processing"]);
        let d = t.descendants("query-processing");
        assert_eq!(d.len(), 6);
        assert!(d.contains(&"join".to_string()));
        assert!(t.descendants("select").is_empty());
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
