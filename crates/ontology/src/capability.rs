//! Agent capabilities and the standard capability taxonomy of Fig. 2.

use crate::Taxonomy;
use infosleuth_kqml::Text;
use std::fmt;

/// A named agent capability (a node of the capability taxonomy), e.g.
/// `relational-query-processing` or `subscription`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Capability(pub Text);

impl Capability {
    pub fn new(name: impl Into<Text>) -> Self {
        Capability(name.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Capability {
    fn from(s: &str) -> Self {
        Capability(s.into())
    }
}

impl From<String> for Capability {
    fn from(s: String) -> Self {
        Capability(s.into())
    }
}

/// Well-known capability names used across the system and examples.
impl Capability {
    pub fn query_processing() -> Self {
        "query-processing".into()
    }
    pub fn relational_query_processing() -> Self {
        "relational-query-processing".into()
    }
    pub fn select() -> Self {
        "select".into()
    }
    pub fn project() -> Self {
        "project".into()
    }
    pub fn join() -> Self {
        "join".into()
    }
    pub fn union() -> Self {
        "union".into()
    }
    pub fn multiresource_query_processing() -> Self {
        "multiresource-query-processing".into()
    }
    pub fn subscription() -> Self {
        "subscription".into()
    }
    pub fn notification() -> Self {
        "notification".into()
    }
    pub fn data_mining() -> Self {
        "data-mining".into()
    }
    pub fn statistical_aggregation() -> Self {
        "statistical-aggregation".into()
    }
    pub fn brokering() -> Self {
        "brokering".into()
    }
}

/// Builds the standard InfoSleuth capability taxonomy.
///
/// The query-processing subtree is exactly Fig. 2 of the paper:
///
/// ```text
///                Query Processing
///               /                \
///        Relational          Object-Oriented
///      /   |    |   \
/// Select Project Join Union
/// ```
///
/// plus the other service families the paper mentions (subscription &
/// notification, data mining & statistical aggregation, task planning,
/// brokering, ontology service, multiresource query processing — the latter
/// a specialization of relational query processing, since the MRQ agent
/// accepts SQL over multiple resources).
pub fn standard_capability_taxonomy() -> Taxonomy {
    let mut t = Taxonomy::new();
    // Fig. 2 subtree.
    t.add_root("query-processing").expect("fresh taxonomy");
    t.add_child("query-processing", "relational-query-processing").expect("parent exists");
    t.add_child("query-processing", "oo-query-processing").expect("parent exists");
    for leaf in ["select", "project", "join", "union"] {
        t.add_child("relational-query-processing", leaf).expect("parent exists");
    }
    t.add_child("relational-query-processing", "multiresource-query-processing")
        .expect("parent exists");
    // Monitoring services.
    t.add_root("monitoring").expect("fresh name");
    t.add_child("monitoring", "subscription").expect("parent exists");
    t.add_child("monitoring", "notification").expect("parent exists");
    t.add_child("monitoring", "polling").expect("parent exists");
    // Analysis services.
    t.add_root("analysis").expect("fresh name");
    t.add_child("analysis", "data-mining").expect("parent exists");
    t.add_child("analysis", "statistical-aggregation").expect("parent exists");
    t.add_child("analysis", "logical-inferencing").expect("parent exists");
    // Infrastructure services.
    t.add_root("brokering").expect("fresh name");
    t.add_root("task-planning").expect("fresh name");
    t.add_root("ontology-service").expect("fresh name");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_taxonomy_has_fig2_shape() {
        let t = standard_capability_taxonomy();
        assert!(t.is_descendant_or_self("select", "query-processing"));
        assert!(t.is_descendant_or_self("join", "relational-query-processing"));
        assert!(t.is_descendant_or_self("oo-query-processing", "query-processing"));
        assert!(!t.is_descendant_or_self("query-processing", "select"));
        assert!(!t.is_descendant_or_self("select", "join"));
    }

    #[test]
    fn mrq_is_relational() {
        let t = standard_capability_taxonomy();
        assert!(t.is_descendant_or_self("multiresource-query-processing", "query-processing"));
        assert!(t.is_descendant_or_self(
            "multiresource-query-processing",
            "relational-query-processing"
        ));
    }

    #[test]
    fn service_families_are_disjoint_subtrees() {
        let t = standard_capability_taxonomy();
        assert!(t.is_descendant_or_self("subscription", "monitoring"));
        assert!(!t.is_descendant_or_self("subscription", "query-processing"));
        assert!(t.is_descendant_or_self("data-mining", "analysis"));
        assert!(t.contains("brokering"));
    }

    #[test]
    fn capability_constructors_name_taxonomy_nodes() {
        let t = standard_capability_taxonomy();
        for c in [
            Capability::query_processing(),
            Capability::relational_query_processing(),
            Capability::select(),
            Capability::project(),
            Capability::join(),
            Capability::union(),
            Capability::multiresource_query_processing(),
            Capability::subscription(),
            Capability::notification(),
            Capability::data_mining(),
            Capability::statistical_aggregation(),
            Capability::brokering(),
        ] {
            assert!(t.contains(c.as_str()), "taxonomy missing {c}");
        }
    }
}
