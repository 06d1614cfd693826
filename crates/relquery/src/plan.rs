//! Relational-algebra plans and query analysis.

use crate::ast::{Aggregate, SelectStmt};
use infosleuth_constraint::Conjunction;
use infosleuth_ontology::Capability;
use std::collections::BTreeSet;
use std::fmt;

/// A relational-algebra plan. The operator inventory is deliberately the
/// Fig. 2 capability taxonomy: select, project, join, union over base scans.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a base class/table.
    Scan { class: String },
    /// Filter rows by a conjunction.
    Select { predicate: Conjunction, input: Box<LogicalPlan> },
    /// Keep only the named columns.
    Project { columns: Vec<String>, input: Box<LogicalPlan> },
    /// Equi-join on `left_col = right_col`.
    Join { left: Box<LogicalPlan>, right: Box<LogicalPlan>, left_col: String, right_col: String },
    /// Set union (deduplicating).
    Union { left: Box<LogicalPlan>, right: Box<LogicalPlan> },
    /// Statistical aggregation with optional grouping.
    Aggregate { group_by: Vec<String>, aggregates: Vec<Aggregate>, input: Box<LogicalPlan> },
}

impl LogicalPlan {
    fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. } => {
                vec![input]
            }
            LogicalPlan::Join { left, right, .. } | LogicalPlan::Union { left, right } => {
                vec![left, right]
            }
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(plan: &LogicalPlan, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let pad = "  ".repeat(depth);
            match plan {
                LogicalPlan::Scan { class } => writeln!(f, "{pad}Scan {class}"),
                LogicalPlan::Select { predicate, input } => {
                    writeln!(f, "{pad}Select {predicate}")?;
                    go(input, depth + 1, f)
                }
                LogicalPlan::Project { columns, input } => {
                    writeln!(f, "{pad}Project {}", columns.join(", "))?;
                    go(input, depth + 1, f)
                }
                LogicalPlan::Join { left, right, left_col, right_col } => {
                    writeln!(f, "{pad}Join {left_col} = {right_col}")?;
                    go(left, depth + 1, f)?;
                    go(right, depth + 1, f)
                }
                LogicalPlan::Union { left, right } => {
                    writeln!(f, "{pad}Union")?;
                    go(left, depth + 1, f)?;
                    go(right, depth + 1, f)
                }
                LogicalPlan::Aggregate { group_by, aggregates, input } => {
                    let aggs: Vec<String> = aggregates
                        .iter()
                        .map(|a| {
                            format!("{}({})", a.func.as_str(), a.column.as_deref().unwrap_or("*"))
                        })
                        .collect();
                    if group_by.is_empty() {
                        writeln!(f, "{pad}Aggregate {}", aggs.join(", "))?;
                    } else {
                        writeln!(
                            f,
                            "{pad}Aggregate {} group by {}",
                            aggs.join(", "),
                            group_by.join(", ")
                        )?;
                    }
                    go(input, depth + 1, f)
                }
            }
        }
        go(self, 0, f)
    }
}

/// Lowers a parsed statement to a plan: scans → joins → select → project,
/// then unions.
pub fn plan(stmt: &SelectStmt) -> LogicalPlan {
    let mut p = LogicalPlan::Scan { class: stmt.from.clone() };
    for j in &stmt.joins {
        p = LogicalPlan::Join {
            left: Box::new(p),
            right: Box::new(LogicalPlan::Scan { class: j.table.clone() }),
            left_col: j.left_col.clone(),
            right_col: j.right_col.clone(),
        };
    }
    if !stmt.where_clause.is_trivial() {
        p = LogicalPlan::Select { predicate: stmt.where_clause.clone(), input: Box::new(p) };
    }
    if stmt.has_aggregates() {
        p = LogicalPlan::Aggregate {
            group_by: stmt.group_by.clone(),
            aggregates: stmt.aggregates.clone(),
            input: Box::new(p),
        };
    } else if !stmt.is_star() {
        p = LogicalPlan::Project {
            columns: stmt.projections.iter().map(|pr| pr.column.clone()).collect(),
            input: Box::new(p),
        };
    }
    if let Some(u) = &stmt.union {
        p = LogicalPlan::Union { left: Box::new(p), right: Box::new(plan(u)) };
    }
    p
}

/// The capability-taxonomy leaves a plan requires of its executor. This is
/// what the MRQ agent matches against advertised capabilities: a plan with a
/// join cannot be shipped to an agent that only advertised `select`.
pub fn required_capabilities(plan: &LogicalPlan) -> BTreeSet<Capability> {
    let mut caps = BTreeSet::new();
    let mut stack = vec![plan];
    while let Some(p) = stack.pop() {
        match p {
            LogicalPlan::Scan { .. } => {}
            LogicalPlan::Select { .. } => {
                caps.insert(Capability::select());
            }
            LogicalPlan::Project { .. } => {
                caps.insert(Capability::project());
            }
            LogicalPlan::Join { .. } => {
                caps.insert(Capability::join());
            }
            LogicalPlan::Union { .. } => {
                caps.insert(Capability::union());
            }
            LogicalPlan::Aggregate { .. } => {
                caps.insert(Capability::statistical_aggregation());
            }
        }
        stack.extend(p.children());
    }
    if caps.is_empty() {
        // A bare scan still needs basic select capability.
        caps.insert(Capability::select());
    }
    caps
}

/// The base classes a plan reads, in stable (sorted, deduplicated) order —
/// the MRQ agent "looks at the query to determine which classes are required
/// to answer the query".
pub fn referenced_classes(plan: &LogicalPlan) -> Vec<String> {
    let mut classes = BTreeSet::new();
    let mut stack = vec![plan];
    while let Some(p) = stack.pop() {
        if let LogicalPlan::Scan { class } = p {
            classes.insert(class.clone());
        }
        stack.extend(p.children());
    }
    classes.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    fn plan_of(sql: &str) -> LogicalPlan {
        plan(&parse_select(sql).unwrap())
    }

    #[test]
    fn bare_scan_requires_select() {
        let p = plan_of("select * from C2");
        assert_eq!(referenced_classes(&p), vec!["C2"]);
        assert!(required_capabilities(&p).contains(&Capability::select()));
    }

    #[test]
    fn filter_produces_select_node() {
        let p = plan_of("select * from C2 where a = 1");
        assert!(matches!(p, LogicalPlan::Select { .. }));
    }

    #[test]
    fn projection_and_join_capabilities() {
        let p =
            plan_of("select id from patient join diagnosis on patient.id = diagnosis.patient_id");
        let caps = required_capabilities(&p);
        assert!(caps.contains(&Capability::project()));
        assert!(caps.contains(&Capability::join()));
        assert_eq!(referenced_classes(&p), vec!["diagnosis", "patient"]);
    }

    #[test]
    fn union_capability_and_classes() {
        let p = plan_of("select * from C2a union select * from C2b");
        assert!(required_capabilities(&p).contains(&Capability::union()));
        assert_eq!(referenced_classes(&p), vec!["C2a", "C2b"]);
    }

    #[test]
    fn aggregates_require_statistical_aggregation() {
        let p = plan_of("select procedure, count(*) from stay group by procedure");
        assert!(required_capabilities(&p).contains(&Capability::statistical_aggregation()));
        assert!(matches!(p, LogicalPlan::Aggregate { .. }));
        let text = p.to_string();
        assert!(text.contains("Aggregate count(*) group by procedure"));
    }

    #[test]
    fn display_is_indented() {
        let text = plan_of("select id from C2 where a = 1").to_string();
        assert!(text.contains("Project"));
        assert!(text.contains("  Select"));
        assert!(text.contains("    Scan C2"));
    }
}
