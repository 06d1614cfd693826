//! Abstract syntax for the SQL 2.0 subset.

use infosleuth_constraint::Conjunction;

/// One projected column: `*` handled as an empty projection list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Projection {
    /// Possibly-qualified column name (`age` or `patient.age`).
    pub column: String,
}

/// An aggregate function (statistical aggregation — the capability the
/// paper's example query agent explicitly lacks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn as_str(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    pub fn parse(s: &str) -> Option<AggFunc> {
        Some(match s.to_ascii_lowercase().as_str() {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            _ => return None,
        })
    }
}

/// One aggregate in the select list: `count(*)`, `sum(cost)`, …
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregate {
    pub func: AggFunc,
    /// `None` for `count(*)`.
    pub column: Option<String>,
}

/// `JOIN <table> ON <left> = <right>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinClause {
    pub table: String,
    pub left_col: String,
    pub right_col: String,
}

/// A parsed `SELECT` statement (possibly a `UNION` chain).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Empty means `*` (unless aggregates are present).
    pub projections: Vec<Projection>,
    /// Aggregates in the select list (`count(*)`, `sum(cost)`, …).
    pub aggregates: Vec<Aggregate>,
    /// `GROUP BY` columns.
    pub group_by: Vec<String>,
    pub from: String,
    pub joins: Vec<JoinClause>,
    /// `WHERE` conjunction; trivial when absent.
    pub where_clause: Conjunction,
    /// `UNION SELECT ...` continuation.
    pub union: Option<Box<SelectStmt>>,
}

impl SelectStmt {
    /// Whether the statement projects every column.
    pub fn is_star(&self) -> bool {
        self.projections.is_empty() && self.aggregates.is_empty()
    }

    /// Whether the statement performs statistical aggregation.
    pub fn has_aggregates(&self) -> bool {
        !self.aggregates.is_empty()
    }

    /// All tables mentioned anywhere in the statement (FROM, JOINs, UNION
    /// arms), in first-mention order without duplicates.
    pub fn tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut stmt = Some(self);
        while let Some(s) = stmt {
            if !out.contains(&s.from) {
                out.push(s.from.clone());
            }
            for j in &s.joins {
                if !out.contains(&j.table) {
                    out.push(j.table.clone());
                }
            }
            stmt = s.union.as_deref();
        }
        out
    }
}
