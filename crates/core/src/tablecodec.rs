//! SExpr wire encoding for relational result tables.
//!
//! Resource agents answer SQL queries with a `(table ...)` payload inside a
//! KQML `reply`:
//!
//! ```text
//! (table patient
//!   (columns (id int) (name string) (age int))
//!   (row 1 "ann" 50)
//!   (row 2 "bob" 61))
//! ```

use infosleuth_constraint::Value;
use infosleuth_kqml::SExpr;
use infosleuth_ontology::ValueType;
use infosleuth_relquery::{Column, Table};
use std::fmt;
use std::iter;

/// Error decoding a `(table ...)` payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableCodecError(pub String);

impl fmt::Display for TableCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table codec error: {}", self.0)
    }
}

impl std::error::Error for TableCodecError {}

fn err(m: impl Into<String>) -> TableCodecError {
    TableCodecError(m.into())
}

fn value_to_sexpr(v: &Value) -> SExpr {
    match v {
        Value::Int(i) => SExpr::atom(i.to_string()),
        Value::Float(f) => SExpr::atom(format!("{f:?}")), // keeps .0 on integral floats
        Value::Str(s) => SExpr::string(s),
        Value::Bool(b) => SExpr::atom(b.to_string()),
    }
}

fn value_from_sexpr(e: &SExpr, vt: ValueType) -> Result<Value, TableCodecError> {
    match (vt, e) {
        (ValueType::Str, SExpr::Str(s)) => Ok(Value::str(&**s)),
        (ValueType::Int, SExpr::Atom(a)) => {
            a.parse().map(Value::Int).map_err(|_| err(format!("bad int '{a}'")))
        }
        (ValueType::Float, SExpr::Atom(a)) => {
            a.parse().map(Value::Float).map_err(|_| err(format!("bad float '{a}'")))
        }
        (ValueType::Bool, SExpr::Atom(a)) => {
            a.parse().map(Value::Bool).map_err(|_| err(format!("bad bool '{a}'")))
        }
        _ => Err(err(format!("value {e} does not fit column type {vt}"))),
    }
}

fn type_name(vt: ValueType) -> &'static str {
    match vt {
        ValueType::Int => "int",
        ValueType::Float => "float",
        ValueType::Str => "string",
        ValueType::Bool => "bool",
    }
}

fn type_from_name(s: &str) -> Result<ValueType, TableCodecError> {
    Ok(match s {
        "int" => ValueType::Int,
        "float" => ValueType::Float,
        "string" => ValueType::Str,
        "bool" => ValueType::Bool,
        other => return Err(err(format!("unknown column type '{other}'"))),
    })
}

/// Encodes a table as `(table name (columns ...) (row ...) ...)`.
pub fn table_to_sexpr(t: &Table) -> SExpr {
    let columns = t
        .columns()
        .iter()
        .map(|c| SExpr::list([SExpr::atom(c.name.as_str()), SExpr::atom(type_name(c.value_type))]));
    let columns = SExpr::list(iter::once(SExpr::atom("columns")).chain(columns));
    let rows = t.rows().iter().map(|row| {
        SExpr::list(iter::once(SExpr::atom("row")).chain(row.iter().map(value_to_sexpr)))
    });
    let head = [SExpr::atom("table"), SExpr::atom(t.name.as_str()), columns];
    SExpr::list(head.into_iter().chain(rows))
}

/// Option-returning variant of [`table_from_sexpr`], convenient in
/// `and_then` chains.
pub fn table_from_sexpr_ok(e: &SExpr) -> Option<Table> {
    table_from_sexpr(e).ok()
}

/// Decodes a `(table ...)` payload.
pub fn table_from_sexpr(e: &SExpr) -> Result<Table, TableCodecError> {
    let items = e.as_list().ok_or_else(|| err("table must be a list"))?;
    if items.first().and_then(SExpr::as_atom) != Some("table") {
        return Err(err("expected (table ...)"));
    }
    let name = items.get(1).and_then(SExpr::as_text).ok_or_else(|| err("table missing name"))?;
    let col_list = items
        .get(2)
        .and_then(SExpr::as_list)
        .filter(|l| l.first().and_then(SExpr::as_atom) == Some("columns"))
        .ok_or_else(|| err("table missing (columns ...)"))?;
    let mut columns = Vec::new();
    for c in &col_list[1..] {
        let pair = c.as_list().ok_or_else(|| err("column must be (name type)"))?;
        let cname =
            pair.first().and_then(SExpr::as_text).ok_or_else(|| err("column missing name"))?;
        let vt = type_from_name(
            pair.get(1).and_then(SExpr::as_atom).ok_or_else(|| err("column missing type"))?,
        )?;
        columns.push(Column::new(cname, vt));
    }
    let types: Vec<ValueType> = columns.iter().map(|c| c.value_type).collect();
    let mut table = Table::new(name, columns);
    for row_expr in &items[3..] {
        let row_list = row_expr
            .as_list()
            .filter(|l| l.first().and_then(SExpr::as_atom) == Some("row"))
            .ok_or_else(|| err("expected (row ...)"))?;
        if row_list.len() - 1 != types.len() {
            return Err(err("row arity mismatch"));
        }
        let mut row = Vec::with_capacity(types.len());
        for (cell, vt) in row_list[1..].iter().zip(&types) {
            row.push(value_from_sexpr(cell, *vt)?);
        }
        table.push_row(row).map_err(|e| err(e.to_string()))?;
    }
    Ok(table)
}

/// Encodes a row-level subscription delta:
/// `(delta (added (table ...)) (removed (table ...)))`. Both tables share
/// the subscribed query's schema; either side may be empty.
pub fn table_delta_to_sexpr(added: &Table, removed: &Table) -> SExpr {
    SExpr::list([
        SExpr::atom("delta"),
        SExpr::list([SExpr::atom("added"), table_to_sexpr(added)]),
        SExpr::list([SExpr::atom("removed"), table_to_sexpr(removed)]),
    ])
}

/// Decodes a `(delta ...)` payload into `(added, removed)` tables.
pub fn table_delta_from_sexpr(e: &SExpr) -> Result<(Table, Table), TableCodecError> {
    let items = e.as_list().ok_or_else(|| err("delta must be a list"))?;
    if items.first().and_then(SExpr::as_atom) != Some("delta") {
        return Err(err("expected (delta ...)"));
    }
    let section = |head: &str| -> Result<Table, TableCodecError> {
        let body = items[1..]
            .iter()
            .filter_map(SExpr::as_list)
            .find(|l| l.first().and_then(SExpr::as_atom) == Some(head))
            .ok_or_else(|| err(format!("delta missing ({head} ...)")))?;
        table_from_sexpr(body.get(1).ok_or_else(|| err(format!("({head}) missing table")))?)
    };
    Ok((section("added")?, section("removed")?))
}

/// Row-level diff between two result tables with the same schema: rows of
/// `new` not present in `old` (as a multiset) become `added`, rows of
/// `old` no longer present become `removed`.
pub fn table_diff(old: &Table, new: &Table) -> (Table, Table) {
    let mut unmatched_old: Vec<&[Value]> = old.rows().iter().map(|r| r.as_slice()).collect();
    let mut added = Table::new(new.name.as_str(), new.columns().to_vec());
    for row in new.rows() {
        if let Some(i) = unmatched_old.iter().position(|o| *o == row.as_slice()) {
            unmatched_old.swap_remove(i);
        } else {
            added.push_row(row.clone()).expect("schema matches source table");
        }
    }
    let mut removed = Table::new(old.name.as_str(), old.columns().to_vec());
    for row in unmatched_old {
        removed.push_row(row.to_vec()).expect("schema matches source table");
    }
    (added, removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(
            "patient",
            vec![
                Column::new("id", ValueType::Int),
                Column::new("name", ValueType::Str),
                Column::new("score", ValueType::Float),
                Column::new("active", ValueType::Bool),
            ],
        );
        t.push_row(vec![
            Value::Int(1),
            Value::str("ann with spaces"),
            Value::Float(2.5),
            Value::Bool(true),
        ])
        .unwrap();
        t.push_row(vec![Value::Int(-2), Value::str(""), Value::Float(3.0), Value::Bool(false)])
            .unwrap();
        t
    }

    #[test]
    fn round_trips_through_text() {
        let t = sample();
        let text = table_to_sexpr(&t).to_string();
        let back = table_from_sexpr(&SExpr::parse(&text).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_table_round_trips() {
        let t = Table::new("empty", vec![Column::new("x", ValueType::Int)]);
        let back = table_from_sexpr(&table_to_sexpr(&t)).unwrap();
        assert_eq!(back, t);
        assert!(back.is_empty());
    }

    #[test]
    fn integral_floats_stay_floats() {
        let mut t = Table::new("m", vec![Column::new("cost", ValueType::Float)]);
        t.push_row(vec![Value::Float(100.0)]).unwrap();
        let back = table_from_sexpr(&table_to_sexpr(&t)).unwrap();
        assert!(matches!(back.rows()[0][0], Value::Float(f) if f == 100.0));
    }

    #[test]
    fn delta_round_trips_and_diff_is_row_level() {
        let old = sample();
        let mut new = Table::new("patient", old.columns().to_vec());
        // Keep row 0, drop row 1, add a fresh row.
        new.push_row(old.rows()[0].clone()).unwrap();
        new.push_row(vec![Value::Int(7), Value::str("new"), Value::Float(1.0), Value::Bool(true)])
            .unwrap();
        let (added, removed) = table_diff(&old, &new);
        assert_eq!(added.len(), 1);
        assert_eq!(added.rows()[0][0], Value::Int(7));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed.rows()[0][0], Value::Int(-2));
        let text = table_delta_to_sexpr(&added, &removed).to_string();
        let (a2, r2) = table_delta_from_sexpr(&SExpr::parse(&text).unwrap()).unwrap();
        assert_eq!(a2, added);
        assert_eq!(r2, removed);
        // Equal tables diff to empty on both sides.
        let (a3, r3) = table_diff(&old, &old);
        assert!(a3.is_empty() && r3.is_empty());
        assert!(table_delta_from_sexpr(&SExpr::parse("(nonsense)").unwrap()).is_err());
    }

    #[test]
    fn rejects_malformed_payloads() {
        for bad in [
            "(tabel x (columns))",
            "(table)",
            "(table t (rows))",
            "(table t (columns (x unknown-type)))",
            "(table t (columns (x int)) (row 1 2))",
            "(table t (columns (x int)) (row \"notint\"))",
        ] {
            assert!(table_from_sexpr(&SExpr::parse(bad).unwrap()).is_err(), "should reject {bad}");
        }
    }
}
