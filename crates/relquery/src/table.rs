//! In-memory typed relational tables.

use infosleuth_constraint::Value;
use infosleuth_ontology::ValueType;
use std::fmt;

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub value_type: ValueType,
}

impl Column {
    pub fn new(name: impl Into<String>, value_type: ValueType) -> Self {
        Column { name: name.into(), value_type }
    }
}

/// A row of values, positionally aligned with the table's columns.
pub type Row = Vec<Value>;

/// Errors raised when constructing or mutating tables.
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    ArityMismatch { expected: usize, got: usize },
    TypeMismatch { column: String, expected: ValueType, got: &'static str },
    UnknownColumn(String),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} values, table has {expected} columns")
            }
            TableError::TypeMismatch { column, expected, got } => {
                write!(f, "column '{column}' expects {expected}, got {got}")
            }
            TableError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
        }
    }
}

impl std::error::Error for TableError {}

/// A relation: schema plus rows. Row order is insertion order; the executor
/// treats tables as multisets except through `UNION`, which deduplicates
/// (SQL semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub name: String,
    columns: Vec<Column>,
    rows: Vec<Row>,
}

impl Table {
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        Table { name: name.into(), columns, rows: Vec::new() }
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The position of a column. Accepts both bare (`age`) and qualified
    /// (`patient.age`) spellings on either side.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let bare = name.rsplit('.').next().unwrap_or(name);
        // Prefer an exact match (post-join schemas carry qualified names).
        if let Some(i) = self.columns.iter().position(|c| c.name == name) {
            return Some(i);
        }
        self.columns.iter().position(|c| c.name == bare || c.name.rsplit('.').next() == Some(bare))
    }

    /// Appends a row, checking arity and value kinds.
    pub fn push_row(&mut self, row: Row) -> Result<(), TableError> {
        if row.len() != self.columns.len() {
            return Err(TableError::ArityMismatch { expected: self.columns.len(), got: row.len() });
        }
        for (col, v) in self.columns.iter().zip(&row) {
            let ok = matches!(
                (col.value_type, v),
                (ValueType::Int, Value::Int(_))
                    | (ValueType::Float, Value::Float(_))
                    | (ValueType::Float, Value::Int(_)) // ints widen to float columns
                    | (ValueType::Str, Value::Str(_))
                    | (ValueType::Bool, Value::Bool(_))
            );
            if !ok {
                return Err(TableError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.value_type,
                    got: v.kind(),
                });
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// The value at (row, column name).
    pub fn value(&self, row: usize, column: &str) -> Option<&Value> {
        let idx = self.column_index(column)?;
        self.rows.get(row).and_then(|r| r.get(idx))
    }

    /// Approximate size in bytes (for simulation cost models).
    pub fn approx_size_bytes(&self) -> usize {
        let row_size: usize = self
            .columns
            .iter()
            .map(|c| match c.value_type {
                ValueType::Int | ValueType::Float => 8,
                ValueType::Bool => 1,
                ValueType::Str => 24,
            })
            .sum();
        self.rows.len() * row_size.max(1) + 64
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.columns.iter().map(|c| c.name.as_str()).collect();
        writeln!(f, "{}", names.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patients() -> Table {
        let mut t = Table::new(
            "patient",
            vec![
                Column::new("id", ValueType::Int),
                Column::new("name", ValueType::Str),
                Column::new("age", ValueType::Int),
            ],
        );
        t.push_row(vec![Value::Int(1), Value::str("ann"), Value::Int(50)]).unwrap();
        t.push_row(vec![Value::Int(2), Value::str("bob"), Value::Int(61)]).unwrap();
        t
    }

    #[test]
    fn push_and_read() {
        let t = patients();
        assert_eq!(t.len(), 2);
        assert_eq!(t.value(0, "name"), Some(&Value::str("ann")));
        assert_eq!(t.value(1, "age"), Some(&Value::Int(61)));
        assert_eq!(t.value(2, "age"), None);
    }

    #[test]
    fn qualified_column_lookup() {
        let t = patients();
        assert_eq!(t.column_index("patient.age"), Some(2));
        assert_eq!(t.column_index("age"), Some(2));
        assert_eq!(t.column_index("height"), None);
    }

    #[test]
    fn arity_and_type_checks() {
        let mut t = patients();
        assert!(matches!(t.push_row(vec![Value::Int(3)]), Err(TableError::ArityMismatch { .. })));
        assert!(matches!(
            t.push_row(vec![Value::str("x"), Value::str("y"), Value::Int(1)]),
            Err(TableError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn ints_widen_into_float_columns() {
        let mut t = Table::new("m", vec![Column::new("cost", ValueType::Float)]);
        t.push_row(vec![Value::Int(100)]).unwrap();
        t.push_row(vec![Value::Float(1.5)]).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn size_estimate_grows_with_rows() {
        let empty = Table::new("e", vec![Column::new("x", ValueType::Int)]);
        assert!(patients().approx_size_bytes() > empty.approx_size_bytes());
    }
}
