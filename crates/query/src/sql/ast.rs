//! The SQL abstract syntax tree and its canonical renderer.
//!
//! The AST covers exactly the paper's query surface (§2.3, Figure 1C):
//! one `SELECT` over one representation table with one `Data LIKE` /
//! `Data REGEXP` predicate, an optional probability threshold, ordering,
//! a limit, and the three probabilistic aggregates. [`render_statement`]
//! produces the canonical spelling, and the grammar is closed under it:
//! `parse(render(stmt)) == stmt` for every statement whose literals the
//! grammar itself can produce — thresholds are non-negative finite
//! numbers, limits unsigned integers (a property test in `tests/sql.rs`
//! holds the two inverse over that space). The AST's fields are public,
//! so a hand-built statement with an out-of-range literal (a negative or
//! NaN threshold) renders to text the lexer rejects; lowering validates
//! thresholds to `[0, 1]` regardless.

use crate::agg::AggregateFunc;
use crate::exec::Approach;
use crate::plan::Dialect;
use std::fmt;

/// One SQL statement: a query, a request for its plan, a durable
/// `INSERT`, or a scan of the ingest-history table.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT ...`
    Select(Select),
    /// `EXPLAIN SELECT ...` — plan only, nothing executes.
    Explain(Select),
    /// `EXPLAIN ANALYZE SELECT ...` — execute, then report the plan
    /// together with the counters the execution produced.
    ExplainAnalyze(Select),
    /// `INSERT INTO StaccatoData (DocName, Data) VALUES ...` — the
    /// WAL-backed write path.
    Insert(Insert),
    /// `SELECT * FROM StaccatoHistory ...` — the durable ingest-history
    /// table.
    SelectHistory(HistorySelect),
}

impl Statement {
    /// The wrapped representation-table `SELECT`, whether or not it is
    /// being explained; `None` for `INSERT` and history statements.
    pub fn select(&self) -> Option<&Select> {
        match self {
            Statement::Select(s) | Statement::Explain(s) | Statement::ExplainAnalyze(s) => Some(s),
            Statement::Insert(_) | Statement::SelectHistory(_) => None,
        }
    }

    /// Is this a plan-only `EXPLAIN` (no execution)?
    pub fn is_explain(&self) -> bool {
        matches!(self, Statement::Explain(_))
    }

    /// Is this an `EXPLAIN ANALYZE` (execute and report)?
    pub fn is_explain_analyze(&self) -> bool {
        matches!(self, Statement::ExplainAnalyze(_))
    }

    /// Number of `?` placeholders in the statement.
    pub fn param_count(&self) -> usize {
        match self {
            Statement::Select(s) | Statement::Explain(s) | Statement::ExplainAnalyze(s) => {
                let mut n = 0;
                if matches!(s.predicate.pattern, SqlArg::Param(_)) {
                    n += 1;
                }
                if matches!(s.predicate.min_prob, Some(SqlArg::Param(_))) {
                    n += 1;
                }
                if matches!(s.limit, Some(SqlArg::Param(_))) {
                    n += 1;
                }
                if matches!(s.offset, Some(SqlArg::Param(_))) {
                    n += 1;
                }
                n
            }
            Statement::Insert(i) => i
                .rows
                .iter()
                .map(|r| {
                    matches!(r.doc_name, SqlArg::Param(_)) as usize
                        + matches!(r.data, SqlArg::Param(_)) as usize
                })
                .sum(),
            Statement::SelectHistory(h) => {
                matches!(h.file_like, Some(SqlArg::Param(_))) as usize
                    + matches!(h.limit, Some(SqlArg::Param(_))) as usize
            }
        }
    }
}

/// `INSERT INTO StaccatoData (DocName, Data) VALUES (...), ...` — each
/// row becomes one ingested document, and the whole statement is one
/// atomic, WAL-logged batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// The `VALUES` rows, in statement order.
    pub rows: Vec<InsertRow>,
}

/// One `(DocName, Data)` tuple of an `INSERT`.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertRow {
    /// The document name (`StaccatoHistory.FileName`).
    pub doc_name: SqlArg<String>,
    /// The line text the OCR channel transduces.
    pub data: SqlArg<String>,
}

/// `SELECT * FROM StaccatoHistory [WHERE FileName LIKE p] [LIMIT n]`.
#[derive(Debug, Clone, PartialEq)]
pub struct HistorySelect {
    /// The `FileName LIKE` pattern, if present.
    pub file_like: Option<SqlArg<String>>,
    /// Row cap, if present.
    pub limit: Option<SqlArg<u64>>,
}

/// The supported `SELECT` shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// What the query projects.
    pub projection: Projection,
    /// The representation table in `FROM`.
    pub table: SqlTable,
    /// The `WHERE` clause.
    pub predicate: Predicate,
    /// `ORDER BY Prob DESC` present? (The only supported ordering; the
    /// ranked executors always produce it, so the clause is declarative.)
    pub order_by_prob: bool,
    /// `LIMIT n` — the `NumAns` answer budget.
    pub limit: Option<SqlArg<u64>>,
    /// `OFFSET m` — ranked answers to skip before the budget applies
    /// (pagination). Grammar ties it to `LIMIT`: `LIMIT n OFFSET m`.
    pub offset: Option<SqlArg<u64>>,
}

/// The `SELECT` list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Projection {
    /// `SELECT DataKey`
    DataKey,
    /// `SELECT DataKey, Prob`
    DataKeyProb,
    /// `SELECT COUNT(*) | SUM(Prob) | AVG(Prob)`
    Aggregate(AggregateFunc),
}

/// The four queryable representation tables of the Table 5 schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlTable {
    /// `MAPData` — the single most likely transcription per line.
    Map,
    /// `kMAPData` — the k most likely transcriptions per line.
    KMap,
    /// `FullSFAData` — the complete OCR SFA.
    FullSfa,
    /// `StaccatoData` — the Staccato chunk graph, read from the
    /// `StaccatoGraph` blobs.
    Staccato,
}

impl SqlTable {
    /// Canonical table name as written in SQL.
    pub fn name(self) -> &'static str {
        match self {
            SqlTable::Map => "MAPData",
            SqlTable::KMap => "kMAPData",
            SqlTable::FullSfa => "FullSFAData",
            SqlTable::Staccato => "StaccatoData",
        }
    }

    /// The representation a scan of this table evaluates.
    pub fn approach(self) -> Approach {
        match self {
            SqlTable::Map => Approach::Map,
            SqlTable::KMap => Approach::KMap,
            SqlTable::FullSfa => Approach::FullSfa,
            SqlTable::Staccato => Approach::Staccato,
        }
    }

    /// The table serving a representation (inverse of [`SqlTable::approach`]).
    pub fn of_approach(approach: Approach) -> SqlTable {
        match approach {
            Approach::Map => SqlTable::Map,
            Approach::KMap => SqlTable::KMap,
            Approach::FullSfa => SqlTable::FullSfa,
            Approach::Staccato => SqlTable::Staccato,
        }
    }

    /// Case-insensitive lookup of a table name.
    pub fn parse(name: &str) -> Option<SqlTable> {
        [
            SqlTable::Map,
            SqlTable::KMap,
            SqlTable::FullSfa,
            SqlTable::Staccato,
        ]
        .into_iter()
        .find(|t| t.name().eq_ignore_ascii_case(name))
    }
}

/// The `WHERE` clause: one pattern predicate on `Data`, optionally
/// conjoined with a probability threshold on `Prob`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// `LIKE` or `REGEXP`.
    pub dialect: Dialect,
    /// The pattern literal (or a `?` placeholder).
    pub pattern: SqlArg<String>,
    /// `AND Prob >= t`, if present.
    pub min_prob: Option<SqlArg<f64>>,
}

/// A literal argument or a `?` placeholder (ordinal assigned left to
/// right by the parser, bound by [`PreparedQuery`](super::PreparedQuery)).
#[derive(Debug, Clone, PartialEq)]
pub enum SqlArg<T> {
    /// An inline literal.
    Value(T),
    /// The `n`-th `?` of the statement (0-based).
    Param(u32),
}

impl<T> SqlArg<T> {
    /// The literal, if bound.
    pub fn value(&self) -> Option<&T> {
        match self {
            SqlArg::Value(v) => Some(v),
            SqlArg::Param(_) => None,
        }
    }
}

/// Quote a string as a SQL literal: wrap in `'...'`, doubling any
/// embedded quotes. Backslashes pass through verbatim, so regex escapes
/// like `\d` need no double-escaping.
pub fn quote_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('\'');
    for c in s.chars() {
        if c == '\'' {
            out.push('\'');
        }
        out.push(c);
    }
    out.push('\'');
    out
}

fn fmt_arg<T, F: Fn(&T) -> String>(arg: &SqlArg<T>, f: F) -> String {
    match arg {
        SqlArg::Value(v) => f(v),
        SqlArg::Param(_) => "?".to_string(),
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Insert(insert) => {
                write!(f, "INSERT INTO StaccatoData (DocName, Data) VALUES ")?;
                for (i, row) in insert.rows.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(
                        f,
                        "({}, {})",
                        fmt_arg(&row.doc_name, |s| quote_str(s)),
                        fmt_arg(&row.data, |s| quote_str(s)),
                    )?;
                }
                return Ok(());
            }
            Statement::SelectHistory(h) => {
                write!(f, "SELECT * FROM StaccatoHistory")?;
                if let Some(p) = &h.file_like {
                    write!(f, " WHERE FileName LIKE {}", fmt_arg(p, |s| quote_str(s)))?;
                }
                if let Some(n) = &h.limit {
                    write!(f, " LIMIT {}", fmt_arg(n, |v| v.to_string()))?;
                }
                return Ok(());
            }
            _ => {}
        }
        if self.is_explain() {
            write!(f, "EXPLAIN ")?;
        } else if self.is_explain_analyze() {
            write!(f, "EXPLAIN ANALYZE ")?;
        }
        let s = self.select().expect("explainable statements wrap a SELECT");
        let projection = match s.projection {
            Projection::DataKey => "DataKey",
            Projection::DataKeyProb => "DataKey, Prob",
            Projection::Aggregate(func) => func.sql_name(),
        };
        let dialect = match s.predicate.dialect {
            Dialect::Like => "LIKE",
            Dialect::Regex => "REGEXP",
        };
        write!(
            f,
            "SELECT {projection} FROM {} WHERE Data {dialect} {}",
            s.table.name(),
            fmt_arg(&s.predicate.pattern, |p| quote_str(p)),
        )?;
        if let Some(t) = &s.predicate.min_prob {
            write!(f, " AND Prob >= {}", fmt_arg(t, |v| format!("{v:?}")))?;
        }
        if s.order_by_prob {
            write!(f, " ORDER BY Prob DESC")?;
        }
        if let Some(n) = &s.limit {
            write!(f, " LIMIT {}", fmt_arg(n, |v| v.to_string()))?;
        }
        if let Some(m) = &s.offset {
            write!(f, " OFFSET {}", fmt_arg(m, |v| v.to_string()))?;
        }
        Ok(())
    }
}

/// Canonical SQL spelling of a statement; [`parse_statement`]'s inverse.
///
/// [`parse_statement`]: super::parse_statement
pub fn render_statement(stmt: &Statement) -> String {
    stmt.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoting_doubles_embedded_quotes_only() {
        assert_eq!(quote_str("%Ford%"), "'%Ford%'");
        assert_eq!(quote_str("O'Hare"), "'O''Hare'");
        assert_eq!(quote_str(r"Sec(\x)*\d"), r"'Sec(\x)*\d'");
    }

    #[test]
    fn table_names_round_trip_and_map_to_approaches() {
        for ap in Approach::all() {
            let t = SqlTable::of_approach(ap);
            assert_eq!(t.approach(), ap);
            assert_eq!(SqlTable::parse(t.name()), Some(t));
            assert_eq!(SqlTable::parse(&t.name().to_uppercase()), Some(t));
        }
        assert_eq!(SqlTable::parse("MasterData"), None);
    }

    #[test]
    fn canonical_rendering() {
        let stmt = Statement::Select(Select {
            projection: Projection::DataKeyProb,
            table: SqlTable::Staccato,
            predicate: Predicate {
                dialect: Dialect::Like,
                pattern: SqlArg::Value("%Ford%".into()),
                min_prob: Some(SqlArg::Value(0.25)),
            },
            order_by_prob: true,
            limit: Some(SqlArg::Value(10)),
            offset: Some(SqlArg::Value(20)),
        });
        assert_eq!(
            render_statement(&stmt),
            "SELECT DataKey, Prob FROM StaccatoData WHERE Data LIKE '%Ford%' \
             AND Prob >= 0.25 ORDER BY Prob DESC LIMIT 10 OFFSET 20"
        );
        let explain = Statement::Explain(Select {
            projection: Projection::Aggregate(AggregateFunc::CountStar),
            table: SqlTable::Map,
            predicate: Predicate {
                dialect: Dialect::Regex,
                pattern: SqlArg::Param(0),
                min_prob: None,
            },
            order_by_prob: false,
            limit: None,
            offset: None,
        });
        assert_eq!(
            render_statement(&explain),
            "EXPLAIN SELECT COUNT(*) FROM MAPData WHERE Data REGEXP ?"
        );
        assert_eq!(explain.param_count(), 1);
    }
}
