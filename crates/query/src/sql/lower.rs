//! Lowering: AST → [`QueryRequest`], and `?` parameter binding.
//!
//! Lowering is where the SQL surface meets the planner: the table picks
//! the [`Approach`](crate::exec::Approach), `LIKE`/`REGEXP` pick the
//! pattern dialect, `AND Prob >= t` becomes the request's pushed-down
//! probability threshold, `LIMIT` becomes the `NumAns` budget, and an
//! aggregate projection turns the request into a
//! [`Plan::Aggregate`](crate::plan::Plan::Aggregate) at planning time.
//! Semantic errors (unbound `?`, threshold outside `[0, 1]`, `ORDER BY`
//! on an aggregate) surface here with the statement's canonical text.

use super::ast::{Projection, Select, SqlArg, Statement};
use super::parser::parse_statement;
use super::SqlError;
use crate::error::QueryError;
use crate::plan::{Dialect, QueryRequest};

/// A value bound to a `?` placeholder.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlValue {
    /// A string — binds to a `LIKE`/`REGEXP` pattern slot.
    Text(String),
    /// A float — binds to a `Prob >=` threshold slot.
    Number(f64),
    /// An unsigned integer — binds to a `LIMIT` slot (or a threshold).
    Int(u64),
}

impl SqlValue {
    /// Convenience constructor for text parameters.
    pub fn text(s: impl Into<String>) -> SqlValue {
        SqlValue::Text(s.into())
    }

    fn kind(&self) -> &'static str {
        match self {
            SqlValue::Text(_) => "text",
            SqlValue::Number(_) => "number",
            SqlValue::Int(_) => "integer",
        }
    }
}

/// A parsed statement with `?` placeholders, ready to bind and run via
/// [`Staccato::execute_prepared`](crate::session::Staccato::execute_prepared).
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedQuery {
    stmt: Statement,
}

impl PreparedQuery {
    /// Parse `src` into a prepared statement.
    pub fn new(src: &str) -> Result<PreparedQuery, QueryError> {
        Ok(PreparedQuery {
            stmt: parse_statement(src)?,
        })
    }

    /// Number of `?` placeholders awaiting values.
    pub fn param_count(&self) -> usize {
        self.stmt.param_count()
    }

    /// The canonical SQL text of the statement (placeholders as `?`).
    pub fn sql(&self) -> String {
        super::ast::render_statement(&self.stmt)
    }

    /// The parsed statement.
    pub fn statement(&self) -> &Statement {
        &self.stmt
    }

    /// Substitute `params` for the placeholders, left to right, producing
    /// a fully bound statement. Errors on arity or type mismatches.
    pub fn bind(&self, params: &[SqlValue]) -> Result<Statement, QueryError> {
        let expected = self.param_count();
        if params.len() != expected {
            return Err(SqlError::new(
                0,
                format!(
                    "statement has {expected} parameter(s) but {} value(s) were bound",
                    params.len()
                ),
            )
            .into());
        }
        let mut stmt = self.stmt.clone();
        match &mut stmt {
            Statement::Select(select)
            | Statement::Explain(select)
            | Statement::ExplainAnalyze(select) => {
                if let SqlArg::Param(n) = select.predicate.pattern {
                    select.predicate.pattern = match &params[n as usize] {
                        SqlValue::Text(s) => SqlArg::Value(s.clone()),
                        other => {
                            return Err(param_type_error(n, "a pattern string", other));
                        }
                    };
                }
                if let Some(SqlArg::Param(n)) = select.predicate.min_prob {
                    select.predicate.min_prob = Some(match &params[n as usize] {
                        SqlValue::Number(v) => SqlArg::Value(*v),
                        SqlValue::Int(v) => SqlArg::Value(*v as f64),
                        other => {
                            return Err(param_type_error(n, "a numeric threshold", other));
                        }
                    });
                }
                if let Some(SqlArg::Param(n)) = select.limit {
                    select.limit = Some(match &params[n as usize] {
                        SqlValue::Int(v) => SqlArg::Value(*v),
                        other => {
                            return Err(param_type_error(n, "an integer limit", other));
                        }
                    });
                }
                if let Some(SqlArg::Param(n)) = select.offset {
                    select.offset = Some(match &params[n as usize] {
                        SqlValue::Int(v) => SqlArg::Value(*v),
                        other => {
                            return Err(param_type_error(n, "an integer offset", other));
                        }
                    });
                }
            }
            Statement::Insert(insert) => {
                for row in &mut insert.rows {
                    if let SqlArg::Param(n) = row.doc_name {
                        row.doc_name = match &params[n as usize] {
                            SqlValue::Text(s) => SqlArg::Value(s.clone()),
                            other => {
                                return Err(param_type_error(n, "a document name string", other));
                            }
                        };
                    }
                    if let SqlArg::Param(n) = row.data {
                        row.data = match &params[n as usize] {
                            SqlValue::Text(s) => SqlArg::Value(s.clone()),
                            other => {
                                return Err(param_type_error(n, "a document text string", other));
                            }
                        };
                    }
                }
            }
            Statement::SelectHistory(history) => {
                if let Some(SqlArg::Param(n)) = history.file_like {
                    history.file_like = Some(match &params[n as usize] {
                        SqlValue::Text(s) => SqlArg::Value(s.clone()),
                        other => {
                            return Err(param_type_error(n, "a pattern string", other));
                        }
                    });
                }
                if let Some(SqlArg::Param(n)) = history.limit {
                    history.limit = Some(match &params[n as usize] {
                        SqlValue::Int(v) => SqlArg::Value(*v),
                        other => {
                            return Err(param_type_error(n, "an integer limit", other));
                        }
                    });
                }
            }
        }
        Ok(stmt)
    }
}

fn param_type_error(ordinal: u32, wanted: &str, got: &SqlValue) -> QueryError {
    SqlError::new(
        0,
        format!(
            "parameter {} must be {wanted}, got a {} value",
            ordinal + 1,
            got.kind()
        ),
    )
    .into()
}

/// Lower a fully bound statement to the [`QueryRequest`] the planner and
/// executors understand. `EXPLAIN` wrapping is the caller's business (the
/// session routes it through `render_explain`); lowering only reads the
/// inner `SELECT`.
pub fn lower_statement(stmt: &Statement) -> Result<QueryRequest, QueryError> {
    let Some(select) = stmt.select() else {
        return Err(SqlError::new(
            0,
            "only SELECT queries over the representation tables lower to a QueryRequest; \
             INSERT and StaccatoHistory statements execute directly",
        )
        .into());
    };
    lower_select(select)
}

fn lower_select(select: &Select) -> Result<QueryRequest, QueryError> {
    let Some(pattern) = select.predicate.pattern.value() else {
        return Err(SqlError::new(
            0,
            "statement still has unbound '?' parameters; use prepare() and bind values",
        )
        .into());
    };
    let mut request = match select.predicate.dialect {
        Dialect::Like => QueryRequest::like(pattern),
        Dialect::Regex => QueryRequest::regex(pattern),
    }
    .approach(select.table.approach());
    if let Some(arg) = &select.predicate.min_prob {
        let &t = arg.value().ok_or_else(|| {
            SqlError::new(
                0,
                "statement still has unbound '?' parameters; use prepare() and bind values",
            )
        })?;
        if !(0.0..=1.0).contains(&t) {
            return Err(
                SqlError::new(0, format!("probability threshold {t:?} is outside [0, 1]")).into(),
            );
        }
        request = request.min_prob(t);
    }
    if let Some(arg) = &select.limit {
        let &n = arg.value().ok_or_else(|| {
            SqlError::new(
                0,
                "statement still has unbound '?' parameters; use prepare() and bind values",
            )
        })?;
        request = request.num_ans(n as usize);
    }
    if let Some(arg) = &select.offset {
        let &m = arg.value().ok_or_else(|| {
            SqlError::new(
                0,
                "statement still has unbound '?' parameters; use prepare() and bind values",
            )
        })?;
        request = request.offset(m as usize);
    }
    if let Projection::Aggregate(func) = select.projection {
        if select.order_by_prob {
            return Err(SqlError::new(
                0,
                format!(
                    "ORDER BY Prob cannot apply to the single row {} returns",
                    func.sql_name()
                ),
            )
            .into());
        }
        if select.offset.is_some() {
            return Err(SqlError::new(
                0,
                format!(
                    "OFFSET cannot apply to the single row {} returns",
                    func.sql_name()
                ),
            )
            .into());
        }
        request = request.aggregate(func);
    }
    Ok(request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateFunc;
    use crate::exec::Approach;

    fn lower(src: &str) -> Result<QueryRequest, QueryError> {
        lower_statement(&parse_statement(src)?)
    }

    #[test]
    fn lowering_fills_every_request_field() {
        let req = lower(
            "SELECT DataKey, Prob FROM kMAPData WHERE Data REGEXP 'Sec' AND Prob >= 0.5 \
             ORDER BY Prob DESC LIMIT 7",
        )
        .unwrap();
        assert_eq!(req.pattern, "Sec");
        assert_eq!(req.dialect, Dialect::Regex);
        assert_eq!(req.approach, Approach::KMap);
        assert_eq!(req.min_prob, 0.5);
        assert_eq!(req.num_ans, 7);
        assert_eq!(req.aggregate, None);
    }

    #[test]
    fn defaults_match_the_builder() {
        let req = lower("SELECT DataKey FROM StaccatoData WHERE Data LIKE '%Ford%'").unwrap();
        let built = QueryRequest::like("%Ford%");
        assert_eq!(req.num_ans, built.num_ans);
        assert_eq!(req.min_prob, built.min_prob);
        assert_eq!(req.approach, built.approach);
        assert_eq!(req.offset, built.offset);
        assert_eq!(req.preference, built.preference);
    }

    #[test]
    fn aggregates_lower_and_reject_order_by() {
        let req = lower("SELECT SUM(Prob) FROM MAPData WHERE Data LIKE '%a%'").unwrap();
        assert_eq!(req.aggregate, Some(AggregateFunc::SumProb));
        let err = lower("SELECT COUNT(*) FROM MAPData WHERE Data LIKE '%a%' ORDER BY Prob DESC")
            .unwrap_err();
        assert!(err.to_string().contains("ORDER BY"), "{err}");
    }

    #[test]
    fn threshold_range_is_validated() {
        assert!(lower("SELECT DataKey FROM MAPData WHERE Data LIKE '%a%' AND Prob >= 0").is_ok());
        assert!(lower("SELECT DataKey FROM MAPData WHERE Data LIKE '%a%' AND Prob >= 1.0").is_ok());
        let err =
            lower("SELECT DataKey FROM MAPData WHERE Data LIKE '%a%' AND Prob >= 1.5").unwrap_err();
        assert!(err.to_string().contains("outside [0, 1]"), "{err}");
    }

    #[test]
    fn offset_lowers_binds_and_rejects_aggregates() {
        let req =
            lower("SELECT DataKey FROM MAPData WHERE Data LIKE '%a%' LIMIT 10 OFFSET 25").unwrap();
        assert_eq!(req.num_ans, 10);
        assert_eq!(req.offset, 25);
        let err = lower("SELECT COUNT(*) FROM MAPData WHERE Data LIKE '%a%' LIMIT 1 OFFSET 1")
            .unwrap_err();
        assert!(err.to_string().contains("OFFSET"), "{err}");

        let p =
            PreparedQuery::new("SELECT DataKey FROM MAPData WHERE Data LIKE ? LIMIT ? OFFSET ?")
                .unwrap();
        let stmt = p
            .bind(&[SqlValue::text("%a%"), SqlValue::Int(5), SqlValue::Int(15)])
            .unwrap();
        let req = lower_statement(&stmt).unwrap();
        assert_eq!((req.num_ans, req.offset), (5, 15));
        let ty = p
            .bind(&[SqlValue::text("%a%"), SqlValue::Int(5), SqlValue::text("x")])
            .unwrap_err();
        assert!(ty.to_string().contains("integer offset"), "{ty}");
    }

    #[test]
    fn unbound_params_refuse_to_lower() {
        let err = lower("SELECT DataKey FROM MAPData WHERE Data LIKE ?").unwrap_err();
        assert!(err.to_string().contains("unbound"), "{err}");
    }

    #[test]
    fn binding_substitutes_by_position_and_type() {
        let p = PreparedQuery::new(
            "SELECT DataKey FROM StaccatoData WHERE Data LIKE ? AND Prob >= ? LIMIT ?",
        )
        .unwrap();
        assert_eq!(p.param_count(), 3);
        let stmt = p
            .bind(&[
                SqlValue::text("%Ford%"),
                SqlValue::Number(0.25),
                SqlValue::Int(10),
            ])
            .unwrap();
        let req = lower_statement(&stmt).unwrap();
        assert_eq!(req.pattern, "%Ford%");
        assert_eq!(req.min_prob, 0.25);
        assert_eq!(req.num_ans, 10);
        // An Int binds to a threshold slot too (promoted to f64).
        let stmt = p
            .bind(&[SqlValue::text("%a%"), SqlValue::Int(1), SqlValue::Int(5)])
            .unwrap();
        assert_eq!(lower_statement(&stmt).unwrap().min_prob, 1.0);

        let arity = p.bind(&[SqlValue::text("%a%")]).unwrap_err();
        assert!(arity.to_string().contains("3 parameter"), "{arity}");
        let ty = p
            .bind(&[
                SqlValue::Number(1.0),
                SqlValue::Number(0.5),
                SqlValue::Int(1),
            ])
            .unwrap_err();
        assert!(ty.to_string().contains("pattern string"), "{ty}");
        let ty = p
            .bind(&[
                SqlValue::text("%a%"),
                SqlValue::Number(0.5),
                SqlValue::Number(1.0),
            ])
            .unwrap_err();
        assert!(ty.to_string().contains("integer limit"), "{ty}");
    }

    #[test]
    fn prepared_sql_renders_canonically() {
        let p = PreparedQuery::new("select  DataKey from MAPData where Data like ?").unwrap();
        assert_eq!(p.sql(), "SELECT DataKey FROM MAPData WHERE Data LIKE ?");
        assert!(!p.statement().is_explain());
    }
}
