//! Stable wire error codes.
//!
//! Every non-2xx response carries `{"error":{"code":"...","message":
//! "..."}}`. The `code` strings are the API contract — clients switch
//! on them, so they never change even when the human-readable message
//! does. [`QueryError`] variants map onto codes 1:1; the server layer
//! adds its own codes for protocol-level failures (size caps, rate
//! limits, timeouts, shutdown).

use crate::http::Response;
use crate::json::{obj, Json};
use staccato_query::QueryError;

/// One API-visible error: an HTTP status plus a stable machine code.
#[derive(Debug)]
pub struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable machine-readable code (the contract).
    pub code: &'static str,
    /// Human-readable detail (not contractual).
    pub message: String,
}

impl ApiError {
    /// A new error.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code,
            message: message.into(),
        }
    }

    /// Map a query-layer failure to its wire code. Client mistakes
    /// (bad SQL, bad pattern, unservable index demands) are 4xx;
    /// engine-side corruption and storage failures are 5xx.
    pub fn from_query_error(e: &QueryError) -> ApiError {
        let (status, code) = match e {
            QueryError::Sql(_) => (400, "SQL_PARSE"),
            QueryError::Pattern(_) => (400, "BAD_PATTERN"),
            QueryError::NotAnchored(_) => (400, "NOT_ANCHORED"),
            QueryError::TermNotInDictionary(_) => (400, "TERM_NOT_IN_DICTIONARY"),
            QueryError::NoUsableIndex(_) => (400, "NO_USABLE_INDEX"),
            QueryError::DuplicateIndex(_) => (409, "DUPLICATE_INDEX"),
            QueryError::Ingest(_) => (400, "BAD_INGEST"),
            QueryError::Storage(_) => (500, "STORAGE"),
            QueryError::Sfa(_) => (500, "CORRUPT_SFA"),
            QueryError::MissingRepresentation(_) => (500, "MISSING_REPRESENTATION"),
            QueryError::CorruptWal(_) => (500, "CORRUPT_WAL"),
            QueryError::StoreMismatch(_) => (500, "STORE_MISMATCH"),
        };
        ApiError::new(status, code, e.to_string())
    }

    /// The JSON body.
    pub fn body(&self) -> String {
        obj([(
            "error",
            obj([
                ("code", Json::Str(self.code.to_string())),
                ("message", Json::Str(self.message.clone())),
            ]),
        )])
        .render()
    }

    /// The full response.
    pub fn response(&self) -> Response {
        Response::json(self.status, self.body())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staccato_query::SqlError;

    #[test]
    fn query_errors_map_to_stable_codes() {
        let cases: Vec<(QueryError, u16, &str)> = vec![
            (QueryError::Sql(SqlError::new(3, "nope")), 400, "SQL_PARSE"),
            (QueryError::NotAnchored("(a|b)".into()), 400, "NOT_ANCHORED"),
            (
                QueryError::TermNotInDictionary("ford".into()),
                400,
                "TERM_NOT_IN_DICTIONARY",
            ),
            (
                QueryError::NoUsableIndex("why".into()),
                400,
                "NO_USABLE_INDEX",
            ),
            (
                QueryError::DuplicateIndex("inv".into()),
                409,
                "DUPLICATE_INDEX",
            ),
            (
                QueryError::MissingRepresentation("map"),
                500,
                "MISSING_REPRESENTATION",
            ),
        ];
        for (err, status, code) in cases {
            let api = ApiError::from_query_error(&err);
            assert_eq!((api.status, api.code), (status, code), "{err}");
        }
    }

    #[test]
    fn body_is_the_documented_envelope() {
        let api = ApiError::new(429, "RATE_LIMITED", "slow \"down\"");
        let parsed = Json::parse(&api.body()).unwrap();
        let e = parsed.get("error").unwrap();
        assert_eq!(e.get("code").unwrap().as_str(), Some("RATE_LIMITED"));
        assert_eq!(e.get("message").unwrap().as_str(), Some("slow \"down\""));
    }
}
