//! The query planner: [`QueryRequest`] in, [`Plan`] out.
//!
//! The paper's interface is SQL — the user writes one `LIKE`/regex
//! predicate (Figure 1C) and the system decides how to run it; §4/§5.3
//! stress that index-assisted execution is *transparent*. This module is
//! that decision point for the reproduction: a request names the pattern,
//! representation, and answer budget, and [`plan_request`] compiles it
//! into an explicit access path —
//!
//! * [`Plan::FileScan`] — stream every line of the representation through
//!   the containment DFA, one line at a time on the calling thread;
//! * [`Plan::IndexProbe`] — look the pattern's left anchor up in a
//!   registered §4 inverted index, point-fetch the candidate lines, and
//!   evaluate only their projections;
//! * [`Plan::Aggregate`] — wrap either access path and fold qualifying
//!   lines into a streaming `COUNT(*)` / `SUM(Prob)` / `AVG(Prob)`.
//!
//! The probe is chosen automatically when the representation is Staccato,
//! the pattern is left-anchored (§2.1), and a registered index covers the
//! anchor term; otherwise the planner falls back to a filescan. Forcing
//! either path is supported for plan-quality experiments and tests. A
//! request-level probability threshold (`min_prob`, SQL `AND Prob >= t`)
//! is pushed into the executors so below-threshold rows never reach the
//! ranking heap. Requests arrive either from the fluent builder here or
//! from the textual SQL front-end ([`crate::sql`]), which lowers into the
//! same [`QueryRequest`].

use crate::agg::AggregateFunc;
use crate::error::QueryError;
use crate::exec::Approach;
use crate::query::Query;
use crate::session::Staccato;
use staccato_storage::PoolStats;
use std::time::Duration;

/// Which pattern dialect a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dialect {
    /// SQL `LIKE` (`%Ford%`): the pattern constrains the whole string.
    Like,
    /// The paper's regex dialect, containment semantics.
    Regex,
}

/// Planner override.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PlanPreference {
    /// Let the planner choose (index probe when legal, else filescan).
    #[default]
    Auto,
    /// Always filescan, even when an index could serve the query.
    ForceFileScan,
    /// Require the index probe; planning errors if it is not legal.
    ForceIndexProbe,
}

/// A declarative query: what to match, over which representation, with
/// what answer budget. Built fluently, executed by
/// [`Staccato::execute`](crate::session::Staccato::execute):
///
/// ```ignore
/// let out = session.execute(
///     &QueryRequest::like("%Ford%").approach(Approach::Staccato).num_ans(100),
/// )?;
/// ```
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The pattern text.
    pub pattern: String,
    /// The pattern dialect.
    pub dialect: Dialect,
    /// The representation this request targets.
    pub approach: Approach,
    /// The answer budget.
    pub num_ans: usize,
    /// Ranked answers to skip before the budget applies (SQL `OFFSET`):
    /// the executors rank the best `num_ans + offset` rows and drop the
    /// leading `offset`, so paging never re-ranks a truncated relation.
    pub offset: usize,
    /// The planner override.
    pub preference: PlanPreference,
    /// Probability threshold (SQL `AND Prob >= t`): rows below it never
    /// enter the ranking heap or the aggregate. 0.0 = no threshold.
    pub min_prob: f64,
    /// Aggregate projection (SQL `SELECT COUNT(*) | SUM(Prob) |
    /// AVG(Prob)`); `None` returns the ranked answer relation.
    pub aggregate: Option<AggregateFunc>,
}

impl QueryRequest {
    fn new(pattern: &str, dialect: Dialect) -> QueryRequest {
        QueryRequest {
            pattern: pattern.to_string(),
            dialect,
            approach: Approach::Staccato,
            // The paper's NumAns default: 100, "greater than the number of
            // answers in the ground truth".
            num_ans: 100,
            offset: 0,
            preference: PlanPreference::Auto,
            min_prob: 0.0,
            aggregate: None,
        }
    }

    /// A SQL `LIKE` predicate (`%Ford%`).
    pub fn like(pattern: &str) -> QueryRequest {
        QueryRequest::new(pattern, Dialect::Like)
    }

    /// A regex in the paper's dialect, containment semantics.
    pub fn regex(pattern: &str) -> QueryRequest {
        QueryRequest::new(pattern, Dialect::Regex)
    }

    /// A keyword containment query (a regex with no metacharacters).
    pub fn keyword(word: &str) -> QueryRequest {
        QueryRequest::new(word, Dialect::Regex)
    }

    /// Choose the representation to query (default: Staccato).
    pub fn approach(mut self, approach: Approach) -> QueryRequest {
        self.approach = approach;
        self
    }

    /// Cap the ranked answer relation at `num_ans` rows (default: 100).
    pub fn num_ans(mut self, num_ans: usize) -> QueryRequest {
        self.num_ans = num_ans;
        self
    }

    /// Skip the `offset` best-ranked answers before the `num_ans` budget
    /// applies (default: 0) — SQL `LIMIT n OFFSET m` pagination. The
    /// skipped prefix is still ranked exactly (the heap keeps
    /// `num_ans + offset` candidates), so page `m` of a query equals the
    /// corresponding window of an unpaged run. Ignored by aggregates,
    /// which always see every qualifying line.
    pub fn offset(mut self, offset: usize) -> QueryRequest {
        self.offset = offset;
        self
    }

    /// Changes nothing: every plan runs on the calling thread, filescans
    /// included. Kept only because the repo benchmark, whose sources are
    /// frozen, calls `.parallelism(1)` on every statement.
    pub fn parallelism(self, _threads: usize) -> QueryRequest {
        self
    }

    /// Override the planner's plan choice (default: automatic).
    pub fn plan_preference(mut self, preference: PlanPreference) -> QueryRequest {
        self.preference = preference;
        self
    }

    /// Only treat lines with match probability `>= t` as answers
    /// (default: 0.0, i.e. every positive-probability line). The filter
    /// is pushed into the streaming executors, ahead of the ranking heap.
    /// Values are clamped to `[0, 1]`; NaN means no threshold.
    pub fn min_prob(mut self, t: f64) -> QueryRequest {
        self.min_prob = crate::exec::sanitize_min_prob(t);
        self
    }

    /// Project an aggregate over the answer relation instead of returning
    /// ranked rows. Aggregate requests stream every qualifying line —
    /// `num_ans` does not cap what they see.
    pub fn aggregate(mut self, func: AggregateFunc) -> QueryRequest {
        self.aggregate = Some(func);
        self
    }

    /// Compile the pattern to a [`Query`] (containment DFA + anchor).
    pub fn compile(&self) -> Result<Query, QueryError> {
        match self.dialect {
            Dialect::Like => Query::like(&self.pattern),
            Dialect::Regex => Query::regex(&self.pattern),
        }
    }
}

/// An explicit, executable access path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// Stream the whole representation through the query DFA.
    FileScan {
        /// Representation scanned.
        approach: Approach,
    },
    /// Probe a registered inverted index with the pattern's left anchor,
    /// point-fetch candidates, evaluate projections (§4).
    IndexProbe {
        /// Name of the registered index.
        index: String,
        /// The anchor term looked up.
        anchor: String,
    },
    /// Fold the qualifying lines of `input` into a streaming aggregate
    /// (`COUNT(*)` / `SUM(Prob)` / `AVG(Prob)`), never materializing the
    /// answer relation.
    Aggregate {
        /// The aggregate to compute.
        func: AggregateFunc,
        /// The access path supplying the answer relation.
        input: Box<Plan>,
    },
    /// `INSERT INTO StaccatoData ...`: run the construction pipeline,
    /// log one WAL batch, apply the rows. Not a read access path — it
    /// never reaches [`run_access_path`](crate::session::Staccato).
    Ingest {
        /// Documents in the committed batch.
        rows: usize,
    },
    /// `SELECT * FROM StaccatoHistory`: scan the ingest-history table.
    /// Served directly from the heap — likewise not a ranked access
    /// path.
    HistoryScan,
}

impl Plan {
    /// Short plan-kind label for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Plan::FileScan { .. } => "FileScan",
            Plan::IndexProbe { .. } => "IndexProbe",
            Plan::Aggregate { .. } => "Aggregate",
            Plan::Ingest { .. } => "Ingest",
            Plan::HistoryScan => "HistoryScan",
        }
    }

    /// Does this plan (or its input, for aggregates) probe an index?
    pub fn is_index_probe(&self) -> bool {
        match self {
            Plan::IndexProbe { .. } => true,
            Plan::Aggregate { input, .. } => input.is_index_probe(),
            Plan::FileScan { .. } | Plan::Ingest { .. } | Plan::HistoryScan => false,
        }
    }

    /// The access path that reads the table: the plan itself, or the
    /// aggregate's input.
    pub fn access_path(&self) -> &Plan {
        match self {
            Plan::Aggregate { input, .. } => input.access_path(),
            other => other,
        }
    }
}

/// Execution counters attached to every result — the reproduction's
/// `EXPLAIN ANALYZE`.
///
/// Planning and execution are timed separately so the filescan and
/// index-probe paths report comparable numbers: `plan_wall` covers
/// pattern compilation plus access-path choice (including the index
/// dictionary lookups auto-planning performs), `exec_wall` covers running
/// the chosen plan. [`ExecStats::wall`] is their sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Physical table rows read (heap rows for scans, point fetches for
    /// probes).
    pub rows_scanned: u64,
    /// Lines whose match probability was computed.
    pub lines_evaluated: u64,
    /// Index postings retrieved (0 for filescans).
    pub postings_probed: u64,
    /// Lines the scan kernel's anchor prescreen resolved to zero
    /// probability without running the full evaluation (a subset of
    /// `lines_evaluated`).
    pub prescreen_skipped: u64,
    /// Staccato lines the prescreen's tier 0 decided from the label
    /// synopsis in their heap row, without fetching or decoding the graph
    /// blob (a subset of `prescreen_skipped`).
    pub blobs_skipped: u64,
    /// Emission runs an index probe decoded: the runs of the edges inside
    /// some candidate's projection (0 for filescans, which decode every
    /// run of every blob they fetch).
    pub runs_decoded: u64,
    /// Emission runs of the probe's candidates that it never decoded,
    /// because no projection reads them (0 for filescans).
    pub runs_skipped: u64,
    /// Wall-clock time spent compiling the pattern and choosing the plan.
    pub plan_wall: Duration,
    /// Wall-clock time spent executing the chosen plan.
    pub exec_wall: Duration,
    /// Buffer-pool activity attributed to this execution (the pool's
    /// counters sampled before and after). Under concurrent sessions the
    /// attribution is approximate: the pool is shared, so a neighbor's
    /// fetches land in whichever query was in flight.
    pub pool: PoolStats,
    /// WAL activity attributed to this statement — non-zero only for
    /// `INSERT` statements on a session with a WAL attached.
    pub wal: WalCounters,
}

/// WAL/ingest work counters. Per-statement deltas ride on
/// [`ExecStats::wal`]; the session-cumulative view is
/// [`Staccato::ingest_stats`](crate::session::Staccato::ingest_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalCounters {
    /// WAL records appended.
    pub records_appended: u64,
    /// Framed bytes logged.
    pub bytes_logged: u64,
    /// fsyncs issued (append-side syncs plus group fsyncs this
    /// statement led).
    pub fsyncs: u64,
    /// Group-commit fsyncs this statement led on behalf of every
    /// waiter (0 when it rode a flush another statement issued).
    pub group_commits: u64,
    /// Time this statement spent blocked waiting for its durable LSN.
    pub flush_wait: Duration,
}

impl ExecStats {
    /// Total wall-clock time: planning plus execution.
    pub fn wall(&self) -> Duration {
        self.plan_wall + self.exec_wall
    }
}

/// Compile `request` into the access path [`Staccato::execute`] will run.
///
/// Auto planning picks [`Plan::IndexProbe`] exactly when the request
/// targets the Staccato representation, the compiled pattern has a left
/// anchor, and some registered index's dictionary contains that anchor;
/// anything else filescans. Forced probes surface the precise reason they
/// are illegal instead of silently degrading. An aggregate request wraps
/// the chosen access path in [`Plan::Aggregate`].
pub fn plan_request(
    session: &Staccato,
    request: &QueryRequest,
    query: &Query,
) -> Result<Plan, QueryError> {
    let access = plan_access_path(session, request, query)?;
    Ok(match request.aggregate {
        Some(func) => Plan::Aggregate {
            func,
            input: Box::new(access),
        },
        None => access,
    })
}

fn plan_access_path(
    session: &Staccato,
    request: &QueryRequest,
    query: &Query,
) -> Result<Plan, QueryError> {
    let filescan = Plan::FileScan {
        approach: request.approach,
    };
    match request.preference {
        PlanPreference::ForceFileScan => Ok(filescan),
        PlanPreference::Auto => {
            if request.approach != Approach::Staccato {
                return Ok(filescan);
            }
            let Some(anchor) = query.anchor.as_deref() else {
                return Ok(filescan);
            };
            match session.index_covering(anchor)? {
                Some(name) => Ok(Plan::IndexProbe {
                    index: name,
                    anchor: anchor.to_string(),
                }),
                None => Ok(filescan),
            }
        }
        PlanPreference::ForceIndexProbe => {
            if request.approach != Approach::Staccato {
                return Err(QueryError::NoUsableIndex(format!(
                    "index probes run over the Staccato representation, not {}",
                    request.approach.name()
                )));
            }
            let anchor = query
                .anchor
                .clone()
                .ok_or_else(|| QueryError::NotAnchored(request.pattern.clone()))?;
            match session.index_covering(&anchor)? {
                Some(name) => Ok(Plan::IndexProbe {
                    index: name,
                    anchor,
                }),
                None if !session.has_indexes() => Err(QueryError::NoUsableIndex(
                    "no inverted index registered on this session".to_string(),
                )),
                None => Err(QueryError::TermNotInDictionary(anchor)),
            }
        }
    }
}

/// Human-readable plan report (the `EXPLAIN` text). The SQL front-end's
/// `EXPLAIN SELECT ...` and the builder path's
/// [`Staccato::explain`](crate::session::Staccato::explain) both render
/// through here, so the two surfaces agree byte for byte.
pub fn render_explain(request: &QueryRequest, query: &Query, plan: &Plan) -> String {
    let mut out = String::new();
    let dialect = match request.dialect {
        Dialect::Like => "LIKE",
        Dialect::Regex => "regex",
    };
    out.push_str(&format!(
        "Query: {} {:?} over {} (NumAns = {})\n",
        dialect,
        request.pattern,
        request.approach.name(),
        request.num_ans
    ));
    let span = match query.max_span() {
        Some(hi) => format!("{}..={hi}", query.min_span()),
        None => format!("{}..", query.min_span()),
    };
    out.push_str(&format!(
        "  anchor: {}, match span: {span}, DFA states: {}\n",
        query.anchor.as_deref().unwrap_or("none"),
        query.dfa.state_count()
    ));
    if request.min_prob > 0.0 {
        out.push_str(&format!(
            "  threshold: Prob >= {} (pushed into the executor)\n",
            request.min_prob
        ));
    }
    if let Plan::Aggregate { func, input } = plan {
        out.push_str(&format!(
            "Plan: Aggregate {} over {}\n",
            func.sql_name(),
            input.kind()
        ));
        out.push_str("  -> fold qualifying lines into a streaming aggregate (no ranking heap)\n");
        render_access_path(&mut out, "  input ", plan.access_path());
    } else {
        render_access_path(&mut out, "Plan: ", plan);
        if request.offset > 0 {
            out.push_str(&format!(
                "  -> top-{} answers by probability (bounded heap), skip the first {} (OFFSET)\n",
                request.num_ans, request.offset
            ));
        } else {
            out.push_str(&format!(
                "  -> top-{} answers by probability (bounded heap)\n",
                request.num_ans
            ));
        }
    }
    out
}

/// The `EXPLAIN ANALYZE` report: the [`render_explain`] text plus the
/// counters the execution actually produced — wall time split into
/// planning and execution, row/line/posting work, and the buffer-pool
/// activity attributed to the query. `answers` is what the statement
/// returned (the ranked row count, or the aggregate scalar).
pub fn render_explain_analyze(
    request: &QueryRequest,
    query: &Query,
    plan: &Plan,
    stats: &ExecStats,
    answers: &str,
) -> String {
    let mut out = render_explain(request, query, plan);
    out.push_str(&format!(
        "Analyze: plan {}, exec {} (total {})\n",
        fmt_wall(stats.plan_wall),
        fmt_wall(stats.exec_wall),
        fmt_wall(stats.wall())
    ));
    out.push_str(&format!(
        "  rows scanned: {}, lines evaluated: {}, postings probed: {}, prescreen skipped: {}, blobs skipped: {}, runs decoded: {} of {}\n",
        stats.rows_scanned,
        stats.lines_evaluated,
        stats.postings_probed,
        stats.prescreen_skipped,
        stats.blobs_skipped,
        stats.runs_decoded,
        stats.runs_decoded + stats.runs_skipped
    ));
    out.push_str(&format!(
        "  buffer pool: {} hits, {} misses, {} evictions ({:.1}% hit rate)\n",
        stats.pool.hits,
        stats.pool.misses,
        stats.pool.evictions,
        stats.pool.hit_rate() * 100.0
    ));
    out.push_str(&format!("  returned: {answers}\n"));
    out
}

/// Adaptive wall-clock units for the `Analyze:` line.
fn fmt_wall(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

fn render_access_path(out: &mut String, label: &str, plan: &Plan) {
    match plan {
        Plan::FileScan { approach } => {
            out.push_str(&format!("{label}FileScan over {}\n", approach.name()));
            out.push_str(&format!(
                "  -> stream {} rows through the containment DFA\n",
                approach.name()
            ));
        }
        Plan::IndexProbe { index, anchor } => {
            out.push_str(&format!("{label}IndexProbe via {index:?}\n"));
            out.push_str(&format!("  -> probe postings for anchor {anchor:?}\n"));
            out.push_str("  -> point-fetch candidate StaccatoGraph rows via the primary B+-tree\n");
            out.push_str("  -> evaluate each candidate on its projection (span-bounded BFS)\n");
        }
        Plan::Aggregate { .. } => unreachable!("aggregates wrap exactly one access path"),
        Plan::Ingest { .. } | Plan::HistoryScan => {
            unreachable!("write/history statements never render as read access paths")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_fluency() {
        let req = QueryRequest::like("%Ford%");
        assert_eq!(req.approach, Approach::Staccato);
        assert_eq!(req.num_ans, 100);
        assert_eq!(req.preference, PlanPreference::Auto);
        assert_eq!(req.min_prob, 0.0);
        assert_eq!(req.aggregate, None);
        let req = req.approach(Approach::Map).num_ans(10);
        assert_eq!(req.approach, Approach::Map);
        assert_eq!(req.num_ans, 10);
    }

    #[test]
    fn min_prob_clamps_to_the_unit_interval() {
        assert_eq!(QueryRequest::like("%a%").min_prob(0.5).min_prob, 0.5);
        assert_eq!(QueryRequest::like("%a%").min_prob(-3.0).min_prob, 0.0);
        assert_eq!(QueryRequest::like("%a%").min_prob(7.0).min_prob, 1.0);
        assert_eq!(QueryRequest::like("%a%").min_prob(f64::NAN).min_prob, 0.0);
    }

    #[test]
    fn compile_respects_dialect() {
        let like = QueryRequest::like("%Ford%").compile().unwrap();
        assert!(like.dfa.accepts("a Ford here"));
        let exact = QueryRequest::like("Ford").compile().unwrap();
        assert!(!exact.dfa.accepts("a Ford here"));
        let kw = QueryRequest::keyword("Ford").compile().unwrap();
        assert!(kw.dfa.accepts("a Ford here"));
        assert!(QueryRequest::regex("a(b").compile().is_err());
    }

    #[test]
    fn plan_kind_labels() {
        let scan = Plan::FileScan {
            approach: Approach::Map,
        };
        let probe = Plan::IndexProbe {
            index: "inv".into(),
            anchor: "ford".into(),
        };
        assert_eq!(scan.kind(), "FileScan");
        assert!(!scan.is_index_probe());
        assert_eq!(probe.kind(), "IndexProbe");
        assert!(probe.is_index_probe());
        let agg = Plan::Aggregate {
            func: AggregateFunc::SumProb,
            input: Box::new(probe.clone()),
        };
        assert_eq!(agg.kind(), "Aggregate");
        assert!(agg.is_index_probe(), "aggregate sees through to its input");
        assert_eq!(agg.access_path(), &probe);
    }

    #[test]
    fn explain_renders_both_plans() {
        let req = QueryRequest::regex(r"Public Law (8|9)\d");
        let query = req.compile().unwrap();
        let scan = render_explain(
            &req,
            &query,
            &Plan::FileScan {
                approach: Approach::Staccato,
            },
        );
        assert!(scan.contains("FileScan over STACCATO"), "{scan}");
        assert!(scan.contains("anchor: public"), "{scan}");
        let probe = render_explain(
            &req,
            &query,
            &Plan::IndexProbe {
                index: "inv".into(),
                anchor: "public".into(),
            },
        );
        assert!(probe.contains("IndexProbe"), "{probe}");
        assert!(probe.contains("\"public\""), "{probe}");
    }

    #[test]
    fn explain_renders_threshold_and_aggregate() {
        let req = QueryRequest::like("%Ford%")
            .min_prob(0.25)
            .aggregate(AggregateFunc::CountStar);
        let query = req.compile().unwrap();
        let text = render_explain(
            &req,
            &query,
            &Plan::Aggregate {
                func: AggregateFunc::CountStar,
                input: Box::new(Plan::FileScan {
                    approach: Approach::Staccato,
                }),
            },
        );
        assert!(text.contains("threshold: Prob >= 0.25"), "{text}");
        assert!(text.contains("Aggregate COUNT(*) over FileScan"), "{text}");
        assert!(text.contains("streaming aggregate"), "{text}");
        assert!(!text.contains("top-"), "no ranking heap line: {text}");

        // No threshold, no aggregate: the classic report, unchanged.
        let req = QueryRequest::like("%Ford%");
        let text = render_explain(
            &req,
            &query,
            &Plan::FileScan {
                approach: Approach::Staccato,
            },
        );
        assert!(!text.contains("threshold"), "{text}");
        assert!(text.contains("top-100"), "{text}");
    }
}
