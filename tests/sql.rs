//! The SQL front-end, end to end: grammar round-trips, equivalence with
//! the builder path, `EXPLAIN` agreement, thresholds, aggregates, and
//! prepared statements — all over a real loaded store.

use proptest::prelude::*;
use staccato::approx::StaccatoParams;
use staccato::automata::Trie;
use staccato::ocr::{generate, ChannelConfig, CorpusKind};
use staccato::query::sql::{
    parse_statement, render_statement, HistorySelect, Insert, InsertRow, Predicate, Projection,
    Select, SqlArg, Statement,
};
use staccato::query::store::LoadOptions;
use staccato::query::Dialect;
use staccato::storage::Database;
use staccato::{
    AggregateFunc, Approach, Plan, QueryRequest, SqlTable, SqlValue, Staccato, SyncPolicy,
};

fn session(lines: usize, seed: u64) -> Staccato {
    let dataset = generate(CorpusKind::CongressActs, lines, seed);
    let db = Database::in_memory(2048).expect("db");
    let opts = LoadOptions {
        channel: ChannelConfig::compact(seed),
        kmap_k: 8,
        staccato: StaccatoParams::new(10, 8),
        parallelism: 2,
    };
    Staccato::load(db, &dataset, &opts).expect("load")
}

// ------------------------------------------------------------------------
// Grammar: parse ∘ render is the identity on every representable AST.

/// Strategy over the whole AST space, with `?` ordinals assigned the way
/// the parser does (left to right), so equality is exact.
fn statement_strategy() -> impl Strategy<Value = Statement> {
    let head = (
        0usize..5,              // projection
        0usize..4,              // table
        any::<bool>(),          // dialect: LIKE / REGEXP
        "[a-z0-9%'() .|]{0,8}", // pattern text (quotes exercise escaping)
    );
    let threshold = (
        any::<bool>(), // AND Prob >= present?
        any::<bool>(), // ...as a '?'
        0usize..1001,  // threshold in milli-units -> [0, 1]
        any::<bool>(), // ORDER BY Prob DESC present?
    );
    let tail = (
        any::<bool>(), // LIMIT present?
        any::<bool>(), // ...as a '?'
        0u64..10_000,  // limit value
        0usize..3,     // plain / EXPLAIN / EXPLAIN ANALYZE
    );
    let paging = (
        any::<bool>(), // OFFSET present? (grammar requires LIMIT first)
        any::<bool>(), // ...as a '?'
        0u64..10_000,  // offset value
    );
    ((head, any::<bool>()), threshold, tail, paging).prop_map(
        |(
            ((proj, table, like, pattern), pattern_param),
            (has_t, t_param, t_milli, order_by_prob),
            (has_limit, limit_param, limit, explain),
            (has_offset, offset_param, offset),
        )| {
            let mut next_param = 0u32;
            let mut param = || {
                let n = next_param;
                next_param += 1;
                n
            };
            let pattern = if pattern_param {
                SqlArg::Param(param())
            } else {
                SqlArg::Value(pattern)
            };
            let min_prob = if has_t {
                Some(if t_param {
                    SqlArg::Param(param())
                } else {
                    SqlArg::Value(t_milli as f64 / 1000.0)
                })
            } else {
                None
            };
            let limit = if has_limit {
                Some(if limit_param {
                    SqlArg::Param(param())
                } else {
                    SqlArg::Value(limit)
                })
            } else {
                None
            };
            let offset = if has_limit && has_offset {
                Some(if offset_param {
                    SqlArg::Param(param())
                } else {
                    SqlArg::Value(offset)
                })
            } else {
                None
            };
            let select = Select {
                projection: match proj {
                    0 => Projection::DataKey,
                    1 => Projection::DataKeyProb,
                    2 => Projection::Aggregate(AggregateFunc::CountStar),
                    3 => Projection::Aggregate(AggregateFunc::SumProb),
                    _ => Projection::Aggregate(AggregateFunc::AvgProb),
                },
                table: match table {
                    0 => SqlTable::Map,
                    1 => SqlTable::KMap,
                    2 => SqlTable::FullSfa,
                    _ => SqlTable::Staccato,
                },
                predicate: Predicate {
                    dialect: if like { Dialect::Like } else { Dialect::Regex },
                    pattern,
                    min_prob,
                },
                order_by_prob,
                limit,
                offset,
            };
            match explain {
                1 => Statement::Explain(select),
                2 => Statement::ExplainAnalyze(select),
                _ => Statement::Select(select),
            }
        },
    )
}

/// Strategy over the write-path statements: multi-row `INSERT`s and
/// `StaccatoHistory` scans, with `?` ordinals assigned left to right.
fn write_statement_strategy() -> impl Strategy<Value = Statement> {
    let text = "[a-z0-9%'() .|]{0,8}";
    let insert =
        prop::collection::vec((text, any::<bool>(), text, any::<bool>()), 1..4).prop_map(|rows| {
            let mut next_param = 0u32;
            let mut param = || {
                let n = next_param;
                next_param += 1;
                n
            };
            Statement::Insert(Insert {
                rows: rows
                    .into_iter()
                    .map(|(name, name_param, data, data_param)| InsertRow {
                        doc_name: if name_param {
                            SqlArg::Param(param())
                        } else {
                            SqlArg::Value(name)
                        },
                        data: if data_param {
                            SqlArg::Param(param())
                        } else {
                            SqlArg::Value(data)
                        },
                    })
                    .collect(),
            })
        });
    let history = (
        (any::<bool>(), any::<bool>(), text),
        (any::<bool>(), any::<bool>(), 0u64..10_000),
    )
        .prop_map(
            |((has_like, like_param, pattern), (has_limit, limit_param, limit))| {
                let mut next_param = 0u32;
                let mut param = || {
                    let n = next_param;
                    next_param += 1;
                    n
                };
                Statement::SelectHistory(HistorySelect {
                    file_like: if has_like {
                        Some(if like_param {
                            SqlArg::Param(param())
                        } else {
                            SqlArg::Value(pattern)
                        })
                    } else {
                        None
                    },
                    limit: if has_limit {
                        Some(if limit_param {
                            SqlArg::Param(param())
                        } else {
                            SqlArg::Value(limit)
                        })
                    } else {
                        None
                    },
                })
            },
        );
    prop_oneof![insert, history]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_render_round_trips(stmt in statement_strategy()) {
        let text = render_statement(&stmt);
        let back = parse_statement(&text)
            .unwrap_or_else(|e| panic!("rendered SQL must parse: {text:?}: {e}"));
        prop_assert_eq!(&back, &stmt, "{}", text);
        // Rendering is canonical: a second trip is byte-identical.
        prop_assert_eq!(render_statement(&back), text);
    }

    #[test]
    fn write_statements_round_trip(stmt in write_statement_strategy()) {
        let text = render_statement(&stmt);
        let back = parse_statement(&text)
            .unwrap_or_else(|e| panic!("rendered SQL must parse: {text:?}: {e}"));
        prop_assert_eq!(&back, &stmt, "{}", text);
        prop_assert_eq!(render_statement(&back), text);
    }
}

// ------------------------------------------------------------------------
// Execution: the SQL surface and the builder surface are one engine.

#[test]
fn sql_and_builder_agree_on_every_representation() {
    let s = session(40, 101);
    for approach in Approach::all() {
        let table = SqlTable::of_approach(approach).name();
        let sql = format!(
            "SELECT DataKey, Prob FROM {table} WHERE Data REGEXP 'President' \
             ORDER BY Prob DESC LIMIT 1000"
        );
        let via_sql = s.sql(&sql).expect("sql path");
        let via_builder = s
            .execute(
                &QueryRequest::keyword("President")
                    .approach(approach)
                    .num_ans(1000),
            )
            .expect("builder path");
        assert_eq!(via_sql.plan, via_builder.plan, "{table}");
        assert_eq!(via_sql.answers.len(), via_builder.answers.len(), "{table}");
        for (a, b) in via_sql.answers.iter().zip(&via_builder.answers) {
            assert_eq!(a.data_key, b.data_key);
            assert_eq!(a.probability, b.probability);
        }
    }
}

#[test]
fn explain_select_agrees_with_builder_explain() {
    // The acceptance contract: `EXPLAIN SELECT ...` output equals the
    // builder-path `explain()` for the same query — filescan and probe.
    let s = session(50, 103);
    let cases = [
        (
            "EXPLAIN SELECT DataKey FROM StaccatoData WHERE Data REGEXP 'Public Law (8|9)\\d' LIMIT 100",
            QueryRequest::regex(r"Public Law (8|9)\d"),
        ),
        (
            "EXPLAIN SELECT DataKey, Prob FROM MAPData WHERE Data LIKE '%Ford%' AND Prob >= 0.5 LIMIT 10",
            QueryRequest::like("%Ford%")
                .approach(Approach::Map)
                .min_prob(0.5)
                .num_ans(10),
        ),
    ];
    for register_index in [false, true] {
        if register_index {
            s.register_index(&Trie::build(["public"]), "inv")
                .expect("index");
        }
        for (sql, request) in &cases {
            let via_sql = s.sql(sql).expect("EXPLAIN").explain.expect("text");
            let via_builder = s.explain(request).expect("builder explain");
            assert_eq!(via_sql, via_builder, "{sql}");
        }
    }
    // With the index registered the anchored query's EXPLAIN shows the probe.
    let text = s.sql(cases[0].0).unwrap().explain.unwrap();
    assert!(text.contains("IndexProbe"), "{text}");
}

#[test]
fn explain_analyze_counts_the_blobs_the_synopsis_skipped() {
    let s = session(30, 131);
    let sql = "SELECT DataKey FROM StaccatoData WHERE Data REGEXP 'qxjqxj' LIMIT 10";
    let out = s.sql(&format!("EXPLAIN ANALYZE {sql}")).expect("analyze");
    let text = out.explain.expect("EXPLAIN ANALYZE sets the text");
    // No line holds the literal, so tier 0 decides every row from its
    // synopsis: no blob is fetched, and every skip is also a prescreen.
    assert!(out.answers.is_empty());
    assert_eq!(out.stats.rows_scanned as usize, s.line_count());
    assert_eq!(out.stats.blobs_skipped, out.stats.rows_scanned);
    assert_eq!(out.stats.prescreen_skipped, out.stats.rows_scanned);
    assert!(
        text.contains(&format!("blobs skipped: {}", out.stats.blobs_skipped)),
        "{text}"
    );
    // The statement reads the `StaccatoGraph` heap pages and nothing else.
    let (_, heap) = s.store().table("StaccatoGraph").expect("table");
    let pool = s.store().db().pool();
    let heap_pages = staccato::storage::heap::chain_length(pool, heap.first_page()).unwrap();
    assert_eq!(out.stats.pool.hits + out.stats.pool.misses, heap_pages);
    // A literal some line holds fetches that line's blob.
    let hit = s
        .sql("SELECT DataKey FROM StaccatoData WHERE Data REGEXP 'the' LIMIT 10")
        .expect("scan");
    assert!(!hit.answers.is_empty());
    assert!(hit.stats.blobs_skipped < hit.stats.rows_scanned);
    assert!(hit.stats.pool.hits + hit.stats.pool.misses > heap_pages);
}

#[test]
fn explain_analyze_counts_the_runs_a_probe_decoded() {
    let s = session(30, 131);
    s.register_index(&Trie::build(["the"]), "inv")
        .expect("index");
    let sql = "SELECT DataKey FROM StaccatoData WHERE Data REGEXP 'the' LIMIT 10";
    let out = s.sql(&format!("EXPLAIN ANALYZE {sql}")).expect("analyze");
    let text = out.explain.expect("EXPLAIN ANALYZE sets the text");
    assert!(out.plan.is_index_probe(), "{text}");
    assert!(!out.answers.is_empty());
    // One run per edge of every candidate: the probe decodes only the
    // runs inside some projection, fewer than its candidates hold.
    let edges: std::collections::HashMap<i64, u64> = s
        .store()
        .staccato_cursor()
        .unwrap()
        .map(|item| item.map(|(key, sfa)| (key, sfa.edge_count() as u64)))
        .collect::<Result<_, _>>()
        .unwrap();
    let index = s.index("inv").expect("registered");
    let held: u64 = staccato::query::invindex::probe_term(s.store(), &index, "the")
        .unwrap()
        .iter()
        .map(|(key, _)| edges[key])
        .sum();
    assert_eq!(out.stats.runs_decoded + out.stats.runs_skipped, held);
    assert!(out.stats.runs_decoded > 0);
    assert!(out.stats.runs_decoded < held, "{text}");
    assert!(
        text.contains(&format!(
            "runs decoded: {} of {held}",
            out.stats.runs_decoded
        )),
        "{text}"
    );
    // A filescan decodes whole blobs and counts no runs.
    let scan = s
        .sql(&format!("EXPLAIN ANALYZE {sql}").replace("StaccatoData", "FullSFAData"))
        .expect("scan");
    assert_eq!((scan.stats.runs_decoded, scan.stats.runs_skipped), (0, 0));
}

#[test]
fn explain_analyze_executes_and_reports_counters() {
    let s = session(30, 131);
    let sql = "SELECT DataKey, Prob FROM MAPData WHERE Data REGEXP 'President' LIMIT 10";
    let out = s.sql(&format!("EXPLAIN ANALYZE {sql}")).expect("analyze");
    let text = out.explain.expect("EXPLAIN ANALYZE sets the text");
    // It executed for real: answers and counters are populated.
    assert!(!out.answers.is_empty());
    assert_eq!(out.stats.rows_scanned as usize, s.line_count());
    assert!(out.stats.exec_wall.as_nanos() > 0, "execution is timed");
    assert!(
        out.stats.pool.hits + out.stats.pool.misses > 0,
        "the scan reads pages through the pool: {:?}",
        out.stats.pool
    );
    // The report is the EXPLAIN text plus the observed counters.
    let plain = s.sql(&format!("EXPLAIN {sql}")).unwrap().explain.unwrap();
    assert!(text.starts_with(&plain), "{text}");
    assert!(text.contains("Analyze: plan "), "{text}");
    assert!(text.contains(", exec "), "{text}");
    assert!(
        text.contains(&format!(
            "rows scanned: {}, lines evaluated: {}, postings probed: 0",
            out.stats.rows_scanned, out.stats.lines_evaluated
        )),
        "{text}"
    );
    assert!(
        text.contains(&format!(
            "buffer pool: {} hits, {} misses, {} evictions",
            out.stats.pool.hits, out.stats.pool.misses, out.stats.pool.evictions
        )),
        "{text}"
    );
    assert!(
        text.contains(&format!("returned: {} ranked row(s)", out.answers.len())),
        "{text}"
    );
    // Aggregates report the scalar instead of a row count.
    let agg = s
        .sql("EXPLAIN ANALYZE SELECT COUNT(*) FROM MAPData WHERE Data REGEXP 'President'")
        .expect("analyze aggregate");
    let agg_text = agg.explain.unwrap();
    let value = agg.aggregate.expect("aggregate executed").value;
    assert!(
        agg_text.contains(&format!("returned: COUNT(*) = {value}")),
        "{agg_text}"
    );
    // Keywords are case-insensitive, as everywhere in the grammar.
    assert!(s
        .sql(&format!("explain analyze {sql}"))
        .unwrap()
        .explain
        .is_some());
}

#[test]
fn aggregate_plans_stream_past_the_limit() {
    // LIMIT caps the *ranked* relation, never what an aggregate sees:
    // COUNT(*) with a tiny LIMIT still counts every qualifying line.
    let s = session(40, 107);
    let ranked = s
        .sql("SELECT DataKey FROM FullSFAData WHERE Data REGEXP 'the' LIMIT 3")
        .unwrap();
    assert_eq!(ranked.answers.len(), 3);
    let all = s
        .sql("SELECT DataKey FROM FullSFAData WHERE Data REGEXP 'the' LIMIT 100000")
        .unwrap();
    let count = s
        .sql("SELECT COUNT(*) FROM FullSFAData WHERE Data REGEXP 'the' LIMIT 3")
        .unwrap();
    assert_eq!(
        count.aggregate.unwrap().value,
        all.answers.len() as f64,
        "aggregates are computed over the full relation"
    );
    assert_eq!(count.stats.rows_scanned as usize, s.line_count());
}

#[test]
fn limit_offset_pages_tile_the_unpaged_ranking() {
    // Honest pagination: LIMIT n OFFSET m over SQL returns exactly rows
    // m..m+n of the full ranked relation — same keys, same probabilities,
    // no server-side re-slicing — and pages collectively tile it.
    let s = session(40, 211);
    let full = s
        .sql("SELECT DataKey, Prob FROM StaccatoData WHERE Data REGEXP 'the' LIMIT 100000")
        .expect("unpaged");
    assert!(full.answers.len() > 10, "corpus must match broadly");
    let page_size = 7;
    let mut paged = Vec::new();
    let mut offset = 0;
    loop {
        let page = s
            .sql(&format!(
                "SELECT DataKey, Prob FROM StaccatoData WHERE Data REGEXP 'the' \
                 LIMIT {page_size} OFFSET {offset}"
            ))
            .expect("page");
        if page.answers.is_empty() {
            break;
        }
        assert!(page.answers.len() <= page_size);
        paged.extend(page.answers);
        offset += page_size;
    }
    assert_eq!(paged.len(), full.answers.len());
    for (a, b) in paged.iter().zip(&full.answers) {
        assert_eq!(a.data_key, b.data_key);
        assert_eq!(a.probability, b.probability);
    }
    // The builder surface pages identically (same engine).
    let via_builder = s
        .execute(
            &QueryRequest::keyword("the")
                .num_ans(page_size)
                .offset(page_size),
        )
        .expect("builder page 2");
    let page2 = &paged[page_size..(2 * page_size).min(paged.len())];
    assert_eq!(via_builder.answers.len(), page2.len());
    for (a, b) in via_builder.answers.iter().zip(page2) {
        assert_eq!(a.data_key, b.data_key);
    }
}

#[test]
fn prepared_statements_rebind_across_executions() {
    let s = session(30, 109);
    let p = s
        .prepare("SELECT DataKey FROM StaccatoData WHERE Data REGEXP ? AND Prob >= ? LIMIT ?")
        .expect("prepare");
    assert_eq!(p.param_count(), 3);
    for (pattern, threshold) in [("President", 0.0), ("Commission", 0.3)] {
        let out = s
            .execute_prepared(
                &p,
                &[
                    SqlValue::text(pattern),
                    SqlValue::Number(threshold),
                    SqlValue::Int(1000),
                ],
            )
            .expect("bound execution");
        let direct = s
            .execute(
                &QueryRequest::keyword(pattern)
                    .min_prob(threshold)
                    .num_ans(1000),
            )
            .expect("builder");
        assert_eq!(out.answers.len(), direct.answers.len(), "{pattern}");
        for (a, b) in out.answers.iter().zip(&direct.answers) {
            assert_eq!(a.data_key, b.data_key);
        }
    }
}

#[test]
fn sql_errors_are_loud_and_positioned() {
    let s = session(10, 113);
    for (sql, needle) in [
        (
            "SELECT DataKey FROM GroundTruth WHERE Data LIKE '%a%'",
            "unknown table",
        ),
        (
            "SELECT DataKey FROM MAPData WHERE Data LIKE '%a%' AND Prob >= 2.0",
            "outside [0, 1]",
        ),
        (
            "SELECT COUNT(*) FROM MAPData WHERE Data LIKE '%a%' ORDER BY Prob DESC",
            "ORDER BY",
        ),
        (
            "SELECT DataKey FROM MAPData WHERE Data REGEXP 'a(b'",
            "bad pattern",
        ),
        ("DELETE FROM MAPData", "SELECT"),
    ] {
        let err = s.sql(sql).expect_err(sql);
        assert!(err.to_string().contains(needle), "{sql}: {err}");
    }
}

#[test]
fn insert_and_history_execute_end_to_end() {
    let s = session(8, 211);

    // Literal multi-row INSERT: two documents, one atomic batch.
    let out = s
        .sql(
            "INSERT INTO StaccatoData (DocName, Data) VALUES \
             ('minutes.png', 'the committee on quixotic affairs convened'), \
             ('roll.png', 'a quorum of quixotic members answered the roll')",
        )
        .expect("insert");
    assert_eq!(out.plan, Plan::Ingest { rows: 2 });
    let receipt = out.ingest.expect("receipt");
    assert_eq!(receipt.batch_seq, 1);
    assert_eq!(receipt.first_key, 8);
    assert_eq!(receipt.docs, 2);
    assert!(out.stats.wal.records_appended == 0, "no WAL attached");

    // Prepared INSERT binds both strings on execute.
    let p = s
        .prepare("INSERT INTO StaccatoData (DocName, Data) VALUES (?, ?)")
        .expect("prepare");
    assert_eq!(p.param_count(), 2);
    let out = s
        .execute_prepared(
            &p,
            &[
                SqlValue::text("late.png"),
                SqlValue::text("one more quixotic document"),
            ],
        )
        .expect("execute");
    assert_eq!(out.ingest.expect("receipt").batch_seq, 2);

    // The new rows answer ordinary SELECTs immediately.
    let hits = s
        .sql("SELECT DataKey FROM MAPData WHERE Data LIKE '%quixotic%' LIMIT 10")
        .expect("select")
        .answers;
    assert_eq!(hits.len(), 3);
    assert!(hits.iter().all(|a| a.data_key >= 8));

    // History reflects both batches, filters, and pages.
    let rows = s
        .sql("SELECT * FROM StaccatoHistory")
        .expect("history")
        .history
        .expect("rows");
    assert_eq!(rows.len(), 3, "loaded corpus lines carry no history");
    assert!(rows.iter().all(|r| r.provider == "sql"));
    let filtered = s
        .sql("SELECT * FROM StaccatoHistory WHERE FileName LIKE '%.png' LIMIT 2")
        .expect("history")
        .history
        .expect("rows");
    assert_eq!(filtered.len(), 2);

    // Write statements refuse EXPLAIN, and wrong shapes name the fix.
    for (sql, needle) in [
        (
            "INSERT INTO MAPData (DocName, Data) VALUES ('a', 'b')",
            "StaccatoData",
        ),
        ("EXPLAIN SELECT * FROM StaccatoHistory", "EXPLAIN"),
        ("SELECT * FROM MAPData WHERE Data LIKE '%a%'", "SELECT list"),
    ] {
        let err = s.sql(sql).expect_err(sql);
        assert!(err.to_string().contains(needle), "{sql}: {err}");
    }
}

#[test]
fn insert_reports_its_wal_work_in_exec_stats() {
    let dir = std::env::temp_dir().join(format!("staccato_sql_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = session(8, 223);
    s.attach_wal(&dir, SyncPolicy::Commit).expect("attach");
    let out = s
        .sql("INSERT INTO StaccatoData (DocName, Data) VALUES ('memo.png', 'a durable memo')")
        .expect("insert");
    let (wal, receipt) = (out.stats.wal, out.ingest.expect("receipt"));
    let _ = std::fs::remove_dir_all(&dir);
    // One batch is one log record; the statement's counters are that
    // record's, and the ack means some fsync covered it — the appender's
    // own or a group flush this statement led.
    assert_eq!(wal.records_appended, 1);
    assert!(wal.bytes_logged > 0);
    assert_eq!(wal.bytes_logged, receipt.wal_bytes);
    assert!(wal.fsyncs + wal.group_commits >= 1, "{wal:?}");
    assert!(wal.group_commits <= wal.fsyncs, "{wal:?}");
    assert!(wal.flush_wait <= out.stats.exec_wall, "{wal:?}");
}

#[test]
fn quoted_quotes_reach_the_pattern_verbatim() {
    let s = session(10, 127);
    let out = s
        .sql("SELECT DataKey FROM MAPData WHERE Data LIKE '%O''Hare%'")
        .expect("escaped quote");
    assert!(out.answers.is_empty(), "corpus has no O'Hare");
    // And the round trip preserves the escape through a prepared render.
    let p = s
        .prepare("SELECT DataKey FROM MAPData WHERE Data LIKE '%O''Hare%'")
        .unwrap();
    assert!(p.sql().contains("'%O''Hare%'"), "{}", p.sql());
}
