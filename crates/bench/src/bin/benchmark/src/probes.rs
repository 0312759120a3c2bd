//! Layer probes of the traced run.
//!
//! After the timed window, the workload's own inputs — its corpus lines,
//! the blobs its store holds, its statements — are replayed through each
//! layer's *public* function, one child span per layer. The probes are the
//! only per-layer timers there are: no file outside this directory gains
//! one. A probe reports the median of a few passes over `probe_items`
//! inputs.

use crate::data::{self, TABLE6_CA};
use crate::stats::median;
use crate::workloads::{err, Ctx, Outcome};
use staccato_ocr::{Channel, Dataset};
use staccato_query::invindex::line_postings;
use staccato_query::sql::parse_statement;
use staccato_query::{Query, ScanScratch, Staccato};
use staccato_sfa::{codec, k_best_paths, DecodeArena, Sfa};
use staccato_storage::{BufferPool, FileDisk, SyncPolicy, Wal};
use std::hint::black_box;
use std::time::Instant;

const PASSES: usize = 3;

/// Median seconds of `PASSES` runs of `f`.
fn timed(mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..PASSES)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

/// The probes every workload runs, over its own corpus and store. Sets
/// their metrics on `out` and returns the mean Staccato blob size in
/// bytes, which the accounted-share model of `probe_hot` needs and no
/// metric carries.
pub fn run_common(
    ctx: &Ctx,
    session: &Staccato,
    dataset: &Dataset,
    out: &mut Outcome,
) -> Result<f64, String> {
    ctx.tracer.span("probes", None, 0, |parent| {
        let mut probe = Probe { ctx, parent, out };
        let staccato_blob_bytes = probe.construction(dataset);
        probe.compile_and_parse();
        probe.pool()?;
        probe.store(session)?;
        probe.wal()?;
        Ok(staccato_blob_bytes)
    })
}

struct Probe<'a, 'c> {
    ctx: &'a Ctx<'c>,
    parent: Option<usize>,
    out: &'a mut Outcome,
}

impl Probe<'_, '_> {
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.ctx.tracer.span(name, self.parent, 0, |_| f())
    }

    /// ocr → sfa → core → invindex: what load and ingest run per line.
    /// Returns the mean Staccato blob size.
    fn construction(&mut self, dataset: &Dataset) -> f64 {
        let opts = data::load_options(self.ctx.seed, 1);
        let channel = Channel::new(opts.channel.clone());
        let lines: Vec<&str> = dataset
            .lines()
            .map(|(_, _, text)| text)
            .take(self.ctx.sizes.probe_items)
            .collect();
        let n = lines.len() as f64;
        let line_sfas = |lines: &[&str]| -> Vec<Sfa> {
            lines
                .iter()
                .enumerate()
                .map(|(i, l)| channel.line_to_sfa(l, i as u64))
                .collect()
        };

        let sfas = line_sfas(&lines);
        let channel_s = self.span("ocr.channel", || {
            timed(|| {
                black_box(line_sfas(black_box(&lines)));
            })
        });
        let kbest_s = self.span("sfa.kbest", || {
            timed(|| {
                for sfa in &sfas {
                    black_box(k_best_paths(black_box(sfa), opts.kmap_k));
                }
            })
        });
        let stacs: Vec<Sfa> = sfas
            .iter()
            .map(|s| staccato_core::approximate(s, opts.staccato))
            .collect();
        let approx_s = self.span("core.approximate", || {
            timed(|| {
                for sfa in &sfas {
                    black_box(staccato_core::approximate(black_box(sfa), opts.staccato));
                }
            })
        });
        let encode_s = self.span("sfa.encode", || {
            timed(|| {
                for (full, stac) in sfas.iter().zip(&stacs) {
                    black_box(codec::encode(black_box(full)));
                    black_box(codec::encode(black_box(stac)));
                }
            })
        });
        let full_blobs: Vec<Vec<u8>> = sfas.iter().map(codec::encode).collect();
        let stac_blobs: Vec<Vec<u8>> = stacs.iter().map(codec::encode).collect();
        let bytes = |blobs: &[Vec<u8>]| blobs.iter().map(Vec::len).sum::<usize>() as f64;
        let arena_ns_per_byte = |blobs: &[Vec<u8>]| {
            let mut arena = DecodeArena::new();
            let secs = timed(|| {
                for blob in blobs {
                    codec::decode_into_arena(black_box(blob), &mut arena)
                        .expect("a blob this run encoded");
                }
            });
            secs * 1e9 / bytes(blobs)
        };
        let arena_stac = self.span("sfa.decode_arena.staccato", || {
            arena_ns_per_byte(&stac_blobs)
        });
        let arena_full = self.span("sfa.decode_arena.fullsfa", || {
            arena_ns_per_byte(&full_blobs)
        });
        let owned_s = self.span("sfa.decode_owned", || {
            timed(|| {
                for blob in &stac_blobs {
                    black_box(codec::decode(black_box(blob)).expect("a blob this run encoded"));
                }
            })
        });

        // query::invindex: the postings one new line contributes (the CPU
        // half of index extension; the B+-tree inserts are not public).
        let trie = data::trie_of(&data::dictionary(dataset, self.ctx.sizes.filler_terms));
        let postings_s = self.span("query.line_postings", || {
            timed(|| {
                for graph in &stacs {
                    black_box(line_postings(&trie, black_box(graph)));
                }
            })
        });

        let per_line_us = |secs: f64| secs * 1e6 / n;
        let out = &mut *self.out;
        out.set("ocr.channel_us_per_line", per_line_us(channel_s));
        out.set("sfa.kbest_us_per_line", per_line_us(kbest_s));
        out.set("core.approximate_us_per_line", per_line_us(approx_s));
        out.set("sfa.encode_us_per_line", per_line_us(encode_s));
        out.set("query.line_postings_us_per_doc", per_line_us(postings_s));
        out.set("sfa.decode_arena_ns_per_byte.staccato", arena_stac);
        out.set("sfa.decode_arena_ns_per_byte.fullsfa", arena_full);
        out.set(
            "sfa.decode_owned_ns_per_byte",
            owned_s * 1e9 / bytes(&stac_blobs),
        );
        bytes(&stac_blobs) / n
    }

    /// automata (pattern → DFA → scan kernel) and the SQL parser.
    fn compile_and_parse(&mut self) {
        let compile_s = self.span("automata.compile", || {
            timed(|| {
                for pattern in TABLE6_CA {
                    black_box(Query::regex(black_box(pattern)).expect("a Table 6 pattern"));
                }
            })
        });
        self.out.set(
            "automata.compile_us_per_pattern",
            compile_s * 1e6 / TABLE6_CA.len() as f64,
        );
        let statements: Vec<String> = TABLE6_CA
            .iter()
            .map(|p| crate::workloads::http_closed::map_sql(p))
            .collect();
        let parse_s = self.span("query.sql_parse", || {
            timed(|| {
                for sql in &statements {
                    black_box(parse_statement(black_box(sql)).expect("a statement of the mix"));
                }
            })
        });
        self.out.set(
            "query.sql_parse_us_per_stmt",
            parse_s * 1e6 / statements.len() as f64,
        );
    }

    /// storage::pager on a scratch file: a resident set (every fetch a
    /// hit) and a cycling set eight times the pool (every fetch a miss).
    fn pool(&mut self) -> Result<(), String> {
        const FRAMES: usize = 64;
        let path = self.ctx.dir.join("probe_pool.db");
        let disk = FileDisk::create(&path).map_err(err)?;
        let pool = BufferPool::new(Box::new(disk), FRAMES);
        let pages = (FRAMES * 8) as u64;
        for _ in 0..pages {
            let pid = pool.allocate().map_err(err)?;
            pool.fetch_write(pid).map_err(err)?[0] = pid as u8;
        }
        pool.flush_all().map_err(err)?;
        let resident = (FRAMES / 4) as u64;
        let rounds = 64u64;
        let hit_s = self.span("storage.fetch_hit", || {
            timed(|| {
                for _ in 0..rounds {
                    for pid in 0..resident {
                        black_box(pool.fetch_read(pid).expect("a page just written")[0]);
                    }
                }
            })
        });
        let miss_s = self.span("storage.fetch_miss", || {
            timed(|| {
                for pid in 0..pages {
                    black_box(pool.fetch_read(pid).expect("a page just written")[0]);
                }
            })
        });
        drop(pool);
        std::fs::remove_file(&path).map_err(err)?;
        self.out.set(
            "storage.fetch_hit_ns_per_page",
            hit_s * 1e9 / (rounds * resident) as f64,
        );
        self.out.set(
            "storage.fetch_miss_us_per_page",
            miss_s * 1e6 / pages as f64,
        );
        Ok(())
    }

    /// storage::{heap,blob} through the store's borrowed-blob visitor, and
    /// query::kernel over rows fetched beforehand.
    fn store(&mut self, session: &Staccato) -> Result<(), String> {
        let store = session.store();
        let lines = store.line_count().max(1) as f64;
        let fetch_s = self.span("storage.blob_fetch", || {
            timed(|| {
                store
                    .for_each_staccato_blob(|_, blob| {
                        black_box(blob.len());
                        Ok(())
                    })
                    .expect("a store this run loaded");
            })
        });
        self.out
            .set("storage.blob_fetch_us_per_line", fetch_s * 1e6 / lines);

        // A statement's kernel memoises label transitions as it scans, so
        // the probe evaluates as many rows per pattern as a scan does.
        let n = self.ctx.sizes.read_lines;
        let stac: Vec<Vec<u8>> = collect(store.staccato_blobs().map_err(err)?.take(n))?;
        let full: Vec<Vec<u8>> = collect(store.full_sfa_blobs().map_err(err)?.take(n))?;
        let kmap: Vec<Vec<(String, f64)>> = collect(store.kmap_cursor().map_err(err)?.take(n))?;
        let map: Vec<(i64, String, f64)> = store
            .map_cursor()
            .map_err(err)?
            .take(n)
            .collect::<Result<_, _>>()
            .map_err(err)?;
        let queries: Vec<Query> = TABLE6_CA
            .iter()
            .map(|p| Query::regex(p).expect("a Table 6 pattern"))
            .collect();
        let per_line = |secs: f64, rows: usize| secs * 1e9 / (rows * queries.len()).max(1) as f64;
        let blob_kernel = |blobs: &[Vec<u8>]| {
            let mut scratch = ScanScratch::new();
            let secs = timed(|| {
                for q in &queries {
                    for blob in blobs {
                        black_box(
                            q.kernel
                                .eval_blob(&mut scratch, black_box(blob))
                                .expect("a stored blob"),
                        );
                    }
                }
            });
            per_line(secs, blobs.len())
        };
        let k_stac = self.span("query.kernel.staccato", || blob_kernel(&stac));
        let k_full = self.span("query.kernel.fullsfa", || blob_kernel(&full));
        let k_kmap = self.span("query.kernel.kmap", || {
            let secs = timed(|| {
                for q in &queries {
                    for group in &kmap {
                        black_box(
                            q.kernel
                                .eval_string_group(group.iter().map(|(s, p)| (s.as_str(), *p))),
                        );
                    }
                }
            });
            per_line(secs, kmap.len())
        });
        let k_map = self.span("query.kernel.map", || {
            let secs = timed(|| {
                for q in &queries {
                    for (_, s, p) in &map {
                        black_box(q.kernel.eval_string(black_box(s), *p));
                    }
                }
            });
            per_line(secs, map.len())
        });
        self.out.set("query.kernel_ns_per_line.staccato", k_stac);
        self.out.set("query.kernel_ns_per_line.fullsfa", k_full);
        self.out.set("query.kernel_ns_per_line.kmap", k_kmap);
        self.out.set("query.kernel_ns_per_line.map", k_map);
        Ok(())
    }

    /// storage::wal on a scratch log: append batch-sized records, then
    /// make each durable on its own (one `fdatasync` per record).
    fn wal(&mut self) -> Result<(), String> {
        let dir = self.ctx.dir.join("probe_wal");
        let mut wal = Wal::create(&dir, SyncPolicy::Commit).map_err(err)?;
        // An ingest batch logs each document's built artifacts: about one
        // FullSFA blob and one Staccato blob per document.
        let payload = vec![0xA5u8; self.ctx.sizes.docs_per_batch * 80 * 1024];
        let records = self.ctx.sizes.probe_items.max(1);
        let mut append_s = Vec::with_capacity(records);
        let mut fsync_s = Vec::with_capacity(records);
        self.span("storage.wal", || -> Result<(), String> {
            for _ in 0..records {
                let started = Instant::now();
                wal.append(&payload).map_err(err)?;
                append_s.push(started.elapsed().as_secs_f64());
                let started = Instant::now();
                wal.commit().map_err(err)?;
                fsync_s.push(started.elapsed().as_secs_f64());
            }
            Ok(())
        })?;
        drop(wal);
        std::fs::remove_dir_all(&dir).map_err(err)?;
        self.out
            .set("storage.wal_append_us_per_batch", median(&append_s) * 1e6);
        self.out.set("storage.wal_fsync_us", median(&fsync_s) * 1e6);
        Ok(())
    }
}

/// Keep the payload column of a `(key, payload)` cursor.
fn collect<T, E: std::fmt::Display>(
    rows: impl Iterator<Item = Result<(i64, T), E>>,
) -> Result<Vec<T>, String> {
    rows.map(|r| r.map(|(_, payload)| payload).map_err(err))
        .collect()
}
