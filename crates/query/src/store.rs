//! The Table 5 schema: loading an OCR corpus into the RDBMS under all
//! four representations.
//!
//! | table | columns | contents |
//! |---|---|---|
//! | `MasterData` | DataKey, DocName, SFANum | one row per scanned line |
//! | `MAPData` | DataKey, Data, LogProb | the MAP transcription |
//! | `kMAPData` | DataKey, LineNum, Data, LogProb | top-k strings (LineNum = rank) |
//! | `FullSFAData` | DataKey, SFABlob | the full OCR SFA as a blob |
//! | `StaccatoGraph` | DataKey, GraphBlob, Synopsis | the chunk graph as a blob, and its label synopsis |
//! | `GroundTruth` | DataKey, Data | the clean line (evaluation only) |
//! | `StaccatoHistory` | DataKey, FileName, Provider, Confidence, ProcessingTimeMs, IngestedAt, BatchSeq | one row per *ingested* document |
//!
//! (The paper stores MAP as k-MAP with k = 1; a dedicated `MAPData` table
//! keeps the MAP filescan's I/O proportional to one string per line, as a
//! separate k = 1 dataset would.) B+-tree primary indexes are built on the
//! blob tables so index-assisted queries can fetch single lines.
//!
//! `Synopsis` is a fixed [`SYNOPSIS_LEN`]-byte summary of the strings the
//! graph can emit — the set of label bytes and a 64 × 64 matrix of
//! byte-class bigrams ([`blob_synopsis`]) — that sits in the heap row, so
//! a filescan decides most lines (tier 0 of the scan kernel) without
//! fetching their blob. The construction pipeline derives it from the
//! blob it builds, once per line and outside every latch, and carries it
//! in the line's `LineArtifacts`; the WAL logs it with the blob, so
//! load, ingest and replay insert identical rows and replay decodes no
//! blob. A store whose `StaccatoGraph` lacks the column is refused at
//! reopen.
//!
//! The paper's Table 5 also has a `StaccatoData` table of per-chunk
//! top-k strings. The `StaccatoGraph` blob already holds every chunk's
//! labels and probabilities, so those rows would be a second copy of
//! the graph, and none is stored: the SQL name `StaccatoData` reads the
//! `StaccatoGraph` blobs.
//!
//! Construction (channel → k-best → Staccato approximation) is
//! embarrassingly parallel across lines (§5.2 used Condor); the loader
//! fans out over `parallelism` threads.

use crate::error::QueryError;
use crate::ingest::HistoryRow;
use crate::kernel::{blob_synopsis, SYNOPSIS_LEN};
use staccato_core::{approximate, StaccatoParams};
use staccato_ocr::{Channel, ChannelConfig, Dataset};
use staccato_sfa::{codec, k_best_paths, Sfa};
use staccato_storage::{
    BTree, BlobStore, BufferPool, ColumnType, Database, HeapFile, HeapScan, PageId, Rid, RowReader,
    Schema, StorageError, Value,
};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Loader options.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// OCR channel configuration.
    pub channel: ChannelConfig,
    /// `k` for the k-MAP representation.
    pub kmap_k: usize,
    /// `(m, k)` for the Staccato representation.
    pub staccato: StaccatoParams,
    /// Worker threads for SFA construction and approximation.
    pub parallelism: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            channel: ChannelConfig::default(),
            kmap_k: 25,
            staccato: StaccatoParams::new(40, 25),
            parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

/// Per-line artifacts produced by the construction pipeline. The WAL
/// logs these verbatim (see [`crate::ingest`]) so replay re-inserts
/// rows without re-running the channel or decoding a blob. The build
/// owns its fields; replay borrows them from the log it read.
pub(crate) struct LineArtifacts<'a> {
    pub(crate) doc_name: Cow<'a, str>,
    pub(crate) sfa_num: i64,
    pub(crate) clean: Cow<'a, str>,
    pub(crate) kmap: Vec<(Cow<'a, str>, f64)>,
    pub(crate) full_blob: Cow<'a, [u8]>,
    pub(crate) stac_blob: Cow<'a, [u8]>,
    /// [`blob_synopsis`] of `stac_blob`.
    pub(crate) synopsis: [u8; SYNOPSIS_LEN],
}

/// Byte sizes of each representation after loading (Table 2 / §5.5).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RepresentationSizes {
    /// Clean text bytes.
    pub text: u64,
    /// MAP strings.
    pub map: u64,
    /// k-MAP strings (incl. 16-byte per-tuple metadata, as Table 1 counts).
    pub kmap: u64,
    /// FullSFA blobs as stored (`SFA2` bytes, not the paper's cost model,
    /// [`staccato_sfa::codec::table1_size`]).
    pub full_sfa: u64,
    /// Staccato graph blobs as stored plus their [`SYNOPSIS_LEN`]-byte
    /// synopses.
    pub staccato: u64,
}

/// A loaded OCR store: the database plus live line/size accounting.
///
/// `lines` and `sizes` are interior-mutable so the ingest path can keep
/// them current through a shared reference — `line_count()` and
/// `sizes()` always reflect every applied batch, never a load-time
/// snapshot. The channel and load options are retained so ingested
/// documents are built exactly like loaded ones.
pub struct OcrStore {
    db: Database,
    tables: Tables,
    lines: AtomicUsize,
    sizes: Mutex<RepresentationSizes>,
    opts: LoadOptions,
    channel: Channel,
}

/// The heaps and primary-key trees the write path inserts into, resolved
/// from the catalog once per store instead of once per row.
struct Tables {
    master: HeapFile,
    map: HeapFile,
    kmap: HeapFile,
    full_sfa: HeapFile,
    staccato: HeapFile,
    truth: HeapFile,
    history: HeapFile,
    full_sfa_pk: BTree,
    staccato_pk: BTree,
}

impl Tables {
    fn open(db: &Database) -> Result<Tables, QueryError> {
        let heap = |name| -> Result<HeapFile, QueryError> { Ok(db.table(name)?.1) };
        Ok(Tables {
            master: heap("MasterData")?,
            map: heap("MAPData")?,
            kmap: heap("kMAPData")?,
            full_sfa: heap("FullSFAData")?,
            staccato: heap("StaccatoGraph")?,
            truth: heap("GroundTruth")?,
            history: heap("StaccatoHistory")?,
            full_sfa_pk: db.index("FullSFAData_pk")?,
            staccato_pk: db.index("StaccatoGraph_pk")?,
        })
    }
}

/// The store's counters as [`Database::set_meta`] keeps them: the line
/// count, then the five [`RepresentationSizes`] fields, each a
/// little-endian `u64`.
const COUNTERS_LEN: usize = 48;

fn encode_counters(lines: u64, s: &RepresentationSizes) -> [u8; COUNTERS_LEN] {
    let mut out = [0u8; COUNTERS_LEN];
    for (slot, v) in out
        .chunks_exact_mut(8)
        .zip([lines, s.text, s.map, s.kmap, s.full_sfa, s.staccato])
    {
        slot.copy_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_counters(meta: &[u8]) -> Result<(u64, RepresentationSizes), QueryError> {
    let counters: Vec<u64> = meta
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .collect();
    match counters[..] {
        [lines, text, map, kmap, full_sfa, staccato] if meta.len() == COUNTERS_LEN => Ok((
            lines,
            RepresentationSizes {
                text,
                map,
                kmap,
                full_sfa,
                staccato,
            },
        )),
        _ => Err(QueryError::StoreMismatch(
            "the file holds no saved line count and sizes",
        )),
    }
}

pub(crate) fn build_line(
    channel: &Channel,
    opts: &LoadOptions,
    line: &str,
    line_id: u64,
) -> Result<LineArtifacts<'static>, QueryError> {
    let sfa = channel.line_to_sfa(line, line_id);
    line_artifacts(opts, &sfa, line)
}

/// [`build_line`] for a pre-built SFA (ingest of external OCR output):
/// skips the channel, runs k-best and the Staccato approximation. An SFA
/// with an edge whose every emission has probability 0 is rejected with
/// [`QueryError::Ingest`] before the approximation runs: a region around
/// such an edge can retain no string, so it could not be collapsed. The
/// channel emits no zero-probability label, so [`build_line`] needs no
/// such check.
pub(crate) fn build_line_from_sfa(
    opts: &LoadOptions,
    sfa: &Sfa,
    line: &str,
) -> Result<LineArtifacts<'static>, QueryError> {
    if let Some((id, _)) = sfa
        .edges()
        .find(|(_, e)| e.emissions.iter().all(|em| em.prob == 0.0))
    {
        return Err(QueryError::Ingest(format!(
            "SFA edge {id} has no emission of positive probability"
        )));
    }
    line_artifacts(opts, sfa, line)
}

fn line_artifacts(
    opts: &LoadOptions,
    sfa: &Sfa,
    line: &str,
) -> Result<LineArtifacts<'static>, QueryError> {
    let kmap = k_best_paths(sfa, opts.kmap_k)
        .into_iter()
        .map(|p| (p.string.into(), p.prob))
        .collect::<Vec<_>>();
    let full_blob = codec::encode(sfa);
    let stac_blob = codec::encode(&approximate(sfa, opts.staccato));
    let synopsis = blob_synopsis(&stac_blob)?;
    Ok(LineArtifacts {
        doc_name: Cow::Borrowed(""),
        sfa_num: 0,
        clean: line.to_string().into(),
        kmap,
        full_blob: full_blob.into(),
        stac_blob: stac_blob.into(),
        synopsis,
    })
}

impl OcrStore {
    /// Load a dataset into `db`, building all representations.
    pub fn load(
        db: Database,
        dataset: &Dataset,
        opts: &LoadOptions,
    ) -> Result<OcrStore, QueryError> {
        let channel = Channel::new(opts.channel.clone());

        // Phase 1: per-line construction, parallel across lines.
        let work: Vec<(String, i64, u64, String)> = dataset
            .lines()
            .enumerate()
            .map(|(global, (di, li, text))| {
                (
                    dataset.docs[di].name.clone(),
                    li as i64,
                    global as u64,
                    text.to_string(),
                )
            })
            .collect();
        let par = opts.parallelism.max(1);
        let chunk = work.len().div_ceil(par).max(1);
        let mut artifacts: Vec<Option<Result<LineArtifacts, QueryError>>> =
            Vec::with_capacity(work.len());
        artifacts.resize_with(work.len(), || None);
        std::thread::scope(|scope| {
            for (slice, out) in work.chunks(chunk).zip(artifacts.chunks_mut(chunk)) {
                let channel = &channel;
                let opts_ref = &opts;
                scope.spawn(move || {
                    for ((doc, sfanum, id, text), slot) in slice.iter().zip(out.iter_mut()) {
                        *slot = Some(build_line(channel, opts_ref, text, *id).map(|mut art| {
                            art.doc_name = doc.clone().into();
                            art.sfa_num = *sfanum;
                            art
                        }));
                    }
                });
            }
        });

        // Phase 2: sequential inserts.
        let s = schemas();
        db.create_table("MasterData", s.master.clone())?;
        db.create_table("MAPData", s.map.clone())?;
        db.create_table("kMAPData", s.kmap.clone())?;
        db.create_table("FullSFAData", s.full_sfa.clone())?;
        db.create_table("StaccatoGraph", s.staccato.clone())?;
        db.create_table("GroundTruth", s.truth.clone())?;
        db.create_table("StaccatoHistory", s.history.clone())?;
        db.create_index("FullSFAData_pk")?;
        db.create_index("StaccatoGraph_pk")?;
        // Each inserted line updates the counters; an empty corpus has none.
        db.set_meta(&encode_counters(0, &RepresentationSizes::default()))?;

        let store = OcrStore {
            tables: Tables::open(&db)?,
            db,
            lines: AtomicUsize::new(0),
            sizes: Mutex::new(RepresentationSizes::default()),
            opts: opts.clone(),
            channel,
        };
        for (key, art) in artifacts.into_iter().enumerate() {
            store.insert_line(key as i64, &art.expect("every line built")?)?;
        }
        store.lines.store(work.len(), Ordering::Release);
        Ok(store)
    }

    /// Reopen a store persisted by [`Database::save`]. The line count and
    /// the representation sizes are the ones the save wrote into the
    /// file's metadata slot, so reopening reads a constant number of
    /// pages whatever the store's size: no table is scanned. Part of the
    /// crash-recovery path ([`crate::Staccato::recover`]).
    ///
    /// Two primary-key descents hold the count to the rows: the largest
    /// key of `FullSFAData_pk` and of `StaccatoGraph_pk` must be the
    /// count's last line. A tree that reaches past it holds rows that
    /// reached the file after its last save, and one that stops short
    /// lost rows; either is refused with [`QueryError::StoreMismatch`]
    /// before any batch is replayed over it. A file whose
    /// `StaccatoGraph` rows carry no synopsis, or that holds no counters,
    /// is refused too: reload it from the corpus.
    pub fn reopen(db: Database, opts: &LoadOptions) -> Result<OcrStore, QueryError> {
        if db.table("StaccatoGraph")?.0 != schemas().staccato {
            return Err(StorageError::SchemaMismatch(
                "StaccatoGraph is not (DataKey, GraphBlob, Synopsis); reload the corpus",
            )
            .into());
        }
        let (lines, sizes) = decode_counters(&db.meta())?;
        let tables = Tables::open(&db)?;
        for pk in [&tables.full_sfa_pk, &tables.staccato_pk] {
            let rows = match pk.last_key(db.pool())? {
                None => 0,
                Some(key) => {
                    let key: [u8; 8] = key.try_into().map_err(|_| {
                        QueryError::StoreMismatch("a primary key is not an 8-byte DataKey")
                    })?;
                    i64::from_be_bytes(key) as u64 + 1
                }
            };
            if rows != lines {
                return Err(QueryError::StoreMismatch(
                    "a primary-key tree does not end at the saved line count: \
                     pages written after the last save, or lost since",
                ));
            }
        }
        Ok(OcrStore {
            db,
            tables,
            lines: AtomicUsize::new(lines as usize),
            sizes: Mutex::new(sizes),
            opts: opts.clone(),
            channel: Channel::new(opts.channel.clone()),
        })
    }

    /// Insert one line's artifacts into every representation table and
    /// fold its bytes into the size accounting. Shared by the bulk
    /// loader, live ingest, and WAL replay, so all three produce
    /// byte-identical stores; it decodes no blob. Keys are dense, so the
    /// line count after this line is `key + 1`: that count and the
    /// updated sizes go into the database's metadata slot, and whichever
    /// path saves the file next persists counters that match its rows.
    pub(crate) fn insert_line(&self, key: i64, art: &LineArtifacts) -> Result<(), QueryError> {
        let pool = self.db.pool();
        let enc = staccato_storage::row::encode_row;
        let (s, t) = (schemas(), &self.tables);

        let mut delta = RepresentationSizes::default();
        delta.text += art.clean.len() as u64 + 1;
        t.master.insert(
            pool,
            &enc(
                &s.master,
                &vec![
                    Value::Int(key),
                    Value::Text(art.doc_name.to_string()),
                    Value::Int(art.sfa_num),
                ],
            )?,
        )?;
        if let Some((text, p)) = art.kmap.first() {
            delta.map += text.len() as u64 + 16;
            t.map.insert(
                pool,
                &enc(
                    &s.map,
                    &vec![
                        Value::Int(key),
                        Value::Text(text.to_string()),
                        Value::Float(p.ln()),
                    ],
                )?,
            )?;
        }
        for (rank, (text, p)) in art.kmap.iter().enumerate() {
            delta.kmap += text.len() as u64 + 16;
            t.kmap.insert(
                pool,
                &enc(
                    &s.kmap,
                    &vec![
                        Value::Int(key),
                        Value::Int(rank as i64),
                        Value::Text(text.to_string()),
                        Value::Float(p.ln()),
                    ],
                )?,
            )?;
        }
        delta.full_sfa += art.full_blob.len() as u64;
        let full_blob = BlobStore::put(pool, &art.full_blob)?;
        let rid = t.full_sfa.insert(
            pool,
            &enc(&s.full_sfa, &vec![Value::Int(key), Value::Blob(full_blob)])?,
        )?;
        t.full_sfa_pk
            .insert(pool, &key.to_be_bytes(), rid.to_u64())?;

        delta.staccato += (art.stac_blob.len() + SYNOPSIS_LEN) as u64;
        let stac_blob = BlobStore::put(pool, &art.stac_blob)?;
        let rid = t.staccato.insert(
            pool,
            &enc(
                &s.staccato,
                &vec![
                    Value::Int(key),
                    Value::Blob(stac_blob),
                    Value::Bytes(art.synopsis.to_vec()),
                ],
            )?,
        )?;
        t.staccato_pk
            .insert(pool, &key.to_be_bytes(), rid.to_u64())?;

        t.truth.insert(
            pool,
            &enc(
                &s.truth,
                &vec![Value::Int(key), Value::Text(art.clean.to_string())],
            )?,
        )?;

        let mut sizes = self.sizes.lock().expect("sizes lock");
        sizes.text += delta.text;
        sizes.map += delta.map;
        sizes.kmap += delta.kmap;
        sizes.full_sfa += delta.full_sfa;
        sizes.staccato += delta.staccato;
        self.db.set_meta(&encode_counters(key as u64 + 1, &sizes))?;
        Ok(())
    }

    /// Append one row to `StaccatoHistory`.
    pub(crate) fn insert_history(&self, row: &HistoryRow) -> Result<(), QueryError> {
        self.tables.history.insert(
            self.db.pool(),
            &staccato_storage::row::encode_row(
                &schemas().history,
                &vec![
                    Value::Int(row.data_key),
                    Value::Text(row.file_name.clone()),
                    Value::Text(row.provider.clone()),
                    Value::Float(row.confidence),
                    Value::Int(row.processing_time_ms),
                    Value::Int(row.ingested_at),
                    Value::Int(row.batch_seq as i64),
                ],
            )?,
        )?;
        Ok(())
    }

    /// All `StaccatoHistory` rows in ingest order. Loaded corpus lines
    /// have no history — the table records live ingests only.
    pub fn history_rows(&self) -> Result<Vec<HistoryRow>, QueryError> {
        let (schema, heap) = self.db.table("StaccatoHistory")?;
        let mut out = Vec::new();
        for item in heap.scan(self.db.pool()) {
            let (_, bytes) = item?;
            let row = staccato_storage::row::decode_row(&schema, &bytes)?;
            out.push(HistoryRow {
                data_key: row[0].as_int().expect("schema"),
                file_name: row[1].as_text().expect("schema").to_string(),
                provider: row[2].as_text().expect("schema").to_string(),
                confidence: row[3].as_float().expect("schema"),
                processing_time_ms: row[4].as_int().expect("schema"),
                ingested_at: row[5].as_int().expect("schema"),
                batch_seq: row[6].as_int().expect("schema") as u64,
            });
        }
        Ok(out)
    }

    /// Bump the live line counter after a batch is fully applied.
    pub(crate) fn bump_lines(&self, n: usize) {
        self.lines.fetch_add(n, Ordering::AcqRel);
    }

    /// The options the corpus was built (and documents are ingested) with.
    pub(crate) fn load_options(&self) -> &LoadOptions {
        &self.opts
    }

    /// The OCR channel used to build ingested documents' SFAs.
    pub(crate) fn channel(&self) -> &Channel {
        &self.channel
    }

    /// The underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Number of lines (SFAs) in the store — loaded plus ingested,
    /// current as of the last fully applied batch.
    pub fn line_count(&self) -> usize {
        self.lines.load(Ordering::Acquire)
    }

    /// Representation sizes, kept current by the ingest path.
    pub fn sizes(&self) -> RepresentationSizes {
        *self.sizes.lock().expect("sizes lock")
    }

    /// Streaming cursor over the MAP strings: `(DataKey, string, prob)`.
    ///
    /// One row is decoded per `next()` call; nothing is materialized. The
    /// owned-row view of [`OcrStore::map_raw_cursor`], for consumers that
    /// want `String`s; the executors read the raw cursor directly.
    pub fn map_cursor(&self) -> Result<MapCursor<'_>, QueryError> {
        Ok(MapCursor {
            raw: self.map_raw_cursor()?,
        })
    }

    /// Streaming cursor over k-MAP strings grouped by line:
    /// `(DataKey, [(string, prob)])` — the owned-row view of
    /// [`OcrStore::kmap_raw_cursor`], which does the grouping.
    pub fn kmap_cursor(&self) -> Result<KmapCursor<'_>, QueryError> {
        Ok(KmapCursor {
            raw: self.kmap_raw_cursor()?,
        })
    }

    /// Streaming cursor over *raw* `MAPData` row bytes: `(DataKey, row)`.
    /// The consumer decodes the payload columns borrowed from the row
    /// bytes (see `decode_map_row`), so the filescan evaluates without a
    /// per-row `String` allocation.
    pub fn map_raw_cursor(&self) -> Result<MapRawCursor<'_>, QueryError> {
        let (_, heap) = self.db.table("MAPData")?;
        Ok(MapRawCursor {
            scan: heap.scan(self.db.pool()),
        })
    }

    /// Streaming cursor over raw `kMAPData` rows grouped by line:
    /// `(DataKey, [row bytes])`. Rows are stored clustered by DataKey, so
    /// grouping is a single buffered pass — the one grouping state
    /// machine, which [`OcrStore::kmap_cursor`] decodes on top of.
    pub fn kmap_raw_cursor(&self) -> Result<KmapRawCursor<'_>, QueryError> {
        let (_, heap) = self.db.table("kMAPData")?;
        Ok(KmapRawCursor {
            scan: heap.scan(self.db.pool()),
            pending: None,
            done: false,
        })
    }

    /// Visit every row of a blob table in heap order, with one reusable
    /// blob buffer and no per-row allocation: `visit` sees the row's key
    /// and synopsis and fetches the blob only if it asks to
    /// ([`BlobRow::with_blob`]). The filescan's path; [`BlobCursor`] is
    /// the owned sibling.
    fn for_each_blob_row(
        &self,
        table: &'static str,
        mut visit: impl FnMut(BlobRow<'_>) -> Result<(), QueryError>,
    ) -> Result<(), QueryError> {
        let (schema, heap) = self.db.table(table)?;
        let pool = self.db.pool();
        let mut buf: Vec<u8> = Vec::new();
        heap.for_each_row(pool, |_, bytes| -> Result<(), QueryError> {
            let mut r = RowReader::new(&schema, bytes);
            let key = r.int()?;
            let blob = r.blob()?;
            // `StaccatoGraph` rows end with their synopsis; `FullSFAData`
            // rows have none.
            let synopsis = match schema.cols.len() {
                2 => None,
                _ => Some(r.bytes()?.try_into().map_err(|_| {
                    StorageError::SchemaMismatch("a StaccatoGraph synopsis has the wrong length")
                })?),
            };
            r.finish()?;
            visit(BlobRow {
                key,
                synopsis,
                blob,
                pool,
                buf: &mut buf,
            })
        })
    }

    /// Visit every full-SFA blob with borrowed bytes (see
    /// [`OcrStore::staccato_blobs`] for the owned cursor).
    pub fn for_each_full_sfa_blob(
        &self,
        mut f: impl FnMut(i64, &[u8]) -> Result<(), QueryError>,
    ) -> Result<(), QueryError> {
        self.for_each_blob_row("FullSFAData", |row| {
            let key = row.key;
            row.with_blob(|bytes| f(key, bytes))?
        })
    }

    /// Visit every Staccato graph blob with borrowed bytes: the
    /// filescan's row loop with every row fetched.
    pub fn for_each_staccato_blob(
        &self,
        mut f: impl FnMut(i64, &[u8]) -> Result<(), QueryError>,
    ) -> Result<(), QueryError> {
        self.for_each_staccato_row(|row| {
            let key = row.key;
            row.with_blob(|bytes| f(key, bytes))?
        })
    }

    /// Visit every `StaccatoGraph` row: `visit` reads its key and label
    /// synopsis from the heap row and fetches the graph blob only for the
    /// rows it cannot decide without it.
    pub(crate) fn for_each_staccato_row(
        &self,
        visit: impl FnMut(BlobRow<'_>) -> Result<(), QueryError>,
    ) -> Result<(), QueryError> {
        self.for_each_blob_row("StaccatoGraph", visit)
    }

    fn blob_cursor(&self, table: &'static str) -> Result<BlobCursor<'_>, QueryError> {
        let (schema, heap) = self.db.table(table)?;
        Ok(BlobCursor {
            schema,
            scan: heap.scan(self.db.pool()),
            pool: self.db.pool(),
        })
    }

    /// Streaming cursor over *encoded* full-SFA blobs: `(DataKey, bytes)`,
    /// one owned `Vec<u8>` per row; decoding is left to the consumer. The
    /// filescan reads borrowed bytes instead
    /// ([`OcrStore::for_each_full_sfa_blob`]).
    pub fn full_sfa_blobs(&self) -> Result<BlobCursor<'_>, QueryError> {
        self.blob_cursor("FullSFAData")
    }

    /// Streaming cursor over encoded Staccato graph blobs.
    pub fn staccato_blobs(&self) -> Result<BlobCursor<'_>, QueryError> {
        self.blob_cursor("StaccatoGraph")
    }

    /// Streaming cursor over decoded Staccato chunk graphs. The product
    /// reads the stored bytes instead; this owned form is kept because the
    /// repo benchmark's reference evaluator names it.
    pub fn staccato_cursor(&self) -> Result<SfaCursor<'_>, QueryError> {
        Ok(SfaCursor {
            inner: self.staccato_blobs()?,
        })
    }

    /// Point access to Staccato graph blobs through the primary-key
    /// B+-tree — the access path of index-assisted queries. Resolves the
    /// catalog once; one reader serves a whole statement.
    pub(crate) fn staccato_point_reader(&self) -> Result<StaccatoPointReader<'_>, QueryError> {
        let (schema, heap) = self.db.table("StaccatoGraph")?;
        Ok(StaccatoPointReader {
            pool: self.db.pool(),
            pk: self.db.index("StaccatoGraph_pk")?,
            heap,
            schema,
            blob_buf: Vec::new(),
        })
    }

    /// Ground-truth clean lines: `(DataKey, text)`.
    pub fn ground_truth_lines(&self) -> Result<Vec<(i64, String)>, QueryError> {
        let (schema, heap) = self.db.table("GroundTruth")?;
        let mut out = Vec::new();
        for item in heap.scan(self.db.pool()) {
            let (_, bytes) = item?;
            let row = staccato_storage::row::decode_row(&schema, &bytes)?;
            out.push((
                row[0].as_int().expect("schema"),
                row[1].as_text().expect("schema").to_string(),
            ));
        }
        Ok(out)
    }

    /// Direct access to a table + heap (for the experiment harness).
    pub fn table(&self, name: &str) -> Result<(Schema, HeapFile), QueryError> {
        Ok(self.db.table(name)?)
    }

    /// Create (or reopen) a named auxiliary B+-tree, e.g. for indexes.
    pub fn create_index(&self, name: &str) -> Result<BTree, QueryError> {
        Ok(self.db.create_index(name)?)
    }
}

/// One heap row of a blob table during a filescan (see
/// [`OcrStore::for_each_staccato_row`]): its key, its label synopsis
/// (`StaccatoGraph` rows only), and its blob, not yet fetched.
pub(crate) struct BlobRow<'r> {
    pub(crate) key: i64,
    pub(crate) synopsis: Option<&'r [u8; SYNOPSIS_LEN]>,
    blob: PageId,
    pool: &'r BufferPool,
    buf: &'r mut Vec<u8>,
}

impl BlobRow<'_> {
    /// Fetch the row's blob and hand it to `f` borrowed: straight off its
    /// buffer-pool page when it fits one (`f` only reads, so holding the
    /// page's read latch across it is fine), assembled into the scan's
    /// reusable buffer when it spans several.
    pub(crate) fn with_blob<R>(self, f: impl FnOnce(&[u8]) -> R) -> Result<R, QueryError> {
        Ok(BlobStore::with_blob(self.pool, self.blob, self.buf, f)?)
    }
}

/// Borrowed point fetch of `StaccatoGraph` blobs (see
/// [`OcrStore::staccato_point_reader`]).
pub(crate) struct StaccatoPointReader<'s> {
    pool: &'s BufferPool,
    pk: BTree,
    heap: HeapFile,
    schema: Schema,
    /// Assembly buffer for multi-page blobs, reused fetch to fetch.
    blob_buf: Vec<u8>,
}

impl StaccatoPointReader<'_> {
    /// Hand line `key`'s encoded graph to `f` as borrowed bytes: pk
    /// B+-tree → heap row → blob, read straight off its buffer-pool page
    /// when it fits one (`f` only reads, so holding the page's read latch
    /// across it is fine) and assembled into the reusable buffer when it
    /// spans several.
    pub(crate) fn with_blob<R>(
        &mut self,
        key: i64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, QueryError> {
        let rid = self
            .pk
            .get(self.pool, &key.to_be_bytes())?
            .ok_or(QueryError::MissingRepresentation("StaccatoGraph row"))?;
        let row = self.heap.get(self.pool, Rid::from_u64(rid))?;
        let mut r = RowReader::new(&self.schema, &row);
        r.int()?;
        let blob = r.blob()?;
        r.bytes()?;
        r.finish()?;
        Ok(BlobStore::with_blob(
            self.pool,
            blob,
            &mut self.blob_buf,
            f,
        )?)
    }
}

/// Streaming cursor over `MAPData`: yields `(DataKey, string, prob)` by
/// decoding each [`MapRawCursor`] row into an owned `String`.
pub struct MapCursor<'s> {
    raw: MapRawCursor<'s>,
}

impl Iterator for MapCursor<'_> {
    type Item = Result<(i64, String, f64), QueryError>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.raw.next()?.and_then(|(key, row)| {
            let (s, p) = decode_map_row(&row)?;
            Ok((key, s.to_string(), p))
        }))
    }
}

/// One k-MAP line group: `(DataKey, [(string, prob)])`.
pub type KmapGroup = (i64, Vec<(String, f64)>);

/// Streaming cursor over `kMAPData`: yields `(DataKey, [(string, prob)])`
/// by decoding each line group [`KmapRawCursor`] assembles. Buffers one
/// line's strings at a time — never the corpus.
pub struct KmapCursor<'s> {
    raw: KmapRawCursor<'s>,
}

impl Iterator for KmapCursor<'_> {
    type Item = Result<KmapGroup, QueryError>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.raw.next()?.and_then(|(key, rows)| {
            let strings = rows
                .iter()
                .map(|row| decode_kmap_row(row).map(|(s, p)| (s.to_string(), p)))
                .collect::<Result<_, _>>()?;
            Ok((key, strings))
        }))
    }
}

/// Leading `DataKey` of an encoded row (all Table 5 schemas start with
/// an `Int` key, stored as the first 8 little-endian bytes).
fn row_key(bytes: &[u8]) -> Result<i64, QueryError> {
    let head = bytes
        .get(..8)
        .ok_or(StorageError::SchemaMismatch("row too short"))?;
    Ok(i64::from_le_bytes(head.try_into().expect("len checked")))
}

/// Decode a raw `MAPData` row borrowed: `(string, prob)`, with the full
/// [`RowReader`] validation including the trailing-bytes check. The one
/// place a stored log-prob becomes a probability (`exp()`), so every
/// consumer of the row sees bit-identical values.
pub(crate) fn decode_map_row(bytes: &[u8]) -> Result<(&str, f64), QueryError> {
    let mut r = RowReader::new(&schemas().map, bytes);
    r.int()?;
    let s = r.text()?;
    let lp = r.float()?;
    r.finish()?;
    Ok((s, lp.exp()))
}

/// Decode a raw `kMAPData` row borrowed: `(string, prob)`.
pub(crate) fn decode_kmap_row(bytes: &[u8]) -> Result<(&str, f64), QueryError> {
    let mut r = RowReader::new(&schemas().kmap, bytes);
    r.int()?;
    r.int()?;
    let s = r.text()?;
    let lp = r.float()?;
    r.finish()?;
    Ok((s, lp.exp()))
}

/// Streaming cursor over raw `MAPData` row bytes: `(DataKey, row bytes)`.
pub struct MapRawCursor<'s> {
    scan: HeapScan<'s>,
}

impl Iterator for MapRawCursor<'_> {
    type Item = Result<(i64, Vec<u8>), QueryError>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.scan.next()?;
        Some(
            item.map_err(QueryError::from)
                .and_then(|(_, bytes)| Ok((row_key(&bytes)?, bytes))),
        )
    }
}

/// One k-MAP line group of raw rows: `(DataKey, [row bytes])`.
pub type KmapRawGroup = (i64, Vec<Vec<u8>>);

/// Streaming cursor over raw `kMAPData` rows, grouping clustered rows by
/// DataKey without decoding their payloads. Buffers one line's rows at a
/// time — never the corpus.
pub struct KmapRawCursor<'s> {
    scan: HeapScan<'s>,
    pending: Option<KmapRawGroup>,
    done: bool,
}

impl Iterator for KmapRawCursor<'_> {
    type Item = Result<KmapRawGroup, QueryError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            match self.scan.next() {
                None => {
                    self.done = true;
                    return self.pending.take().map(Ok);
                }
                Some(Err(e)) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
                Some(Ok((_, bytes))) => {
                    let key = match row_key(&bytes) {
                        Ok(key) => key,
                        Err(e) => {
                            self.done = true;
                            return Some(Err(e));
                        }
                    };
                    match &mut self.pending {
                        Some((k, v)) if *k == key => v.push(bytes),
                        Some(_) => {
                            let group = self.pending.replace((key, vec![bytes]));
                            return group.map(Ok);
                        }
                        None => self.pending = Some((key, vec![bytes])),
                    }
                }
            }
        }
    }
}

/// Streaming cursor over a blob table: yields `(DataKey, encoded bytes)`.
pub struct BlobCursor<'s> {
    schema: Schema,
    scan: HeapScan<'s>,
    pool: &'s BufferPool,
}

impl Iterator for BlobCursor<'_> {
    type Item = Result<(i64, Vec<u8>), QueryError>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.scan.next()?;
        Some(item.map_err(QueryError::from).and_then(|(_, bytes)| {
            let row = staccato_storage::row::decode_row(&self.schema, &bytes)?;
            let key = row[0].as_int().expect("schema");
            let blob = row[1].as_blob().expect("schema");
            Ok((key, BlobStore::get(self.pool, blob)?))
        }))
    }
}

/// Streaming cursor decoding each blob into an [`Sfa`]: `(DataKey, Sfa)`.
pub struct SfaCursor<'s> {
    inner: BlobCursor<'s>,
}

impl Iterator for SfaCursor<'_> {
    type Item = Result<(i64, Sfa), QueryError>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next()?;
        Some(item.and_then(|(key, data)| Ok((key, codec::decode(&data)?))))
    }
}

/// The Table 5 schemas, built once: the write path encodes every row
/// against these, and the raw-row decoders read through them.
struct Schemas {
    master: Schema,
    map: Schema,
    kmap: Schema,
    full_sfa: Schema,
    staccato: Schema,
    truth: Schema,
    history: Schema,
}

fn schemas() -> &'static Schemas {
    static S: std::sync::OnceLock<Schemas> = std::sync::OnceLock::new();
    S.get_or_init(|| Schemas {
        master: Schema::new(&[
            ("DataKey", ColumnType::Int),
            ("DocName", ColumnType::Text),
            ("SFANum", ColumnType::Int),
        ]),
        map: Schema::new(&[
            ("DataKey", ColumnType::Int),
            ("Data", ColumnType::Text),
            ("LogProb", ColumnType::Float),
        ]),
        kmap: Schema::new(&[
            ("DataKey", ColumnType::Int),
            ("LineNum", ColumnType::Int),
            ("Data", ColumnType::Text),
            ("LogProb", ColumnType::Float),
        ]),
        full_sfa: Schema::new(&[("DataKey", ColumnType::Int), ("SFABlob", ColumnType::Blob)]),
        staccato: Schema::new(&[
            ("DataKey", ColumnType::Int),
            ("GraphBlob", ColumnType::Blob),
            ("Synopsis", ColumnType::Bytes),
        ]),
        truth: Schema::new(&[("DataKey", ColumnType::Int), ("Data", ColumnType::Text)]),
        history: Schema::new(&[
            ("DataKey", ColumnType::Int),
            ("FileName", ColumnType::Text),
            ("Provider", ColumnType::Text),
            ("Confidence", ColumnType::Float),
            ("ProcessingTimeMs", ColumnType::Int),
            ("IngestedAt", ColumnType::Int),
            ("BatchSeq", ColumnType::Int),
        ]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use staccato_ocr::{generate, CorpusKind};

    fn tiny_store() -> OcrStore {
        let dataset = generate(CorpusKind::DbPapers, 12, 5);
        let db = Database::in_memory(256).unwrap();
        let opts = LoadOptions {
            channel: ChannelConfig::compact(5),
            kmap_k: 5,
            staccato: StaccatoParams::new(8, 5),
            parallelism: 2,
        };
        OcrStore::load(db, &dataset, &opts).unwrap()
    }

    #[test]
    fn load_populates_all_tables() {
        let store = tiny_store();
        assert_eq!(store.line_count(), 12);
        assert_eq!(store.map_cursor().unwrap().count(), 12);
        let kmap: Vec<_> = store
            .kmap_cursor()
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(kmap.len(), 12);
        assert!(kmap.iter().all(|(_, v)| !v.is_empty() && v.len() <= 5));
        assert_eq!(store.full_sfa_blobs().unwrap().count(), 12);
        assert_eq!(store.staccato_cursor().unwrap().count(), 12);
        assert_eq!(store.ground_truth_lines().unwrap().len(), 12);
    }

    #[test]
    fn raw_cursors_agree_with_owned_cursors() {
        let store = tiny_store();
        let owned: Vec<_> = store
            .map_cursor()
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        let raw: Vec<_> = store
            .map_raw_cursor()
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(owned.len(), raw.len());
        for ((k1, s1, p1), (k2, bytes)) in owned.iter().zip(&raw) {
            assert_eq!(k1, k2);
            let (s2, p2) = decode_map_row(bytes).unwrap();
            assert_eq!(s1, s2);
            assert_eq!(p1.to_bits(), p2.to_bits());
        }

        let owned: Vec<_> = store
            .kmap_cursor()
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        let raw: Vec<_> = store
            .kmap_raw_cursor()
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(owned.len(), raw.len());
        for ((k1, strings), (k2, rows)) in owned.iter().zip(&raw) {
            assert_eq!(k1, k2);
            assert_eq!(strings.len(), rows.len());
            for ((s1, p1), bytes) in strings.iter().zip(rows) {
                let (s2, p2) = decode_kmap_row(bytes).unwrap();
                assert_eq!(s1, s2);
                assert_eq!(p1.to_bits(), p2.to_bits());
            }
        }
    }

    #[test]
    fn kmap_strings_sorted_by_probability() {
        let store = tiny_store();
        for item in store.kmap_cursor().unwrap() {
            let (_, strings) = item.unwrap();
            for w in strings.windows(2) {
                assert!(w[0].1 >= w[1].1 - 1e-12);
            }
        }
    }

    #[test]
    fn staccato_graph_has_at_most_m_chunks() {
        let store = tiny_store();
        for item in store.staccato_cursor().unwrap() {
            let (_, g) = item.unwrap();
            assert!(g.edge_count() <= 8);
            for (_, e) in g.edges() {
                assert!(e.emissions.len() <= 5);
            }
        }
    }

    #[test]
    fn point_lookup_matches_scan() {
        let store = tiny_store();
        let all: Vec<_> = store
            .staccato_cursor()
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        let (key, via_scan) = &all[7];
        let via_pk = store
            .staccato_point_reader()
            .unwrap()
            .with_blob(*key, codec::decode)
            .unwrap()
            .unwrap();
        assert_eq!(codec::encode(via_scan), codec::encode(&via_pk));
    }

    #[test]
    fn sizes_are_ordered_as_in_the_paper() {
        // Table 2: SFAs are orders of magnitude bigger than text; Staccato
        // sits in between; MAP ≈ text.
        let store = tiny_store();
        let s = store.sizes();
        assert!(s.full_sfa > s.staccato, "{s:?}");
        assert!(s.staccato > s.map, "{s:?}");
        assert!(s.kmap > s.map, "{s:?}");
        assert!(s.text > 0);
    }

    #[test]
    fn staccato_size_counts_each_blob_and_its_synopsis_on_load_insert_and_reopen() {
        let expected = |store: &OcrStore| -> u64 {
            let blobs = store.staccato_blobs().unwrap().map(|item| item.unwrap().1);
            blobs.map(|b| (b.len() + SYNOPSIS_LEN) as u64).sum()
        };
        let store = tiny_store();
        assert_eq!(store.sizes().staccato, expected(&store));
        let art = build_line(&store.channel, &store.opts, "an added line", 99).unwrap();
        store.insert_line(12, &art).unwrap();
        assert_eq!(store.sizes().staccato, expected(&store));
        let loaded = store.sizes();
        let OcrStore { db, opts, .. } = store;
        let reopened = OcrStore::reopen(db, &opts).unwrap();
        assert_eq!(reopened.sizes(), loaded);
    }

    #[test]
    fn ground_truth_matches_generated_text() {
        let dataset = generate(CorpusKind::DbPapers, 6, 9);
        let db = Database::in_memory(128).unwrap();
        let opts = LoadOptions {
            channel: ChannelConfig::compact(9),
            kmap_k: 2,
            staccato: StaccatoParams::new(4, 2),
            parallelism: 1,
        };
        let store = OcrStore::load(db, &dataset, &opts).unwrap();
        let truth = store.ground_truth_lines().unwrap();
        let lines: Vec<&str> = dataset.lines().map(|(_, _, l)| l).collect();
        for (i, (key, text)) in truth.iter().enumerate() {
            assert_eq!(*key, i as i64);
            assert_eq!(text, lines[i]);
        }
    }
}
