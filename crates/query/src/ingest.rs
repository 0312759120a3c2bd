//! Ingest-path types and the WAL payload codec.
//!
//! A [`crate::Staccato::ingest`] call turns a batch of
//! [`DocumentInput`]s into one WAL record. The record does **not**
//! carry the raw text: the write path first runs the full construction
//! pipeline (channel → k-best → Staccato approximation) and logs the
//! finished [per-line artifacts](crate::store) plus the history
//! metadata. Replay therefore re-inserts exactly the bytes the
//! original ingest inserted — recovery is byte-identical by
//! construction and needs no OCR channel.
//!
//! Payload layout (all integers little-endian):
//!
//! ```text
//! [magic "SWB3"] [batch_seq u64] [first_key i64] [ndocs u32] docs...
//! doc  := meta artifacts
//! meta := str(provider) f64(confidence) i64(processing_time_ms)
//!         i64(ingested_at)
//! artifacts := str(doc_name) i64(sfa_num) str(clean)
//!              u32(nk) [str f64]*nk          -- k-MAP strings
//!              bytes(full_blob) bytes(stac_blob)  -- SFA2 blobs
//! str/bytes := u32 length + payload
//! ```
//!
//! The two previous formats are refused, before any batch is replayed,
//! with a [`QueryError::CorruptWal`] that says so: `SWB2`, the same layout
//! carrying `SFA1` blobs, and `SWB1`, which also logged one row per
//! Staccato chunk string after the blobs. No reader for either is kept,
//! and the log is left as it is. A store whose blobs are `SFA1` is
//! refused too (at the first read of a blob, [`staccato_sfa::SfaError::BadMagic`]),
//! so such a store is rebuilt from its source rather than recovered.

use crate::error::QueryError;
use crate::store::LineArtifacts;

/// One document handed to [`crate::Staccato::ingest`].
#[derive(Debug, Clone)]
pub struct DocumentInput {
    /// Document name, stored in `MasterData.DocName` and
    /// `StaccatoHistory.FileName`.
    pub name: String,
    /// The (noisy) line text the OCR channel reads.
    pub text: String,
    /// Pre-built SFA blob from an external OCR engine, in the codec's
    /// `SFA2` format ([`staccato_sfa::codec::encode`]).
    /// When absent the store's own channel builds the SFA from `text`.
    pub sfa: Option<Vec<u8>>,
    /// OCR engine that produced the document.
    pub provider: String,
    /// Engine-reported confidence in `[0, 1]`.
    pub confidence: f64,
    /// Engine-reported processing time.
    pub processing_time_ms: i64,
}

impl DocumentInput {
    /// A document with default provenance metadata.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> DocumentInput {
        DocumentInput {
            name: name.into(),
            text: text.into(),
            sfa: None,
            provider: "unknown".to_string(),
            confidence: 1.0,
            processing_time_ms: 0,
        }
    }

    /// Set the OCR engine name (builder-style).
    pub fn provider(mut self, provider: impl Into<String>) -> DocumentInput {
        self.provider = provider.into();
        self
    }
}

/// A batch of documents committed atomically: one WAL record, one
/// history `BatchSeq`, all-or-nothing visibility to readers.
#[derive(Debug, Clone, Default)]
pub struct IngestBatch {
    /// The documents, assigned consecutive `DataKey`s in order.
    pub docs: Vec<DocumentInput>,
}

impl IngestBatch {
    /// An empty batch.
    pub fn new() -> IngestBatch {
        IngestBatch::default()
    }

    /// Append one document (builder-style).
    pub fn doc(mut self, doc: DocumentInput) -> IngestBatch {
        self.docs.push(doc);
        self
    }
}

/// What [`crate::Staccato::ingest`] returns for a committed batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Monotonic batch sequence number (also `StaccatoHistory.BatchSeq`).
    pub batch_seq: u64,
    /// `DataKey` of the batch's first document.
    pub first_key: i64,
    /// Documents in the batch.
    pub docs: usize,
    /// Framed bytes appended to the WAL for this batch (0 when no WAL
    /// is attached).
    pub wal_bytes: u64,
    /// WAL LSN (end offset) of the batch's record. The write path only
    /// acknowledges a receipt once everything at or below this LSN is
    /// on stable storage, so receipts are monotonically LSN-ordered by
    /// `batch_seq`. 0 when no WAL is attached.
    pub lsn: u64,
}

/// One `StaccatoHistory` row.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRow {
    /// `DataKey` of the ingested line.
    pub data_key: i64,
    /// Document name as submitted.
    pub file_name: String,
    /// OCR engine that produced it.
    pub provider: String,
    /// Engine-reported confidence.
    pub confidence: f64,
    /// Engine-reported processing time.
    pub processing_time_ms: i64,
    /// Unix seconds when the batch was ingested.
    pub ingested_at: i64,
    /// The committing batch.
    pub batch_seq: u64,
}

/// Session-cumulative ingest/WAL counters (mirrored into `GET /stats`;
/// per-statement deltas ride on [`crate::ExecStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestStats {
    /// Batches applied (ingested live or replayed).
    pub batches: u64,
    /// Documents applied.
    pub docs: u64,
    /// WAL records appended by this session.
    pub wal_records_appended: u64,
    /// WAL bytes logged by this session.
    pub wal_bytes_logged: u64,
    /// fsyncs issued by the WAL (appends, commits, and group flushes).
    pub wal_fsyncs: u64,
    /// Batches replayed from the WAL at recovery.
    pub replays: u64,
    /// Group-commit fsyncs — each one issued by a flush leader on
    /// behalf of every batch enqueued since the last flush.
    pub wal_group_commits: u64,
    /// Durability waits served per group fsync (amortization factor;
    /// > 1 means concurrent batches shared fsyncs).
    pub wal_batches_per_fsync: f64,
    /// p95 time an ingest spent blocked waiting for its durable LSN.
    pub wal_flush_wait_p95: std::time::Duration,
    /// Sealed WAL segments deleted by checkpoint GC.
    pub wal_segments_deleted: u64,
    /// Checkpoints taken (manual and background).
    pub checkpoints: u64,
    /// Checkpoints completed by the background checkpointer thread.
    pub background_checkpoints: u64,
}

/// A fully built batch: what the WAL logs and replay decodes.
pub(crate) struct DecodedBatch {
    pub(crate) batch_seq: u64,
    pub(crate) first_key: i64,
    pub(crate) docs: Vec<DecodedDoc>,
}

/// One document's artifacts plus history metadata.
pub(crate) struct DecodedDoc {
    pub(crate) art: LineArtifacts,
    pub(crate) provider: String,
    pub(crate) confidence: f64,
    pub(crate) processing_time_ms: i64,
    pub(crate) ingested_at: i64,
}

const MAGIC: &[u8; 4] = b"SWB3";

pub(crate) fn encode_batch(batch: &DecodedBatch) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&batch.batch_seq.to_le_bytes());
    out.extend_from_slice(&batch.first_key.to_le_bytes());
    out.extend_from_slice(&(batch.docs.len() as u32).to_le_bytes());
    for doc in &batch.docs {
        put_str(&mut out, &doc.provider);
        out.extend_from_slice(&doc.confidence.to_le_bytes());
        out.extend_from_slice(&doc.processing_time_ms.to_le_bytes());
        out.extend_from_slice(&doc.ingested_at.to_le_bytes());
        let art = &doc.art;
        put_str(&mut out, &art.doc_name);
        out.extend_from_slice(&art.sfa_num.to_le_bytes());
        put_str(&mut out, &art.clean);
        out.extend_from_slice(&(art.kmap.len() as u32).to_le_bytes());
        for (s, p) in &art.kmap {
            put_str(&mut out, s);
            out.extend_from_slice(&p.to_le_bytes());
        }
        put_bytes(&mut out, &art.full_blob);
        put_bytes(&mut out, &art.stac_blob);
    }
    out
}

pub(crate) fn decode_batch(bytes: &[u8]) -> Result<DecodedBatch, QueryError> {
    let mut r = Reader { bytes, pos: 0 };
    let magic = r.take(4)?;
    if magic == b"SWB1" || magic == b"SWB2" {
        return Err(QueryError::CorruptWal(
            "batch written in a previous WAL format (SWB1 or SWB2, whose blobs are SFA1): \
             reload the store from its source; this binary reads SFA2 stores only",
        ));
    }
    if magic != MAGIC {
        return Err(QueryError::CorruptWal("bad batch magic"));
    }
    let batch_seq = r.u64()?;
    let first_key = r.i64()?;
    let ndocs = r.u32()? as usize;
    if ndocs > bytes.len() {
        // Cheap sanity bound: each doc costs well over one byte.
        return Err(QueryError::CorruptWal("implausible document count"));
    }
    let mut docs = Vec::with_capacity(ndocs);
    for _ in 0..ndocs {
        let provider = r.string()?;
        let confidence = r.f64()?;
        let processing_time_ms = r.i64()?;
        let ingested_at = r.i64()?;
        let doc_name = r.string()?;
        let sfa_num = r.i64()?;
        let clean = r.string()?;
        let nk = r.u32()? as usize;
        let mut kmap = Vec::with_capacity(nk.min(bytes.len()));
        for _ in 0..nk {
            let s = r.string()?;
            let p = r.f64()?;
            kmap.push((s, p));
        }
        let full_blob = r.bytes()?.to_vec();
        let stac_blob = r.bytes()?.to_vec();
        docs.push(DecodedDoc {
            art: LineArtifacts {
                doc_name,
                sfa_num,
                clean,
                kmap,
                full_blob,
                stac_blob,
            },
            provider,
            confidence,
            processing_time_ms,
            ingested_at,
        });
    }
    if r.pos != bytes.len() {
        return Err(QueryError::CorruptWal("trailing bytes after batch"));
    }
    Ok(DecodedBatch {
        batch_seq,
        first_key,
        docs,
    })
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], QueryError> {
        let out = self
            .bytes
            .get(self.pos..self.pos + n)
            .ok_or(QueryError::CorruptWal("truncated batch payload"))?;
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, QueryError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, QueryError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> Result<i64, QueryError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, QueryError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn bytes(&mut self) -> Result<&'a [u8], QueryError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn string(&mut self) -> Result<String, QueryError> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_string)
            .map_err(|_| QueryError::CorruptWal("non-UTF-8 string in batch"))
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// SQL `LIKE` over history file names: `%` matches any run, `_` any one
/// character. Hand-rolled because [`crate::QueryRequest::like`] compiles
/// patterns against the OCR alphabet, which is narrower than file names.
pub(crate) fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    // dp[j] = does p[..i] match t[..j]; rolled over i.
    let mut dp = vec![false; t.len() + 1];
    dp[0] = true;
    for &pc in &p {
        if pc == '%' {
            // '%' extends any earlier match to every longer prefix.
            let mut any = false;
            for slot in dp.iter_mut() {
                any |= *slot;
                *slot = any;
            }
        } else {
            let mut prev_diag = dp[0];
            dp[0] = false;
            for j in 1..=t.len() {
                let cur = dp[j];
                dp[j] = prev_diag && (pc == '_' || t[j - 1] == pc);
                prev_diag = cur;
            }
        }
    }
    dp[t.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> DecodedBatch {
        DecodedBatch {
            batch_seq: 42,
            first_key: 100,
            docs: vec![DecodedDoc {
                art: LineArtifacts {
                    doc_name: "scan_001.png".into(),
                    sfa_num: 7,
                    clean: "selinger access path".into(),
                    kmap: vec![("selinger".into(), 0.5), ("sel1nger".into(), 0.25)],
                    full_blob: vec![1, 2, 3, 4],
                    stac_blob: vec![9, 8],
                },
                provider: "tesseract".into(),
                confidence: 0.93,
                processing_time_ms: 412,
                ingested_at: 1_700_000_000,
            }],
        }
    }

    #[test]
    fn batch_codec_round_trips() {
        let batch = sample_batch();
        let bytes = encode_batch(&batch);
        let back = decode_batch(&bytes).unwrap();
        assert_eq!(back.batch_seq, 42);
        assert_eq!(back.first_key, 100);
        assert_eq!(back.docs.len(), 1);
        let doc = &back.docs[0];
        assert_eq!(doc.provider, "tesseract");
        assert_eq!(doc.confidence, 0.93);
        assert_eq!(doc.processing_time_ms, 412);
        assert_eq!(doc.ingested_at, 1_700_000_000);
        assert_eq!(doc.art.doc_name, "scan_001.png");
        assert_eq!(doc.art.kmap, batch.docs[0].art.kmap);
        assert_eq!(doc.art.full_blob, vec![1, 2, 3, 4]);
        assert_eq!(doc.art.stac_blob, vec![9, 8]);
    }

    #[test]
    fn truncated_or_garbled_payloads_are_rejected() {
        let bytes = encode_batch(&sample_batch());
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(
                decode_batch(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(decode_batch(&wrong_magic).is_err());
        for magic in [b"SWB1", b"SWB2"] {
            let mut previous_format = bytes.clone();
            previous_format[..4].copy_from_slice(magic);
            assert!(matches!(
                decode_batch(&previous_format),
                Err(QueryError::CorruptWal(why)) if why.contains("previous WAL format")
            ));
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_batch(&trailing).is_err());
    }

    #[test]
    fn like_matcher_semantics() {
        assert!(like_match("%", ""));
        assert!(like_match("%", "anything"));
        assert!(like_match("scan_%.png", "scan_001.png"));
        assert!(like_match("scan___", "scan001"));
        assert!(!like_match("scan___", "scan01"));
        assert!(like_match("%.png", "a.png"));
        assert!(!like_match("%.png", "a.pngx"));
        assert!(like_match("a%b%c", "aXXbYYc"));
        assert!(!like_match("a%b%c", "aXXcYYb"));
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
    }
}
