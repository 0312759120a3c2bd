//! Reopening a saved store reads its counters, not its tables.
//!
//! `Database::save` writes the store's line count and representation
//! sizes into the anchor page's metadata slot, and `OcrStore::reopen`
//! reads them back, holding them to the two primary-key trees with one
//! rightmost descent each. These tests pin that every save path persists
//! counters equal to the live store's, that reopening costs the same
//! number of page reads at any store size, and that a file whose trees
//! disagree with its count, or that predates the slot, is refused with a
//! typed error.

use staccato::approx::StaccatoParams;
use staccato::ocr::{generate, ChannelConfig, CorpusKind};
use staccato::query::store::{LoadOptions, RepresentationSizes};
use staccato::query::{CheckpointPolicy, OcrStore, QueryError};
use staccato::storage::{Database, StorageError};
use staccato::{DocumentInput, IngestBatch, Staccato, SyncPolicy};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("staccato_reopen_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn load_options() -> LoadOptions {
    LoadOptions {
        channel: ChannelConfig::compact(3),
        kmap_k: 4,
        staccato: StaccatoParams::new(8, 6),
        parallelism: 1,
    }
}

fn load(path: &Path, lines: usize) -> Staccato {
    let db = Database::create(path, 2048).expect("create");
    let dataset = generate(CorpusKind::CongressActs, lines, 3);
    Staccato::load(db, &dataset, &load_options()).expect("load")
}

fn batch(n: u64) -> IngestBatch {
    IngestBatch::new()
        .doc(DocumentInput::new(
            format!("scan-{n}-a.png"),
            format!("the Senate considered Public Law {n} this session"),
        ))
        .doc(DocumentInput::new(
            format!("scan-{n}-b.png"),
            format!("amendment {n} to the employment act of the Congress"),
        ))
}

/// What a reopen of the saved file reports.
fn reopened(path: &Path) -> Result<(usize, RepresentationSizes), QueryError> {
    let db = Database::open(path, 256)?;
    let store = OcrStore::reopen(db, &load_options())?;
    Ok((store.line_count(), store.sizes()))
}

fn live(session: &Staccato) -> (usize, RepresentationSizes) {
    (session.line_count(), session.sizes())
}

#[test]
fn every_save_path_persists_the_live_counters() {
    let dir = TempDir::new("paths");
    let path = dir.path().join("store.db");

    // Load, then a manual checkpoint.
    let session = load(&path, 12);
    session.checkpoint().expect("checkpoint");
    assert_eq!(reopened(&path).expect("after load"), live(&session));

    // Ingest, then a manual checkpoint.
    session.ingest(batch(1)).expect("ingest");
    session.checkpoint().expect("checkpoint");
    assert_eq!(reopened(&path).expect("after ingest"), live(&session));

    // Ingest, then a direct `Database::save`.
    session.ingest(batch(2)).expect("ingest");
    session.store().db().save().expect("save");
    assert_eq!(
        reopened(&path).expect("after a direct save"),
        live(&session)
    );

    // Ingest under a WAL, saved by the background checkpointer.
    let session = Arc::new(session);
    session
        .attach_wal(&dir.path().join("wal"), SyncPolicy::Commit)
        .expect("wal");
    Staccato::start_background_checkpoints(&session, CheckpointPolicy::every_batches(1))
        .expect("checkpointer");
    session.ingest(batch(3)).expect("ingest");
    let deadline = Instant::now() + Duration::from_secs(20);
    while session.ingest_stats().background_checkpoints < 1 {
        assert!(Instant::now() < deadline, "the checkpointer never ran");
        std::thread::sleep(Duration::from_millis(5));
    }
    let expected = live(&session);
    assert_eq!(expected.0, 12 + 3 * 2);
    drop(session);
    assert_eq!(reopened(&path).expect("after a background save"), expected);
}

#[test]
fn reopen_reads_the_same_pages_at_any_store_size() {
    let dir = TempDir::new("misses");
    let misses = |lines: usize| -> u64 {
        let path = dir.path().join(format!("store-{lines}.db"));
        load(&path, lines).checkpoint().expect("checkpoint");
        let db = Database::open(&path, 256).expect("open");
        let before = db.pool().stats().misses;
        let store = OcrStore::reopen(db, &load_options()).expect("reopen");
        assert_eq!(store.line_count(), lines);
        store.db().pool().stats().misses - before
    };
    let (small, large) = (misses(10), misses(60));
    assert_eq!(small, large, "reopen misses grew with the store");
}

#[test]
fn a_primary_key_past_the_saved_count_is_refused() {
    let dir = TempDir::new("past");
    for pk in ["FullSFAData_pk", "StaccatoGraph_pk"] {
        let path = dir.path().join(format!("{pk}.db"));
        let session = load(&path, 10);
        session.checkpoint().expect("checkpoint");
        // A row's key reaching the file after the save, as a page evicted
        // between checkpoints would carry it.
        let db = session.store().db();
        let tree = db.index(pk).expect("pk");
        tree.insert(db.pool(), &10i64.to_be_bytes(), 0)
            .expect("insert");
        db.pool().flush_all().expect("flush");
        drop(session);
        match reopened(&path) {
            Err(QueryError::StoreMismatch(why)) => assert!(why.contains("primary-key"), "{why}"),
            other => panic!("{pk}: expected StoreMismatch, got {other:?}"),
        }
        match Staccato::recover(&path, &dir.path().join(format!("{pk}-wal"))) {
            Err(QueryError::StoreMismatch(_)) => {}
            Err(other) => panic!("{pk}: expected StoreMismatch, got {other:?}"),
            Ok(_) => panic!("{pk}: recovered over rows the save did not count"),
        }
    }
}

#[test]
fn a_count_past_the_primary_keys_or_no_count_is_refused() {
    let dir = TempDir::new("short");
    let path = dir.path().join("store.db");
    let saved_with_meta = |edit: &dyn Fn(&mut Vec<u8>)| {
        let session = load(&path, 6);
        let db = session.store().db();
        let mut meta = db.meta();
        edit(&mut meta);
        db.set_meta(&meta).expect("meta");
        db.save().expect("save");
    };
    // Seven lines counted, six stored: rows lost since the save.
    saved_with_meta(&|meta| meta[0..8].copy_from_slice(&7u64.to_le_bytes()));
    match reopened(&path) {
        Err(QueryError::StoreMismatch(why)) => assert!(why.contains("primary-key"), "{why}"),
        other => panic!("expected StoreMismatch, got {other:?}"),
    }
    // A file saved with no counters at all.
    saved_with_meta(&|meta| meta.clear());
    match reopened(&path) {
        Err(QueryError::StoreMismatch(why)) => assert!(why.contains("no saved"), "{why}"),
        other => panic!("expected StoreMismatch, got {other:?}"),
    }
}

#[test]
fn a_file_with_the_old_anchor_magic_is_refused_at_open() {
    let dir = TempDir::new("magic");
    let path = dir.path().join("store.db");
    load(&path, 4).checkpoint().expect("checkpoint");
    let mut bytes = std::fs::read(&path).expect("read");
    bytes[0..4].copy_from_slice(b"STDB");
    std::fs::write(&path, &bytes).expect("write");
    match Database::open(&path, 64) {
        Err(StorageError::OldFormat(why)) => assert!(why.contains("predates"), "{why}"),
        Err(other) => panic!("expected OldFormat, got {other:?}"),
        Ok(_) => panic!("a file without the metadata slot opened"),
    }
    match Staccato::recover(&path, &dir.path().join("wal")) {
        Err(QueryError::Storage(StorageError::OldFormat(_))) => {}
        Err(other) => panic!("expected OldFormat, got {other:?}"),
        Ok(_) => panic!("a file without the metadata slot recovered"),
    }
}
