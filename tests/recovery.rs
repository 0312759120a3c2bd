//! Crash recovery: the WAL-backed write path must survive a process
//! death between checkpoints.
//!
//! The contract under test (DESIGN.md, "Write path & recovery"): after a
//! crash, `Staccato::recover` replays the WAL over the last checkpoint
//! and produces a store that is indistinguishable — answers,
//! probabilities, sizes, history — from one that never crashed, holding
//! exactly the batches whose WAL records were fully on disk. A torn tail
//! (the record the crash interrupted) is truncated, not replayed.

use staccato::approx::StaccatoParams;
use staccato::automata::Trie;
use staccato::ocr::{generate, ChannelConfig, CorpusKind, Dataset};
use staccato::query::kernel::{blob_synopsis, SYNOPSIS_LEN};
use staccato::query::store::LoadOptions;
use staccato::query::{QueryError, RecoverOptions};
use staccato::storage::{BlobStore, Database, RowReader, Wal};
use staccato::{
    Answer, Approach, DocumentInput, HistoryRow, IngestBatch, PlanPreference, QueryRequest,
    Staccato, SyncPolicy,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("staccato_rec_{tag}_{}", std::process::id()));
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

fn load_options(seed: u64) -> LoadOptions {
    LoadOptions {
        channel: ChannelConfig::compact(seed),
        kmap_k: 4,
        staccato: StaccatoParams::new(8, 6),
        parallelism: 1,
    }
}

/// Everything a reader can observe about the store's committed state.
#[derive(Debug, PartialEq)]
struct Snapshot {
    lines: usize,
    answers: Vec<Answer>,
    count: f64,
    history: Vec<HistoryRow>,
}

fn snapshot(session: &Staccato) -> Snapshot {
    let answers = session
        .sql("SELECT DataKey, Prob FROM StaccatoData WHERE Data LIKE '%e%' LIMIT 10000")
        .expect("select")
        .answers;
    let count = session
        .sql("SELECT COUNT(*) FROM MAPData WHERE Data LIKE '%a%'")
        .expect("count")
        .aggregate
        .expect("aggregate")
        .value;
    let history = session
        .sql("SELECT * FROM StaccatoHistory")
        .expect("history")
        .history
        .expect("rows");
    Snapshot {
        lines: session.line_count(),
        answers,
        count,
        history,
    }
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

/// Chop `bytes` off the end of the newest WAL segment — the on-disk
/// shape a crash leaves when it lands mid-append.
fn tear_wal_tail(wal_dir: &Path, bytes: u64) {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(wal_dir)
        .expect("wal dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segments.sort();
    let last = segments.last().expect("at least one segment");
    let len = std::fs::metadata(last).expect("metadata").len();
    assert!(len > bytes, "segment too small to tear");
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(last)
        .expect("open");
    file.set_len(len - bytes).expect("truncate");
}

/// The acceptance scenario: load + checkpoint, ingest three batches, a
/// fourth batch's WAL record torn mid-write by the "crash", reopen.
/// Recovery must restore exactly the three whole batches, byte-identical
/// to what a reader saw before the crash.
#[test]
fn torn_tail_recovery_restores_exactly_the_committed_batches() {
    let dir = TempDir::new("torn");
    let db_path = dir.path().join("store.db");
    let wal_dir = dir.path().join("wal");
    let opts = load_options(5);

    let expected;
    {
        let dataset = generate(CorpusKind::CongressActs, 12, 5);
        let db = Database::create(&db_path, 2048).expect("create");
        let session = Staccato::load(db, &dataset, &opts).expect("load");
        session.checkpoint().expect("checkpoint after load");
        session
            .attach_wal(&wal_dir, SyncPolicy::Commit)
            .expect("attach");

        for n in 1..=3u64 {
            let receipt = session.ingest(batch(n)).expect("ingest");
            assert_eq!(receipt.batch_seq, n);
            assert_eq!(receipt.first_key, 12 + 2 * (n as i64 - 1));
            assert!(receipt.wal_bytes > 0, "WAL attached, batches must log");
        }
        expected = snapshot(&session);
        assert_eq!(expected.lines, 18);
        assert_eq!(expected.history.len(), 6);

        // The in-flight batch the crash will tear.
        session.ingest(batch(4)).expect("fourth batch");
        // Crash: drop without a checkpoint. The database file still holds
        // only the post-load state; every batch lives in the WAL.
    }
    tear_wal_tail(&wal_dir, 3);

    let recovered = Staccato::recover_with(
        &db_path,
        &wal_dir,
        &RecoverOptions {
            pool_frames: 2048,
            load: opts.clone(),
            sync: SyncPolicy::Commit,
        },
    )
    .expect("recover");

    // Byte-identical to the pre-crash committed state: same keys, same
    // probabilities, same history rows (timestamps included — replay
    // restores them from the log, it does not re-stamp).
    assert_eq!(snapshot(&recovered), expected);
    let stats = recovered.ingest_stats();
    assert_eq!(stats.replays, 3, "three whole batches replayed");

    // The session is live for further durable writes, numbered after the
    // last complete batch.
    let receipt = recovered.ingest(batch(5)).expect("post-recovery ingest");
    assert_eq!(receipt.batch_seq, 4, "torn batch's sequence is reusable");
    assert_eq!(receipt.first_key, 18);
    assert_eq!(recovered.line_count(), 20);
}

/// A log holding a record in the previous format (`SWB1`, which also
/// carried one row per Staccato chunk string) is refused before any
/// batch is replayed, and the log is left as it was, so the previous
/// binary can still recover it.
#[test]
fn previous_format_record_is_refused_and_the_log_left_intact() {
    let dir = TempDir::new("swb1");
    let db_path = dir.path().join("store.db");
    let wal_dir = dir.path().join("wal");
    {
        let dataset = generate(CorpusKind::CongressActs, 4, 3);
        let db = Database::create(&db_path, 2048).expect("create");
        let session = Staccato::load(db, &dataset, &load_options(3)).expect("load");
        session.checkpoint().expect("checkpoint");
    }
    // magic, batch_seq 1, first_key 4 (the store's tail), no documents.
    let mut payload = b"SWB1".to_vec();
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&4i64.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    let mut wal = Wal::create(&wal_dir, SyncPolicy::Commit).expect("wal");
    wal.append(&payload).expect("append");
    wal.commit().expect("commit");
    drop(wal);
    let log_files = || {
        let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&wal_dir)
            .expect("wal dir")
            .map(|e| e.expect("entry").path())
            .map(|p| (p.clone(), std::fs::read(&p).expect("segment")))
            .collect();
        files.sort();
        files
    };
    let before = log_files();
    assert_eq!(before.len(), 1);

    match Staccato::recover(&db_path, &wal_dir) {
        Err(QueryError::CorruptWal(why)) => assert!(why.contains("previous WAL format"), "{why}"),
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("an SWB1 record must not be replayed"),
    }
    assert_eq!(log_files(), before);
}

/// A log whose one record is an `SWB2` batch — the previous format,
/// whose blobs are `SFA1` — is refused before anything is replayed, and
/// the log is left byte for byte as it was.
#[test]
fn swb2_record_is_refused_and_the_log_left_intact() {
    let dir = TempDir::new("swb2");
    let (db_path, wal_dir) = (dir.path().join("store.db"), dir.path().join("wal"));
    {
        let dataset = generate(CorpusKind::CongressActs, 4, 3);
        let db = Database::create(&db_path, 2048).expect("create");
        let session = Staccato::load(db, &dataset, &load_options(3)).expect("load");
        session.checkpoint().expect("checkpoint");
    }
    // magic, batch_seq 1, first_key 4 (the store's tail), no documents.
    let mut payload = b"SWB2".to_vec();
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&4i64.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    let mut wal = Wal::create(&wal_dir, SyncPolicy::Commit).expect("wal");
    wal.append(&payload).expect("append");
    wal.commit().expect("commit");
    drop(wal);
    let segment = || {
        std::fs::read_dir(&wal_dir)
            .unwrap()
            .map(|e| std::fs::read(e.unwrap().path()).unwrap())
            .collect::<Vec<_>>()
    };
    let before = segment();
    match Staccato::recover(&db_path, &wal_dir) {
        Err(QueryError::CorruptWal(why)) => assert!(why.contains("previous WAL format"), "{why}"),
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("an SWB2 record must not be replayed"),
    }
    assert_eq!(segment(), before);
}

/// A recovered store must be indistinguishable from one that never
/// crashed at all — not just self-consistent.
#[test]
fn recovered_store_matches_a_never_crashed_store() {
    let never = TempDir::new("never");
    let crashed = TempDir::new("crashed");
    let opts = load_options(9);
    let dataset = generate(CorpusKind::DbPapers, 10, 9);

    let build = |dir: &Path| {
        let db = Database::create(dir.join("store.db"), 2048).expect("create");
        let session = Staccato::load(db, &dataset, &opts).expect("load");
        session.checkpoint().expect("checkpoint");
        session
            .attach_wal(&dir.join("wal"), SyncPolicy::Commit)
            .expect("attach");
        for n in 1..=2u64 {
            session.ingest(batch(n)).expect("ingest");
        }
        session
    };

    let reference = build(never.path());
    drop(build(crashed.path())); // crash: no checkpoint since load
    let recovered = Staccato::recover_with(
        &crashed.path().join("store.db"),
        &crashed.path().join("wal"),
        &RecoverOptions {
            pool_frames: 2048,
            load: opts.clone(),
            sync: SyncPolicy::Commit,
        },
    )
    .expect("recover");

    let a = snapshot(&reference);
    let b = snapshot(&recovered);
    // Timestamps may differ across the two stores (they were stamped at
    // different wall times); everything else must agree exactly.
    assert_eq!(a.lines, b.lines);
    assert_eq!(a.answers, b.answers);
    assert_eq!(a.count, b.count);
    assert_eq!(a.history.len(), b.history.len());
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.data_key, y.data_key);
        assert_eq!(x.file_name, y.file_name);
        assert_eq!(x.provider, y.provider);
        assert_eq!(x.batch_seq, y.batch_seq);
    }
}

/// Satellite pin: `line_count()`, `sizes()`, and SQL visibility must
/// reflect an ingested batch immediately — no refresh, reopen, or
/// checkpoint in between.
#[test]
fn ingest_is_immediately_visible_without_checkpoint() {
    let dir = TempDir::new("fresh");
    let opts = load_options(3);
    let dataset = generate(CorpusKind::EnglishLit, 6, 3);
    let db = Database::create(dir.path().join("store.db"), 1024).expect("create");
    let session = Staccato::load(db, &dataset, &opts).expect("load");
    session
        .attach_wal(&dir.path().join("wal"), SyncPolicy::Commit)
        .expect("attach");

    let before_sizes = session.sizes();
    assert_eq!(session.line_count(), 6);
    session
        .ingest(IngestBatch::new().doc(DocumentInput::new(
            "fresh.png",
            "an unmistakably fresh xylophone sentence",
        )))
        .expect("ingest");
    assert_eq!(session.line_count(), 7, "count visible immediately");
    let after_sizes = session.sizes();
    assert!(after_sizes.text > before_sizes.text);
    assert!(after_sizes.map > before_sizes.map);
    assert!(after_sizes.staccato > before_sizes.staccato);
    let out = session
        .sql("SELECT DataKey FROM MAPData WHERE Data LIKE '%xylophone%' LIMIT 10")
        .expect("select");
    assert_eq!(out.answers.len(), 1, "row visible immediately");
    assert_eq!(out.answers[0].data_key, 6);
    let history = session
        .sql("SELECT * FROM StaccatoHistory WHERE FileName LIKE 'fresh%'")
        .expect("history")
        .history
        .expect("rows");
    assert_eq!(history.len(), 1);
}

/// The background checkpointer: a batch-count policy rings the doorbell
/// from the write path, the dedicated thread snapshots and GCs sealed
/// WAL segments while ingest keeps going, and a crash afterwards
/// recovers exactly — replaying only what the last checkpoint missed.
#[test]
fn background_checkpointer_snapshots_and_gcs_segments_off_the_write_path() {
    use staccato::CheckpointPolicy;
    use std::sync::Arc;

    const BATCHES: u64 = 6;

    let dir = TempDir::new("bgckpt");
    let db_path = dir.path().join("store.db");
    let wal_dir = dir.path().join("wal");
    let opts = load_options(7);
    let dataset = generate(CorpusKind::CongressActs, 8, 7);

    let expected;
    {
        let db = Database::create(&db_path, 2048).expect("create");
        let session = Arc::new(Staccato::load(db, &dataset, &opts).expect("load"));
        session.checkpoint().expect("checkpoint after load");
        session
            .attach_wal(&wal_dir, SyncPolicy::Commit)
            .expect("attach");
        Staccato::start_background_checkpoints(&session, CheckpointPolicy::every_batches(2))
            .expect("start checkpointer");

        for n in 1..=BATCHES {
            session.ingest(batch(n)).expect("ingest");
        }
        // The write path never blocks on a snapshot — it only rings a
        // doorbell — so give the checkpointer a moment to drain.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let stats = session.ingest_stats();
            if stats.background_checkpoints >= 2 && stats.wal_segments_deleted >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "checkpointer never caught up: {stats:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let stats = session.ingest_stats();
        assert!(
            stats.checkpoints >= stats.background_checkpoints,
            "background runs are counted as checkpoints too: {stats:?}"
        );
        // GC must never delete the live segment: the log stays openable
        // and holds a consistent (possibly empty) suffix of batches.
        expected = snapshot(&session);
        assert_eq!(expected.lines, 8 + 2 * BATCHES as usize);
        // Crash without a manual checkpoint.
    }

    let recovered = Staccato::recover_with(
        &db_path,
        &wal_dir,
        &RecoverOptions {
            pool_frames: 2048,
            load: opts.clone(),
            sync: SyncPolicy::Commit,
        },
    )
    .expect("recover after background checkpoints");
    // Byte-identical state, and the replay covers only the batches the
    // last background snapshot had not yet persisted.
    assert_eq!(snapshot(&recovered), expected);
    assert!(
        recovered.ingest_stats().replays < BATCHES,
        "a checkpoint ran, so some prefix must not need replay: {:?}",
        recovered.ingest_stats()
    );
}

/// A policy of "checkpoint after every batch" snapshots over and over,
/// and segment GC keeps the directory from accumulating sealed segments.
#[test]
fn every_batch_policy_checkpoints_and_bounds_the_wal_directory() {
    use staccato::CheckpointPolicy;
    use std::sync::Arc;

    let dir = TempDir::new("batchpolicy");
    let opts = load_options(11);
    let dataset = generate(CorpusKind::DbPapers, 6, 11);
    let db = Database::create(dir.path().join("store.db"), 2048).expect("create");
    let session = Arc::new(Staccato::load(db, &dataset, &opts).expect("load"));
    session.checkpoint().expect("checkpoint");
    session
        .attach_wal(&dir.path().join("wal"), SyncPolicy::Commit)
        .expect("attach");
    // Every batch is due.
    Staccato::start_background_checkpoints(&session, CheckpointPolicy::every_batches(1))
        .expect("start checkpointer");

    for n in 1..=4u64 {
        session.ingest(batch(n)).expect("ingest");
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let stats = session.ingest_stats();
        if stats.background_checkpoints >= 1 && stats.wal_segments_deleted >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "batch policy never triggered: {stats:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    // Sealed segments are deleted as they are covered: at most the live
    // segment plus one in-flight seal survive on disk.
    let segments = std::fs::read_dir(dir.path().join("wal"))
        .expect("wal dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .count();
    assert!(
        segments <= 2,
        "GC must bound the directory, found {segments}"
    );
    // The session stays fully usable after many background snapshots.
    let keys = session
        .sql("SELECT DataKey FROM MAPData WHERE Data LIKE '%amendment%' LIMIT 100")
        .expect("select")
        .answers;
    assert!(!keys.is_empty());
}

#[test]
fn saving_an_unchanged_database_does_not_grow_its_file() {
    use staccato::storage::{ColumnType, Schema};

    let dir = TempDir::new("save_leak");
    let path = dir.path().join("store.db");
    let file_len = || std::fs::metadata(&path).expect("db file").len();
    let db = Database::create(&path, 16).expect("create");
    let heap = db
        .create_table("Claims", Schema::new(&[("DocID", ColumnType::Int)]))
        .expect("table");
    heap.insert(db.pool(), b"row").expect("insert");
    db.save().expect("first save");
    let after_first = file_len();
    for _ in 0..20 {
        db.save().expect("save");
    }
    assert_eq!(file_len(), after_first, "20 saves of an unchanged catalog");
    drop(db);

    // The unchanged saves kept the catalog readable, and a save after DDL
    // still persists the new object.
    let db = Database::open(&path, 16).expect("reopen");
    assert_eq!(db.table_names(), vec!["Claims".to_string()]);
    let (_, heap) = db.table("Claims").expect("table");
    assert_eq!(heap.scan(db.pool()).count(), 1);
    db.create_index("Claims_pk")
        .expect("index")
        .insert(db.pool(), b"k", 7)
        .expect("insert key");
    db.save().expect("save after DDL");
    drop(db);
    let db = Database::open(&path, 16).expect("reopen");
    let index = db.index("Claims_pk").expect("index persisted");
    assert_eq!(index.get(db.pool(), b"k").expect("get"), Some(7));
    assert_eq!(db.table_names(), vec!["Claims".to_string()]);
}

/// A log whose one record is an `SWB3` batch — the previous format,
/// which logged no synopsis — is refused before anything is replayed,
/// and the log is left byte for byte as it was.
#[test]
fn swb3_record_is_refused_and_the_log_left_intact() {
    let dir = TempDir::new("swb3");
    let (db_path, wal_dir) = (dir.path().join("store.db"), dir.path().join("wal"));
    {
        let dataset = generate(CorpusKind::CongressActs, 4, 3);
        let db = Database::create(&db_path, 2048).expect("create");
        let session = Staccato::load(db, &dataset, &load_options(3)).expect("load");
        session.checkpoint().expect("checkpoint");
    }
    // magic, batch_seq 1, first_key 4 (the store's tail), no documents.
    let mut payload = b"SWB3".to_vec();
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&4i64.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    let mut wal = Wal::create(&wal_dir, SyncPolicy::Commit).expect("wal");
    wal.append(&payload).expect("append");
    wal.commit().expect("commit");
    drop(wal);
    let segment = || {
        std::fs::read_dir(&wal_dir)
            .unwrap()
            .map(|e| std::fs::read(e.unwrap().path()).unwrap())
            .collect::<Vec<_>>()
    };
    let before = segment();
    match Staccato::recover(&db_path, &wal_dir) {
        Err(QueryError::CorruptWal(why)) => assert!(why.contains("previous WAL format"), "{why}"),
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("an SWB3 record must not be replayed"),
    }
    assert_eq!(segment(), before);
}

fn recover_options(opts: &LoadOptions) -> RecoverOptions {
    RecoverOptions {
        pool_frames: 2048,
        load: opts.clone(),
        sync: SyncPolicy::Commit,
    }
}

/// Load `dataset` into a file-backed store under `dir`, checkpoint it,
/// attach a WAL and ingest `batches`; the session is dropped without a
/// checkpoint, the shape a crash leaves.
fn crash_after(dir: &Path, dataset: &Dataset, opts: &LoadOptions, batches: &[IngestBatch]) {
    let db = Database::create(dir.join("store.db"), 2048).expect("create");
    let session = Staccato::load(db, dataset, opts).expect("load");
    session.checkpoint().expect("checkpoint");
    session
        .attach_wal(&dir.join("wal"), SyncPolicy::Commit)
        .expect("attach");
    for batch in batches {
        session.ingest(batch.clone()).expect("ingest");
    }
}

/// A record whose CRC holds but whose payload stops inside its last
/// document's synopsis is a corrupt log, not a torn tail: `recover`
/// refuses it with `CorruptWal` and does not panic.
#[test]
fn record_cut_inside_its_synopsis_is_refused() {
    let dir = TempDir::new("cutsyn");
    let opts = load_options(3);
    crash_after(
        dir.path(),
        &generate(CorpusKind::CongressActs, 4, 3),
        &opts,
        &[batch(1)],
    );
    let (wal, records) = Wal::open(dir.path().join("wal"), SyncPolicy::Commit).expect("open");
    drop(wal);
    assert_eq!(records.len(), 1);
    let payload = records.iter().next().expect("one record");
    // The record ends with its last document's synopsis.
    let cut = &payload[..payload.len() - SYNOPSIS_LEN / 2];
    let cut_dir = dir.path().join("cut");
    let mut wal = Wal::create(&cut_dir, SyncPolicy::Commit).expect("wal");
    wal.append(cut).expect("append");
    wal.commit().expect("commit");
    drop(wal);
    match Staccato::recover_with(
        &dir.path().join("store.db"),
        &cut_dir,
        &recover_options(&opts),
    ) {
        Err(QueryError::CorruptWal(_)) => {}
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("a cut record must not be replayed"),
    }
}

/// Every `StaccatoGraph` row as `(DataKey, blob bytes, synopsis)`. The
/// rows' blob page ids depend on what else each store allocated, so the
/// blob is compared by its bytes.
fn staccato_rows(session: &Staccato) -> Vec<(i64, Vec<u8>, Vec<u8>)> {
    let db = session.store().db();
    let (schema, heap) = db.table("StaccatoGraph").expect("table");
    heap.scan(db.pool())
        .map(|row| {
            let (_, bytes) = row.expect("row");
            let mut r = RowReader::new(&schema, &bytes);
            let key = r.int().expect("key");
            let blob = BlobStore::get(db.pool(), r.blob().expect("blob")).expect("blob bytes");
            let synopsis = r.bytes().expect("synopsis").to_vec();
            r.finish().expect("three columns");
            (key, blob, synopsis)
        })
        .collect()
}

/// The synopsis is derived once, when a line is built, and travels with
/// it: the same lines loaded, ingested live, and rebuilt by replay give
/// the same `StaccatoGraph` rows, and each row's synopsis is the one its
/// blob defines.
#[test]
fn load_ingest_and_replay_store_the_same_staccato_rows() {
    let dir = TempDir::new("provenance");
    let opts = load_options(4);
    let dataset = generate(CorpusKind::CongressActs, 8, 4);
    let empty = Dataset {
        docs: Vec::new(),
        ..dataset.clone()
    };
    // The channel is seeded by the line's key on both paths, so the
    // ingested keys 0..8 are built like the loaded lines.
    let lines: Vec<&str> = dataset.lines().map(|(_, _, text)| text).collect();
    let batches: Vec<IngestBatch> = lines
        .chunks(4)
        .map(|chunk| IngestBatch {
            docs: chunk
                .iter()
                .map(|text| DocumentInput::new("line.png", *text))
                .collect(),
        })
        .collect();

    let loaded =
        Staccato::load(Database::in_memory(2048).expect("db"), &dataset, &opts).expect("load");
    let live = Staccato::load(Database::in_memory(2048).expect("db"), &empty, &opts).expect("load");
    for batch in &batches {
        live.ingest(batch.clone()).expect("ingest");
    }
    crash_after(dir.path(), &empty, &opts, &batches);
    let replayed = Staccato::recover_with(
        &dir.path().join("store.db"),
        &dir.path().join("wal"),
        &recover_options(&opts),
    )
    .expect("recover");
    assert_eq!(replayed.ingest_stats().replays, 2);

    let rows = staccato_rows(&loaded);
    assert_eq!(rows.len(), 8);
    for (path, session) in [("live ingest", &live), ("replay", &replayed)] {
        let other = staccato_rows(session);
        assert_eq!(other.len(), rows.len(), "{path}");
        for (a, b) in rows.iter().zip(&other) {
            assert!(a == b, "{path}: line {} differs from the loaded one", a.0);
        }
    }
    for (key, blob, synopsis) in &rows {
        assert_eq!(
            synopsis[..],
            blob_synopsis(blob).expect("blob decodes")[..],
            "line {key}"
        );
    }
}

/// The index registry is not saved, so a recovered session registers
/// its indexes again. The file still names the earlier session's trees;
/// registration rebuilds under the same name, and the rebuilt index
/// answers like a filescan, replayed lines included.
#[test]
fn index_registered_again_after_recovery_answers_like_a_filescan() {
    let dir = TempDir::new("reindex");
    let (db_path, wal_dir) = (dir.path().join("store.db"), dir.path().join("wal"));
    let opts = load_options(5);
    let trie = Trie::build(["public", "senate"]);
    {
        let dataset = generate(CorpusKind::CongressActs, 12, 5);
        let db = Database::create(&db_path, 2048).expect("create");
        let session = Staccato::load(db, &dataset, &opts).expect("load");
        session.register_index(&trie, "inv").expect("index");
        session.checkpoint().expect("checkpoint");
        session
            .attach_wal(&wal_dir, SyncPolicy::Commit)
            .expect("attach");
        session.ingest(batch(1)).expect("ingest");
    }
    let recovered =
        Staccato::recover_with(&db_path, &wal_dir, &recover_options(&opts)).expect("recover");
    assert_eq!(recovered.ingest_stats().replays, 1);
    recovered
        .register_index(&trie, "inv")
        .expect("register again after recovery");
    assert!(matches!(
        recovered.register_index(&trie, "inv"),
        Err(QueryError::DuplicateIndex(name)) if name == "inv"
    ));
    let keys = |answers: &[Answer]| answers.iter().map(|a| a.data_key).collect::<BTreeSet<_>>();
    for pattern in ["Public", "Senate"] {
        let request = QueryRequest::regex(pattern)
            .approach(Approach::Staccato)
            .num_ans(10_000);
        let probe = recovered.execute(&request).expect("probe");
        assert!(probe.plan.is_index_probe(), "{pattern}");
        let scan = recovered
            .execute(&request.plan_preference(PlanPreference::ForceFileScan))
            .expect("filescan");
        assert_eq!(keys(&probe.answers), keys(&scan.answers), "{pattern}");
        if pattern == "Public" {
            // Key 12 is the replayed batch's first document.
            assert!(
                keys(&scan.answers).contains(&12),
                "{:?}",
                keys(&scan.answers)
            );
        }
    }
}
