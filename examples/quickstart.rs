//! Quickstart: the paper's Figure 1, end to end, through the session API.
//!
//! Builds the running-example SFA for an image reading "Ford", shows that
//! the MAP transcription is wrong ('F0 rd'), that the probabilistic query
//! still finds the claim, and then runs the same `LIKE` predicate the way
//! an application would: a [`Staccato`] session planning and executing a
//! [`QueryRequest`] over a loaded store.
//!
//! Run with: `cargo run --example quickstart`

use staccato::approx::{approximate, StaccatoParams};
use staccato::ocr::{ChannelConfig, Dataset, Document};
use staccato::query::store::LoadOptions;
use staccato::query::{Query, ScanScratch};
use staccato::sfa::{codec, map_string, total_mass, Emission, SfaBuilder};
use staccato::storage::Database;
use staccato::{Approach, QueryRequest, Staccato};

fn main() {
    // Figure 1(B): the simplified transducer OCRopus produced for the
    // highlighted part of the scanned claim form.
    let mut b = SfaBuilder::new();
    let n: Vec<_> = (0..6).map(|_| b.add_node()).collect();
    b.add_edge(
        n[0],
        n[1],
        vec![Emission::new("F", 0.8), Emission::new("T", 0.2)],
    );
    b.add_edge(
        n[1],
        n[2],
        vec![Emission::new("0", 0.6), Emission::new("o", 0.4)],
    );
    b.add_edge(n[2], n[3], vec![Emission::new(" ", 0.6)]);
    b.add_edge(n[2], n[4], vec![Emission::new("r", 0.4)]);
    b.add_edge(
        n[3],
        n[4],
        vec![Emission::new("r", 0.8), Emission::new("m", 0.2)],
    );
    b.add_edge(
        n[4],
        n[5],
        vec![Emission::new("d", 0.9), Emission::new("3", 0.1)],
    );
    let sfa = b.build(n[0], n[5]).expect("Figure 1 SFA is valid");

    let (map, p_map) = map_string(&sfa).expect("non-empty SFA");
    println!("MAP transcription: {map:?} (p = {p_map:.3})");
    println!("  -> a plain-text search for 'Ford' finds nothing.");

    // Figure 1(C): SELECT ... WHERE DocData LIKE '%Ford%'
    // The query compiles to a scan kernel that evaluates stored blobs.
    let query = Query::like("%Ford%").expect("valid LIKE pattern");
    let mut scratch = ScanScratch::new();
    let mut pr = |blob: &[u8]| {
        let out = query.kernel.eval_blob(&mut scratch, blob);
        out.expect("a blob encoded here").probability
    };
    let p = pr(&codec::encode(&sfa));
    println!("Pr[DocData LIKE '%Ford%'] over the full SFA = {p:.3}");
    println!("  -> the claim is found with probability ~0.12, as in the paper.");

    // Staccato approximation: 2 chunks, 2 strings per chunk.
    let stac = approximate(&sfa, StaccatoParams::new(2, 2));
    println!(
        "\nStaccato(m=2, k=2): {} chunks, retained mass {:.3}, {} of {} bytes",
        stac.edge_count(),
        total_mass(&stac),
        codec::encoded_size(&stac),
        codec::encoded_size(&sfa),
    );
    let p_stac = pr(&codec::encode(&stac));
    println!("Pr[... LIKE '%Ford%'] over the approximation = {p_stac:.3}");
    for (s, p) in stac.enumerate_strings(16) {
        println!("  retained string {s:?} (p = {p:.3})");
    }

    // The same query as an application runs it: load a small claim corpus
    // into the RDBMS and let the session plan + execute the request.
    let dataset = Dataset {
        name: "claims".into(),
        kind: staccato::ocr::CorpusKind::Books,
        docs: vec![Document {
            name: "claims-2010".into(),
            lines: vec![
                "my Ford pickup was hit in the parking lot".into(),
                "hail damage to a Toyota sedan on Elm St".into(),
                "Ford van side mirror broken by a cart".into(),
                "kitchen fire spread to the garage".into(),
            ],
        }],
    };
    let db = Database::in_memory(512).expect("database");
    let opts = LoadOptions {
        channel: ChannelConfig::compact(2010),
        kmap_k: 5,
        staccato: StaccatoParams::new(8, 5),
        parallelism: 2,
    };
    let session = Staccato::load(db, &dataset, &opts).expect("load store");

    // Figure 1C verbatim: the predicate as SQL text over Table 5.
    let figure_1c = "SELECT DataKey, Prob FROM StaccatoData WHERE Data LIKE '%Ford%' LIMIT 10";
    let out = session.sql(figure_1c).expect("sql");
    println!("\nsql> {figure_1c}");
    for a in &out.answers {
        println!(
            "  claim line {} matches with p = {:.3}",
            a.data_key, a.probability
        );
    }

    // The same query through the fluent builder — one planner, one engine.
    let request = QueryRequest::like("%Ford%").num_ans(10);
    println!("\n{}", session.explain(&request).expect("explain"));
    for approach in [Approach::Map, Approach::Staccato, Approach::FullSfa] {
        let out = session
            .execute(&request.clone().approach(approach))
            .expect("execute");
        let best = out
            .answers
            .first()
            .map(|a| format!("best line {} (p = {:.3})", a.data_key, a.probability))
            .unwrap_or_else(|| "no answers".into());
        println!(
            "{:>8}: {} answers via {} in {:?} ({} lines evaluated) — {}",
            approach.name(),
            out.answers.len(),
            out.plan.kind(),
            out.stats.wall(),
            out.stats.lines_evaluated,
            best
        );
    }
    println!("\nThe probabilistic representations surface the Ford claims the MAP text loses.");
}
