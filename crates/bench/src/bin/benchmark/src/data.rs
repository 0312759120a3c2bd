//! Everything the workloads feed the product: corpora, load options,
//! statements and their reference answers. `--seed` is the only source of
//! randomness — each stream below derives its own sub-seed from it, and
//! the product crates receive nothing but the generated inputs.

use staccato_automata::Trie;
use staccato_core::StaccatoParams;
use staccato_ocr::{generate, ChannelConfig, CorpusKind, Dataset};
use staccato_query::store::LoadOptions;
use staccato_query::{
    eval_sfa, evaluate_answers, exec::rank_answers, ground_truth, Answer, Approach, PlanPreference,
    QueryError, QueryRequest, Staccato,
};
use std::collections::BTreeSet;

/// The seven CongressActs queries of the paper's Table 6 (five keywords,
/// two regexes). Copied here, not imported from `staccato_bench`, so the
/// benchmark depends only on the product crates.
pub const TABLE6_CA: [&str; 7] = [
    "Attorney",
    "Commission",
    "employment",
    "President",
    "United States",
    r"Public Law (8|9)\d",
    r"U.S.C. 2\d\d\d",
];

/// Independent streams drawn from the one `--seed`.
#[derive(Clone, Copy)]
pub enum Stream {
    Corpus = 1,
    Documents = 2,
    Shuffle = 3,
}

/// SplitMix64 finaliser over `(seed, stream)`: distinct streams of one
/// seed, and the same stream of neighbouring seeds, share no structure.
pub fn sub_seed(seed: u64, stream: Stream) -> u64 {
    let mut z = seed
        .wrapping_add((stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 generator for the statement shuffle.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at these sizes is below 2^-50).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

pub fn corpus(lines: usize, seed: u64) -> Dataset {
    generate(
        CorpusKind::CongressActs,
        lines,
        sub_seed(seed, Stream::Corpus),
    )
}

/// The document stream `ingest_mixed` writes: a second corpus with its
/// own sub-seed, flattened to `(name, text)`.
pub fn documents(count: usize, seed: u64) -> Vec<(String, String)> {
    let stream = generate(
        CorpusKind::CongressActs,
        count,
        sub_seed(seed, Stream::Documents),
    );
    stream
        .lines()
        .enumerate()
        .map(|(i, (_, _, text))| (format!("scan-{i:06}.png"), text.to_string()))
        .collect()
}

/// The paper's parameters over the *full* channel: `k = 25` for k-MAP,
/// `(m, k) = (40, 25)` for Staccato. With this channel a FullSFA blob is
/// about five times a Staccato blob, the ordering the paper reports (the
/// compact test channel reverses it).
pub fn load_options(seed: u64, parallelism: usize) -> LoadOptions {
    LoadOptions {
        channel: ChannelConfig {
            seed: sub_seed(seed, Stream::Corpus),
            ..ChannelConfig::default()
        },
        kmap_k: 25,
        staccato: StaccatoParams::new(40, 25),
        parallelism,
    }
}

/// Every word of the clean corpus (the "known clean text corpus" of §4),
/// lowercased, plus `filler` synthetic terms that grow the trie without
/// adding postings.
pub fn dictionary(dataset: &Dataset, filler: usize) -> Vec<String> {
    let mut terms: BTreeSet<String> = BTreeSet::new();
    for (_, _, line) in dataset.lines() {
        for w in line.split(|c: char| !c.is_ascii_alphabetic()) {
            if w.len() >= 2 {
                terms.insert(w.to_ascii_lowercase());
            }
        }
    }
    let mut out: Vec<String> = terms.into_iter().collect();
    out.extend((0..filler).map(|i| format!("zfill{i:06}")));
    out
}

pub fn trie_of(dict: &[String]) -> Trie {
    Trie::build(dict.iter().map(String::as_str))
}

/// The corpus's words, lowercased as the index dictionary holds them,
/// each with the number of lines containing it in either case — what a
/// probe of that anchor has to visit — most frequent first.
fn corpus_words(dataset: &Dataset) -> Vec<(String, usize)> {
    let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
    for (_, _, line) in dataset.lines() {
        let words: BTreeSet<String> = line
            .split(|c: char| !c.is_ascii_alphabetic())
            .filter(|w| w.len() >= 4)
            .map(str::to_ascii_lowercase)
            .collect();
        for w in words {
            *counts.entry(w).or_default() += 1;
        }
    }
    let mut out: Vec<(String, usize)> = counts.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// `n` keywords stratified by how many lines hold them: evenly spaced
/// ranks of the frequency-sorted word list between the `lo` and `hi`
/// quantiles of rank (0.0 = most frequent), so every run probes frequent,
/// medium and rare anchors in the same proportion whatever the seed.
///
/// Callers leave out the two extremes of rank. The generator draws words
/// uniformly from a small bank, so the most and least frequent words of a
/// corpus are sampling outliers, not a class of their own — and with them
/// in the mix the slowest statements, hence `op_p90_ms`, measure the
/// seed rather than the program.
pub fn stratified_keywords(dataset: &Dataset, n: usize, lo: f64, hi: f64) -> Vec<String> {
    let words = corpus_words(dataset);
    let first = (words.len() as f64 * lo) as usize;
    let band = &words[first..((words.len() as f64 * hi) as usize).max(first)];
    let n = n.min(band.len());
    (0..n).map(|i| band[i * band.len() / n].0.clone()).collect()
}

/// One `usable` keyword per entry of `line_counts`, each occurring in as
/// close to that many lines as the corpus still offers (ties in
/// alphabetical order). A probe decodes the graph of every line that holds
/// its anchor in either case, so anchors at prescribed line counts cost
/// much the same whatever the seed.
pub fn keywords_at_line_counts(
    dataset: &Dataset,
    line_counts: &[usize],
    mut usable: impl FnMut(&str) -> bool,
) -> Vec<String> {
    let mut words = corpus_words(dataset);
    words.retain(|(w, _)| usable(w));
    let mut picked = Vec::with_capacity(line_counts.len());
    for &target in line_counts {
        let best =
            (0..words.len()).min_by_key(|&i| (words[i].1.abs_diff(target), words[i].0.clone()));
        match best {
            Some(i) => picked.push(words.swap_remove(i).0),
            None => break,
        }
    }
    picked
}

/// One read statement with the answers it must return.
pub struct Stmt {
    pub request: QueryRequest,
    /// Ranked `(key, probability)` every execution must reproduce,
    /// bit for bit.
    pub expected: Vec<Answer>,
}

pub fn staccato_request(pattern: &str, preference: PlanPreference) -> QueryRequest {
    QueryRequest::regex(pattern)
        .approach(Approach::Staccato)
        .plan_preference(preference)
        .num_ans(100)
        .parallelism(1)
}

/// Key-for-key, `f64::to_bits`-for-`to_bits` equality of two ranked
/// answer lists.
pub fn same_answers(got: &[Answer], expected: &[Answer]) -> bool {
    got.len() == expected.len()
        && got.iter().zip(expected).all(|(a, b)| {
            a.data_key == b.data_key && a.probability.to_bits() == b.probability.to_bits()
        })
}

/// The same key *set*, ignoring order and probabilities.
pub fn same_keys(got: &[Answer], expected: &[Answer]) -> bool {
    let keys = |v: &[Answer]| v.iter().map(|a| a.data_key).collect::<BTreeSet<i64>>();
    keys(got) == keys(expected)
}

/// The naive reference: decode every Staccato graph through the owned
/// cursor, run the forward DP of `eval_sfa` on it, rank. Shares no code
/// with the scan kernel, the planner or the index, which is what makes it
/// a reference.
pub fn reference_answers(
    session: &Staccato,
    request: &QueryRequest,
) -> Result<Vec<Answer>, QueryError> {
    let query = request.compile()?;
    let mut answers = Vec::new();
    for row in session.store().staccato_cursor()? {
        let (key, sfa) = row?;
        answers.push(Answer {
            data_key: key,
            probability: eval_sfa(&query.dfa, &sfa),
        });
    }
    Ok(rank_answers(answers, request.num_ans))
}

/// Mean recall of `statements` — `(request, answers, answer budget)` —
/// against the clean-text ground truth. A statement's recall is the share
/// of true lines among the most its budget lets it return, `true
/// positives / min(|truth|, budget)`, so a `LIMIT` smaller than the truth
/// set does not count against the system. Statements whose truth set is
/// empty say nothing about recall and are left out; if that leaves none,
/// the workload's statements are ill chosen and the run fails.
pub fn mean_recall<'a>(
    session: &Staccato,
    statements: impl Iterator<Item = (&'a QueryRequest, &'a [Answer], usize)>,
) -> Result<f64, String> {
    let mut recalls = Vec::new();
    for (request, answers, budget) in statements {
        let query = request.compile().map_err(|e| e.to_string())?;
        let truth = ground_truth(session.store(), &query).map_err(|e| e.to_string())?;
        let reachable = truth.len().min(budget);
        if reachable > 0 {
            let hits = evaluate_answers(answers, &truth).true_positives;
            recalls.push(hits as f64 / reachable as f64);
        }
    }
    if recalls.is_empty() {
        return Err("no statement of this workload has a true answer to recall".to_string());
    }
    Ok(crate::stats::mean(&recalls))
}
