//! Probabilistic aggregation over query answers.
//!
//! The paper's future work (§7) is to "extend Staccato … using
//! aggregation with a probabilistic RDBMS": the select-project queries
//! here produce a probabilistic relation (one independent Bernoulli event
//! per line, since per-line SFAs are independent), and downstream systems
//! like MystiQ/Trio aggregate over it. This module implements the three
//! standard aggregates that workload needs:
//!
//! * [`expected_count`] — `E[COUNT(*)]` by linearity of expectation;
//! * [`expected_sum`] — `E[SUM(attr)]` for a numeric attribute joined to
//!   the answers (the §2.1 `SUM(Loss)` use case);
//! * [`count_distribution`] — the full Poisson–binomial distribution of
//!   `COUNT(*)`, computed by the classic `O(n²)` dynamic program, from
//!   which [`threshold_probability`] answers `P[COUNT(*) ≥ τ]`.
//!
//! The SQL front-end's aggregate projections (`SELECT COUNT(*) | SUM(Prob)
//! | AVG(Prob)`) execute through [`StreamingAggregate`]: a constant-space
//! accumulator the executors fold every qualifying line into, so aggregate
//! plans never materialize the answer relation. `SUM(Prob)` is exactly
//! [`expected_count`] by linearity of expectation (the Koch–Olteanu
//! confidence-aggregation view); `COUNT(*)` counts the tuples of the
//! answer relation (positive probability, above any `Prob >=` threshold).

use crate::exec::Answer;

/// An aggregate projection of the SQL surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFunc {
    /// `COUNT(*)` — number of tuples in the answer relation.
    CountStar,
    /// `SUM(Prob)` — `Σᵢ pᵢ`, i.e. `E[COUNT(*)]` by linearity.
    SumProb,
    /// `AVG(Prob)` — mean probability of the answer tuples (0 when empty).
    AvgProb,
}

impl AggregateFunc {
    /// The SQL spelling, as it appears in a `SELECT` list.
    pub fn sql_name(self) -> &'static str {
        match self {
            AggregateFunc::CountStar => "COUNT(*)",
            AggregateFunc::SumProb => "SUM(Prob)",
            AggregateFunc::AvgProb => "AVG(Prob)",
        }
    }
}

/// One computed aggregate: which function ran and the scalar it produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateResult {
    /// The aggregate that was evaluated.
    pub func: AggregateFunc,
    /// Its value over the answer relation.
    pub value: f64,
}

/// Constant-space accumulator for the SQL aggregates.
///
/// Executors fold one [`Answer`] per line; rows with non-positive
/// probability or below `min_prob` are not part of the answer relation and
/// are skipped — the same qualification the ranked path's `TopK` applies.
/// Lines fold in scan order on one thread, so `SUM(Prob)` adds in the
/// same order on every run.
#[derive(Debug, Clone, Copy)]
pub struct StreamingAggregate {
    min_prob: f64,
    rows: u64,
    sum: f64,
}

impl StreamingAggregate {
    /// Accumulator over answers with probability `>= min_prob` (and
    /// `> 0`). The threshold is sanitized by
    /// [`crate::exec::sanitize_min_prob`].
    pub fn new(min_prob: f64) -> StreamingAggregate {
        StreamingAggregate {
            min_prob: crate::exec::sanitize_min_prob(min_prob),
            rows: 0,
            sum: 0.0,
        }
    }

    /// Fold one line's answer into the accumulator.
    pub fn fold(&mut self, answer: Answer) {
        if !crate::exec::qualifies(answer.probability, self.min_prob) {
            return;
        }
        self.rows += 1;
        self.sum += answer.probability;
    }

    /// Tuples folded so far (the `COUNT(*)` numerator).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Finish: the value of `func` over everything folded so far.
    pub fn finish(&self, func: AggregateFunc) -> f64 {
        match func {
            AggregateFunc::CountStar => self.rows as f64,
            AggregateFunc::SumProb => self.sum,
            AggregateFunc::AvgProb => {
                if self.rows == 0 {
                    0.0
                } else {
                    self.sum / self.rows as f64
                }
            }
        }
    }
}

/// Expected number of matching lines: `Σᵢ pᵢ`.
pub fn expected_count(answers: &[Answer]) -> f64 {
    answers.iter().map(|a| a.probability).sum()
}

/// Expected sum of `value(DataKey)` over matching lines:
/// `Σᵢ pᵢ · value(i)`. Lines missing from `value` contribute zero.
pub fn expected_sum(answers: &[Answer], value: impl Fn(i64) -> Option<f64>) -> f64 {
    answers
        .iter()
        .filter_map(|a| value(a.data_key).map(|v| v * a.probability))
        .sum()
}

/// The distribution of `COUNT(*)` over the independent per-line match
/// events: `out[c] = P[exactly c lines match]`, `out.len() == n + 1`.
///
/// Poisson–binomial DP: process answers one at a time, convolving each
/// Bernoulli in place.
pub fn count_distribution(answers: &[Answer]) -> Vec<f64> {
    let mut dist = vec![0.0f64; answers.len() + 1];
    dist[0] = 1.0;
    for (i, a) in answers.iter().enumerate() {
        let p = a.probability.clamp(0.0, 1.0);
        // Walk backwards so each entry is updated from the previous round.
        for c in (0..=i).rev() {
            let stay = dist[c] * (1.0 - p);
            dist[c + 1] += dist[c] * p;
            dist[c] = stay;
        }
    }
    dist
}

/// `P[COUNT(*) ≥ threshold]` over the answer relation.
pub fn threshold_probability(answers: &[Answer], threshold: usize) -> f64 {
    count_distribution(answers)
        .into_iter()
        .skip(threshold)
        .sum::<f64>()
        .min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answers(ps: &[f64]) -> Vec<Answer> {
        ps.iter()
            .enumerate()
            .map(|(i, &p)| Answer {
                data_key: i as i64,
                probability: p,
            })
            .collect()
    }

    #[test]
    fn expected_count_is_linear() {
        assert_eq!(expected_count(&answers(&[0.5, 0.25, 1.0])), 1.75);
        assert_eq!(expected_count(&[]), 0.0);
    }

    #[test]
    fn expected_sum_weights_values() {
        let a = answers(&[0.5, 1.0]);
        let loss = |key: i64| Some(if key == 0 { 100.0 } else { 40.0 });
        assert_eq!(expected_sum(&a, loss), 90.0);
        // Missing attribute rows contribute nothing.
        let partial = |key: i64| (key == 1).then_some(40.0);
        assert_eq!(expected_sum(&a, partial), 40.0);
    }

    #[test]
    fn count_distribution_two_coins() {
        let d = count_distribution(&answers(&[0.5, 0.5]));
        assert_eq!(d.len(), 3);
        assert!((d[0] - 0.25).abs() < 1e-12);
        assert!((d[1] - 0.50).abs() < 1e-12);
        assert!((d[2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn count_distribution_certain_events() {
        let d = count_distribution(&answers(&[1.0, 1.0, 0.0]));
        assert!((d[2] - 1.0).abs() < 1e-12);
        assert!(d[0].abs() < 1e-12 && d[1].abs() < 1e-12 && d[3].abs() < 1e-12);
    }

    #[test]
    fn distribution_sums_to_one_and_mean_matches() {
        let ps = [0.1, 0.9, 0.33, 0.66, 0.5];
        let a = answers(&ps);
        let d = count_distribution(&a);
        let total: f64 = d.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        let mean: f64 = d.iter().enumerate().map(|(c, p)| c as f64 * p).sum();
        assert!((mean - expected_count(&a)).abs() < 1e-12);
    }

    #[test]
    fn threshold_probability_matches_distribution_tail() {
        let a = answers(&[0.5, 0.5, 0.5]);
        // P[count ≥ 2] = 3·0.125 + 0.125 = 0.5
        assert!((threshold_probability(&a, 2) - 0.5).abs() < 1e-12);
        assert!((threshold_probability(&a, 0) - 1.0).abs() < 1e-12);
        assert_eq!(threshold_probability(&a, 4), 0.0);
    }

    #[test]
    fn empty_answer_set_aggregates() {
        // An empty probabilistic relation: COUNT(*) is certainly zero.
        let d = count_distribution(&[]);
        assert_eq!(d, vec![1.0]);
        assert_eq!(expected_count(&[]), 0.0);
        assert_eq!(expected_sum(&[], |_| Some(1.0)), 0.0);
        assert_eq!(threshold_probability(&[], 0), 1.0);
        assert_eq!(threshold_probability(&[], 1), 0.0);
    }

    #[test]
    fn single_answer_is_a_bernoulli() {
        let a = answers(&[0.3]);
        let d = count_distribution(&a);
        assert_eq!(d.len(), 2);
        assert!((d[0] - 0.7).abs() < 1e-12);
        assert!((d[1] - 0.3).abs() < 1e-12);
        assert!((expected_count(&a) - 0.3).abs() < 1e-12);
        assert!((threshold_probability(&a, 1) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn threshold_beyond_distribution_is_zero() {
        let a = answers(&[0.9, 0.8]);
        // There are only 2 events; counts of 3+ are impossible.
        assert_eq!(threshold_probability(&a, 3), 0.0);
        assert_eq!(threshold_probability(&a, 1000), 0.0);
    }

    #[test]
    fn streaming_aggregate_matches_batch_helpers() {
        let a = answers(&[0.5, 0.25, 1.0, 0.0]);
        let mut agg = StreamingAggregate::new(0.0);
        for &x in &a {
            agg.fold(x);
        }
        // The zero-probability row is not a tuple of the answer relation.
        assert_eq!(agg.finish(AggregateFunc::CountStar), 3.0);
        assert!((agg.finish(AggregateFunc::SumProb) - expected_count(&a)).abs() < 1e-12);
        assert!((agg.finish(AggregateFunc::AvgProb) - 1.75 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn streaming_aggregate_respects_threshold_and_empty_input() {
        let mut agg = StreamingAggregate::new(0.5);
        for &x in &answers(&[0.49, 0.5, 0.9]) {
            agg.fold(x);
        }
        assert_eq!(agg.rows(), 2);
        assert!((agg.finish(AggregateFunc::SumProb) - 1.4).abs() < 1e-12);
        let empty = StreamingAggregate::new(0.0);
        assert_eq!(empty.finish(AggregateFunc::CountStar), 0.0);
        assert_eq!(empty.finish(AggregateFunc::SumProb), 0.0);
        assert_eq!(empty.finish(AggregateFunc::AvgProb), 0.0, "AVG over empty");
    }

    #[test]
    fn out_of_range_probabilities_are_clamped() {
        // Answers straight from a projection overestimate can exceed 1.0;
        // the DP must clamp instead of producing a negative mass.
        let a = answers(&[1.5, -0.25]);
        let d = count_distribution(&a);
        assert_eq!(d.len(), 3);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(d.iter().all(|&p| (0.0..=1.0).contains(&p)), "{d:?}");
        assert!((threshold_probability(&a, 1) - 1.0).abs() < 1e-12);
    }
}
