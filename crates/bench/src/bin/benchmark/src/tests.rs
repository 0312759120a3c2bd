//! Tests of the benchmark itself, at `--smoke` sizes.

use crate::config::{self, Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{percentile, quartiles};
use crate::workloads::{op_metrics, OpLog, Outcome};
use crate::{exit_code, parse_args, render, run_one, Args};
use staccato_server::Json;
use std::collections::BTreeSet;
use std::time::Duration;

/// The contract file at the repo root, six directories up from here.
const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

fn smoke(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed: 7,
        seconds: 1.0,
        trace,
        repeat: 1,
        smoke: true,
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn percentile_on_a_known_vector() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.50), 50.0);
    assert_eq!(percentile(&v, 0.95), 95.0);
    assert_eq!(percentile(&v, 1.0), 100.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&[3.0], 0.95), 3.0);
    // Nearest rank, not interpolation: the p50 of four samples is the 2nd.
    assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
}

#[test]
fn quartiles_follow_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    // statistics.quantiles([5, 1, 4], n=4) == [1.0, 4.0, 5.0]
    assert_eq!(quartiles(&[5.0, 1.0, 4.0]), (1.0, 4.0, 5.0));
}

#[test]
fn metric_names_are_well_formed_and_used_once() {
    let mut seen = BTreeSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(well_formed(def.name), "bad metric name {:?}", def.name);
        assert!(seen.insert(def.name), "{} is listed twice", def.name);
        assert!(!def.unit.is_empty() && def.unit.len() <= 16);
    }
    for def in END_TO_END {
        assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("the contract requires setup_s");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
}

/// `BENCHMARK.json` and the registry in `config.rs` say the same thing.
#[test]
fn benchmark_json_lists_the_same_names() {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let Json::Obj(members) = &doc else {
        panic!("BENCHMARK.json is not an object");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let text = |j: &Json, key: &str| -> String {
        j.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {j}"))
            .to_string()
    };
    let items = |key: &str| doc.get(key).and_then(Json::as_array).expect(key).to_vec();

    let workloads: Vec<String> = items("workloads").iter().map(|w| text(w, "name")).collect();
    assert_eq!(workloads, WORKLOADS);
    for w in items("workloads") {
        let (name, why) = (text(&w, "name"), text(&w, "why"));
        assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
        // The frozen operation count is on record in the contract file.
        let count = config::frozen_ops(&name).to_string();
        assert!(why.contains(&count), "{name}: {count} missing in {why:?}");
    }

    let check = |key: &str, registry: &[MetricDef], bounded: bool| {
        let listed = items(key);
        assert_eq!(listed.len(), registry.len(), "{key}");
        for (entry, def) in listed.iter().zip(registry) {
            assert_eq!(text(entry, "name"), def.name);
            assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
            let better = match def.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(text(entry, "better"), better, "{}", def.name);
            let bound = entry.get("bound").and_then(Json::as_f64);
            assert_eq!(bound, bounded.then_some(def.bound), "{}", def.name);
        }
    };
    check("end_to_end", END_TO_END, true);
    check("per_layer", PER_LAYER, false);

    let paths: Vec<String> = items("paths")
        .iter()
        .map(|p| p.as_str().expect("a path").to_string())
        .collect();
    assert_eq!(paths, ["crates/bench/src/bin/benchmark"]);
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("run_seconds");
    assert_eq!(seconds as f64, config::RUN_SECONDS);
    let command: Vec<String> = items("command")
        .iter()
        .map(|p| p.as_str().expect("an argument").to_string())
        .collect();
    assert!(command.contains(&format!("{}/Cargo.toml", paths[0])));
}

/// An empty-`[workspace]` package cannot inherit the repo's release
/// profile, so it carries a copy; the copy must not drift.
#[test]
fn release_profile_is_the_repos() {
    let profile = |manifest: &str| -> Vec<String> {
        let text = std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{manifest}: {e}"));
        text.lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(|l| l.trim().to_string())
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    };
    let here = env!("CARGO_MANIFEST_DIR");
    let own = profile(&format!("{here}/Cargo.toml"));
    assert!(!own.is_empty());
    assert_eq!(own, profile(&format!("{here}/../../../../../Cargo.toml")));
}

/// The median over the segments is reported: one slow fifth of a window
/// moves neither the throughput nor the percentiles.
#[test]
fn op_metrics_report_the_median_segment() {
    let mut log = OpLog::default();
    let mut clock = Duration::ZERO;
    for i in 0..50 {
        // Ten operations per segment; the fourth segment is ten times slower.
        let latency = Duration::from_millis(if (30..40).contains(&i) { 100 } else { 10 });
        clock += latency;
        log.push(i, latency, clock);
    }
    let mut out = Outcome::default();
    op_metrics(&mut out, &[log]);
    assert!((out.get("op_per_s") - 100.0).abs() < 1e-9);
    assert_eq!(out.get("op_p50_ms"), 10.0);
    assert_eq!(out.get("op_p90_ms"), 10.0);
}

/// Percentiles go over the distinct operations, each represented by its own
/// percentile: four cheap statements and three dear ones, as in
/// `scan_cold`. The pooled median would be the cheap statements' tail (13).
#[test]
fn op_percentiles_weigh_distinct_operations() {
    let mut log = OpLog::default();
    let mut clock = Duration::ZERO;
    for pass in 0..2 * config::SEGMENTS {
        for kind in 0..7 {
            let ms = match (kind < 4, pass % 2) {
                (true, 0) => 10,
                (true, _) => 13,
                (false, _) => 20,
            };
            clock += Duration::from_millis(ms);
            log.push(kind, Duration::from_millis(ms), clock);
        }
    }
    let mut out = Outcome::default();
    op_metrics(&mut out, &[log]);
    assert_eq!(out.get("op_p50_ms"), 10.0);
    assert_eq!(out.get("op_p90_ms"), 20.0);
}

/// A per-layer metric is either set, or under a prefix the workload
/// declared idle (then 0); anything else fails the run.
#[test]
fn an_unreported_layer_metric_fails_the_run() {
    let args = smoke("scan_cold", true);
    let mut out = Outcome {
        idle: &[""],
        attempted: 1,
        ..Outcome::default()
    };
    assert!(render(&args, &out).is_ok(), "everything declared idle");
    out.idle = &["storage."];
    let error = render(&args, &out).expect_err("ocr.* is neither set nor idle");
    assert!(error.contains("did not report"), "{error}");
}

/// Run `workload` untraced and traced and check the printed result: every
/// metric of the run's kind by name with its unit, none missing, none
/// extra; end-to-end values never 0; nothing failed.
fn reports_every_metric(workload: &str) {
    for (trace, registry) in [(false, END_TO_END), (true, PER_LAYER)] {
        let args = smoke(workload, trace);
        let out = run_one(&args, false).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert_eq!(out.failed, 0, "{workload} failed operations");
        assert_eq!(exit_code(&out), 0);
        let text = render(&args, &out).unwrap_or_else(|e| panic!("{workload}: {e}"));
        let header = text.lines().next().expect("a header line");
        for field in [
            "\"seed\":7",
            "\"nproc\":",
            "\"clients\":",
            "\"scale_factor\":",
            "Commit",
        ] {
            assert!(header.contains(field), "{field} missing in {header}");
        }
        let last = text.lines().last().expect("a result line");
        let doc = Json::parse(last).expect("the result line is JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert!(
            doc.get("attempted")
                .and_then(Json::as_u64)
                .expect("attempted")
                >= 1
        );
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("no metrics object in {last}");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = registry.iter().map(|d| d.name).collect();
        assert_eq!(names, expected, "{workload} trace={trace}");
        for ((name, metric), def) in metrics.iter().zip(registry) {
            assert_eq!(metric.get("unit").and_then(Json::as_str), Some(def.unit));
            let value = metric.get("value").and_then(Json::as_f64).expect("a value");
            assert!(value.is_finite(), "{name} = {value}");
            assert!(trace || value > 0.0, "{workload}: {name} is {value}");
        }
    }
}

#[test]
fn scan_cold_reports_every_metric() {
    reports_every_metric("scan_cold");
}

#[test]
fn probe_hot_reports_every_metric() {
    reports_every_metric("probe_hot");
}

#[test]
fn ingest_mixed_reports_every_metric() {
    reports_every_metric("ingest_mixed");
}

#[test]
fn recover_reports_every_metric() {
    reports_every_metric("recover");
}

#[test]
fn http_closed_reports_every_metric() {
    reports_every_metric("http_closed");
}

/// A deliberately wrong reference answer must show as failed operations
/// and a nonzero exit code — on every workload, since each checks answers
/// its own way.
#[test]
fn a_wrong_expected_answer_fails_the_run() {
    for workload in WORKLOADS {
        let args = smoke(workload, false);
        let out = run_one(&args, true).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(out.failed > 0, "{workload} did not notice a wrong answer");
        assert_ne!(exit_code(&out), 0);
        let text = render(&args, &out).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(text
            .lines()
            .last()
            .expect("result")
            .contains("\"correct\":false"));
    }
}

/// A window that cannot finish its fixed operation count in time fails
/// the run; it does not report the part it managed.
#[test]
fn a_window_cut_short_fails_the_run() {
    let mut args = smoke("scan_cold", false);
    args.seconds = 1e-9;
    let error = run_one(&args, false)
        .err()
        .expect("the deadline passes at once");
    assert!(error.contains("did not finish"), "{error}");
}

#[test]
fn arguments_follow_the_drivers_spelling() {
    let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    let a = parse_args(&argv("--workload scan_cold --seed 3 --seconds 9 --trace 0")).expect("ok");
    assert_eq!((a.seed, a.seconds, a.trace), (3, 9.0, false));
    let a = parse_args(&argv("--workload all --seed 3 --trace 1 --repeat 5")).expect("ok");
    assert!(a.trace && a.repeat == 5);
    assert!(parse_args(&argv("--workload all --seed 3 --trace")).is_err());
    assert!(parse_args(&argv("--workload all --seed 3 --trace yes")).is_err());
    assert!(parse_args(&argv("--workload nope --seed 3")).is_err());
    assert!(
        parse_args(&argv("--workload all")).is_err(),
        "--seed is required"
    );
}
