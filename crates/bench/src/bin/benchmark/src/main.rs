//! The repo benchmark: five workloads, named end-to-end and per-layer
//! metrics, a traced run. See `README.md` in the package directory.
//!
//! ```text
//! benchmark --workload <name|all> --seed <u64> [--seconds N] [--trace <0|1>]
//!           [--repeat N] [--smoke]
//! ```
//!
//! A single workload runs in this process and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. `all`
//! and `--repeat` run each workload in a fresh child process, so that
//! `peak_rss_mb` belongs to one workload. The exit code is nonzero on any
//! correctness failure.

mod config;
mod data;
mod probes;
mod stats;
mod sys;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use config::{Better, MetricDef, Sizes, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Ctx, Outcome};

/// Below this the run refuses to start: `ingest_mixed` peaks at a few
/// hundred MB of database, WAL and crash copies.
const MIN_FREE_DISK: u64 = 2 << 30;

#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: usize,
    pub smoke: bool,
}

const USAGE: &str =
    "usage: benchmark --workload <scan_cold|probe_hot|ingest_mixed|recover|http_closed|all> \
--seed <u64> [--seconds N] [--trace <0|1>] [--repeat N] [--smoke]";

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: config::RUN_SECONDS,
        trace: false,
        repeat: 1,
        smoke: false,
    };
    let mut seed_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value("--workload")?,
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                seed_given = true;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => {
                parsed.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--smoke" => parsed.smoke = true,
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    if !seed_given {
        return Err("--seed is required: it is the only source of randomness".to_string());
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) || parsed.repeat == 0 {
        return Err("--seconds must be in (0, 60] and --repeat at least 1".to_string());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" || args.repeat > 1 {
        run_children(&args)
    } else {
        run_one(&args, false).and_then(|out| {
            print!("{}", render(&args, &out)?);
            Ok(exit_code(&out))
        })
    };
    ExitCode::from(result.unwrap_or_else(|e| {
        eprintln!("benchmark failed: {e}");
        1
    }))
}

/// Nonzero when any operation failed, or none was attempted.
pub fn exit_code(out: &Outcome) -> u8 {
    u8::from(out.failed > 0 || out.attempted == 0)
}

/// Run one workload in this process. A traced run executes the workload
/// twice, first with the tracer off and then with it on, and reports how
/// much throughput the spans cost.
pub fn run_one(args: &Args, corrupt_expected: bool) -> Result<Outcome, String> {
    let run_dir = sys::RunDir::create().map_err(|e| format!("temp directory: {e}"))?;
    if !args.smoke {
        if let Some(free) = sys::free_disk_bytes(run_dir.path()) {
            if free < MIN_FREE_DISK {
                return Err(format!(
                    "{} MB free under {}; the run needs {} MB",
                    free >> 20,
                    run_dir.path().display(),
                    MIN_FREE_DISK >> 20
                ));
            }
        }
    }
    let mut sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    if args.trace {
        // `setup_s` is an end-to-end metric; the traced run sets up once.
        sizes.setup_reps = 1;
    }
    let run = |tracer: &Tracer| {
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            smoke: args.smoke,
            sizes,
            clients: config::clients(),
            dir: run_dir.path(),
            tracer,
            corrupt_expected,
        };
        match args.workload.as_str() {
            "scan_cold" => workloads::scan_cold::run(&ctx),
            "probe_hot" => workloads::probe_hot::run(&ctx),
            "ingest_mixed" => workloads::ingest_mixed::run(&ctx),
            "recover" => workloads::recover::run(&ctx),
            "http_closed" => workloads::http_closed::run(&ctx),
            other => Err(format!("unknown workload {other:?}")),
        }
    };
    if !args.trace {
        let mut out = run(&Tracer::new(false))?;
        let rss = sys::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
        out.set("peak_rss_mb", rss);
        return Ok(out);
    }
    let untraced = run(&Tracer::new(false))?;
    let tracer = Tracer::new(true);
    let mut out = run(&tracer)?;
    out.set(
        "trace.overhead_share",
        1.0 - out.get("op_per_s") / untraced.get("op_per_s"),
    );
    out.attempted += untraced.attempted;
    out.failed += untraced.failed;
    let path = sys::output_root().join(format!("trace-{}.json", args.workload));
    let counters = metrics_json(&reported(args, &out)?);
    tracer
        .write_json(&path, &header_json(args, &out), &counters)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.note("trace_file", path.display());
    Ok(out)
}

/// The metrics of this run's kind, in registry order: end-to-end with
/// `--trace 0`, per-layer with `--trace 1` (whatever else the workload set
/// is left out). The driver wants every metric of the kind from every
/// workload, so a per-layer metric under a prefix the workload declared
/// idle is 0; any other metric the workload did not set is a bug in the
/// workload and fails the run.
fn reported(args: &Args, out: &Outcome) -> Result<Vec<(&'static MetricDef, f64)>, String> {
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    registry
        .iter()
        .map(|def| match out.metrics.get(def.name) {
            Some(&value) => Ok((def, value)),
            None if args.trace && out.idle.iter().any(|p| def.name.starts_with(p)) => {
                Ok((def, 0.0))
            }
            None => Err(format!(
                "workload {} did not report {}",
                args.workload, def.name
            )),
        })
        .collect()
}

fn metrics_json(metrics: &[(&MetricDef, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(def, value)| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                def.name,
                json_number(*value),
                def.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Every digit the measurement has (`{}` on `f64` is shortest round-trip);
/// JSON has no spelling for a non-finite number, so those become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// What every output records about the run that produced it.
fn header_json(args: &Args, out: &Outcome) -> String {
    let mut s = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\
         \"nproc\":{},\"clients\":{},\"loop\":\"closed\",\"scale_factor\":{},\
         \"flush_policy\":\"{:?}\"",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        sys::nproc(),
        config::clients(),
        config::SCALE,
        workloads::ingest_mixed::FLUSH_POLICY,
    );
    for (key, value) in &out.notes {
        let _ = write!(s, ",\"{key}\":\"{value}\"");
    }
    if args.trace {
        let _ = write!(s, ",\"idle_layers\":\"{}\"", out.idle.join(" "));
    }
    s.push('}');
    s
}

/// The run's standard output: a header line, one line per metric by name
/// with its unit, and last the one-line JSON result.
pub fn render(args: &Args, out: &Outcome) -> Result<String, String> {
    let mut s = format!("# run {}\n", header_json(args, out));
    let metrics = reported(args, out)?;
    for (def, value) in &metrics {
        let _ = writeln!(s, "{:<44} {:>16.6} {}", def.name, value, def.unit);
    }
    let _ = writeln!(
        s,
        "{:<44} {:>16.6} ratio",
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let _ = writeln!(
        s,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics_json(&metrics)
    );
    Ok(s)
}

/// `--workload all` and `--repeat N`: each run is a fresh child process of
/// this executable. Prints every child's metric lines, then — for
/// `--repeat` — median, quartiles and spread per end-to-end metric, and
/// whether the spread is inside the metric's bound.
fn run_children(args: &Args) -> Result<u8, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_ok = true;
    for name in names {
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for rep in 0..args.repeat {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().map_err(|e| format!("spawning {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            println!("## {name} run {}/{}", rep + 1, args.repeat);
            print!("{stdout}");
            if !output.status.success() {
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                all_ok = false;
                continue;
            }
            for (metric, value) in parse_result_line(&stdout)? {
                samples.entry(metric).or_default().push(value);
            }
        }
        if args.repeat > 1 && !args.trace {
            all_ok &= print_spreads(name, &samples);
        }
    }
    Ok(u8::from(!all_ok))
}

/// `(name, value)` of every metric on a run's last output line.
fn parse_result_line(stdout: &str) -> Result<Vec<(String, f64)>, String> {
    let line = stdout.lines().last().ok_or("a run printed nothing")?;
    let doc = staccato_server::Json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let Some(staccato_server::Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("result line has no metrics object".to_string());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(staccato_server::Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect()
}

/// The repeatability table of one workload. True when every spread is
/// inside its bound.
fn print_spreads(workload: &str, samples: &BTreeMap<String, Vec<f64>>) -> bool {
    println!(
        "## {workload}: spread over {} runs",
        samples.values().map(Vec::len).max().unwrap_or(0)
    );
    println!(
        "{:<30} {:>14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut inside = true;
    for def in END_TO_END {
        let Some(values) = samples.get(def.name).filter(|v| v.len() >= 2) else {
            continue;
        };
        let (q1, med, q3) = stats::quartiles(values);
        let spread = (q3 - q1) / med.abs().max(f64::MIN_POSITIVE);
        let ok = spread <= def.bound;
        inside &= ok;
        println!(
            "{:<30} {:>14.6} {:>14.6} {:>14.6} {:>9.4} {:>7.2}  {} ({} is better)",
            def.name,
            q1,
            med,
            q3,
            spread,
            def.bound,
            if ok { "inside" } else { "OUTSIDE" },
            if def.better == Better::Lower {
                "lower"
            } else {
                "higher"
            },
        );
    }
    inside
}
