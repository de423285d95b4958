//! The repository benchmark: four workloads over the Yukta reproduction,
//! timed from outside through the program's public API.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <fig09|resynth|serving|recorded> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! The run prints one `<metric> <value> <unit>` line per metric (timings
//! with their sample count and best-supported tail percentile), then as
//! its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics. It exits non-zero when an output check fails. See
//! README.md for the workloads, the metrics and what each one explains.

mod host;
mod mirror;
mod program;
mod runs;
mod stats;
mod trace;
mod tracer;

use std::process::ExitCode;

use yukta_core::design::Design;
use yukta_core::runtime::InjectedCrash;
use yukta_linalg::Result;

use crate::host::Pace;
use crate::program::Inputs;
use crate::runs::{Budget, Kind, Outcome};

/// How long one run measures, unless `--seconds` says otherwise: the
/// contract's `run_seconds`, which the contract's runner passes as
/// `--seconds` on every run.
const DEFAULT_SECONDS: f64 = 15.0;

/// Design builds per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Operations every run measures, however short `--seconds` is.
const MIN_OPS: usize = 3;

const USAGE: &str = "usage: yukta-benchmark --workload <fig09|resynth|serving|recorded> \
                     [--seed <u64>] [--seconds <n>] [--trace <0|1>]";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    kind: Kind,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> std::result::Result<Options, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                kind = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            // A bare `--trace` means `--trace 1`.
            "--trace" => {
                trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs one workload: set-up, the measured operations, then either the
/// end-to-end metrics or the traced run's per-layer metrics.
fn execute(
    opts: &Options,
    setup_reps: usize,
    min_ops: usize,
    build: &dyn Fn(&Inputs) -> Result<Design>,
) -> Outcome {
    let mut out = Outcome::default();
    out.line(format!(
        "# workload {} seed {} seconds {} trace {} threads {}",
        opts.kind.name(),
        opts.seed.map_or("paper".to_string(), |s| s.to_string()),
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ));
    let reps = if opts.trace { 1 } else { setup_reps };
    let inputs = Inputs::new(opts.seed);
    let pace = Pace::new();
    let Some((setup, builds)) = runs::set_up(opts.kind, inputs, reps, build, &pace, &mut out)
    else {
        return out;
    };
    let budget = Budget {
        seconds: opts.seconds,
        min_ops,
        pace: &pace,
    };
    let measured = runs::measure(opts.kind, &setup, &budget, &mut out);
    if opts.trace {
        trace::per_layer(opts.kind, &setup, &measured, &mut out);
    } else {
        // The raw wall times and the slowdown are printed beside the
        // paced metrics, so a reader can see how much the host moved.
        let ops = &measured.ops;
        let sensitivity = opts.kind.host_sensitivity();
        let op_wall: Vec<f64> = ops.iter().map(|p| p.wall_ms).collect();
        let slowdown: Vec<f64> = ops.iter().map(|p| p.slowdown).collect();
        let op_ms: Vec<f64> = ops.iter().map(|p| p.ms(sensitivity)).collect();
        let setup_wall: Vec<f64> = builds.iter().map(|p| p.wall_ms / 1e3).collect();
        let setup_s: Vec<f64> = builds.iter().map(|p| p.ms(host::SYNTHESIS) / 1e3).collect();
        out.line(stats::timing_line("op_wall_ms", "ms", &op_wall));
        out.line(stats::timing_line("host_slowdown", "x", &slowdown));
        out.timing("op_ms", "ms", &op_ms);
        out.line(stats::timing_line("setup_wall_s", "s", &setup_wall));
        out.timing("setup_s", "s", &setup_s);
        match measured.peak_rss_mb {
            Some(mb) => out.metric("peak_rss_mb", mb, "MB"),
            None => out.check(false, || "VmHWM not readable from /proc".to_string()),
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The crash-recovery runs crash on purpose through a panic the
    // runtime catches; keep those out of the log.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<InjectedCrash>().is_none() {
            default_hook(info);
        }
    }));
    let out = execute(&opts, SETUP_REPS, MIN_OPS, &program::build);
    for line in &out.lines {
        println!("{line}");
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use yukta_obs::json::{self, Json};

    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse(&args("--workload fig09 --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            o,
            Options {
                kind: Kind::Fig09,
                seed: Some(7),
                seconds: 10.0,
                trace: false
            }
        );
        let o = parse(&args("--trace --workload recorded")).unwrap();
        assert!(o.trace && o.seed.is_none() && o.seconds == DEFAULT_SECONDS);
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed 3")).is_err());
        assert!(parse(&args("--workload fig09 --seconds -1")).is_err());
        let run_seconds = contract_doc().get("run_seconds").and_then(Json::as_f64);
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS));
    }

    fn contract_doc() -> Json {
        json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn contract(section: &str) -> Vec<(String, String)> {
        contract_doc()
            .get(section)
            .and_then(Json::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    static DESIGN: OnceLock<Design> = OnceLock::new();

    fn shared_design(inputs: &Inputs) -> Result<Design> {
        Ok(DESIGN
            .get_or_init(|| program::build(inputs).expect("paper design builds"))
            .clone())
    }

    /// One operation per workload untraced, and the traced run of the
    /// serving workload (whose probe and ladder exercise every mirror
    /// stage), against one shared design build: every metric
    /// `BENCHMARK.json` names must be printed with its unit and be finite,
    /// and every output check must hold.
    #[test]
    fn every_workload_prints_every_contract_metric() {
        let runs = Kind::ALL
            .into_iter()
            .map(|kind| (kind, false, "end_to_end"))
            .chain([(Kind::Serving, true, "per_layer")]);
        for (kind, trace, section) in runs {
            let opts = Options {
                kind,
                seed: None,
                seconds: 0.0,
                trace,
            };
            let out = execute(&opts, 1, 1, &shared_design);
            assert!(out.correct(), "{kind:?} trace={trace}: {:?}", out.errors);
            let got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(got, contract(section), "{kind:?} trace={trace}");
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            let line = json::parse(&out.json()).expect("result line is JSON");
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        }
    }
}
