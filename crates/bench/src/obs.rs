//! Opt-in telemetry capture for the harness binaries.
//!
//! Every binary under `src/bin/` but `obs_report` calls [`capture`] (or,
//! when `--obs` is its only argument, [`capture_obs_only`]) as the first
//! statement of `main`. With `--obs` on the command line (or
//! `YUKTA_OBS=1` in the environment) it installs a process-global
//! in-memory recorder *before* any instrumented work runs — crucially before
//! `yukta_core::design::default_design()` caches the synthesis telemetry —
//! and returns a guard that, on drop, exports
//! `results/obs_<name>.jsonl` (JSONL wire format, stamped with a
//! versioned run-metadata header) and `results/obs_<name>_chrome.json`
//! (Chrome `trace_event`, loadable in `chrome://tracing` / Perfetto) and
//! prints the per-phase breakdown.
//!
//! Without the flag it does nothing: the no-op recorder stays installed
//! and runs stay bit-identical to uninstrumented ones.

use yukta_obs::export::{RunMeta, to_chrome_trace, to_jsonl_with_meta};
use yukta_obs::mem::MemRecorder;
use yukta_obs::report::{render, summarize};

use crate::write_results;

/// Guard returned by [`capture`]; exports the collected telemetry on drop.
pub struct ObsScope {
    rec: Option<(&'static MemRecorder, &'static str)>,
    meta: RunMeta,
}

impl Drop for ObsScope {
    fn drop(&mut self) {
        if let Some((rec, name)) = self.rec.take() {
            let snap = rec.snapshot();
            let jsonl = to_jsonl_with_meta(&snap, &self.meta);
            write_results(&format!("obs_{name}.jsonl"), &jsonl);
            write_results(&format!("obs_{name}_chrome.json"), &to_chrome_trace(&snap));
            match summarize(&jsonl) {
                Ok(sum) => println!("\n== telemetry: {name} ==\n{}", render(&sum)),
                Err(e) => eprintln!("[obs] summary failed: {e}"),
            }
        }
    }
}

/// Whether telemetry capture was requested for this process.
fn requested() -> bool {
    std::env::args().any(|a| a == "--obs")
        || std::env::var("YUKTA_OBS").is_ok_and(|v| v == "1" || v == "true")
}

/// Installs the process-global recorder when capture was requested. The
/// export's run-metadata header carries `quick`: whether the binary ran
/// its check-only `--quick` mode.
///
/// The recorder is intentionally leaked: [`yukta_obs::install`] requires a
/// `'static` borrow, and exactly one is ever created per process.
pub fn capture(name: &'static str, quick: bool) -> ObsScope {
    let meta = RunMeta::new(0, name, quick);
    if !requested() {
        return ObsScope { rec: None, meta };
    }
    let rec: &'static MemRecorder = Box::leak(Box::new(MemRecorder::new()));
    if !yukta_obs::install(rec) {
        eprintln!("[obs] a global recorder is already installed; capture skipped");
        return ObsScope { rec: None, meta };
    }
    println!("[obs] capturing telemetry -> results/obs_{name}.jsonl");
    ObsScope {
        rec: Some((rec, name)),
        meta,
    }
}

/// [`capture`] for a binary that takes no argument but `--obs`: any other
/// argument prints a usage error and exits with code 2, so a mistyped or
/// retired flag fails instead of being silently ignored.
pub fn capture_obs_only(name: &'static str) -> ObsScope {
    if let Some(arg) = unexpected_arg(std::env::args().skip(1)) {
        eprintln!("{name}: unexpected argument `{arg}`\nusage: {name} [--obs]");
        std::process::exit(2);
    }
    capture(name, false)
}

/// The first argument other than `--obs`, if any.
fn unexpected_arg(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|a| a != "--obs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_obs_is_accepted() {
        let args = |v: &[&str]| v.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(unexpected_arg(args(&[])), None);
        assert_eq!(unexpected_arg(args(&["--obs"])), None);
        assert_eq!(
            unexpected_arg(args(&["--obs", "--quick"])),
            Some("--quick".to_string())
        );
        assert_eq!(unexpected_arg(args(&["fig09"])), Some("fig09".to_string()));
    }
}
