//! `perfbench` — the OA benchmark: two workloads, end-to-end metrics
//! from untraced runs and per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload libgen-cold|serve-steady --seed N \
//!           --seconds S --trace 0|1 --oa PATH [--out-dir DIR] [--tiny]
//! ```
//!
//! Normally launched through `perfbench/run.py`, which builds the `oa`
//! binary and this package first.  The last line of stdout is the
//! result object; the line before it records the run environment.

mod client;
mod host;
mod libgen;
mod report;
mod serve;
mod server;
mod stats;
mod trace;
mod traffic;

use oa_core::autotune::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub oa: PathBuf,
    pub out_dir: Option<PathBuf>,
    pub tiny: bool,
    pub threads: usize,
    pub commit: String,
}

pub const WORKLOADS: [&str; 2] = ["libgen-cold", "serve-steady"];

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut oa, mut out_dir) =
        (None, None, None, None, None, None);
    let mut tiny = false;
    let mut commit = "unknown".to_string();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    val()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                })
            }
            "--oa" => oa = Some(PathBuf::from(val()?)),
            "--out-dir" => out_dir = Some(PathBuf::from(val()?)),
            "--commit" => commit = val()?,
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        oa: oa.ok_or("--oa is required")?,
        out_dir,
        tiny,
        threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        commit,
    })
}

/// The run environment recorded with every result.
fn environment(args: &Args) -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    Json::Obj(BTreeMap::from([
        ("workload".to_string(), s(&args.workload)),
        ("seed".to_string(), Json::Int(args.seed as i64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("traced".to_string(), Json::Bool(args.trace)),
        (
            "engine".to_string(),
            s(oa_core::gpusim::select_engine().name()),
        ),
        ("server_threads".to_string(), Json::Int(args.threads as i64)),
        ("nproc".to_string(), Json::Int(args.threads as i64)),
        ("commit".to_string(), s(&args.commit)),
        (
            "oa_vars_cleared".to_string(),
            Json::Bool(server::oa_vars().is_empty()),
        ),
        (
            "cost_model_artifact".to_string(),
            Json::Bool(oa_core::autotune::model_path_from_env().is_some()),
        ),
        ("tiny".to_string(), Json::Bool(args.tiny)),
    ]))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // A run must end within 180 s: past 170 s, stop every server and
    // exit without a result.  Detached on purpose: a finished run exits
    // with the watchdog still asleep.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(170));
        eprintln!("perfbench: run exceeded 170 s; stopping");
        server::kill_all();
        std::process::exit(1);
    });
    if !server::oa_vars().is_empty() {
        eprintln!(
            "perfbench: clear every OA_* variable first: {:?}",
            server::oa_vars()
        );
        std::process::exit(2);
    }
    let res = match args.workload.as_str() {
        "libgen-cold" => libgen::run(&args),
        _ => serve::run(&args),
    };
    let out = match res {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for p in out.problems.iter().take(20) {
        eprintln!("perfbench: FAILED: {p}");
    }
    let line = match out.result_line(args.trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut detail = out.detail.clone();
    detail.insert("env".to_string(), environment(&args));
    println!("{}", Json::Obj(detail).compact());
    println!("{line}");
}
