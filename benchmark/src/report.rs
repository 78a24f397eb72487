//! `all`: every workload in its own child process, collected into one
//! run set. `compare`: two run sets held against each metric's bound.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

pub const RUN_SET_SCHEMA: &str = "msj-benchmark-runs-v1";

pub struct AllArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced_seconds: f64,
    pub repeat: usize,
    pub scale: f64,
    pub out_dir: PathBuf,
    pub out: Option<PathBuf>,
}

/// One child run; returns the `detail` record it printed.
fn run_child(
    workload: Workload,
    trace: bool,
    seconds: f64,
    args: &AllArgs,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &args.scale.to_string()])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|line| line.strip_prefix("detail "))
        .ok_or_else(|| {
            format!(
                "{} (trace {}) printed no result and exited with {}",
                workload.name(),
                u8::from(trace),
                output.status
            )
        })?;
    Json::parse(detail)
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// A workload's end-to-end (`traced == false`) or traced runs.
fn runs_of<'a>(
    runs: &'a [Json],
    workload: &'a str,
    traced: bool,
) -> impl Iterator<Item = &'a Json> + 'a {
    let trace = f64::from(u8::from(traced));
    runs.iter().filter(move |run| {
        run.get("workload").and_then(Json::as_str) == Some(workload)
            && run.get("trace").and_then(Json::as_f64) == Some(trace)
    })
}

/// The values of one end-to-end metric over a workload's untraced runs.
fn values_of(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs_of(runs, workload, false)
        .filter_map(|run| metric_value(run, metric))
        .collect()
}

pub fn all(args: &AllArgs) -> Result<(), String> {
    let mut runs = Vec::new();
    for rep in 0..args.repeat {
        for workload in Workload::ALL {
            eprintln!(
                "[{}/{}] {} for {} s",
                rep + 1,
                args.repeat,
                workload.name(),
                args.seconds
            );
            runs.push(run_child(workload, false, args.seconds, args)?);
        }
    }
    for workload in Workload::ALL {
        eprintln!("[traced] {} for {} s", workload.name(), args.traced_seconds);
        runs.push(run_child(workload, true, args.traced_seconds, args)?);
    }

    let mut failed = false;
    for workload in Workload::ALL {
        let name = workload.name();
        println!("\n== {name} ==");
        println!(
            "op = {}; rare_op = {}",
            workload.ops().op,
            workload.ops().rare_op
        );
        for run in runs_of(&runs, name, false).take(1) {
            if let Some(digest) = run.get("response_digest").and_then(Json::as_str) {
                println!("response_digest {digest}");
            }
        }
        for run in runs_of(&runs, name, false).chain(runs_of(&runs, name, true)) {
            let share = run.get("failed").and_then(Json::as_f64).unwrap_or(1.0)
                / run.get("attempted").and_then(Json::as_f64).unwrap_or(1.0);
            if share != 0.0 || run.get("correct").and_then(Json::as_bool) != Some(true) {
                println!("FAILED run: failed_share {share}");
                failed = true;
            }
        }
        println!(
            "end to end ({} runs): median [quartile spread]",
            args.repeat
        );
        for def in END_TO_END {
            let values = values_of(&runs, name, def.name);
            println!(
                "  {:<18} {:>14.4} {:<5} [{:.1} %]",
                def.name,
                median(&values),
                def.unit,
                quartile_spread(&values) * 100.0
            );
        }
        println!("per layer (traced pass):");
        for run in runs_of(&runs, name, true) {
            for def in PER_LAYER {
                let samples = run
                    .get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("samples"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                println!(
                    "  {:<36} {:>16.4} {:<8} n={}",
                    def.name,
                    metric_value(run, def.name).unwrap_or(f64::NAN),
                    def.unit,
                    samples
                );
            }
        }
    }

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| args.out_dir.join("runs.json"));
    let set = Json::obj([
        ("schema", Json::str(RUN_SET_SCHEMA)),
        ("runs", Json::Arr(runs)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, set.render()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nrun set written to {}", out.display());
    if failed {
        return Err("at least one run reported failed operations".into());
    }
    Ok(())
}

fn load_runs(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if json.get("schema").and_then(Json::as_str) != Some(RUN_SET_SCHEMA) {
        return Err(format!("{}: not a {RUN_SET_SCHEMA} file", path.display()));
    }
    Ok(json
        .get("runs")
        .map(|runs| runs.as_arr().to_vec())
        .unwrap_or_default())
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn load_bounds(spec: &Path) -> Result<Vec<(String, Better, f64)>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    json.get("end_to_end")
        .ok_or_else(|| format!("{}: no end_to_end list", spec.display()))?
        .as_arr()
        .iter()
        .map(|metric| {
            let name = metric.get("name").and_then(Json::as_str);
            let better = match metric.get("better").and_then(Json::as_str) {
                Some("lower") => Some(Better::Lower),
                Some("higher") => Some(Better::Higher),
                _ => None,
            };
            let bound = metric.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok((name.to_string(), better, bound)),
                _ => Err(format!("{}: malformed end_to_end entry", spec.display())),
            }
        })
        .collect()
}

/// `(seed, response_digest)` of each of a workload's untraced runs.
fn digests(runs: &[Json], workload: &str) -> Vec<(u64, String)> {
    runs_of(runs, workload, false)
        .filter_map(|run| {
            Some((
                run.get("fingerprint")?.get("seed")?.as_f64()? as u64,
                run.get("response_digest")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// Applies each metric's own bound to each (metric, workload) row.
/// `Ok(true)` when no row regressed and every digest agrees.
pub fn compare(old: &Path, new: &Path, spec: &Path) -> Result<bool, String> {
    let (old_runs, new_runs) = (load_runs(old)?, load_runs(new)?);
    let bounds = load_bounds(spec)?;
    let mut problems = Vec::new();
    println!(
        "{:<18} {:<18} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "old median", "new median", "new/old", "spread", "bound"
    );
    for workload in Workload::ALL {
        let name = workload.name();
        // Equal seeds must give equal answers, within and across the sets.
        let (before, after) = (digests(&old_runs, name), digests(&new_runs, name));
        if !before
            .iter()
            .any(|(seed, _)| after.iter().any(|(s, _)| s == seed))
        {
            problems.push(format!(
                "{name}: no seed in common, response_digest cannot be compared"
            ));
        }
        let mut by_seed: BTreeMap<u64, &str> = BTreeMap::new();
        for (seed, digest) in before.iter().chain(&after) {
            if *by_seed.entry(*seed).or_insert(digest) != digest.as_str() {
                problems.push(format!("response_digest differs on {name} at seed {seed}"));
                break;
            }
        }
        for run in new_runs
            .iter()
            .filter(|run| run.get("workload").and_then(Json::as_str) == Some(name))
        {
            if run.get("failed").and_then(Json::as_f64) != Some(0.0) {
                problems.push(format!("failed operations on {name}"));
                break;
            }
        }

        for (metric, better, bound) in &bounds {
            let before = values_of(&old_runs, name, metric);
            let after = values_of(&new_runs, name, metric);
            if before.is_empty() || after.is_empty() {
                problems.push(format!("{metric} on {name}: missing from a run set"));
                continue;
            }
            let (base, now) = (median(&before), median(&after));
            let worse_by = match better {
                Better::Lower => (now - base) / base,
                Better::Higher => (base - now) / base,
            };
            let spread = quartile_spread(&before).max(quartile_spread(&after));
            let verdict = if worse_by > *bound {
                problems.push(format!(
                    "{metric} on {name} is worse by {:.1} % (bound {:.0} %, base {base})",
                    worse_by * 100.0,
                    bound * 100.0
                ));
                "REGRESSED"
            } else if spread > *bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{name:<18} {metric:<18} {base:>12.4} {now:>12.4} {:>8.3} {:>7.1}% {:>6.0}%  {verdict}",
                now / base,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    for problem in &problems {
        println!("FAIL: {problem}");
    }
    Ok(problems.is_empty())
}
