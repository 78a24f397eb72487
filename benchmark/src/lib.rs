//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! msj-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line last
//! msj-benchmark all [--seed N] [--seconds S] [--traced-seconds T] [--repeat R] [--out FILE]
//! msj-benchmark compare OLD.json NEW.json [--spec BENCHMARK.json]
//! ```

mod endtoend;
mod host;
pub mod json;
mod layers;
mod loops;
pub mod metrics;
mod pin;
mod report;
mod stats;
mod trace;
pub mod workload;

use json::Json;
use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

const USAGE: &str = "usage:
  msj-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>] [--out-dir <dir>]
  msj-benchmark all [--seed <n>] [--seconds <s>] [--traced-seconds <s>] [--repeat <n>] [--scale <f>] [--out-dir <dir>] [--out <file>]
  msj-benchmark compare <old.json> <new.json> [--spec <BENCHMARK.json>]
workloads: join_refine_heavy join_filter_heavy ingest_reopen wire_mixed";

/// `--flag value` pairs after the positional arguments.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.iter().rev().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, value)) => value
                .parse()
                .map_err(|_| format!("--{name}: cannot read {value}")),
        }
    }

    fn known(&self, names: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !names.contains(&n.as_str())) {
            Some((name, _)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }
}

/// The commit checked out in the working directory, read from `.git`
/// without starting a process; `unknown` outside a repository.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// What a result depends on besides the code.
fn fingerprint(
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
    nproc: usize,
    pinned: Option<usize>,
) -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "pinned_cpu",
            pinned.map_or(Json::Null, |cpu| Json::Num(cpu as f64)),
        ),
        (
            "kernel_dispatch",
            Json::str(format!(
                "{:?}",
                msj_core::JoinConfig::default().kernel_dispatch()
            )),
        ),
        (
            "msj_force_scalar",
            std::env::var("MSJ_FORCE_SCALAR").map_or(Json::Null, Json::str),
        ),
        ("build_profile", Json::str("release")),
        ("git_commit", Json::str(git_commit())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("scale", Json::Num(scale)),
        ("trace", Json::Bool(trace)),
    ])
}

fn run_one(flags: &Flags) -> Result<ExitCode, String> {
    flags.known(&["workload", "seed", "seconds", "trace", "scale", "out-dir"])?;
    let name: String = flags.get("workload", String::new())?;
    let workload =
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))?;
    let seed: u64 = flags.get("seed", 1)?;
    let seconds: f64 = flags.get("seconds", 15.0)?;
    let scale: f64 = flags.get("scale", 1.0)?;
    let trace = match flags.get("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace: {other} is neither 0 nor 1")),
    };
    if !(seconds > 0.0 && seconds <= 600.0 && scale > 0.0 && scale <= 1.0) {
        return Err("--seconds must be in (0, 600] and --scale in (0, 1]".into());
    }
    let out_dir: PathBuf = flags.get("out-dir", PathBuf::from("benchmark/out"))?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = pin::pin_to_one_cpu();
    let print = fingerprint(seed, seconds, scale, trace, nproc, pinned);
    println!(
        "workload {} ({})",
        workload.name(),
        if trace { "traced pass" } else { "end to end" }
    );
    println!("fingerprint {}", print.render());
    let (outcome, defs): (Outcome, _) = if trace {
        (
            layers::run(workload, seed, seconds, scale, &out_dir),
            PER_LAYER,
        )
    } else {
        (
            endtoend::run(workload, seed, seconds, scale, &out_dir),
            END_TO_END,
        )
    };

    let correct = outcome.failed == 0
        && outcome.attempted > 0
        && outcome.metrics.iter().all(|m| m.value.is_finite());
    println!("response_digest {:016x}", outcome.response_digest);
    println!(
        "failed_share {} ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    let mut contract = Vec::new();
    let mut detail = Vec::new();
    for def in defs {
        let measured = outcome
            .metrics
            .iter()
            .find(|m| m.name == def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        println!(
            "{:<36} {:>16.4} {:<8} better {:<6} n={}",
            def.name,
            measured.value,
            def.unit,
            def.better.label(),
            measured.samples
        );
        contract.push((
            def.name,
            Json::obj([
                ("value", Json::Num(measured.value)),
                ("unit", Json::str(def.unit)),
            ]),
        ));
        detail.push((
            def.name,
            Json::obj([
                ("value", Json::Num(measured.value)),
                ("unit", Json::str(def.unit)),
                ("samples", Json::Num(measured.samples as f64)),
            ]),
        ));
    }
    let head = |metrics| {
        vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ]
    };
    let mut record = vec![
        ("workload", Json::str(workload.name())),
        ("trace", Json::Num(f64::from(u8::from(trace)))),
        ("fingerprint", print),
        (
            "response_digest",
            Json::str(format!("{:016x}", outcome.response_digest)),
        ),
        (
            "as_measured",
            Json::obj(
                outcome
                    .as_measured
                    .iter()
                    .map(|&(name, value)| (name, Json::Num(value))),
            ),
        ),
    ];
    record.extend(head(detail));
    println!("detail {}", Json::obj(record).render());
    println!("{}", Json::obj(head(contract)).render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("all") => {
            let flags = Flags::parse(&args[1..])?;
            flags.known(&[
                "seed",
                "seconds",
                "traced-seconds",
                "repeat",
                "scale",
                "out-dir",
                "out",
            ])?;
            let out: String = flags.get("out", String::new())?;
            report::all(&report::AllArgs {
                seed: flags.get("seed", 1)?,
                seconds: flags.get("seconds", 15.0)?,
                traced_seconds: flags.get("traced-seconds", 10.0)?,
                repeat: flags.get("repeat", 1usize)?.max(1),
                scale: flags.get("scale", 1.0)?,
                out_dir: flags.get("out-dir", PathBuf::from("benchmark/out"))?,
                out: (!out.is_empty()).then(|| PathBuf::from(out)),
            })?;
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let (Some(old), Some(new)) = (args.get(1), args.get(2)) else {
                return Err(format!("compare needs two run sets\n{USAGE}"));
            };
            let flags = Flags::parse(&args[3..])?;
            flags.known(&["spec"])?;
            let spec: PathBuf = flags.get("spec", PathBuf::from("BENCHMARK.json"))?;
            Ok(if report::compare(Path::new(old), Path::new(new), &spec)? {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some(_) => run_one(&Flags::parse(args)?),
    }
}

/// The command line; the binary is only this call.
pub fn main() -> ExitCode {
    // A debug build is 10-50x slower in the measured code and would be
    // recorded as a regression of the same size.
    if cfg!(debug_assertions) {
        eprintln!("msj-benchmark refuses to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("msj-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
