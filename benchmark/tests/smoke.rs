//! A reduced-size run of the real command: what `BENCHMARK.json` promises
//! is what the benchmark prints, nothing fails, and a run set passes
//! `compare` against itself.

use msj_benchmark::json::Json;
use msj_benchmark::metrics::{END_TO_END, PER_LAYER};
use msj_benchmark::workload::Workload;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn spec() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `BENCHMARK.json`'s command with `args` appended, from the repository
/// root; returns its standard output.
fn run_command(spec: &Json, args: &[&str]) -> String {
    let command: Vec<&str> = spec
        .get("command")
        .expect("command")
        .as_arr()
        .iter()
        .map(|part| part.as_str().expect("command parts are strings"))
        .collect();
    let output = Command::new(command[0])
        .args(&command[1..])
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark command starts");
    assert!(
        output.status.success(),
        "{args:?} exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("UTF-8 output")
}

fn names(spec: &Json, list: &str) -> Vec<String> {
    spec.get(list)
        .unwrap_or_else(|| panic!("{list} in BENCHMARK.json"))
        .as_arr()
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn well_formed(text: &str, extra: &str) -> bool {
    !text.is_empty()
        && text
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
}

#[test]
fn spec_and_code_list_the_same_names() {
    let spec = spec();
    let code = |defs: &[msj_benchmark::metrics::MetricDef]| {
        defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>()
    };
    assert_eq!(names(&spec, "end_to_end"), code(END_TO_END));
    assert_eq!(names(&spec, "per_layer"), code(PER_LAYER));
    assert_eq!(
        names(&spec, "workloads"),
        Workload::ALL.map(|w| w.name().to_string())
    );
    for list in ["end_to_end", "per_layer"] {
        for entry in spec.get(list).unwrap().as_arr() {
            let name = entry.get("name").and_then(Json::as_str).unwrap();
            let def = END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|d| d.name == name)
                .unwrap();
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{name}"
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(def.better.label()),
                "{name}"
            );
            assert!(
                well_formed(name, "") && well_formed(def.unit, "/%"),
                "{name}"
            );
        }
    }
    assert!(names(&spec, "end_to_end").contains(&"setup_s".to_string()));
}

#[test]
fn reduced_run_emits_exactly_the_promised_metrics() {
    let spec = spec();
    let out = repo_root().join("benchmark/out/smoke");
    let out_dir = out.to_str().expect("UTF-8 path");

    // The driver's invocation, once per trace value: the last line is one
    // JSON object with exactly the contract's keys.
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = run_command(
            &spec,
            &[
                "--workload",
                "wire_mixed",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--scale",
                "0.05",
                "--out-dir",
                out_dir,
            ],
        );
        let last = Json::parse(stdout.lines().last().expect("a last line")).expect("JSON");
        let Json::Obj(fields) = &last else {
            panic!("the last line is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(last.get("failed"), Some(&Json::Num(0.0)));
        assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let Some(Json::Obj(metrics)) = last.get("metrics") else {
            panic!("metrics is not an object")
        };
        let emitted: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(emitted, names(&spec, list), "trace {trace}");
        for (name, metric) in metrics {
            assert!(
                metric.get("value").and_then(Json::as_f64).is_some(),
                "{name}"
            );
            assert!(well_formed(
                metric.get("unit").and_then(Json::as_str).unwrap(),
                "/%"
            ));
        }
    }

    // Every workload, both passes, through `all`; then the run set
    // against itself.
    let runs = out.join("runs.json");
    let runs_path = runs.to_str().expect("UTF-8 path");
    run_command(
        &spec,
        &[
            "all",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--traced-seconds",
            "1",
            "--repeat",
            "2",
            "--scale",
            "0.05",
            "--out-dir",
            out_dir,
            "--out",
            runs_path,
        ],
    );
    let set = Json::parse(&std::fs::read_to_string(&runs).expect("run set")).expect("JSON");
    let recorded = set.get("runs").expect("runs").as_arr();
    assert_eq!(recorded.len(), Workload::ALL.len() * 3);
    for run in recorded {
        let traced = run.get("trace").and_then(Json::as_f64) == Some(1.0);
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            panic!("metrics is not an object")
        };
        let emitted: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            emitted,
            names(&spec, if traced { "per_layer" } else { "end_to_end" })
        );
        assert_eq!(run.get("failed"), Some(&Json::Num(0.0)));
        assert!(run
            .get("fingerprint")
            .and_then(|f| f.get("git_commit"))
            .is_some());
    }
    run_command(&spec, &["compare", runs_path, runs_path]);
    std::fs::remove_dir_all(&out).ok();
}
