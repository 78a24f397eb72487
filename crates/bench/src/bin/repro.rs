//! Reproduction driver: regenerates the paper's tables and figures (and
//! the `fused` / `kernels` engine tables) as plain text.
//!
//! Usage:
//!   repro `<experiment-id>`... [--scale quick|default|full] [--seed N] [--list]
//!   repro all [--scale ...]

use msj_bench::{registry, ExpConfig, Scale};
use std::io::Write;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut cfg = ExpConfig::default();
    let mut list = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                cfg.scale = match args.get(i).map(String::as_str) {
                    Some("quick") => Scale::Quick,
                    Some("default") => Scale::Default,
                    Some("full") => Scale::Full,
                    other => {
                        eprintln!("unknown scale {other:?} (quick|default|full)");
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                i += 1;
                cfg.seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--list" => list = true,
            "--help" | "-h" => {
                print_help();
                return;
            }
            id => ids.push(id.to_string()),
        }
        i += 1;
    }

    let reg = registry();
    if list || ids.is_empty() {
        print_help();
        println!("\navailable experiments:");
        for e in &reg {
            println!("  {:<20} {}", e.id, e.description);
        }
        return;
    }

    let run_all = ids.iter().any(|id| id == "all");
    let selected: Vec<_> = if run_all {
        reg.iter().collect()
    } else {
        let mut sel = Vec::new();
        for id in &ids {
            match reg.iter().find(|e| e.id == *id) {
                Some(e) => sel.push(e),
                None => {
                    eprintln!("unknown experiment {id:?}; use --list");
                    std::process::exit(2);
                }
            }
        }
        sel
    };

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    writeln!(
        lock,
        "multi-step spatial join reproduction — seed {}, scale {:?}",
        cfg.seed, cfg.scale
    )
    .unwrap();
    for e in selected {
        let t0 = Instant::now();
        let report = (e.run)(&cfg);
        writeln!(lock, "{report}").unwrap();
        writeln!(lock, "[{} finished in {:.1?}]", e.id, t0.elapsed()).unwrap();
    }
}

fn print_help() {
    println!(
        "repro — regenerate the evaluation tables/figures of\n\
         \"Multi-Step Processing of Spatial Joins\" (SIGMOD 1994)\n\n\
         usage: repro <id>... [--scale quick|default|full] [--seed N]\n\
         \u{20}      repro all [--scale ...]\n\
         \u{20}      repro --list"
    );
}
