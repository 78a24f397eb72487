//! Persistence: the Step-0 artifact store, end to end.
//!
//! Walks the `msj-store` lifecycle on one workload:
//!
//! * **write-through** — registering datasets on a store-armed engine
//!   serializes every Step-0 artifact (R*-tree arena, approximation
//!   columns, TR* representations) into page-aligned, per-section
//!   checksummed segment files; the first join adds the pair's
//!   raster signatures;
//! * **cold start** — the engine is dropped and reopened with
//!   `SpatialEngine::open`: artifacts come back from the segments with
//!   zero re-parsing, and every request answers byte-identically
//!   (asserted — the example exits non-zero on divergence);
//! * **eviction** — an undersized residency byte-budget keeps evicting
//!   cold datasets; touches reload from disk and still answer
//!   identically while `msj_store_evictions_total` climbs;
//! * the closing Prometheus exposition carries the store families.
//!
//! ```text
//! cargo run --release --example persist
//! ```

use msj::core::{JoinConfig, Request, Response, SpatialEngine, StoreConfig};

fn run(engine: &SpatialEngine, requests: &[Request]) -> Vec<Vec<u64>> {
    engine
        .submit_batch(requests.iter().cloned())
        .into_iter()
        .map(|r| match r.expect("request failed") {
            Response::Join(join) => join
                .pairs
                .into_iter()
                .map(|(x, y)| (u64::from(x) << 32) | u64::from(y))
                .collect(),
            Response::Selection(sel) => sel.ids.into_iter().map(u64::from).collect(),
        })
        .collect()
}

fn main() {
    let dir = std::env::temp_dir().join(format!("msj-example-persist-{}", std::process::id()));
    let a = msj::datagen::small_carto(400, 32.0, 5);
    let b = msj::datagen::small_carto(400, 32.0, 6);
    let config = JoinConfig::default();
    let point = a.iter().nth(9).expect("relation").mbr().center();
    let requests = [
        Request::Join {
            a: 0,
            b: 1,
            execution: None,
        },
        Request::Point { dataset: 0, point },
    ];

    // 1. Write-through registration + the reference answers.
    let reference = {
        let engine = SpatialEngine::new(config)
            .with_store(StoreConfig::new(&dir))
            .expect("arm store");
        engine.register(a.clone());
        engine.register(b.clone());
        let reference = run(&engine, &requests);
        println!(
            "registered 2 datasets through {:?}; segments on disk:",
            dir.file_name().expect("dir name")
        );
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("store dir")
            .map(|e| {
                let e = e.expect("dir entry");
                format!(
                    "  {} ({} B)",
                    e.file_name().to_string_lossy(),
                    e.metadata().map_or(0, |m| m.len())
                )
            })
            .collect();
        names.sort();
        println!("{}", names.join("\n"));
        reference
    }; // engine dropped — only the segment files survive

    // 2. Cold start: identical answers from the persisted segments.
    let reopened = SpatialEngine::open(config, StoreConfig::new(&dir)).expect("cold start");
    assert_eq!(reopened.num_datasets(), 2, "both datasets restored");
    let cold = run(&reopened, &requests);
    assert_eq!(cold, reference, "cold start changed answers");
    println!(
        "\ncold start restored both datasets: {} join pairs, {} point hits — identical",
        cold[0].len(),
        cold[1].len()
    );
    drop(reopened);

    // 3. Undersized byte budget: every touch evicts and reloads, and the
    // answers never change.
    let squeezed = SpatialEngine::open(config, StoreConfig::new(&dir).with_byte_budget(4096))
        .expect("open with budget");
    for round in 0..3 {
        let again = run(&squeezed, &requests);
        assert_eq!(again, reference, "eviction round {round} changed answers");
    }
    let prom = squeezed.metrics().render_prometheus();
    let evictions = prom
        .lines()
        .find_map(|l| l.strip_prefix("msj_store_evictions_total "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("evictions counter");
    assert!(evictions > 0, "undersized budget never evicted");
    println!("undersized 4 KiB budget served 3 rounds correctly ({evictions} evictions)");

    // 4. The store families are on the scrape.
    println!("\n=== Prometheus exposition (store families) ===");
    for line in prom.lines().filter(|l| {
        [
            "msj_store_bytes",
            "msj_store_load_nanos_count",
            "msj_store_evictions_total",
            "msj_store_checksum_failures_total",
        ]
        .iter()
        .any(|f| l.contains(f))
    }) {
        println!("{line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
