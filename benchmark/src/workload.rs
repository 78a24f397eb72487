//! The four workloads: their names, why each exists, and the inputs
//! `msj-datagen` makes for them from the seed. The engine sees only
//! these generated inputs, never the seed.

use msj_core::{DatasetId, Request};
use msj_datagen::{generate_relation, BlobParams, LayoutParams};
use msj_geom::{Point, Rect, Relation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    JoinRefineHeavy,
    JoinFilterHeavy,
    IngestReopen,
    WireMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::JoinRefineHeavy,
        Workload::JoinFilterHeavy,
        Workload::IngestReopen,
        Workload::WireMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::JoinRefineHeavy => "join_refine_heavy",
            Workload::JoinFilterHeavy => "join_filter_heavy",
            Workload::IngestReopen => "ingest_reopen",
            Workload::WireMixed => "wire_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What `op` and `rare_op` are on this workload, the spans the
    /// traced pass records for them, and which percentile `op_ms_tail`
    /// is (fixed per workload, so the metric keeps its meaning when a
    /// change moves the sample count).
    pub fn ops(self) -> OpNames {
        match self {
            Workload::JoinRefineHeavy | Workload::JoinFilterHeavy => OpNames {
                op: "warm join (join_ms)",
                rare_op: "prepare_join + first join after register (cold join)",
                op_span: "core.join",
                rare_op_spans: &["core.prepare", "core.first_join"],
                tail: ("p90", 0.90),
            },
            Workload::IngestReopen => OpNames {
                op: "SpatialEngine::open (cold_open_ms)",
                rare_op: "register with write-through persist (register_ms)",
                op_span: "store.open",
                rare_op_spans: &["store.register"],
                tail: ("p90", 0.90),
            },
            Workload::WireMixed => OpNames {
                op: "wire point/window probe, send to reply (wire_probe)",
                rare_op: "wire join, send to reply (wire_join_ms)",
                op_span: "wire.probe",
                rare_op_spans: &["wire.join"],
                tail: ("p99", 0.99),
            },
        }
    }
}

pub struct OpNames {
    pub op: &'static str,
    pub rare_op: &'static str,
    pub op_span: &'static str,
    /// The rare operation is the sum of these spans' medians.
    pub rare_op_spans: &'static [&'static str],
    pub tail: (&'static str, f64),
}

/// The generated relations of one workload. `a` ⋈ `b` is the join pair;
/// point and window probes hit `probe` (which may be `a` itself).
pub struct Inputs {
    pub a: Arc<Relation>,
    pub b: Arc<Relation>,
    pub probe: Arc<Relation>,
}

impl Inputs {
    pub fn probe_is_a(&self) -> bool {
        Arc::ptr_eq(&self.a, &self.probe)
    }
}

fn scaled(count: usize, scale: f64) -> usize {
    ((count as f64 * scale).round() as usize).max(40)
}

/// 60,000 small near-convex parcels: the raster filter decides ~95 % of
/// their candidate pairs, so little reaches Step 3.
fn parcels(count: usize, seed: u64) -> Relation {
    let params = LayoutParams {
        world: msj_datagen::world(),
        count,
        vertices_mu_ln: 6f64.ln(),
        vertices_sigma_ln: 0.2,
        vertices_min: 4,
        vertices_max: 10,
        radius_frac: 0.15,
        shape: BlobParams {
            lobe_amp: 0.05,
            mid_amp: 0.0,
            rough_amp: 0.0,
            spikes: 0,
            spike_amp: 0.0,
            max_elongation: 1.3,
            ..BlobParams::default()
        },
    };
    generate_relation(&mut StdRng::seed_from_u64(seed), &params)
}

/// 2,000 large overlapping regions laid over the parcels.
fn regions(count: usize, seed: u64) -> Relation {
    let params = LayoutParams {
        world: msj_datagen::world(),
        count,
        vertices_mu_ln: 24f64.ln(),
        vertices_sigma_ln: 0.5,
        vertices_min: 8,
        vertices_max: 100,
        radius_frac: 0.6,
        shape: BlobParams::default(),
    };
    generate_relation(&mut StdRng::seed_from_u64(seed), &params)
}

/// `scale` multiplies every object count (1.0 in every measured run;
/// the smoke test shrinks it).
pub fn generate(workload: Workload, seed: u64, scale: f64) -> Inputs {
    let n = |count| scaled(count, scale);
    match workload {
        Workload::JoinRefineHeavy => {
            let a = Arc::new(msj_datagen::skewed_carto(n(10_000), 24.0, seed));
            let b = Arc::new(msj_datagen::skewed_carto(n(10_000), 24.0, seed + 1));
            Inputs {
                probe: a.clone(),
                a,
                b,
            }
        }
        Workload::JoinFilterHeavy => {
            let a = Arc::new(parcels(n(60_000), seed));
            let b = Arc::new(regions(n(2_000), seed + 1));
            Inputs {
                probe: a.clone(),
                a,
                b,
            }
        }
        // The untimed-by-spans run ingests only `a`; `b` exists so the
        // traced pass can run the join layers on this workload's data.
        Workload::IngestReopen => {
            let a = Arc::new(msj_datagen::small_carto(n(2_000), 40.0, seed));
            let b = Arc::new(msj_datagen::small_carto(n(2_000), 40.0, seed + 1));
            Inputs {
                probe: a.clone(),
                a,
                b,
            }
        }
        Workload::WireMixed => Inputs {
            probe: Arc::new(msj_datagen::small_carto(n(10_000), 24.0, seed)),
            a: Arc::new(msj_datagen::small_carto(n(400), 12.0, seed + 1)),
            b: Arc::new(msj_datagen::small_carto(n(400), 12.0, seed + 2)),
        },
    }
}

pub const POINT_POOL: usize = 4096;
pub const WINDOW_POOL: usize = 1024;

/// The seeded pool of probe requests the wire and in-process loops draw
/// from. A fixed pool lets every reply be checked against one in-process
/// answer per distinct request, computed after the measured phase.
pub struct ProbePool {
    pub points: Vec<(f64, f64)>,
    /// `[xmin, ymin, xmax, ymax]`, each covering 2 % of the world.
    pub windows: Vec<[f64; 4]>,
}

impl ProbePool {
    /// Point probe `i` of the pool (indices wrap), against `dataset`.
    pub fn point_request(&self, dataset: DatasetId, i: usize) -> Request {
        let (x, y) = self.points[i % POINT_POOL];
        Request::Point {
            dataset,
            point: Point::new(x, y),
        }
    }

    /// Window probe `i` of the pool (indices wrap), against `dataset`.
    pub fn window_request(&self, dataset: DatasetId, i: usize) -> Request {
        let w = self.windows[i % WINDOW_POOL];
        Request::Window {
            dataset,
            window: Rect::from_bounds(w[0], w[1], w[2], w[3]),
        }
    }
}

pub fn probe_pool(seed: u64) -> ProbePool {
    let world = msj_datagen::world();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70_72_6f_62_65);
    let points = (0..POINT_POOL)
        .map(|_| {
            (
                rng.gen_range(world.xmin()..world.xmin() + world.width()),
                rng.gen_range(world.ymin()..world.ymin() + world.height()),
            )
        })
        .collect();
    let side = 0.02f64.sqrt();
    let (w, h) = (world.width() * side, world.height() * side);
    let windows = (0..WINDOW_POOL)
        .map(|_| {
            let x = rng.gen_range(world.xmin()..world.xmin() + world.width() - w);
            let y = rng.gen_range(world.ymin()..world.ymin() + world.height() - h);
            [x, y, x + w, y + h]
        })
        .collect();
    ProbePool { points, windows }
}
