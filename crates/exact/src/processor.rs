//! The exact geometry processor: a uniform front-end over the three
//! algorithms compared in §4.3.

use crate::cost::OpCounts;
use crate::quadratic::quadratic_intersects;
use crate::sweep::sweep_intersects;
use crate::trstar::{trees_intersect, TrStarColumns, TrStarStore};
use msj_geom::{ObjectId, RelHandle, Relation};
use std::sync::Arc;

/// Which exact intersection algorithm to run (Table 7's three rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactAlgorithm {
    /// Brute-force all-pairs edge test.
    Quadratic,
    /// Shamos–Hoey plane sweep; `restrict` enables the search-space
    /// restriction to the MBR intersection window (§4.1).
    PlaneSweep { restrict: bool },
    /// TR*-tree dual traversal with node capacity `max_entries` (§4.2).
    TrStar { max_entries: usize },
}

impl ExactAlgorithm {
    pub fn name(&self) -> String {
        match self {
            ExactAlgorithm::Quadratic => "quadratic".into(),
            ExactAlgorithm::PlaneSweep { restrict: true } => "plane-sweep".into(),
            ExactAlgorithm::PlaneSweep { restrict: false } => "plane-sweep (no restrict)".into(),
            ExactAlgorithm::TrStar { max_entries } => format!("TR*-tree (M={max_entries})"),
        }
    }
}

/// Prepared per-relation state for the exact step.
///
/// The TR*-tree algorithm shifts work to preprocessing ("time and storage
/// is invested in the representation of the spatial objects", §4.2): trees
/// are built once per relation and reused for every candidate pair. The
/// stores sit behind [`Arc`] so a resident engine can build them once per
/// registered dataset and share them across every prepared join. A
/// processor holds what its algorithm reads and nothing else: the two
/// TR* arenas, or the two relations (through [`RelHandle`], so an
/// `ExactProcessor<'static>` owns its inputs outright).
pub struct ExactProcessor<'a> {
    algorithm: ExactAlgorithm,
    inputs: Inputs<'a>,
}

enum Inputs<'a> {
    Relations(RelHandle<'a>, RelHandle<'a>),
    Trees(Arc<TrStarStore>, Arc<TrStarStore>),
}

impl<'a> ExactProcessor<'a> {
    /// Prepares the processor (builds TR*-trees when required).
    pub fn new(algorithm: ExactAlgorithm, rel_a: &'a Relation, rel_b: &'a Relation) -> Self {
        Self::with_handles(algorithm, rel_a.into(), rel_b.into())
    }

    /// Prepares the processor over explicit relation handles (borrowed or
    /// `Arc`-shared); the TR* algorithm builds its arenas here and keeps
    /// no relation.
    pub fn with_handles(
        algorithm: ExactAlgorithm,
        rel_a: RelHandle<'a>,
        rel_b: RelHandle<'a>,
    ) -> Self {
        let inputs = match algorithm {
            ExactAlgorithm::TrStar { max_entries } => Inputs::Trees(
                Arc::new(TrStarStore::build(&rel_a, max_entries)),
                Arc::new(TrStarStore::build(&rel_b, max_entries)),
            ),
            _ => Inputs::Relations(rel_a, rel_b),
        };
        ExactProcessor { algorithm, inputs }
    }

    /// A TR* processor over pre-built shared arenas (the resident engine
    /// builds or adopts one per registered dataset and reuses it across
    /// prepared joins). The arenas must have been built over the joined
    /// relations with the node capacity `algorithm` names.
    pub fn from_trees(
        algorithm: ExactAlgorithm,
        trees_a: Arc<TrStarStore>,
        trees_b: Arc<TrStarStore>,
    ) -> Self {
        assert!(
            matches!(algorithm, ExactAlgorithm::TrStar { .. }),
            "TR* arenas serve only the TR* algorithm"
        );
        ExactProcessor {
            algorithm,
            inputs: Inputs::Trees(trees_a, trees_b),
        }
    }

    pub fn algorithm(&self) -> ExactAlgorithm {
        self.algorithm
    }

    /// The processor resolved for a run of tests: where each TR* arena
    /// lives is settled here, once, and every test then indexes plain
    /// slices.
    pub fn tester(&self) -> ExactTester<'_> {
        match (&self.inputs, self.algorithm) {
            (Inputs::Trees(a, b), _) => ExactTester::TrStar {
                a: a.columns(),
                b: b.columns(),
            },
            (Inputs::Relations(a, b), ExactAlgorithm::PlaneSweep { restrict }) => {
                ExactTester::PlaneSweep { a, b, restrict }
            }
            (Inputs::Relations(a, b), _) => ExactTester::Quadratic { a, b },
        }
    }

    /// Tests one candidate pair on the exact geometry, accumulating the
    /// weighted operation counts into `counts` — a one-off
    /// [`ExactProcessor::tester`]; a run of tests resolves one tester and
    /// reuses it.
    pub fn intersects(&self, id_a: ObjectId, id_b: ObjectId, counts: &mut OpCounts) -> bool {
        self.tester().intersects(id_a, id_b, counts)
    }
}

/// An [`ExactProcessor`] resolved for a run of tests
/// ([`ExactProcessor::tester`]): the relations, or both TR* arenas as
/// plain slices.
#[derive(Clone, Copy)]
pub enum ExactTester<'p> {
    Quadratic {
        a: &'p Relation,
        b: &'p Relation,
    },
    PlaneSweep {
        a: &'p Relation,
        b: &'p Relation,
        restrict: bool,
    },
    TrStar {
        a: TrStarColumns<'p>,
        b: TrStarColumns<'p>,
    },
}

impl ExactTester<'_> {
    /// Tests one candidate pair on the exact geometry, accumulating the
    /// weighted operation counts into `counts`.
    #[inline]
    pub fn intersects(&self, id_a: ObjectId, id_b: ObjectId, counts: &mut OpCounts) -> bool {
        match *self {
            ExactTester::Quadratic { a, b } => {
                quadratic_intersects(&a.object(id_a).region, &b.object(id_b).region, counts)
            }
            ExactTester::PlaneSweep { a, b, restrict } => sweep_intersects(
                &a.object(id_a).region,
                &b.object(id_b).region,
                restrict,
                counts,
            ),
            ExactTester::TrStar { a, b } => trees_intersect(a.get(id_a), b.get(id_b), counts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msj_geom::{Point, Polygon, SpatialObject};

    fn blob_rel(seedlike: u64, count: usize, spacing: f64) -> Relation {
        let mut objs = Vec::new();
        for i in 0..count {
            let phase = (seedlike as f64) * 0.37 + i as f64;
            let n = 16 + ((i * 7 + seedlike as usize) % 24);
            let cx = (i % 4) as f64 * spacing;
            let cy = (i / 4) as f64 * spacing;
            let coords: Vec<Point> = (0..n)
                .map(|k| {
                    let t = k as f64 / n as f64 * std::f64::consts::TAU;
                    let r = 3.0 + 1.2 * (3.0 * t + phase).sin() + 0.5 * (5.0 * t).cos();
                    Point::new(cx + r * t.cos(), cy + r * t.sin())
                })
                .collect();
            objs.push(SpatialObject::new(
                i as u32,
                Polygon::new(coords).unwrap().into(),
            ));
        }
        Relation::new(objs)
    }

    #[test]
    fn all_algorithms_agree_on_all_pairs() {
        let ra = blob_rel(1, 12, 4.5);
        let rb = blob_rel(2, 12, 4.5);
        let algos = [
            ExactAlgorithm::Quadratic,
            ExactAlgorithm::PlaneSweep { restrict: true },
            ExactAlgorithm::PlaneSweep { restrict: false },
            ExactAlgorithm::TrStar { max_entries: 3 },
            ExactAlgorithm::TrStar { max_entries: 5 },
        ];
        let processors: Vec<ExactProcessor> = algos
            .iter()
            .map(|&alg| ExactProcessor::new(alg, &ra, &rb))
            .collect();
        let mut disagreements = Vec::new();
        for a in 0..ra.len() as u32 {
            for b in 0..rb.len() as u32 {
                let mut counts = OpCounts::new();
                let reference = processors[0].intersects(a, b, &mut counts);
                for p in &processors[1..] {
                    let mut c = OpCounts::new();
                    if p.intersects(a, b, &mut c) != reference {
                        disagreements.push((p.algorithm().name(), a, b, reference));
                    }
                }
            }
        }
        assert!(disagreements.is_empty(), "disagreements: {disagreements:?}");
    }

    #[test]
    fn trstar_is_cheapest_on_false_hits() {
        // A *false hit* — disjoint objects with overlapping MBRs — is the
        // expensive case: the quadratic algorithm must scan every edge
        // pair, while the TR*-tree prunes by directory rectangles
        // (Table 7's headline effect).
        // A wavy "U" with ~110 edges; the square sits in its cavity.
        let mut coords = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(9.0, 10.0),
        ];
        for k in 0..50 {
            let y = 10.0 - 9.0 * (k as f64 + 1.0) / 51.0;
            coords.push(Point::new(9.0 - 0.2 * (k as f64 * 0.7).sin().abs(), y));
        }
        coords.push(Point::new(1.0, 1.0));
        for k in 0..50 {
            let y = 1.0 + 9.0 * (k as f64 + 1.0) / 51.0;
            coords.push(Point::new(1.0 + 0.2 * (k as f64 * 0.9).sin().abs(), y));
        }
        coords.push(Point::new(0.0, 10.0));
        let ra = Relation::new(vec![SpatialObject::new(
            0,
            Polygon::new(coords).unwrap().into(),
        )]);
        let rb = Relation::new(vec![SpatialObject::new(
            0,
            Polygon::new(vec![
                Point::new(3.0, 5.0),
                Point::new(7.0, 5.0),
                Point::new(7.0, 8.0),
                Point::new(3.0, 8.0),
            ])
            .unwrap()
            .into(),
        )]);
        assert!(ra.object(0).mbr().intersects(&rb.object(0).mbr()));
        let w = crate::cost::Weights::default();
        let mut cq = OpCounts::new();
        let q = ExactProcessor::new(ExactAlgorithm::Quadratic, &ra, &rb).intersects(0, 0, &mut cq);
        let mut ct = OpCounts::new();
        let t = ExactProcessor::new(ExactAlgorithm::TrStar { max_entries: 3 }, &ra, &rb)
            .intersects(0, 0, &mut ct);
        assert!(!q && !t, "pair must be a false hit");
        assert!(
            ct.cost_ms(&w) < cq.cost_ms(&w),
            "TR* {} ms vs quadratic {} ms",
            ct.cost_ms(&w),
            cq.cost_ms(&w)
        );
    }

    #[test]
    fn processor_reports_algorithm_names() {
        assert_eq!(ExactAlgorithm::Quadratic.name(), "quadratic");
        assert_eq!(
            ExactAlgorithm::PlaneSweep { restrict: true }.name(),
            "plane-sweep"
        );
        assert_eq!(
            ExactAlgorithm::TrStar { max_entries: 3 }.name(),
            "TR*-tree (M=3)"
        );
    }
}
