//! One reproduction function per table/figure of the paper's evaluation,
//! plus the two engine tables `benchmark/` cannot produce ([`fused`],
//! [`kernels`]).
//!
//! Every experiment returns a plain-text report; the paper ones print the
//! measured values next to the paper's published values. The registry at
//! the bottom maps experiment ids (`fig2`, `table3`, ...) to their
//! functions; the `repro` binary dispatches on it.

pub mod datasets;
pub mod exactgeo;
pub mod filters;
pub mod fused;
pub mod kernels;
pub mod storage;
pub mod total;

use msj_datagen::{strategy_a, strategy_b, world, TestSeries};
use msj_geom::Relation;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced datasets for smoke runs and CI (~seconds).
    Quick,
    /// The paper's cartographic dataset sizes; large relations scaled to
    /// 20 000 objects (~minutes).
    Default,
    /// The paper's full 130 000-object relations for §3.4/§5.
    Full,
}

/// Experiment configuration shared by all reproductions.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    pub seed: u64,
    pub scale: Scale,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            seed: 1,
            scale: Scale::Default,
        }
    }
}

impl ExpConfig {
    /// The Europe-like relation at the configured scale.
    pub fn europe(&self) -> Relation {
        match self.scale {
            Scale::Quick => msj_datagen::small_carto(160, 60.0, self.seed),
            _ => msj_datagen::europe_like(self.seed),
        }
    }

    /// The BW-like relation at the configured scale.
    pub fn bw(&self) -> Relation {
        match self.scale {
            Scale::Quick => msj_datagen::small_carto(80, 160.0, self.seed),
            _ => msj_datagen::bw_like(self.seed),
        }
    }

    /// Object count for the §3.4/§5 large relations.
    pub fn large_count(&self) -> usize {
        match self.scale {
            Scale::Quick => 2_000,
            Scale::Default => 20_000,
            Scale::Full => 130_000,
        }
    }

    /// Number of point/window queries for Figure 10.
    pub fn query_count(&self) -> usize {
        match self.scale {
            Scale::Quick => 200,
            _ => 1_000,
        }
    }

    /// The four canonical test series (Europe A/B, BW A/B) at scale.
    pub fn all_series(&self) -> Vec<TestSeries> {
        let europe = self.europe();
        let bw = self.bw();
        let mut rng_e = StdRng::seed_from_u64(self.seed.wrapping_add(0xE0));
        let mut rng_b = StdRng::seed_from_u64(self.seed.wrapping_add(0xB0));
        vec![
            strategy_a("Europe A", &europe, world(), 0.5, 0.5),
            strategy_b("Europe B", &europe, world(), &mut rng_e),
            strategy_a("BW A", &bw, world(), 0.5, 0.5),
            strategy_b("BW B", &bw, world(), &mut rng_b),
        ]
    }

    /// One named series.
    pub fn series(&self, name: &str) -> TestSeries {
        self.all_series()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("unknown series {name}"))
    }
}

/// An experiment: id, short description, and the reproduction function.
pub struct Experiment {
    pub id: &'static str,
    pub description: &'static str,
    pub run: fn(&ExpConfig) -> String,
}

/// The full registry: the paper's experiments in paper order, then
/// `fused` and `kernels`.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig2",
            description: "dataset characteristics (objects, vertex stats)",
            run: datasets::fig2,
        },
        Experiment {
            id: "table1",
            description: "normalized false area of the MBR",
            run: datasets::table1,
        },
        Experiment {
            id: "table2",
            description: "test series: intersecting MBRs, hits, false hits",
            run: filters::table2,
        },
        Experiment {
            id: "fig3",
            description: "the seven approximations of one object",
            run: datasets::fig3,
        },
        Experiment {
            id: "fig4",
            description: "MBR-based false area per approximation",
            run: filters::fig4,
        },
        Experiment {
            id: "table3",
            description: "false hits identified per conservative approximation",
            run: filters::table3,
        },
        Experiment {
            id: "fig5",
            description: "false area vs identified false hits (Europe B)",
            run: filters::fig5,
        },
        Experiment {
            id: "table4",
            description: "hits identified by the false-area test",
            run: filters::table4,
        },
        Experiment {
            id: "fig8",
            description: "progressive approximation quality (MEC/MER)",
            run: filters::fig8,
        },
        Experiment {
            id: "table5",
            description: "hits identified by progressive approximations",
            run: filters::table5,
        },
        Experiment {
            id: "fig9",
            description: "area extension of approximations vs the MBR",
            run: filters::fig9,
        },
        Experiment {
            id: "fig10",
            description: "approximation as key vs in addition to the MBR (I/O)",
            run: storage::fig10,
        },
        Experiment {
            id: "fig11",
            description: "loss/gain/total page accesses with 5-C + MER",
            run: storage::fig11,
        },
        Experiment {
            id: "fig12",
            description: "identified vs non-identified candidates (BW A)",
            run: filters::fig12,
        },
        Experiment {
            id: "table6",
            description: "operation weights of the cost model",
            run: exactgeo::table6,
        },
        Experiment {
            id: "table7",
            description: "cost of the exact intersection algorithms",
            run: exactgeo::table7,
        },
        Experiment {
            id: "fig16",
            description: "per-pair cost vs edge count (plane sweep vs TR*)",
            run: exactgeo::fig16,
        },
        Experiment {
            id: "fig17",
            description: "TR*-tree operation counts for M = 3, 4, 5",
            run: exactgeo::fig17,
        },
        Experiment {
            id: "fig18",
            description: "total join cost of versions 1/2/3",
            run: total::fig18,
        },
        Experiment {
            id: "ablation-restrict",
            description: "plane sweep with vs without search-space restriction",
            run: exactgeo::ablation_restrict,
        },
        Experiment {
            id: "ablation-mpretest",
            description: "MBR pretest for point-in-polygon containment",
            run: exactgeo::ablation_mpretest,
        },
        Experiment {
            id: "ablation-order",
            description: "filter ordering: conservative-first vs progressive-first",
            run: total::ablation_order,
        },
        Experiment {
            id: "ablation-joinstrategy",
            description: "tree join vs index nested loop vs nested loops",
            run: total::ablation_joinstrategy,
        },
        Experiment {
            id: "ablation-buffer",
            description: "LRU buffer size sweep for the MBR-join",
            run: total::ablation_buffer,
        },
        Experiment {
            id: "fused",
            description: "execution engine: serial vs fused, both Step-1 backends",
            run: fused::fused,
        },
        Experiment {
            id: "kernels",
            description: "the vectorized Step-1 kernel: per-dispatch microbenchmark",
            run: kernels::kernels,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 24 paper experiments in paper order, then the two engine
    /// tables: a dropped (or duplicated) id fails here.
    #[test]
    fn registry_ids_are_unique() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        assert_eq!(
            ids.join(" "),
            "fig2 table1 table2 fig3 fig4 table3 fig5 table4 fig8 table5 fig9 fig10 fig11 fig12 \
             table6 table7 fig16 fig17 fig18 ablation-restrict ablation-mpretest ablation-order \
             ablation-joinstrategy ablation-buffer fused kernels"
        );
    }

    #[test]
    fn quick_scale_shrinks_datasets() {
        let quick = ExpConfig {
            seed: 1,
            scale: Scale::Quick,
        };
        assert!(quick.europe().len() < 400);
        assert!(quick.large_count() < 5_000);
        let default = ExpConfig::default();
        assert_eq!(default.europe().len(), 810);
    }

    #[test]
    fn series_lookup() {
        let quick = ExpConfig {
            seed: 1,
            scale: Scale::Quick,
        };
        let s = quick.series("BW A");
        assert_eq!(s.name, "BW A");
        assert_eq!(s.a.len(), s.b.len());
    }
}
