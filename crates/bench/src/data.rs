//! Shared experiment data: candidates and ground truth per test series.

use msj_datagen::TestSeries;
use msj_exact::{trees_intersect, OpCounts, TrStarStore};
use msj_geom::ObjectId;
use msj_sam::{tree_join, PageLayout, RStarTree};

/// A test series with its MBR-join candidates and per-candidate ground
/// truth (computed once with the TR*-tree, the fastest exact algorithm).
pub struct SeriesData {
    pub series: TestSeries,
    /// Candidate pairs (intersecting MBRs) in join emission order.
    pub candidates: Vec<(ObjectId, ObjectId)>,
    /// `truth[i]` — whether `candidates[i]` actually intersects.
    pub truth: Vec<bool>,
    /// Prebuilt TR*-trees (M = 3) for both relations.
    pub trees_a: TrStarStore,
    pub trees_b: TrStarStore,
}

impl SeriesData {
    /// Runs the MBR-join and the exact ground truth for a series.
    pub fn build(series: TestSeries) -> Self {
        let layout = PageLayout::baseline(4096);
        let ta = RStarTree::bulk_load(layout, series.a.iter().map(|o| (o.mbr(), o.id)));
        let tb = RStarTree::bulk_load(layout, series.b.iter().map(|o| (o.mbr(), o.id)));
        let mut candidates = Vec::new();
        tree_join(&ta, &tb, &mut (), |a, b| candidates.push((a, b)));

        let trees_a = TrStarStore::build(&series.a, 3);
        let trees_b = TrStarStore::build(&series.b, 3);
        let mut counts = OpCounts::new();
        let truth = candidates
            .iter()
            .map(|&(a, b)| trees_intersect(trees_a.get(a), trees_b.get(b), &mut counts))
            .collect();
        SeriesData {
            series,
            candidates,
            truth,
            trees_a,
            trees_b,
        }
    }

    /// Number of MBR-join candidates.
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Number of true hits among the candidates.
    pub fn num_hits(&self) -> usize {
        self.truth.iter().filter(|&&t| t).count()
    }

    /// Number of false hits among the candidates.
    pub fn num_false_hits(&self) -> usize {
        self.num_candidates() - self.num_hits()
    }

    /// Iterates `(id_a, id_b, is_hit)`.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, ObjectId, bool)> + '_ {
        self.candidates
            .iter()
            .zip(self.truth.iter())
            .map(|(&(a, b), &t)| (a, b, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msj_datagen::{test_series, BaseMap, Strategy};

    #[test]
    fn series_data_is_consistent() {
        // A reduced series keeps the test fast.
        let base = msj_datagen::small_carto(40, 20.0, 5);
        let series = msj_datagen::strategy_a("mini", &base, msj_datagen::world(), 0.5, 0.5);
        let data = SeriesData::build(series);
        assert!(data.num_candidates() > 0);
        assert_eq!(
            data.num_hits() + data.num_false_hits(),
            data.num_candidates()
        );
        // Identity pairs of strategy A are hits (each object overlaps its
        // shifted copy given the 0.5-extent shift... at least most do).
        let identity_hits = data.iter().filter(|&(a, b, t)| a == b && t).count();
        assert!(identity_hits > 0);
    }

    #[test]
    #[ignore = "slow: builds a full Europe series; run with --ignored"]
    fn full_europe_series_builds() {
        let data = SeriesData::build(test_series(BaseMap::Europe, Strategy::A, 1));
        assert!(data.num_candidates() > 500);
        assert!(data.num_hits() > data.num_false_hits());
    }
}
