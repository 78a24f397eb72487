//! Per-step statistics of one multi-step join execution.

use crate::candidates::PartitionSummary;
use msj_exact::OpCounts;
use msj_sam::JoinStats;

/// What happened in each step of the join (the quantities behind
/// Tables 2–5 and Figures 11/12/18).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MultiStepStats {
    /// Step 1 (MBR-join): candidate pairs, MBR tests, node visits.
    pub mbr_join: JoinStats,
    /// Step-1 partition digest when the partitioned backend ran (`None`
    /// under the R*-tree traversal).
    pub partition: Option<PartitionSummary>,
    /// The larger of the run's two thread pools: the executor's
    /// Steps-2–3 sinks (`Execution::Fused::threads`, 1 when serial) and
    /// the grid backend's Step-1 tile sweeps (the count
    /// `Backend::PartitionedSweep::threads` actually ran, 1 below the
    /// partition crate's parallel threshold). Always ≥ 1.
    pub threads_used: u64,
    /// Peak candidate pairs the executor held between Step 1 and the
    /// filter/exact steps: 0 under `Execution::Serial`, at most
    /// [`crate::execution::fused_buffer_bound`] under
    /// `Execution::Fused`, on either backend. (A parallel tile sweep
    /// holds its swept tiles until they are funneled out in tile order;
    /// that is Step 1's own state, not counted here.)
    pub peak_buffered_candidates: u64,
    /// Step 2a: hits proved by the raster signatures (a shared FULL
    /// cell). 0 when the stage is disabled.
    pub raster_hits: u64,
    /// Step 2a: false hits proved by the raster signatures (no shared
    /// cell).
    pub raster_drops: u64,
    /// Step 2a: candidates the raster stage saw but could not decide
    /// (they fell through to the conservative/progressive chain). 0 when
    /// the stage is disabled; otherwise
    /// `raster_hits + raster_drops + raster_inconclusive` equals the
    /// MBR-join candidate count.
    pub raster_inconclusive: u64,
    /// Step 2: false hits identified by the conservative approximation.
    /// This and the next two count only in a one-shot
    /// [`crate::MultiStepJoin`] whose plan runs §5's approximations; on a
    /// [`crate::SpatialEngine`] they read 0.
    pub filter_false_hits: u64,
    /// Step 2: hits identified by the progressive approximation.
    pub filter_hits_progressive: u64,
    /// Step 2: hits identified by the false-area test.
    pub filter_hits_false_area: u64,
    /// Step 3: candidate pairs tested on the exact geometry.
    pub exact_tests: u64,
    /// Step 3: pairs confirmed by the exact geometry.
    pub exact_hits: u64,
    /// Step 3: accumulated weighted geometric operations.
    pub exact_ops: OpCounts,
    /// Total result pairs (filter hits + exact hits).
    pub result_pairs: u64,
    /// Step 0 wall-clock (preprocessing: index build + approximation
    /// stores + exact representations), in nanoseconds. Paid once per
    /// [`crate::PreparedJoin`] and reported unchanged on every run of
    /// that preparation.
    pub step0_nanos: u64,
    /// Step 1 residual wall-clock in nanoseconds: the Steps-1–3 wall
    /// time minus the measured Step-2/3 time. Exact attribution on the
    /// serial path; under fused execution Steps 2–3 run on the sink
    /// threads while Step 1 produces, so their summed time overlaps
    /// Step 1 and this residual is a lower bound (it also absorbs the
    /// engine's merge + canonical sort).
    pub step1_nanos: u64,
    /// Step 2 (geometric filter) time in nanoseconds, summed across all
    /// workers — CPU time, so it can exceed the wall clock on parallel
    /// runs. Measured per batch, not per pair. Includes the Step-2a
    /// share reported separately in
    /// [`MultiStepStats::step2a_nanos`].
    pub step2_nanos: u64,
    /// Step 2a (raster signature intersection) time in nanoseconds,
    /// summed across all workers; a subset of
    /// [`MultiStepStats::step2_nanos`]. 0 when the stage is disabled.
    pub step2a_nanos: u64,
    /// Step 3 (exact geometry) time in nanoseconds, summed across all
    /// workers (CPU time, like [`MultiStepStats::step2_nanos`]).
    pub step3_nanos: u64,
}

impl MultiStepStats {
    /// Pairs the filter could not classify (these must fetch the exact
    /// object representation — the §5 object-access cost driver).
    pub fn unidentified(&self) -> u64 {
        self.exact_tests
    }

    /// Pairs classified by the filter (raster decisions + approximation
    /// hits + false hits) — each saves an object access under the §5
    /// cost assumption.
    pub fn identified(&self) -> u64 {
        self.raster_hits
            + self.raster_drops
            + self.filter_false_hits
            + self.filter_hits_progressive
            + self.filter_hits_false_area
    }

    /// Fraction of MBR-join candidates the Step-2a raster stage decided
    /// (Hit or Drop) before the convex/MER columns were touched.
    pub fn raster_decided_fraction(&self) -> f64 {
        if self.mbr_join.candidates == 0 {
            0.0
        } else {
            (self.raster_hits + self.raster_drops) as f64 / self.mbr_join.candidates as f64
        }
    }

    /// Total true hits of the join.
    pub fn hits(&self) -> u64 {
        self.result_pairs
    }

    /// Total true false hits among the MBR-join candidates.
    pub fn false_hits(&self) -> u64 {
        self.mbr_join.candidates - self.result_pairs
    }

    /// Fraction of candidates classified by the geometric filter (Figure
    /// 12 reports 46 % for BW A with 5-C + MER).
    pub fn identified_fraction(&self) -> f64 {
        if self.mbr_join.candidates == 0 {
            0.0
        } else {
            self.identified() as f64 / self.mbr_join.candidates as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MultiStepStats {
        let mut s = MultiStepStats::default();
        s.mbr_join.candidates = 100;
        s.raster_hits = 10;
        s.raster_drops = 15;
        s.raster_inconclusive = 75;
        s.filter_false_hits = 10;
        s.filter_hits_progressive = 20;
        s.filter_hits_false_area = 5;
        s.exact_tests = 40;
        s.exact_hits = 30;
        s.result_pairs = 65;
        s
    }

    #[test]
    fn derived_quantities_are_consistent() {
        let s = sample();
        assert_eq!(s.identified(), 60);
        assert_eq!(s.unidentified(), 40);
        assert_eq!(s.hits(), 65);
        assert_eq!(s.false_hits(), 35);
        assert!((s.identified_fraction() - 0.6).abs() < 1e-12);
        assert!((s.raster_decided_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn accounting_identity() {
        let s = sample();
        // candidates = identified + unidentified
        assert_eq!(s.mbr_join.candidates, s.identified() + s.unidentified());
        // candidates = raster-decided + raster-inconclusive (stage on)
        assert_eq!(
            s.mbr_join.candidates,
            s.raster_hits + s.raster_drops + s.raster_inconclusive
        );
        // hits = raster + progressive + false-area + exact
        assert_eq!(
            s.hits(),
            s.raster_hits + s.filter_hits_progressive + s.filter_hits_false_area + s.exact_hits
        );
        // false hits = raster drops + filter false hits + exact-refuted
        assert_eq!(
            s.false_hits(),
            s.raster_drops + s.filter_false_hits + (s.exact_tests - s.exact_hits)
        );
    }

    #[test]
    fn empty_join_fraction_is_zero() {
        let s = MultiStepStats::default();
        assert_eq!(s.identified_fraction(), 0.0);
        assert_eq!(s.raster_decided_fraction(), 0.0);
    }
}
