//! The operation-counting cost model of §4.3.
//!
//! The paper compares exact-geometry algorithms by counting their
//! characteristic geometric operations and weighting them with times
//! measured on an HP720 workstation (Table 6). We count the identical
//! operations and apply the identical weights, so our Table 7 / Figure 16
//! comparisons are like-for-like with the paper.

/// Operation weights in units of 10⁻⁶ seconds (Table 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weights {
    /// Edge intersection test.
    pub edge_intersection: f64,
    /// Edge vs auxiliary horizontal line test (point-in-polygon ray cast).
    pub edge_line: f64,
    /// Plane-sweep position test (y-ordering of an edge at the sweep line).
    pub position: f64,
    /// Edge vs rectangle test (search-space restriction).
    pub edge_rect: f64,
    /// Rectangle intersection test (TR*-tree directory).
    pub rect_rect: f64,
    /// Trapezoid intersection test (TR*-tree leaves).
    pub trapezoid: f64,
}

impl Default for Weights {
    /// The published Table 6 weights.
    fn default() -> Self {
        Weights {
            edge_intersection: 15.0,
            edge_line: 18.0,
            position: 36.0,
            edge_rect: 28.0,
            rect_rect: 28.0,
            trapezoid: 38.0,
        }
    }
}

/// Counters for the six weighted operations plus auxiliary statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub edge_intersection: u64,
    pub edge_line: u64,
    pub position: u64,
    pub edge_rect: u64,
    pub rect_rect: u64,
    pub trapezoid: u64,
    /// Point-in-polygon tests actually performed (after the MBR pretest).
    pub pip_performed: u64,
    /// Point-in-polygon tests omitted thanks to the MBR pretest (§4: the
    /// pretest omits 75–93 % of them).
    pub pip_skipped: u64,
}

impl OpCounts {
    pub fn new() -> Self {
        OpCounts::default()
    }

    /// Weighted cost in **milliseconds** (the unit of Table 7).
    pub fn cost_ms(&self, w: &Weights) -> f64 {
        let micros = self.edge_intersection as f64 * w.edge_intersection
            + self.edge_line as f64 * w.edge_line
            + self.position as f64 * w.position
            + self.edge_rect as f64 * w.edge_rect
            + self.rect_rect as f64 * w.rect_rect
            + self.trapezoid as f64 * w.trapezoid;
        micros / 1000.0
    }

    /// Component-wise sum.
    pub fn merge(&mut self, other: &OpCounts) {
        self.edge_intersection += other.edge_intersection;
        self.edge_line += other.edge_line;
        self.position += other.position;
        self.edge_rect += other.edge_rect;
        self.rect_rect += other.rect_rect;
        self.trapezoid += other.trapezoid;
        self.pip_performed += other.pip_performed;
        self.pip_skipped += other.pip_skipped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weights_match_table6() {
        let w = Weights::default();
        assert_eq!(w.edge_intersection, 15.0);
        assert_eq!(w.edge_line, 18.0);
        assert_eq!(w.position, 36.0);
        assert_eq!(w.edge_rect, 28.0);
        assert_eq!(w.rect_rect, 28.0);
        assert_eq!(w.trapezoid, 38.0);
    }

    #[test]
    fn cost_accumulates_in_milliseconds() {
        let mut c = OpCounts::new();
        c.edge_intersection = 1000; // 1000 × 15 µs = 15 ms
        c.trapezoid = 500; // 500 × 38 µs = 19 ms
        let w = Weights::default();
        assert!((c.cost_ms(&w) - 34.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_componentwise() {
        let mut a = OpCounts {
            edge_intersection: 1,
            position: 2,
            ..OpCounts::new()
        };
        let b = OpCounts {
            edge_intersection: 10,
            edge_line: 5,
            pip_performed: 3,
            pip_skipped: 7,
            ..OpCounts::new()
        };
        a.merge(&b);
        assert_eq!(a.edge_intersection, 11);
        assert_eq!(a.position, 2);
        assert_eq!(a.edge_line, 5);
        assert_eq!(a.pip_performed, 3);
        assert_eq!(a.pip_skipped, 7);
    }
}
