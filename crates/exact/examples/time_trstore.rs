//! Preprocessing-cost probe: times TR*-tree construction for the BW-like
//! relation and reports decomposition statistics (compare the paper's
//! §4.2 discussion of preprocessing cost and its §4.3 height figures).
//!
//! ```text
//! cargo run -p msj-exact --release --example time_trstore
//! ```

use std::time::Instant;

fn main() {
    let bw = msj_datagen::bw_like(1);
    let t0 = Instant::now();
    let store = msj_exact::TrStarStore::build(&bw, 3);
    println!(
        "BW TrStarStore (M=3): {:?} for {} objects; avg trapezoids {:.0}, avg height {:.1} (paper: 7.6)",
        t0.elapsed(),
        store.len(),
        store.avg_trapezoids(),
        store.avg_height()
    );
    // The arena is its own persistent image: writing is a column copy,
    // loading a column copy plus one validating pass.
    let t1 = Instant::now();
    let image = store.to_bytes();
    let wrote = t1.elapsed();
    let t2 = Instant::now();
    let back = msj_exact::TrStarStore::from_bytes(&image).expect("own image validates");
    println!(
        "arena image: {} B ({:.0} B/trapezoid); to_bytes {wrote:?}, from_bytes {:?}",
        image.len(),
        image.len() as f64 / store.num_trapezoids().max(1) as f64,
        t2.elapsed()
    );
    assert!(back == store);
}
