//! Property tests of the numerical routines the offline optimiser
//! leans on.

use helio_common::math::{golden_section_min, kmeans_1d, lerp_table, smoothstep};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Golden-section search finds the vertex of any parabola inside
    /// the bracket.
    #[test]
    fn golden_section_finds_parabola_vertex(
        vertex in -50.0f64..50.0,
        scale in 0.1f64..10.0,
        offset in -5.0f64..5.0,
    ) {
        let (x, y) = golden_section_min(-100.0, 100.0, 90, |x| {
            scale * (x - vertex) * (x - vertex) + offset
        }).expect("valid bracket");
        prop_assert!((x - vertex).abs() < 1e-5, "x {} vs vertex {}", x, vertex);
        prop_assert!((y - offset).abs() < 1e-8);
    }

    /// k-means centres lie within the data range and are sorted.
    #[test]
    fn kmeans_centres_stay_in_range(
        values in prop::collection::vec(-100.0f64..100.0, 3..40),
        k in 1usize..6,
    ) {
        let centres = kmeans_1d(&values, k, 60).expect("valid input");
        prop_assert_eq!(centres.len(), k);
        let lo = values.iter().cloned().fold(f64::MAX, f64::min);
        let hi = values.iter().cloned().fold(f64::MIN, f64::max);
        for c in &centres {
            prop_assert!(*c >= lo - 1e-9 && *c <= hi + 1e-9, "centre {} outside [{}, {}]", c, lo, hi);
        }
        prop_assert!(centres.windows(2).all(|w| w[0] <= w[1] + 1e-12));
    }

    /// Linear interpolation is bounded by the knot values it sits
    /// between and exact at knots.
    #[test]
    fn lerp_is_bounded_and_exact_at_knots(
        y0 in -10.0f64..10.0,
        y1 in -10.0f64..10.0,
        y2 in -10.0f64..10.0,
        q in -2.0f64..4.0,
    ) {
        let xs = [0.0, 1.0, 2.0];
        let ys = [y0, y1, y2];
        let v = lerp_table(&xs, &ys, q);
        let lo = ys.iter().cloned().fold(f64::MAX, f64::min);
        let hi = ys.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
        prop_assert!((lerp_table(&xs, &ys, 1.0) - y1).abs() < 1e-12);
    }

    /// Smoothstep is monotone on [0, 1] and clamped outside.
    #[test]
    fn smoothstep_is_monotone(a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(smoothstep(lo) <= smoothstep(hi) + 1e-12);
        prop_assert_eq!(smoothstep(-a - 0.001), 0.0);
        prop_assert_eq!(smoothstep(1.001 + a), 1.0);
    }

    /// The counting knot bracket picks the same interval, and so the
    /// same bits, as a binary search — at random queries and exactly on
    /// every knot.
    #[test]
    fn lerp_matches_binary_search_bitwise(
        steps in prop::collection::vec(0.01f64..2.0, 1..12),
        ys in prop::collection::vec(-1.0f64..1.0, 13),
        queries in prop::collection::vec(-1.0f64..30.0, 32),
    ) {
        let mut xs = vec![0.5];
        for s in &steps {
            xs.push(xs[xs.len() - 1] + s);
        }
        let ys = &ys[..xs.len()];
        for &q in queries.iter().chain(&xs) {
            prop_assert_eq!(
                lerp_table(&xs, ys, q).to_bits(),
                lerp_binary_search(&xs, ys, q).to_bits()
            );
        }
        prop_assert_eq!(
            lerp_table(&xs, ys, f64::NAN).to_bits(),
            lerp_binary_search(&xs, ys, f64::NAN).to_bits()
        );
    }
}

/// `lerp_table` as it was written with a binary-searched bracket.
fn lerp_binary_search(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    if x <= xs[0] {
        return ys[0];
    }
    if x >= xs[xs.len() - 1] {
        return ys[ys.len() - 1];
    }
    let mut lo = 0usize;
    let mut hi = xs.len() - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if xs[mid] <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t = (x - xs[lo]) / (xs[hi] - xs[lo]);
    ys[lo] + t * (ys[hi] - ys[lo])
}
