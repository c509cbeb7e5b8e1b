//! `Scalar::add_repeated` is the plain chain of adds, bit for bit.
//!
//! `TotalF64` jumps over whole runs of a binade with integer arithmetic
//! on bit patterns, so these cases aim at the places where that could
//! go wrong: half-ulp ties (which round up or down by the parity of the
//! sum), sums that cross into the next binade, zero and subnormal
//! accumulators, `x = 0`, negative steps, and `k` up to 10^6.

use clos_rational::{Rational, Scalar, TotalF64};
use proptest::prelude::*;

/// `k` sequential adds of `x` to `acc`, the definition.
fn plain(acc: f64, x: f64, k: usize) -> f64 {
    let mut sum = acc;
    for _ in 0..k {
        sum += x;
    }
    sum
}

fn assert_exact(acc: f64, x: f64, k: usize) {
    let fast = TotalF64::new(acc).add_repeated(TotalF64::new(x), k).get();
    let slow = plain(acc, x, k);
    assert_eq!(
        fast.to_bits(),
        slow.to_bits(),
        "add_repeated({acc:e}, {x:e}, {k}) = {fast:e}, the loop gives {slow:e}"
    );
}

/// The float with unbiased exponent `e` and mantissa bits `m`.
fn normal(e: i32, m: u64) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52 | m)
}

/// Half the ulp of the binade holding `|acc|` (of the subnormal range
/// for zero and subnormal values).
fn half_ulp(acc: f64) -> f64 {
    let e = ((acc.to_bits() >> 52) & 0x7ff).max(1) as i32 - 1023;
    2f64.powi(e - 53)
}

/// Accumulators: signed zeros, subnormals, normals, and normals a few
/// ulps below a power of two.
fn accumulator() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        (1u64..1 << 52).prop_map(f64::from_bits),
        (-40i32..40, 0u64..1 << 52).prop_map(|(e, m)| normal(e, m)),
        (-40i32..40, 1u64..64).prop_map(|(e, j)| f64::from_bits(normal(e, 0).to_bits() - j)),
        (-40i32..40, 0u64..1 << 52).prop_map(|(e, m)| -normal(e, m)),
    ]
}

/// Steps drawn relative to `acc`: exact half-ulp ties and their odd
/// multiples, values from far below to a little above `acc`, zeros,
/// subnormals, and negatives.
fn step(acc: f64) -> impl Strategy<Value = f64> {
    let e = ((acc.to_bits() >> 52) & 0x7ff).max(1) as i32 - 1023;
    let tie = half_ulp(acc);
    prop_oneof![
        (0u64..64).prop_map(move |n| tie * (2 * n + 1) as f64),
        (-60i32..3, 0u64..1 << 52).prop_map(move |(s, m)| normal((e + s).max(-1022), m)),
        Just(0.0),
        Just(-0.0),
        (1u64..1 << 20).prop_map(f64::from_bits),
        (-60i32..3, 0u64..1 << 52).prop_map(move |(s, m)| -normal((e + s).max(-1022), m)),
    ]
}

/// Repeat counts, log-uniform from 1 to 10^6, plus the short runs the
/// kernel leaves to the loop.
fn count() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..64,
        (0u32..=600).prop_map(|e| 10f64.powf(f64::from(e) / 100.0) as usize),
    ]
}

fn case() -> impl Strategy<Value = (f64, f64, usize)> {
    accumulator().prop_flat_map(|acc| (Just(acc), step(acc), count()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn total_f64_add_repeated_is_the_loop((acc, x, k) in case()) {
        assert_exact(acc, x, k);
    }

    #[test]
    fn rational_add_repeated_is_the_loop(
        (n, d) in (-1000i128..=1000, 1i128..=1000),
        (xn, xd) in (-1000i128..=1000, 1i128..=1000),
        k in 0usize..2000,
    ) {
        let (acc, x) = (Rational::new(n, d), Rational::new(xn, xd));
        let mut sum = acc;
        for _ in 0..k {
            sum += x;
        }
        prop_assert_eq!(acc.add_repeated(x, k), sum);
    }
}

#[test]
fn boundary_cases() {
    let one_ulp = f64::EPSILON;
    for (acc, x) in [
        // A tenth never lands on a binary fraction: rounding every step.
        (0.0, 0.1),
        (1.0, 0.1),
        // Exact half-ulp ties from an even and from an odd pattern.
        (1.0, one_ulp / 2.0),
        (1.0 + one_ulp, one_ulp / 2.0),
        (1.0, 3.0 * one_ulp / 2.0),
        (1.0 + one_ulp, 3.0 * one_ulp / 2.0),
        // One ulp below a power of two, crossing into the next binade.
        (2.0 - one_ulp, one_ulp),
        (2.0 - one_ulp, 0.75 * one_ulp),
        // Zero and subnormal accumulators, zero and subnormal steps.
        (0.0, f64::from_bits(1)),
        (f64::from_bits(1), 1e-300),
        (-0.0, 0.0),
        (-0.0, -0.0),
        (0.0, -0.0),
        (1.5, 0.0),
        // Negative steps and sums crossing zero.
        (1.0, -0.1),
        (-1.0, 0.1),
        // Near the top of the finite range: the sum overflows to infinity.
        (f64::MAX / 2.0, f64::MAX / 1024.0),
        (f64::MAX, f64::MAX / 2f64.powi(54)),
    ] {
        for k in [0, 1, 2, 3, 31, 32, 33, 64, 1000, 1 << 20] {
            assert_exact(acc, x, k);
        }
    }
}

#[test]
fn infinities_take_the_loop() {
    assert_exact(1.0, f64::INFINITY, 100);
    assert_exact(f64::INFINITY, 1.0, 100);
    assert_exact(f64::NEG_INFINITY, -1.0, 100);
}
