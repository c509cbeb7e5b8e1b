//! The arithmetic kernel against a plain reference: the Euclid-based
//! `gcd`, `new`, `checked_add`, `checked_mul` and `cmp` (and the
//! `checked_sub`/`checked_div` built on them) that `Rational`
//! used before its binary-GCD, fast-path kernel, copied verbatim onto
//! `(numerator, denominator)` pairs. Every result must match bit for bit,
//! `None` included, across three magnitude bands: small, straddling
//! `±2^63` (the `i64` fast-path boundary and the `u64`/`u128` GCD branch),
//! and full `i128`. The reference panics in debug builds on an
//! `i128::MIN` operand, so the random bands stop at `i128::MIN + 1`; the
//! documented `i128::MIN` behaviour has unit tests of its own below.

use std::cmp::Ordering;
use std::panic;

use clos_rational::Rational;
use proptest::prelude::*;

mod reference {
    use std::cmp::Ordering;

    pub const fn gcd(mut a: i128, mut b: i128) -> i128 {
        a = a.abs();
        b = b.abs();
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }

    pub fn new(num: i128, den: i128) -> (i128, i128) {
        assert!(den != 0, "rational denominator must be nonzero");
        let g = gcd(num, den);
        let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if den < 0 {
            num = num.checked_neg().expect("rational normalization overflow");
            den = den.checked_neg().expect("rational normalization overflow");
        }
        (num, den)
    }

    pub fn checked_add(a: (i128, i128), c: (i128, i128)) -> Option<(i128, i128)> {
        let g = gcd(a.1, c.1);
        let lhs_scale = c.1 / g;
        let rhs_scale = a.1 / g;
        let num =
            a.0.checked_mul(lhs_scale)?
                .checked_add(c.0.checked_mul(rhs_scale)?)?;
        let den = a.1.checked_mul(lhs_scale)?;
        Some(new(num, den))
    }

    pub fn checked_sub(a: (i128, i128), c: (i128, i128)) -> Option<(i128, i128)> {
        checked_add(a, (c.0.checked_neg()?, c.1))
    }

    pub fn checked_mul(a: (i128, i128), c: (i128, i128)) -> Option<(i128, i128)> {
        let g1 = gcd(a.0, c.1);
        let g2 = gcd(c.0, a.1);
        let num = (a.0 / g1).checked_mul(c.0 / g2)?;
        let den = (a.1 / g2).checked_mul(c.1 / g1)?;
        Some(new(num, den))
    }

    pub fn checked_div(a: (i128, i128), c: (i128, i128)) -> Option<(i128, i128)> {
        if c.0 == 0 {
            return None;
        }
        checked_mul(a, (c.1, c.0))
    }

    /// `None` where the reference `cmp` panics ("rational comparison
    /// overflow").
    pub fn cmp(a: (i128, i128), c: (i128, i128)) -> Option<Ordering> {
        let g_den = gcd(a.1, c.1);
        let lhs = a.0.checked_mul(c.1 / g_den);
        let rhs = c.0.checked_mul(a.1 / g_den);
        match (lhs, rhs) {
            (Some(l), Some(r)) => Some(l.cmp(&r)),
            _ => checked_sub(a, c).map(|d| d.0.cmp(&0)),
        }
    }
}

const TWO_63: i128 = 1 << 63;

fn parts(r: Rational) -> (i128, i128) {
    (r.numerator(), r.denominator())
}

fn checked_parts(r: Option<Rational>) -> Option<(i128, i128)> {
    r.map(parts)
}

/// A magnitude from one of the three bands.
fn magnitude() -> impl Strategy<Value = i128> {
    prop_oneof![
        0i128..=1000,
        // Within a few units of 2^63, where `i64` stops.
        (-4i128..=4).prop_map(|off| TWO_63 + off),
        // Anywhere between 2^62 and 2^64.
        (TWO_63 / 2)..=(TWO_63 * 2),
        0i128..=i128::MAX,
    ]
}

fn numerator() -> impl Strategy<Value = i128> {
    (magnitude(), any::<bool>()).prop_map(|(m, neg)| if neg { -m } else { m })
}

fn denominator() -> impl Strategy<Value = i128> {
    prop_oneof![Just(1i128), magnitude().prop_map(|m| m.max(1))]
}

/// Two canonical operands; about half the pairs share a raw denominator,
/// which keeps their canonical denominators equal whenever both numerators
/// are coprime to it.
fn operands() -> impl Strategy<Value = (Rational, Rational)> {
    (
        numerator(),
        denominator(),
        numerator(),
        denominator(),
        any::<bool>(),
    )
        .prop_map(|(n1, d1, n2, d2, shared)| {
            let d2 = if shared { d1 } else { d2 };
            (Rational::new(n1, d1), Rational::new(n2, d2))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn new_matches_reference(num in numerator(), den in denominator(), flip in any::<bool>()) {
        let den = if flip { -den } else { den };
        prop_assert_eq!(parts(Rational::new(num, den)), reference::new(num, den));
    }

    #[test]
    fn add_sub_mul_match_reference((a, b) in operands()) {
        let (ra, rb) = (parts(a), parts(b));
        prop_assert_eq!(checked_parts(a.checked_add(b)), reference::checked_add(ra, rb));
        prop_assert_eq!(checked_parts(a.checked_sub(b)), reference::checked_sub(ra, rb));
        prop_assert_eq!(checked_parts(a.checked_mul(b)), reference::checked_mul(ra, rb));
        prop_assert_eq!(checked_parts(a.checked_div(b)), reference::checked_div(ra, rb));
    }

    #[test]
    fn cmp_matches_reference((a, b) in operands()) {
        let expected = reference::cmp(parts(a), parts(b));
        let got = panic::catch_unwind(|| a.cmp(&b)).ok();
        prop_assert_eq!(got, expected);
        if let Some(ord) = expected {
            prop_assert_eq!(b.cmp(&a), ord.reverse());
        }
    }

    #[test]
    fn floor_ceil_match_truncating_division(num in numerator(), den in denominator()) {
        let r = Rational::new(num, den);
        let (n, d) = parts(r);
        // Truncating division rounds toward zero; the remainder's sign says
        // which way floor and ceil step from there.
        let (q, rem) = (n / d, n % d);
        prop_assert_eq!(r.floor(), if rem < 0 { q - 1 } else { q });
        prop_assert_eq!(r.ceil(), if rem > 0 { q + 1 } else { q });
    }
}

#[test]
fn fast_paths_match_reference_on_boundary_cases() {
    let edge = [
        0,
        1,
        -1,
        TWO_63 - 1,
        TWO_63,
        -TWO_63,
        -TWO_63 - 1,
        // One step inside the range ends: the reference's `abs()` panics in
        // debug builds on a sum or difference that lands on i128::MIN.
        i128::MAX - 1,
        i128::MIN + 2,
    ];
    for &n1 in &edge {
        for &n2 in &edge {
            for &d in &[1, 2, 3, TWO_63 - 1, TWO_63, TWO_63 + 1, i128::MAX] {
                let (a, b) = (Rational::new(n1, d), Rational::new(n2, d));
                let (ra, rb) = (parts(a), parts(b));
                assert_eq!(
                    checked_parts(a.checked_add(b)),
                    reference::checked_add(ra, rb)
                );
                assert_eq!(
                    checked_parts(a.checked_sub(b)),
                    reference::checked_sub(ra, rb)
                );
                assert_eq!(
                    checked_parts(a.checked_mul(b)),
                    reference::checked_mul(ra, rb)
                );
                assert_eq!(
                    checked_parts(a.checked_div(b)),
                    reference::checked_div(ra, rb)
                );
                let got = panic::catch_unwind(|| a.cmp(&b)).ok();
                assert_eq!(got, reference::cmp(ra, rb), "{a:?} vs {b:?}");
            }
        }
    }
}

#[test]
fn i64_cross_product_respects_sign_at_the_boundary() {
    // 2^63 does not fit in i64: a fast path that truncated it would see a
    // negative value and flip the order.
    let big = Rational::new(TWO_63, 3);
    let small = Rational::new(TWO_63 - 1, 5);
    assert_eq!(big.cmp(&small), Ordering::Greater);
    assert_eq!(small.cmp(&big), Ordering::Less);
    let low = Rational::new(-TWO_63 - 1, 7);
    assert_eq!(low.cmp(&Rational::new(-TWO_63, 7)), Ordering::Less);
}

#[test]
fn min_numerator_normalises_where_it_fits() {
    let min = i128::MIN;
    assert_eq!(parts(Rational::new(min, 1)), (min, 1));
    assert_eq!(parts(Rational::new(min, 2)), (min / 2, 1));
    assert_eq!(parts(Rational::new(min, -2)), (-(min / 2), 1));
    assert_eq!(parts(Rational::new(min, 3)), (min, 3));
    assert_eq!(Rational::new(min, min), Rational::ONE);
    assert_eq!(Rational::new(0, min), Rational::ZERO);
    assert_eq!(Rational::from_integer(min).floor(), min);
    assert_eq!(Rational::from_integer(min).ceil(), min);
}

#[test]
#[should_panic(expected = "rational normalization overflow")]
fn min_numerator_with_negative_denominator_panics() {
    let _ = Rational::new(i128::MIN, -1);
}

#[test]
#[should_panic(expected = "rational normalization overflow")]
fn min_denominator_panics() {
    let _ = Rational::new(1, i128::MIN);
}

#[test]
#[should_panic(expected = "rational normalization overflow")]
fn recip_of_min_panics() {
    let _ = Rational::from_integer(i128::MIN).recip();
}

#[test]
#[should_panic(expected = "rational negation overflow")]
fn negating_min_panics() {
    let _ = -Rational::from_integer(i128::MIN);
}

#[test]
#[should_panic(expected = "rational negation overflow")]
fn abs_of_min_panics() {
    let _ = Rational::from_integer(i128::MIN).abs();
}

#[test]
fn floor_and_ceil_near_min_do_not_wrap() {
    let r = Rational::new(i128::MIN + 1, 3);
    // i128::MIN + 1 = -(2^127 - 1), and 2^127 - 1 ≡ 1 (mod 3).
    let q = (i128::MIN + 1) / 3;
    assert_eq!(r.floor(), q - 1);
    assert_eq!(r.ceil(), q);
    let r = Rational::new(i128::MAX, 2);
    assert_eq!(r.floor(), i128::MAX / 2);
    assert_eq!(r.ceil(), i128::MAX / 2 + 1);
}
