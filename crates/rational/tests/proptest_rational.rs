//! Property-based tests: `Rational` behaves as the ordered field ℚ on the
//! representable range, and the `Scalar` abstraction is consistent across
//! its two implementations.

use clos_rational::{Rational, Scalar, TotalF64};
use proptest::prelude::*;

/// Rationals with moderate numerators/denominators so products of several
/// operands stay well inside `i128`.
fn rational() -> impl Strategy<Value = Rational> {
    (-1000i128..=1000, 1i128..=1000).prop_map(|(n, d)| Rational::new(n, d))
}

/// Any `f64` but NaN: arbitrary bit patterns (every binade and sign),
/// weighted towards ±0.0, ±∞, the extremes and the subnormals.
fn non_nan_f64() -> impl Strategy<Value = f64> {
    let special = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        5e-324,
        -5e-324,
    ];
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (0u64..1 << 52).prop_map(f64::from_bits),
        (0u64..1 << 52).prop_map(|m| -f64::from_bits(m)),
        (0usize..special.len()).prop_map(move |i| special[i]),
    ]
    .prop_filter("NaN has no order", |x| !x.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn canonical_form_invariants(a in rational()) {
        prop_assert!(a.denominator() > 0);
        let g = {
            // gcd of |num| and den must be 1 (canonical form).
            let (mut x, mut y) = (a.numerator().abs(), a.denominator());
            while y != 0 {
                let t = x % y;
                x = y;
                y = t;
            }
            x
        };
        prop_assert!(g == 1 || a.numerator() == 0);
    }

    #[test]
    fn addition_laws(a in rational(), b in rational(), c in rational()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a + Rational::ZERO, a);
        prop_assert_eq!(a + (-a), Rational::ZERO);
        prop_assert_eq!(a - b, a + (-b));
    }

    #[test]
    fn multiplication_laws(a in rational(), b in rational(), c in rational()) {
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * Rational::ONE, a);
        prop_assert_eq!(a * (b + c), a * b + a * c);
        if !a.is_zero() {
            prop_assert_eq!(a * a.recip(), Rational::ONE);
            prop_assert_eq!((b / a) * a, b);
        }
    }

    #[test]
    fn order_is_total_and_compatible(a in rational(), b in rational(), c in rational()) {
        // Totality/antisymmetry via cmp.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Translation invariance.
        prop_assert_eq!(a.cmp(&b), (a + c).cmp(&(b + c)));
        // Scaling by positive preserves order.
        let scale = Rational::new(3, 7);
        prop_assert_eq!(a.cmp(&b), (a * scale).cmp(&(b * scale)));
        // Scaling by negative reverses it.
        prop_assert_eq!(a.cmp(&b), (b * -scale).cmp(&(a * -scale)));
    }

    #[test]
    fn display_parse_round_trip(a in rational()) {
        let s = a.to_string();
        let parsed: Rational = s.parse().expect("display output parses");
        prop_assert_eq!(parsed, a);
    }

    #[test]
    fn floor_ceil_bracket(a in rational()) {
        let f = a.floor();
        let c = a.ceil();
        prop_assert!(Rational::from_integer(f) <= a);
        prop_assert!(a <= Rational::from_integer(c));
        prop_assert!(c - f <= 1);
        prop_assert_eq!(c == f, a.is_integer());
    }

    #[test]
    fn abs_min_max(a in rational(), b in rational()) {
        prop_assert!(!a.abs().is_negative());
        prop_assert_eq!(a.min(b).min(a.max(b)), a.min(b));
        prop_assert_eq!(a.min(b) + a.max(b), a + b);
    }

    #[test]
    fn to_f64_preserves_order_approximately(a in rational(), b in rational()) {
        if a < b {
            // Distinct small rationals stay ordered (or equal within eps)
            // after conversion.
            prop_assert!(a.to_f64() <= b.to_f64() + 1e-9);
        }
    }

    /// `TotalF64`'s order is `f64`'s wherever `f64` has one: every
    /// non-NaN pair, with ±0.0 equal, ±∞ at the ends and subnormals in
    /// between.
    #[test]
    fn total_f64_order_matches_f64(a in non_nan_f64(), b in non_nan_f64()) {
        let (x, y) = (TotalF64::new(a), TotalF64::new(b));
        let want = a.partial_cmp(&b).unwrap();
        prop_assert_eq!(x.cmp(&y), want);
        prop_assert_eq!(x.partial_cmp(&y), Some(want));
        prop_assert_eq!(x < y, a < b);
        prop_assert_eq!(x <= y, a <= b);
        prop_assert_eq!(x > y, a > b);
        prop_assert_eq!(x >= y, a >= b);
        prop_assert_eq!(x == y, a == b);
    }

    #[test]
    fn scalar_impls_agree(n1 in -50i64..50, d1 in 1i64..50, n2 in -50i64..50, d2 in 1i64..50) {
        let (a, b) = (Rational::new(n1 as i128, d1 as i128), Rational::new(n2 as i128, d2 as i128));
        let (fa, fb) = (
            <TotalF64 as Scalar>::from_rational(a),
            <TotalF64 as Scalar>::from_rational(b),
        );
        prop_assert!(((a + b).to_f64() - (fa + fb).get()).abs() < 1e-9);
        prop_assert!(((a * b).to_f64() - (fa * fb).get()).abs() < 1e-9);
        if !b.is_zero() {
            prop_assert!(((a / b).to_f64() - (fa / fb).get()).abs() < 1e-6);
        }
    }

    #[test]
    fn checked_ops_match_unchecked_in_range(a in rational(), b in rational()) {
        prop_assert_eq!(a.checked_add(b).unwrap(), a + b);
        prop_assert_eq!(a.checked_sub(b).unwrap(), a - b);
        prop_assert_eq!(a.checked_mul(b).unwrap(), a * b);
        if !b.is_zero() {
            prop_assert_eq!(a.checked_div(b).unwrap(), a / b);
        } else {
            prop_assert!(a.checked_div(b).is_none());
        }
    }

    /// Denominators are capped at 20 here: the common denominator of a
    /// 20-element sum is bounded by lcm(1..=20) ≈ 2.3e8, well inside
    /// `i128`. (Unbounded random denominators overflow by design — the
    /// checked ops catch it — which its own test covers.)
    #[test]
    fn sum_matches_fold(
        values in prop::collection::vec(
            (-1000i128..=1000, 1i128..=20).prop_map(|(n, d)| Rational::new(n, d)),
            0..20,
        )
    ) {
        let sum: Rational = values.iter().copied().sum();
        let fold = values.iter().fold(Rational::ZERO, |acc, &v| acc + v);
        prop_assert_eq!(sum, fold);
    }

    /// Overflow in a long sum is detected by the checked API rather than
    /// wrapping silently.
    #[test]
    fn checked_sum_detects_overflow_or_agrees(
        values in prop::collection::vec(rational(), 0..24)
    ) {
        let mut acc = Some(Rational::ZERO);
        for &v in &values {
            acc = acc.and_then(|a| a.checked_add(v));
        }
        if let Some(total) = acc {
            let fold: Rational = values.iter().copied().sum();
            prop_assert_eq!(total, fold);
        }
        // else: overflow detected, which is acceptable for adversarial
        // denominators; the panic path is exercised elsewhere.
    }
}
