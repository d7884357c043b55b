//! Property tests: probability and metric invariants, and the
//! arithmetic contract of `Matrix::matvec_into`.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use tu_ml::{
    accuracy, argmax, auroc, expected_calibration_error, fit_temperature, softmax_inplace, Dataset,
    Matrix, Temperature,
};

/// A value for the kernel test: mostly ordinary, with signed zeros,
/// subnormals and infinities mixed in.
fn kernel_value(rng: &mut StdRng) -> f32 {
    let sign = if rng.random_bool(0.5) { -1.0 } else { 1.0 };
    match rng.random_range(0..20u32) {
        0 => 0.0,
        1 => -0.0,
        2 => sign * f32::from_bits(rng.random_range(1..0x0080_0000u32)),
        3 if rng.random_bool(0.1) => sign * f32::INFINITY,
        _ => sign * rng.random::<f32>() * 4.0,
    }
}

/// Equal bits, or both NaN: Rust leaves a NaN's sign and payload
/// unspecified, so only NaN-ness is part of the contract.
fn same_f32(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

#[test]
fn matvec_matches_a_sum_per_row_on_every_shape() {
    let mut rng = StdRng::seed_from_u64(0x6d76);
    for rows in 1..=20 {
        for cols in 1..=140 {
            let data: Vec<f32> = (0..rows * cols).map(|_| kernel_value(&mut rng)).collect();
            let x: Vec<f32> = (0..cols).map(|_| kernel_value(&mut rng)).collect();
            let mut m = Matrix::from_vec(rows, cols, data);
            // One row of zeros signed against `x`, so every product is
            // -0.0 (NaN against an infinity): its sum must stay -0.0.
            let zero_row = rng.random_range(0..rows);
            m.update(|d| {
                for (w, &xc) in d[zero_row * cols..(zero_row + 1) * cols].iter_mut().zip(&x) {
                    *w = if xc.is_sign_negative() { 0.0 } else { -0.0 };
                }
            });
            let mut out = vec![f32::NAN; rows];
            m.matvec_into(&x, &mut out);
            for (r, &got) in out.iter().enumerate() {
                let want: f32 = m.row(r).iter().zip(&x).map(|(a, b)| a * b).sum();
                assert!(
                    same_f32(got, want),
                    "{rows}x{cols} row {r}: kernel {got:e} ({:#x}), sum {want:e} ({:#x})",
                    got.to_bits(),
                    want.to_bits()
                );
            }
            let zero = out[zero_row];
            let infinite_x = x.iter().any(|v| v.is_infinite());
            assert!(
                infinite_x || zero.to_bits() == (-0.0f32).to_bits(),
                "{rows}x{cols}: all -0.0 products summed to {zero:e}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn softmax_is_distribution(z in prop::collection::vec(-50.0f32..50.0, 1..10)) {
        let mut p = z.clone();
        softmax_inplace(&mut p);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|v| (0.0..=1.0).contains(v)));
        prop_assert_eq!(argmax(&p), argmax(&z), "softmax must preserve argmax");
    }

    #[test]
    fn temperature_preserves_argmax(
        z in prop::collection::vec(-20.0f32..20.0, 2..8),
        t in 0.05f32..10.0,
    ) {
        let p = Temperature(t).apply(&z);
        prop_assert_eq!(argmax(&p), argmax(&z));
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn auroc_bounded_and_flip_symmetric(
        scores in prop::collection::vec(0.0f64..1.0, 2..40),
        labels in prop::collection::vec(any::<bool>(), 2..40),
    ) {
        let n = scores.len().min(labels.len());
        let (s, l) = (&scores[..n], &labels[..n]);
        let a = auroc(s, l);
        prop_assert!((0.0..=1.0).contains(&a));
        // Negating scores flips the ranking: AUROC becomes 1 - AUROC
        // (when both classes are present).
        if l.iter().any(|&x| x) && l.iter().any(|&x| !x) {
            let neg: Vec<f64> = s.iter().map(|v| -v).collect();
            prop_assert!((auroc(&neg, l) - (1.0 - a)).abs() < 1e-9);
        }
    }

    #[test]
    fn ece_bounded(
        conf in prop::collection::vec(0.0f64..1.0, 1..40),
        correct in prop::collection::vec(any::<bool>(), 1..40),
    ) {
        let n = conf.len().min(correct.len());
        let e = expected_calibration_error(&conf[..n], &correct[..n], 10);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&e));
    }

    #[test]
    fn accuracy_bounded(preds in prop::collection::vec(0usize..5, 0..30)) {
        let truth: Vec<usize> = preds.iter().map(|p| (p + 1) % 5).collect();
        prop_assert!((0.0..=1.0).contains(&accuracy(&preds, &truth)));
        if !preds.is_empty() {
            prop_assert_eq!(accuracy(&preds, &preds), 1.0);
        }
    }

    #[test]
    fn dataset_split_partitions(n in 2usize..60, frac in 0.1f64..0.9, seed in 0u64..100) {
        let ds = Dataset::new(
            (0..n).map(|i| vec![i as f32]).collect(),
            (0..n).map(|i| i % 3).collect(),
            3,
        );
        let (a, b) = ds.split(frac, seed);
        prop_assert_eq!(a.len() + b.len(), n);
        prop_assert!(!a.is_empty() && !b.is_empty());
        // Every original row appears exactly once across the halves.
        let mut seen: Vec<i64> = a.x.iter().chain(&b.x).map(|v| v[0] as i64).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n as i64).collect::<Vec<_>>());
    }

    #[test]
    fn fitted_temperature_never_worse_than_identity(
        flip in prop::collection::vec(any::<bool>(), 10..60),
    ) {
        // NLL at the fitted temperature must be ≤ NLL at T = 1.
        let logits: Vec<Vec<f32>> = flip.iter().map(|_| vec![2.0, -1.0]).collect();
        let labels: Vec<usize> = flip.iter().map(|&f| usize::from(f)).collect();
        let t = fit_temperature(&logits, &labels);
        let nll = |temp: &Temperature| -> f64 {
            logits
                .iter()
                .zip(&labels)
                .map(|(z, &y)| -f64::from(temp.apply(z)[y].max(1e-9)).ln())
                .sum::<f64>()
        };
        prop_assert!(nll(&t) <= nll(&Temperature(1.0)) + 1e-6);
    }
}
