//! Golden-equivalence suite for the MLP's float operations.
//!
//! The refit and cascade golden suites compare the library against
//! transcriptions that still train through the library's own `Mlp`, so
//! a change to its arithmetic or to the order of its operations moves
//! both sides together. This suite pins the arithmetic itself: a
//! literal transcription ([`RefMlp`]) of the arithmetic of `Mlp::{new,
//! fit, partial_fit, logits}` written the plain way (each output one
//! `sum` over its row, fresh vectors per example and layer, the Adam
//! step by index), of the `Matrix` products they call, of the epoch
//! shuffle and of `softmax_inplace`, compared bit
//! for bit on every weight, bias, loss and logit — after `fit`, and
//! after each call of a series of `partial_fit(.., 6)` calls on a
//! training set that grows by one row per call, as a customer's local
//! refit does.

use rand::prelude::*;
use rand::rngs::StdRng;
use tu_ml::{softmax_inplace, Dataset, Mlp, MlpConfig};

/// One dense layer of the transcription: `out × in` row-major weights,
/// biases and Adam moments.
#[derive(Clone)]
struct RefLayer {
    rows: usize,
    cols: usize,
    w: Vec<f32>,
    b: Vec<f32>,
    mw: Vec<f32>,
    vw: Vec<f32>,
    mb: Vec<f32>,
    vb: Vec<f32>,
}

impl RefLayer {
    fn new(rng: &mut StdRng, inp: usize, out: usize) -> Self {
        let scale = (2.0 / inp.max(1) as f32).sqrt();
        let mut w = Vec::with_capacity(out * inp);
        for _ in 0..out {
            for _ in 0..inp {
                w.push((rng.random::<f32>() * 2.0 - 1.0) * scale);
            }
        }
        RefLayer {
            rows: out,
            cols: inp,
            w,
            b: vec![0.0; out],
            mw: vec![0.0; out * inp],
            vw: vec![0.0; out * inp],
            mb: vec![0.0; out],
            vb: vec![0.0; out],
        }
    }

    fn row(&self, r: usize) -> &[f32] {
        &self.w[r * self.cols..(r + 1) * self.cols]
    }

    /// `Matrix::matvec_into`.
    fn matvec_into(&self, x: &[f32], out: &mut [f32]) {
        for (r, o) in out.iter_mut().enumerate() {
            let row = self.row(r);
            *o = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// `Matrix::t_matvec_into`.
    fn t_matvec_into(&self, x: &[f32], out: &mut [f32]) {
        out.iter_mut().for_each(|o| *o = 0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let row = self.row(r);
            for (o, &w) in out.iter_mut().zip(row) {
                *o += xr * w;
            }
        }
    }
}

/// `softmax_inplace`.
fn ref_softmax(z: &mut [f32]) {
    if z.is_empty() {
        return;
    }
    let max = z.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in z.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in z.iter_mut() {
            *v /= sum;
        }
    }
}

/// `Dataset::epoch_order`.
fn ref_epoch_order(len: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..len).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    idx
}

/// The transcription of `Mlp`.
struct RefMlp {
    layers: Vec<RefLayer>,
    config: MlpConfig,
    adam_t: u64,
}

impl RefMlp {
    fn new(dim: usize, n_classes: usize, config: MlpConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let layers = if config.hidden == 0 {
            vec![RefLayer::new(&mut rng, dim, n_classes)]
        } else {
            vec![
                RefLayer::new(&mut rng, dim, config.hidden),
                RefLayer::new(&mut rng, config.hidden, n_classes),
            ]
        };
        RefMlp {
            layers,
            config,
            adam_t: 0,
        }
    }

    fn logits(&self, x: &[f32]) -> Vec<f32> {
        let (acts, _) = self.forward(x);
        acts.last().expect("at least one layer").clone()
    }

    fn forward(&self, x: &[f32]) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let mut pre = Vec::with_capacity(self.layers.len());
        let mut post = Vec::with_capacity(self.layers.len());
        let mut cur: Vec<f32> = x.to_vec();
        for (li, layer) in self.layers.iter().enumerate() {
            let mut z = vec![0.0f32; layer.b.len()];
            layer.matvec_into(&cur, &mut z);
            for (zi, &bi) in z.iter_mut().zip(&layer.b) {
                *zi += bi;
            }
            let is_last = li + 1 == self.layers.len();
            if is_last {
                pre.push(z.clone());
                post.push(z);
            } else {
                pre.push(z.clone());
                let h: Vec<f32> = z.iter().map(|&v| v.max(0.0)).collect();
                cur = h.clone();
                post.push(h);
            }
        }
        (pre, post)
    }

    fn fit(&mut self, ds: &Dataset) -> f32 {
        let mut last = 0.0;
        for epoch in 0..self.config.epochs {
            last = self.run_epoch(ds, self.config.seed ^ (epoch as u64 + 1));
        }
        last
    }

    fn partial_fit(&mut self, ds: &Dataset, epochs: usize) -> f32 {
        let mut last = 0.0;
        for epoch in 0..epochs {
            last = self.run_epoch(ds, self.adam_t.wrapping_add(epoch as u64 + 17));
        }
        last
    }

    fn run_epoch(&mut self, ds: &Dataset, seed: u64) -> f32 {
        if ds.is_empty() {
            return 0.0;
        }
        let order = ref_epoch_order(ds.len(), seed);
        let mut total_loss = 0.0f32;
        for chunk in order.chunks(self.config.batch.max(1)) {
            total_loss += self.step_batch(ds, chunk);
        }
        total_loss / ds.len() as f32
    }

    fn accumulate_gradients(
        &self,
        x: &[f32],
        y: usize,
        gw: &mut [Vec<f32>],
        gb: &mut [Vec<f32>],
    ) -> f32 {
        let n_layers = self.layers.len();
        let (pre, post) = self.forward(x);
        let mut probs = pre[n_layers - 1].clone();
        ref_softmax(&mut probs);
        let loss = -(probs[y].max(1e-9)).ln();
        let mut delta: Vec<f32> = probs;
        delta[y] -= 1.0;
        for li in (0..n_layers).rev() {
            let input: &[f32] = if li == 0 { x } else { &post[li - 1] };
            let cols = self.layers[li].cols;
            let g = &mut gw[li];
            for (r, &d) in delta.iter().enumerate() {
                if d == 0.0 {
                    continue;
                }
                let row = &mut g[r * cols..(r + 1) * cols];
                for (gv, &xi) in row.iter_mut().zip(input) {
                    *gv += d * xi;
                }
            }
            for (gbv, &d) in gb[li].iter_mut().zip(&delta) {
                *gbv += d;
            }
            if li > 0 {
                let mut prev = vec![0.0f32; cols];
                self.layers[li].t_matvec_into(&delta, &mut prev);
                for (p, &z) in prev.iter_mut().zip(&pre[li - 1]) {
                    if z <= 0.0 {
                        *p = 0.0;
                    }
                }
                delta = prev;
            }
        }
        loss
    }

    fn step_batch(&mut self, ds: &Dataset, idx: &[usize]) -> f32 {
        let mut gw: Vec<Vec<f32>> = self
            .layers
            .iter()
            .map(|l| vec![0.0; l.rows * l.cols])
            .collect();
        let mut gb: Vec<Vec<f32>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        let mut loss_sum = 0.0f32;
        for &i in idx {
            loss_sum += self.accumulate_gradients(&ds.x[i], ds.y[i], &mut gw, &mut gb);
        }
        self.adam_t += 1;
        let t = self.adam_t as f32;
        let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        let lr = self.config.lr;
        let l2 = self.config.l2;
        let scale = 1.0 / idx.len().max(1) as f32;
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for (j, w) in layer.w.iter_mut().enumerate() {
                let g = gw[li][j] * scale + l2 * *w;
                layer.mw[j] = b1 * layer.mw[j] + (1.0 - b1) * g;
                layer.vw[j] = b2 * layer.vw[j] + (1.0 - b2) * g * g;
                *w -= lr * (layer.mw[j] / bc1) / ((layer.vw[j] / bc2).sqrt() + eps);
            }
            for (j, b) in layer.b.iter_mut().enumerate() {
                let g = gb[li][j] * scale;
                layer.mb[j] = b1 * layer.mb[j] + (1.0 - b1) * g;
                layer.vb[j] = b2 * layer.vb[j] + (1.0 - b2) * g * g;
                *b -= lr * (layer.mb[j] / bc1) / ((layer.vb[j] / bc2).sqrt() + eps);
            }
        }
        loss_sum
    }
}

/// `rows` feature rows of width `dim` with labels below `n_classes`:
/// values in about ±3 with exact zeros and negatives mixed in, so ReLU
/// gating and the zero-skips in the gradient paths both fire.
fn dataset(rows: usize, dim: usize, n_classes: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f32>> = (0..rows)
        .map(|_| {
            (0..dim)
                .map(|_| {
                    if rng.random::<f32>() < 0.15 {
                        0.0
                    } else {
                        rng.random::<f32>() * 6.0 - 3.0
                    }
                })
                .collect()
        })
        .collect();
    let y = (0..rows).map(|r| (r * 7 + r / 3) % n_classes).collect();
    Dataset::new(x, y, n_classes)
}

/// Every weight and bias bit of every layer, library against
/// transcription.
fn assert_params(lib: &Mlp, reference: &RefMlp, at: &str) {
    assert_eq!(lib.n_layers(), reference.layers.len(), "{at}: layer count");
    for (i, want) in reference.layers.iter().enumerate() {
        let (w, b) = lib.layer_params(i);
        assert_eq!(
            (w.rows, w.cols),
            (want.rows, want.cols),
            "{at}: layer {i} shape"
        );
        assert_eq!(bits(w.data()), bits(&want.w), "{at}: layer {i} weights");
        assert_eq!(bits(b), bits(&want.b), "{at}: layer {i} biases");
    }
}

/// Logit bits of both sides on `probe`'s rows.
fn assert_logits(lib: &Mlp, reference: &RefMlp, probe: &Dataset, at: &str) {
    for (r, x) in probe.x.iter().enumerate() {
        assert_eq!(
            bits(&lib.logits(x)),
            bits(&reference.logits(x)),
            "{at}: logits of row {r}"
        );
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The local refit's config: `TrainingConfig::fast()`'s hidden width,
/// epochs and seed over `MlpConfig`'s defaults.
fn refit_config(hidden: usize) -> MlpConfig {
    MlpConfig {
        hidden,
        epochs: 8,
        seed: 0x516,
        ..MlpConfig::default()
    }
}

/// `fit` on `fit_rows` rows, then `calls` calls of `partial_fit(.., 6)`
/// on a training set of 1, 2, …, `calls` rows, comparing parameters,
/// losses and logits after every call.
fn replay(dim: usize, n_classes: usize, config: MlpConfig, fit_rows: usize, calls: usize) {
    let mut lib = Mlp::new(dim, n_classes, config);
    let mut reference = RefMlp::new(dim, n_classes, config);
    let shape = format!("dim {dim}, hidden {}, {n_classes} classes", config.hidden);
    assert_params(&lib, &reference, &format!("{shape}: init"));

    let train = dataset(fit_rows, dim, n_classes, 1);
    let probe = dataset(5, dim, n_classes, 2);
    let loss = lib.fit(&train);
    assert_eq!(
        loss.to_bits(),
        reference.fit(&train).to_bits(),
        "{shape}: fit loss"
    );
    assert_params(&lib, &reference, &format!("{shape}: fit"));
    assert_logits(&lib, &reference, &probe, &format!("{shape}: fit"));

    let local = dataset(calls, dim, n_classes, 3);
    for call in 1..=calls {
        let rows = Dataset::new(
            local.x[..call].to_vec(),
            local.y[..call].to_vec(),
            n_classes,
        );
        let at = format!("{shape}: partial_fit call {call}");
        assert_eq!(
            lib.partial_fit(&rows, 6).to_bits(),
            reference.partial_fit(&rows, 6).to_bits(),
            "{at}: loss"
        );
        assert_params(&lib, &reference, &at);
        assert_logits(&lib, &reference, &probe, &at);
    }
}

#[test]
fn adapt_refit_shape_is_bit_identical_over_64_calls() {
    // The adapt workload's local refit: 130 features, hidden 24, 79
    // classes. 150 fit rows leave a last batch of 22; the series
    // crosses the batch size of 32 at call 33.
    replay(130, 79, refit_config(24), 150, 64);
}

#[test]
fn logistic_regression_is_bit_identical() {
    // Hidden 0: one layer, no ReLU, no back-propagation to a previous
    // layer. 13 features, not a multiple of 8.
    replay(13, 5, refit_config(0), 45, 12);
}

#[test]
fn odd_shapes_are_bit_identical() {
    // 7 features, a hidden width of 9, one-row batches and a batch of
    // 5 that 23 rows leave a remainder of 3.
    for batch in [1, 5] {
        let config = MlpConfig {
            batch,
            ..refit_config(9)
        };
        replay(7, 3, config, 23, 6);
    }
}

#[test]
fn every_small_width_is_bit_identical() {
    // Hidden widths and class counts 1..=17 (and no hidden layer) hit
    // every remainder of the forward kernel's blocks of outputs, in
    // both layers, through `fit` and a short `partial_fit` series.
    for hidden in 0..=17 {
        for n_classes in 1..=17 {
            replay(11, n_classes, refit_config(hidden), 9, 3);
        }
    }
}

#[test]
fn softmax_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(4);
    for len in [1usize, 2, 7, 79] {
        let z: Vec<f32> = (0..len)
            .map(|_| rng.random::<f32>() * 80.0 - 40.0)
            .collect();
        let (mut lib, mut reference) = (z.clone(), z);
        softmax_inplace(&mut lib);
        ref_softmax(&mut reference);
        assert_eq!(bits(&lib), bits(&reference), "length {len}");
    }
}
