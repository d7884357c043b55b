//! A multi-layer perceptron with manual backprop and Adam.
//!
//! This is the learned-model workhorse: the Sherlock-like baseline and
//! SigmaTyper's table-embedding classifier (the TaBERT substitute) are
//! both MLP heads over engineered features. Supports incremental
//! `partial_fit` so local models can be finetuned from DPBD-generated
//! weak labels without retraining from scratch (§4.2).

use crate::data::Dataset;
use crate::matrix::{argmax, softmax_inplace, Matrix};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct MlpConfig {
    /// Hidden layer width (single hidden layer; 0 = logistic regression).
    pub hidden: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// L2 regularization strength.
    pub l2: f32,
    /// Epochs for `fit`.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: 64,
            lr: 5e-3,
            l2: 1e-5,
            epochs: 30,
            batch: 32,
            seed: 0x5163,
        }
    }
}

/// One dense layer.
#[derive(Debug, Clone)]
struct Layer {
    w: Matrix,   // out × in
    b: Vec<f32>, // out
    // Adam state
    mw: Vec<f32>,
    vw: Vec<f32>,
    mb: Vec<f32>,
    vb: Vec<f32>,
}

impl Layer {
    fn new(rng: &mut StdRng, inp: usize, out: usize) -> Self {
        let scale = (2.0 / inp.max(1) as f32).sqrt();
        let w = Matrix::from_fn(out, inp, |_, _| (rng.random::<f32>() * 2.0 - 1.0) * scale);
        Layer {
            mw: vec![0.0; out * inp],
            vw: vec![0.0; out * inp],
            mb: vec![0.0; out],
            vb: vec![0.0; out],
            b: vec![0.0; out],
            w,
        }
    }

    /// `z = W·input + b`: the products summed first, then the bias.
    fn affine(&self, input: &[f32], z: &mut [f32]) {
        self.w.matvec_into(input, z);
        for (zi, &bi) in z.iter_mut().zip(&self.b) {
            *zi += bi;
        }
    }
}

fn relu_inplace(z: &mut [f32]) {
    for v in z {
        *v = v.max(0.0);
    }
}

/// The buffers backprop writes, sized once per `fit` or `partial_fit`
/// call and reused by every example and minibatch in it.
struct Scratch {
    /// Per layer: pre-activations, then the layer's error signal.
    pre: Vec<Vec<f32>>,
    /// Per hidden layer: ReLU outputs, the next layer's input.
    post: Vec<Vec<f32>>,
    /// `Wᵀ·delta` on its way to the layer below.
    back: Vec<f32>,
    /// Per layer: the minibatch's summed weight gradients, row-major.
    gw: Vec<Vec<f32>>,
    /// Per layer: the minibatch's summed bias gradients.
    gb: Vec<Vec<f32>>,
}

impl Scratch {
    fn new(mlp: &Mlp) -> Self {
        let outs = || mlp.layers.iter().map(|l| vec![0.0; l.b.len()]);
        Scratch {
            pre: outs().collect(),
            post: outs().take(mlp.layers.len() - 1).collect(),
            back: Vec::new(),
            gw: mlp
                .layers
                .iter()
                .map(|l| vec![0.0; l.w.rows * l.w.cols])
                .collect(),
            gb: outs().collect(),
        }
    }
}

/// The classifier.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
    config: MlpConfig,
    n_classes: usize,
    dim: usize,
    adam_t: u64,
}

impl Mlp {
    /// Create an untrained model for `dim` features and `n_classes` classes.
    ///
    /// # Panics
    /// Panics when `dim` or `n_classes` is zero.
    #[must_use]
    pub fn new(dim: usize, n_classes: usize, config: MlpConfig) -> Self {
        assert!(
            dim > 0 && n_classes > 0,
            "dim and n_classes must be positive"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let layers = if config.hidden == 0 {
            vec![Layer::new(&mut rng, dim, n_classes)]
        } else {
            vec![
                Layer::new(&mut rng, dim, config.hidden),
                Layer::new(&mut rng, config.hidden, n_classes),
            ]
        };
        Mlp {
            layers,
            config,
            n_classes,
            dim,
            adam_t: 0,
        }
    }

    /// Number of classes.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of dense layers (1 for logistic regression, 2 with a
    /// hidden layer).
    #[must_use]
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Read access to layer `i`'s parameters: the `out × in` row-major
    /// weight matrix and the `out`-length bias vector (what a test
    /// compares to pin every weight bit); training state stays private.
    ///
    /// # Panics
    /// Panics when `i >= n_layers()`.
    #[must_use]
    pub fn layer_params(&self, i: usize) -> (&Matrix, &[f32]) {
        let layer = &self.layers[i];
        (&layer.w, &layer.b)
    }

    /// Feature dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Raw logits for one input.
    ///
    /// # Panics
    /// Panics when `x.len() != dim()`.
    #[must_use]
    pub fn logits(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.dim, "input dim mismatch");
        let mut act = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            let mut z = vec![0.0f32; layer.b.len()];
            layer.affine(if li == 0 { x } else { &act }, &mut z);
            if li + 1 < self.layers.len() {
                relu_inplace(&mut z);
            }
            act = z;
        }
        act
    }

    /// Class probabilities for one input.
    #[must_use]
    pub fn predict_proba(&self, x: &[f32]) -> Vec<f32> {
        let mut z = self.logits(x);
        softmax_inplace(&mut z);
        z
    }

    /// Hard prediction with its probability.
    #[must_use]
    pub fn predict(&self, x: &[f32]) -> (usize, f32) {
        let p = self.predict_proba(x);
        let i = argmax(&p).expect("nonempty classes");
        (i, p[i])
    }

    /// Train from scratch on a dataset (resets nothing; call on a fresh
    /// model). Returns final-epoch mean cross-entropy loss.
    pub fn fit(&mut self, ds: &Dataset) -> f32 {
        let mut scratch = Scratch::new(self);
        let mut last = 0.0;
        for epoch in 0..self.config.epochs {
            last = self.run_epoch(ds, self.config.seed ^ (epoch as u64 + 1), &mut scratch);
        }
        last
    }

    /// One incremental pass over (possibly new) data — the finetuning
    /// primitive for local models. Returns mean loss of the pass.
    pub fn partial_fit(&mut self, ds: &Dataset, epochs: usize) -> f32 {
        let mut scratch = Scratch::new(self);
        let mut last = 0.0;
        for epoch in 0..epochs {
            last = self.run_epoch(
                ds,
                self.adam_t.wrapping_add(epoch as u64 + 17),
                &mut scratch,
            );
        }
        last
    }

    fn run_epoch(&mut self, ds: &Dataset, seed: u64, scratch: &mut Scratch) -> f32 {
        if ds.is_empty() {
            return 0.0;
        }
        assert_eq!(ds.dim(), self.dim, "dataset dim mismatch");
        assert!(
            ds.n_classes <= self.n_classes,
            "dataset has too many classes"
        );
        let order = ds.epoch_order(seed);
        let mut total_loss = 0.0f32;
        for chunk in order.chunks(self.config.batch.max(1)) {
            total_loss += self.step_batch(ds, chunk, scratch);
        }
        total_loss / ds.len() as f32
    }

    /// Backprop for one example, accumulating into `scratch.gw` and
    /// `scratch.gb`; returns the example's cross-entropy loss. Shared by
    /// training and the finite-difference gradient check.
    ///
    /// Each layer's error signal takes the place of its pre-activations
    /// in `scratch.pre`: the output's become the probabilities and then
    /// `p - onehot`, and a hidden layer's are needed only for the ReLU
    /// mask that turns `Wᵀ·delta` into its own.
    fn accumulate_gradients(&self, x: &[f32], y: usize, scratch: &mut Scratch) -> f32 {
        let Scratch {
            pre,
            post,
            back,
            gw,
            gb,
        } = scratch;
        let n_layers = self.layers.len();
        for (li, layer) in self.layers.iter().enumerate() {
            layer.affine(if li == 0 { x } else { &post[li - 1] }, &mut pre[li]);
            if li + 1 < n_layers {
                post[li].copy_from_slice(&pre[li]);
                relu_inplace(&mut post[li]);
            }
        }
        let delta = &mut pre[n_layers - 1];
        softmax_inplace(delta);
        let loss = -(delta[y].max(1e-9)).ln();
        delta[y] -= 1.0;

        for li in (0..n_layers).rev() {
            let input: &[f32] = if li == 0 { x } else { &post[li - 1] };
            let delta = &pre[li];
            // Accumulate gradients: gw += delta ⊗ input, gb += delta.
            let cols = input.len();
            for (&d, row) in delta.iter().zip(gw[li].chunks_exact_mut(cols)) {
                if d == 0.0 {
                    continue;
                }
                for (gv, &xi) in row.iter_mut().zip(input) {
                    *gv += d * xi;
                }
            }
            for (gbv, &d) in gb[li].iter_mut().zip(delta) {
                *gbv += d;
            }
            if li > 0 {
                // Propagate: delta_prev = Wᵀ·delta ⊙ ReLU'(pre_prev)
                back.resize(cols, 0.0);
                self.layers[li].w.t_matvec_into(delta, back);
                for (z, &p) in pre[li - 1].iter_mut().zip(back.iter()) {
                    *z = if *z <= 0.0 { 0.0 } else { p };
                }
            }
        }
        loss
    }

    /// One Adam step on a minibatch; returns summed loss.
    fn step_batch(&mut self, ds: &Dataset, idx: &[usize], scratch: &mut Scratch) -> f32 {
        for g in scratch.gw.iter_mut().chain(&mut scratch.gb) {
            g.fill(0.0);
        }
        let mut loss_sum = 0.0f32;
        for &i in idx {
            loss_sum += self.accumulate_gradients(&ds.x[i], ds.y[i], scratch);
        }

        // Adam update.
        self.adam_t += 1;
        let t = self.adam_t as f32;
        let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        let lr = self.config.lr;
        let l2 = self.config.l2;
        let scale = 1.0 / idx.len().max(1) as f32;
        for ((layer, grad_w), grad_b) in self.layers.iter_mut().zip(&scratch.gw).zip(&scratch.gb) {
            let Layer {
                w,
                b,
                mw,
                vw,
                mb,
                vb,
            } = layer;
            w.update(|data| {
                for (((w, &gw), m), v) in data.iter_mut().zip(grad_w).zip(mw).zip(vw) {
                    let g = gw * scale + l2 * *w;
                    *m = b1 * *m + (1.0 - b1) * g;
                    *v = b2 * *v + (1.0 - b2) * g * g;
                    *w -= lr * (*m / bc1) / ((*v / bc2).sqrt() + eps);
                }
            });
            for (((b, &gb), m), v) in b.iter_mut().zip(grad_b).zip(mb).zip(vb) {
                let g = gb * scale;
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                *b -= lr * (*m / bc1) / ((*v / bc2).sqrt() + eps);
            }
        }
        loss_sum
    }

    /// Mean cross-entropy on a dataset (no updates).
    #[must_use]
    pub fn loss(&self, ds: &Dataset) -> f32 {
        if ds.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (x, &y) in ds.x.iter().zip(&ds.y) {
            let p = self.predict_proba(x);
            total += -(p[y].max(1e-9)).ln();
        }
        total / ds.len() as f32
    }

    /// Accuracy on a dataset.
    #[must_use]
    pub fn accuracy(&self, ds: &Dataset) -> f64 {
        if ds.is_empty() {
            return 0.0;
        }
        let hits =
            ds.x.iter()
                .zip(&ds.y)
                .filter(|(x, &y)| self.predict(x).0 == y)
                .count();
        hits as f64 / ds.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated Gaussian-ish blobs.
    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let cx = if class == 0 { -2.0 } else { 2.0 };
            x.push(vec![
                cx + rng.random::<f32>() - 0.5,
                -cx + rng.random::<f32>() - 0.5,
            ]);
            y.push(class);
        }
        Dataset::new(x, y, 2)
    }

    /// XOR — requires the hidden layer.
    fn xor(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a = rng.random_bool(0.5);
            let b = rng.random_bool(0.5);
            let mut v = vec![f32::from(a as u8), f32::from(b as u8)];
            v[0] += rng.random::<f32>() * 0.2 - 0.1;
            v[1] += rng.random::<f32>() * 0.2 - 0.1;
            x.push(v);
            y.push(usize::from(a ^ b));
        }
        Dataset::new(x, y, 2)
    }

    #[test]
    fn learns_blobs_without_hidden_layer() {
        let ds = blobs(200, 1);
        let mut m = Mlp::new(
            2,
            2,
            MlpConfig {
                hidden: 0,
                epochs: 40,
                ..MlpConfig::default()
            },
        );
        m.fit(&ds);
        assert!(m.accuracy(&ds) > 0.95, "accuracy {}", m.accuracy(&ds));
    }

    #[test]
    fn learns_xor_with_hidden_layer() {
        let ds = xor(400, 2);
        let mut m = Mlp::new(
            2,
            2,
            MlpConfig {
                hidden: 16,
                epochs: 120,
                lr: 1e-2,
                ..MlpConfig::default()
            },
        );
        m.fit(&ds);
        assert!(m.accuracy(&ds) > 0.95, "xor accuracy {}", m.accuracy(&ds));
    }

    #[test]
    fn probabilities_form_distribution() {
        let ds = blobs(50, 3);
        let mut m = Mlp::new(2, 2, MlpConfig::default());
        m.fit(&ds);
        for x in &ds.x {
            let p = m.predict_proba(x);
            let s: f32 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn partial_fit_improves_on_new_region() {
        // Train on blobs, then drift the blobs; partial_fit should adapt.
        let ds = blobs(200, 4);
        let mut m = Mlp::new(
            2,
            2,
            MlpConfig {
                epochs: 30,
                ..MlpConfig::default()
            },
        );
        m.fit(&ds);
        // Shifted blobs: swap the classes (label shift).
        let mut shifted = ds.clone();
        for y in &mut shifted.y {
            *y = 1 - *y;
        }
        let before = m.accuracy(&shifted);
        m.partial_fit(&shifted, 30);
        let after = m.accuracy(&shifted);
        assert!(after > before + 0.3, "before {before} after {after}");
    }

    #[test]
    fn deterministic_training() {
        let ds = blobs(100, 5);
        let mut a = Mlp::new(2, 2, MlpConfig::default());
        let mut b = Mlp::new(2, 2, MlpConfig::default());
        a.fit(&ds);
        b.fit(&ds);
        assert_eq!(a.logits(&ds.x[0]), b.logits(&ds.x[0]));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // indices drive clones of `model`
    fn numerical_gradient_check() {
        // Compare backprop gradients against central finite differences
        // for every weight and bias of a tiny network.
        let x = vec![0.3f32, -0.7];
        let y = 1usize;
        let ds = Dataset::new(vec![x.clone()], vec![y], 2);
        let model = Mlp::new(
            2,
            2,
            MlpConfig {
                hidden: 3,
                lr: 0.0,
                l2: 0.0,
                epochs: 0,
                batch: 1,
                seed: 9,
            },
        );
        let mut scratch = Scratch::new(&model);
        let _ = model.accumulate_gradients(&x, y, &mut scratch);
        let (gw, gb) = (scratch.gw, scratch.gb);

        let eps = 1e-3f32;
        for li in 0..model.layers.len() {
            let (rows, cols) = (model.layers[li].w.rows, model.layers[li].w.cols);
            for r in 0..rows {
                for c in 0..cols {
                    let mut plus = model.clone();
                    plus.layers[li].w.update(|w| w[r * cols + c] += eps);
                    let mut minus = model.clone();
                    minus.layers[li].w.update(|w| w[r * cols + c] -= eps);
                    let numeric = (plus.loss(&ds) - minus.loss(&ds)) / (2.0 * eps);
                    let analytic = gw[li][r * cols + c];
                    assert!(
                        (numeric - analytic).abs() < 2e-2,
                        "layer {li} w[{r},{c}]: numeric {numeric} vs analytic {analytic}"
                    );
                }
            }
            for bidx in 0..model.layers[li].b.len() {
                let mut plus = model.clone();
                plus.layers[li].b[bidx] += eps;
                let mut minus = model.clone();
                minus.layers[li].b[bidx] -= eps;
                let numeric = (plus.loss(&ds) - minus.loss(&ds)) / (2.0 * eps);
                let analytic = gb[li][bidx];
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "layer {li} b[{bidx}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn empty_dataset_noop() {
        let mut m = Mlp::new(2, 2, MlpConfig::default());
        let empty = Dataset::default();
        assert_eq!(m.partial_fit(&empty, 3), 0.0);
        assert_eq!(m.loss(&empty), 0.0);
        assert_eq!(m.accuracy(&empty), 0.0);
    }

    #[test]
    #[should_panic(expected = "input dim mismatch")]
    fn wrong_dim_panics() {
        let m = Mlp::new(3, 2, MlpConfig::default());
        let _ = m.predict_proba(&[1.0]);
    }
}
