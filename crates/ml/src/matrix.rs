//! Dense row-major f32 matrices — just enough linear algebra for the
//! classifiers in this crate.

/// Outputs [`Matrix::matvec_into`] scores per pass over the input: the
/// column-major copy pads each column to a multiple of this, so every
/// block is full.
const LANES: usize = 8;

/// A dense row-major matrix.
///
/// It also keeps its values column-major, each column padded with zeros
/// to a multiple of 8 rows, for [`Matrix::matvec_into`].
/// [`Matrix::update`] is the one writer and rebuilds that copy, so
/// [`Matrix::data`] is the one set of values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    data: Vec<f32>,
    /// `data` column-major: entry `(r, c)` at `c * stride + r`, where
    /// `stride` is `rows` rounded up to a multiple of [`LANES`].
    by_col: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::from_vec(rows, cols, vec![0.0; rows * cols])
    }

    /// Build from a function of `(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        let mut m = Matrix {
            rows,
            cols,
            data,
            by_col: vec![0.0; rows.next_multiple_of(LANES) * cols],
        };
        m.fill_by_col();
        m
    }

    /// Element accessor.
    #[inline]
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Row slice.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major data view.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Write the matrix: `f` gets the flat row-major data, and the
    /// column-major copy [`Matrix::matvec_into`] reads is rebuilt from
    /// it afterwards. The only way to change a value.
    pub fn update(&mut self, f: impl FnOnce(&mut [f32])) {
        f(&mut self.data);
        self.fill_by_col();
    }

    fn fill_by_col(&mut self) {
        if self.cols == 0 {
            return;
        }
        let stride = self.rows.next_multiple_of(LANES);
        for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                self.by_col[c * stride + r] = v;
            }
        }
    }

    /// `self · x` for a vector `x` (length `cols`), into `out` (length
    /// `rows`).
    ///
    /// Each output is `row.iter().zip(x).map(|(a, b)| a * b).sum()` to
    /// the bit: its own accumulator starts from `-0.0` (where
    /// `Iterator::sum` starts for `f32`) and adds its row's products
    /// left to right. Each block of 8 outputs shares one pass over `x`,
    /// reading the column-major copy, so the adds of a block run side by
    /// side instead of one dependent add per element.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matvec_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec dim");
        assert_eq!(out.len(), self.rows, "matvec out dim");
        let stride = self.rows.next_multiple_of(LANES);
        for r0 in (0..stride).step_by(LANES) {
            self.block(stride, r0, x, out);
        }
    }

    /// Outputs `r0..r0 + LANES` of [`Matrix::matvec_into`] (those below
    /// `rows`; the rest are padding).
    #[inline(always)]
    fn block(&self, stride: usize, r0: usize, x: &[f32], out: &mut [f32]) {
        let mut acc = [-0.0f32; LANES];
        for (col, &xc) in self.by_col.chunks_exact(stride).zip(x) {
            let col: &[f32; LANES] = col[r0..r0 + LANES]
                .try_into()
                .expect("block inside the column");
            for (a, &w) in acc.iter_mut().zip(col) {
                *a += w * xc;
            }
        }
        let end = self.rows.min(r0 + LANES);
        out[r0..end].copy_from_slice(&acc[..end - r0]);
    }

    /// `selfᵀ · x` for a vector `x` (length `rows`), into `out` (length `cols`).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn t_matvec_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "t_matvec dim");
        assert_eq!(out.len(), self.cols, "t_matvec out dim");
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

/// Numerically stable in-place softmax.
pub fn softmax_inplace(z: &mut [f32]) {
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

/// Index of the maximum element (first on ties); `None` when empty.
#[must_use]
pub fn argmax(v: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &x) in v.iter().enumerate() {
        match best {
            Some((_, bx)) if x <= bx => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        m.update(|d| d[5] = 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
        let f = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(f.data(), &[0.0, 1.0, 2.0, 3.0]);
        let v = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        assert_eq!(v.get(0, 1), 2.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_shape_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matvec_hand_checked() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = vec![0.0; 2];
        m.matvec_into(&[1.0, 0.0, -1.0], &mut out);
        assert_eq!(out, vec![-2.0, -2.0]);
        let mut tout = vec![0.0; 3];
        m.t_matvec_into(&[1.0, 1.0], &mut tout);
        assert_eq!(tout, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn softmax_distribution() {
        let mut z = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut z);
        let sum: f32 = z.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(z[2] > z[1] && z[1] > z[0]);
        // Stability under large values.
        let mut big = vec![1000.0, 1001.0];
        softmax_inplace(&mut big);
        assert!(big.iter().all(|v| v.is_finite()));
        softmax_inplace(&mut []);
    }

    #[test]
    fn argmax_cases() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[2.0, 2.0]), Some(0));
        assert_eq!(argmax(&[]), None);
    }
}
