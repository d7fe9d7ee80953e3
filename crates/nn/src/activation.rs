//! The ReLU activation.

use fairwos_tensor::{Matrix, Workspace};

/// ReLU activation with cached mask for backward.
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Relu {
    /// A fresh ReLU layer.
    pub fn new() -> Self {
        Self { mask: None }
    }

    /// `max(x, 0)` with the output drawn from `ws`, caching the activity
    /// mask in storage reused across calls.
    pub fn forward_ws(&mut self, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let mask = self.mask.get_or_insert_with(Vec::new);
        mask.clear();
        mask.extend(x.as_slice().iter().map(|&v| v > 0.0));
        let mut y = ws.take(x.rows(), x.cols());
        for (o, &v) in y.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *o = v.max(0.0);
        }
        y
    }

    /// Gates the upstream gradient by the cached mask, drawing the returned
    /// gradient from `ws`.
    ///
    /// # Panics
    /// If called before [`Relu::forward_ws`], or if `dy`'s size differs
    /// from the cached activation's.
    pub fn backward_ws(&mut self, dy: &Matrix, ws: &mut Workspace) -> Matrix {
        #[expect(
            clippy::expect_used,
            reason = "call-order contract documented under # Panics"
        )]
        let mask = self.mask.as_ref().expect("Relu::backward before forward");
        assert_eq!(
            mask.len(),
            dy.len(),
            "gradient shape changed between forward and backward"
        );
        let mut dx = ws.take(dy.rows(), dy.cols());
        for ((o, &g), &m) in dx.as_mut_slice().iter_mut().zip(dy.as_slice()).zip(mask) {
            *o = if m { g } else { 0.0 };
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut ws = Workspace::disposable();
        let mut r = Relu::new();
        let x = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        let y = r.forward_ws(&x, &mut ws);
        assert_eq!(y.row(0), &[0.0, 0.0, 2.0]);
        let dx = r.backward_ws(&Matrix::from_rows(&[&[5.0, 5.0, 5.0]]), &mut ws);
        assert_eq!(dx.row(0), &[0.0, 0.0, 5.0]);
    }
}
