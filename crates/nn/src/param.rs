//! Trainable parameters: a value matrix plus its gradient accumulator, and
//! where their initial values come from.

use fairwos_tensor::{glorot_uniform, he_normal, FairRng, Matrix};

/// Where a new layer's weights come from: a generator's seeded Glorot and
/// He draws, or [`Zeroed`] for a module whose weights are imported next.
pub trait Init {
    /// A Glorot-uniform `fan_in × fan_out` weight.
    fn glorot(&mut self, fan_in: usize, fan_out: usize) -> Matrix;
    /// A He-normal `fan_in × fan_out` weight.
    fn he(&mut self, fan_in: usize, fan_out: usize) -> Matrix;
}

impl Init for FairRng {
    fn glorot(&mut self, fan_in: usize, fan_out: usize) -> Matrix {
        glorot_uniform(fan_in, fan_out, self)
    }

    fn he(&mut self, fan_in: usize, fan_out: usize) -> Matrix {
        he_normal(fan_in, fan_out, self)
    }
}

/// Zero weights that draw nothing: for modules rebuilt from stored weights,
/// which overwrite every parameter.
pub struct Zeroed;

impl Init for Zeroed {
    fn glorot(&mut self, fan_in: usize, fan_out: usize) -> Matrix {
        zero_weight(fan_in, fan_out)
    }

    fn he(&mut self, fan_in: usize, fan_out: usize) -> Matrix {
        zero_weight(fan_in, fan_out)
    }
}

/// A zero weight: one allocation per weight, counted in `tensor/alloc/bytes`
/// like the draws it replaces.
fn zero_weight(rows: usize, cols: usize) -> Matrix {
    Matrix::zeros(rows, cols)
}

/// A trainable weight matrix and the gradient accumulated for it during the
/// current backward pass.
///
/// Layers *accumulate* into `grad` (`+=`) rather than overwrite, so several
/// loss terms (utility + fairness) can contribute to one step; trainers call
/// [`Param::zero_grad`] before each backward pass.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Gradient of the loss w.r.t. `value`, accumulated since `zero_grad`.
    pub grad: Matrix,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Self { value, grad }
    }

    /// Resets the gradient accumulator to zero.
    pub fn zero_grad(&mut self) {
        self.grad.as_mut_slice().fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True for an empty (0-element) parameter.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new(Matrix::ones(2, 3));
        assert_eq!(p.grad, Matrix::zeros(2, 3));
        assert_eq!(p.len(), 6);
        assert!(!p.is_empty());
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Matrix::ones(2, 2));
        p.grad.as_mut_slice().fill(3.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
