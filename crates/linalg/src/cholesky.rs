//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! MPC Hessians `H = ΨᵀQΨ + R` are SPD by construction (the control-penalty
//! weights are strictly positive), so Cholesky gives the fastest stable
//! solve on the controller's hot path.

use crate::matrix::Matrix;
use crate::vector::Vector;
use crate::{LinalgError, Result};

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorize a symmetric positive-definite matrix.
    ///
    /// Symmetry is *assumed* (only the lower triangle is read); positive
    /// definiteness is verified and [`LinalgError::NotPositiveDefinite`] is
    /// returned if a non-positive pivot appears.
    pub fn new(a: &Matrix) -> Result<Cholesky> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                context: "Cholesky::new",
                got: a.shape(),
                expected: (a.rows(), a.rows()),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow the lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solve `A x = b` via forward/backward substitution.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "Cholesky::solve",
                got: (b.len(), 1),
                expected: (n, 1),
            });
        }
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= self.l[(i, j)] * y[j];
            }
            y[i] = acc / self.l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.l[(j, i)] * y[j];
            }
            y[i] = acc / self.l[(i, i)];
        }
        Ok(Vector::from_vec(y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_known_spd() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.l();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-14);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-14);
        assert!((l[(1, 1)] - 2.0_f64.sqrt()).abs() < 1e-14);
        // Reconstruct.
        let rec = l.matmul(&l.transpose()).unwrap();
        assert!((&rec - &a).max_abs() < 1e-14);
    }

    #[test]
    fn solve_spd_system() {
        let a = Matrix::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]);
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let r = &a.matvec(&x).unwrap() - &b;
        assert!(r.max_abs() < 1e-12);
    }

    #[test]
    fn not_positive_definite_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(
            Cholesky::new(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
        // Positive semi-definite (singular) also rejected.
        let psd = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert_eq!(
            Cholesky::new(&psd).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn non_square_rejected() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn gram_matrices_factor() {
        // AᵀA + λI is always SPD for λ > 0.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut g = a.gram();
        g.add_diag_mut(1e-6);
        assert!(Cholesky::new(&g).is_ok());
    }
}
