//! Synthetic microarray generator with planted co-expression modules.

use crate::matrix::{normal, ExpressionMatrix};
use casbn_graph::VertexId;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Parameters of the latent-factor expression model.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticParams {
    /// Total genes on the array.
    pub genes: usize,
    /// Arrays (samples). Few samples ⇒ noisy Pearson estimates ⇒ noise
    /// edges above the 0.95 threshold, as in the real data.
    pub samples: usize,
    /// Number of planted co-expression modules.
    pub modules: usize,
    /// Genes per module.
    pub module_size: usize,
    /// Squared factor loading: intra-module true correlation. 0.99 means
    /// module genes are driven almost entirely by the shared factor.
    pub loading_sq: f64,
}

/// A generated microarray: expression matrix + ground-truth module
/// membership (gene ids are spread across the id space, as probe order on
/// a real array is unrelated to function).
#[derive(Clone, Debug)]
pub struct SyntheticMicroarray {
    /// The expression matrix (genes × samples).
    pub matrix: ExpressionMatrix,
    /// Planted module membership (ground truth for evaluation).
    pub modules: Vec<Vec<VertexId>>,
}

impl SyntheticMicroarray {
    /// Generate a microarray under `params` with the given `seed`.
    ///
    /// Model: module `m` has a latent factor `f_m ~ N(0, I)` over samples;
    /// a gene in module `m` expresses `sqrt(loading_sq)·f_m +
    /// sqrt(1−loading_sq)·ε`, giving intra-module correlation ≈
    /// `loading_sq`. Background genes are i.i.d. noise.
    pub fn generate(params: &SyntheticParams, seed: u64) -> Self {
        assert!(
            params.modules * params.module_size <= params.genes,
            "modules exceed gene count"
        );
        assert!((0.0..=1.0).contains(&params.loading_sq));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut matrix = ExpressionMatrix::zeros(params.genes, params.samples);

        // spread module genes over the probe id space
        let mut ids: Vec<VertexId> = (0..params.genes as VertexId).collect();
        ids.shuffle(&mut rng);
        let mut modules = Vec::with_capacity(params.modules);

        let a = params.loading_sq.sqrt();
        let b = (1.0 - params.loading_sq).sqrt();
        for mi in 0..params.modules {
            let members: Vec<VertexId> =
                ids[mi * params.module_size..(mi + 1) * params.module_size].to_vec();
            let factor: Vec<f64> = (0..params.samples).map(|_| normal(&mut rng)).collect();
            for &g in &members {
                let row = matrix.row_mut(g as usize);
                for (s, x) in row.iter_mut().enumerate() {
                    *x = a * factor[s] + b * normal(&mut rng);
                }
            }
            modules.push(members);
        }
        // background genes: pure noise
        let planted: std::collections::BTreeSet<VertexId> =
            modules.iter().flatten().copied().collect();
        for g in 0..params.genes {
            if planted.contains(&(g as VertexId)) {
                continue;
            }
            let row = matrix.row_mut(g);
            for x in row.iter_mut() {
                *x = normal(&mut rng);
            }
        }
        SyntheticMicroarray { matrix, modules }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SyntheticMicroarray {
        SyntheticMicroarray::generate(
            &SyntheticParams {
                genes: 100,
                samples: 50,
                modules: 3,
                module_size: 8,
                loading_sq: 0.95,
            },
            7,
        )
    }

    #[test]
    fn shapes_and_membership() {
        let arr = small();
        assert_eq!(arr.matrix.genes(), 100);
        assert_eq!(arr.matrix.samples(), 50);
        assert_eq!(arr.modules.len(), 3);
        let all: Vec<_> = arr.modules.iter().flatten().collect();
        assert_eq!(all.len(), 24);
        let set: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(set.len(), 24, "no gene in two modules");
    }

    #[test]
    fn intra_module_correlation_is_high() {
        let arr = small();
        for m in &arr.modules {
            let r = arr.matrix.pearson(m[0] as usize, m[1] as usize);
            assert!(r > 0.8, "intra-module pearson {r}");
        }
    }

    #[test]
    fn cross_module_correlation_is_low() {
        let arr = small();
        let a = arr.modules[0][0] as usize;
        let b = arr.modules[1][0] as usize;
        let r = arr.matrix.pearson(a, b).abs();
        assert!(r < 0.5, "cross-module pearson {r}");
    }

    #[test]
    fn background_is_uncorrelated_with_modules() {
        let arr = small();
        let planted: std::collections::BTreeSet<VertexId> =
            arr.modules.iter().flatten().copied().collect();
        let bg = (0..100)
            .find(|g| !planted.contains(&(*g as VertexId)))
            .unwrap();
        let m = arr.modules[0][0] as usize;
        assert!(arr.matrix.pearson(bg, m).abs() < 0.6);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = SyntheticParams {
            genes: 40,
            samples: 10,
            modules: 2,
            module_size: 5,
            loading_sq: 0.9,
        };
        let a = SyntheticMicroarray::generate(&p, 1);
        let b = SyntheticMicroarray::generate(&p, 1);
        assert_eq!(a.modules, b.modules);
        assert_eq!(a.matrix.row(0), b.matrix.row(0));
    }

    #[test]
    #[should_panic(expected = "modules exceed gene count")]
    fn too_many_modules_panics() {
        SyntheticMicroarray::generate(
            &SyntheticParams {
                genes: 10,
                samples: 5,
                modules: 3,
                module_size: 5,
                loading_sq: 0.9,
            },
            0,
        );
    }
}
