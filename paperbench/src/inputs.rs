//! Inputs made from `--seed`: synthetic microarrays and GO annotations
//! at the paper's dataset sizes.
//!
//! Seed 0 reproduces the repository's pinned preset inputs exactly
//! (`DatasetPreset::seed`), so the pinned checksums of the default run
//! describe the same data as the repo's own presets. Two kinds of input
//! come from other seeds:
//!
//! * [`microarray`] draws a fresh array of the same shape and
//!   statistical regime (streaming and serving);
//! * [`relabeled_microarray`] keeps the preset array and shuffles its
//!   gene order, as a real array's probe order is arbitrary. Every
//!   seed then does the same amount of work up to labeling, which keeps
//!   the batch pipeline's cost from varying with the seed.

use crate::stats::SplitMix;
use casbn_expr::{DatasetPreset, ExpressionMatrix, SyntheticMicroarray, SyntheticParams};
use casbn_graph::VertexId;
use casbn_ontology::{AnnotatedOntology, GoDag};

/// Generator seed of `preset`'s array under benchmark seed `seed`.
fn data_seed(preset: DatasetPreset, seed: u64) -> u64 {
    preset.seed() ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `preset`'s array at dataset fraction `scale` (1.0 = paper scale),
/// with `samples` overriding the preset's native sample count.
pub fn microarray(
    preset: DatasetPreset,
    scale: f64,
    samples: Option<usize>,
    seed: u64,
) -> SyntheticMicroarray {
    let base = preset.scaled_params(scale);
    let params = SyntheticParams {
        samples: samples.unwrap_or(base.samples),
        ..base
    };
    SyntheticMicroarray::generate(&params, data_seed(preset, seed))
}

/// `preset`'s pinned array at dataset fraction `scale` with its genes
/// relabeled by a permutation drawn from `seed` (the identity at seed 0).
pub fn relabeled_microarray(preset: DatasetPreset, scale: f64, seed: u64) -> SyntheticMicroarray {
    let arr = microarray(preset, scale, None, 0);
    if seed == 0 {
        return arr;
    }
    let (genes, samples) = (arr.matrix.genes(), arr.matrix.samples());
    // Fisher–Yates: perm[old] = new
    let mut perm: Vec<VertexId> = (0..genes as VertexId).collect();
    let mut rng = SplitMix::new(seed);
    for i in (1..genes).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut data = vec![0.0; genes * samples];
    for (old, &new) in perm.iter().enumerate() {
        let at = new as usize * samples;
        data[at..at + samples].copy_from_slice(arr.matrix.row(old));
    }
    let modules = arr
        .modules
        .iter()
        .map(|m| {
            let mut m: Vec<VertexId> = m.iter().map(|&g| perm[g as usize]).collect();
            m.sort_unstable();
            m
        })
        .collect();
    SyntheticMicroarray {
        matrix: ExpressionMatrix::from_rows(genes, samples, data),
        modules,
    }
}

/// Synthetic GO annotations wired to the planted `modules`, with the
/// DAG shape the repo's experiments use (8 levels, width 4, module
/// terms at depth 6, 2 noise terms per gene).
pub fn ontology(
    preset: DatasetPreset,
    genes: usize,
    modules: &[Vec<VertexId>],
    seed: u64,
) -> AnnotatedOntology {
    let s = data_seed(preset, seed);
    let dag = GoDag::generate(8, 4, 0.25, s ^ 0x60);
    AnnotatedOntology::synthetic(genes, modules, dag, 6, 2, s ^ 0xA11)
}
