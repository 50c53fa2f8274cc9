//! All-pairs Pearson correlation with significance thresholding — the
//! correlation-network construction of §IV-A — computed by one exact,
//! pruned kernel.
//!
//! # Why pruning is exact
//!
//! After z-scoring, a row `z` over `n` samples has `‖z‖² = n` and
//! `ρ(i, j) = zᵢ·zⱼ / n`, so `ρ ≥ c` is the fixed-radius condition
//! `‖zᵢ − zⱼ‖² = 2n(1 − ρ) ≤ 2n(1 − c)`. Every orthogonal projection is
//! 1-Lipschitz: each projected coordinate gap of such a pair is within
//! that radius too. A pair whose gap exceeds it on any coordinate cannot
//! be retained, and is never scored.
//!
//! [`CorrelationNetwork::from_expression`] projects each standardized
//! row onto the first 8 vectors of the orthonormal Helmert basis of the
//! centred subspace, with `r` as the radius. It groups the projections
//! into cubic cells of side `r` on coordinates 0–2, orders each cell by
//! coordinate 3, and walks only the pairs in the same or a neighbouring
//! cell that lie within `r` on coordinate 3. A branch-free check then
//! drops every pair with any kept coordinate gap above `r`. Survivors
//! are scored by the same `rho_of` and retention predicate as the
//! sequential reference, so their `ρ` bits are the reference's.
//!
//! The radius carries a rounding slack: `r² = 2n(1 − c) + 10⁻⁶·n`.
//! Floating-point evaluation can put a retained pair's true distance
//! above `2n(1 − c)` by at most `n·(3·10⁻⁹ + 3γₙ)` (norm certificate,
//! dot-product and scaling rounding; `γₙ ≈ n·2⁻⁵³`), far below the slack
//! for any `n ≤ 2²⁰`. What is left of the slack, a relative margin of at
//! least `2·10⁻⁷` on `r`, absorbs the rounding of the projections (at
//! most 9 terms each), of the cell assignment and of every gap
//! comparison.
//!
//! The bound needs `‖z‖² = n`. A row enters the index only when its
//! standardized values are all finite and its computed squared norm is
//! within `10⁻⁹·n` of `n`. Every other row (zero variance, NaN or ±∞
//! input, variance overflow) is scored against all genes. So is every
//! row when `c ∉ (0, 1]` (the bound prunes nothing at `c ≤ 0`) or when
//! `n ∉ 2..=2²⁰`. The output is therefore bit-identical to
//! [`CorrelationNetwork::from_expression_seq`] for every matrix and
//! every [`NetworkParams`].

use crate::matrix::ExpressionMatrix;
use casbn_graph::{Edge, Graph};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Thresholds for network construction. Defaults are the paper's:
/// `0.95 ≤ ρ ≤ 1.00`, `p ≤ 0.0005`.
#[derive(Clone, Copy, Debug)]
pub struct NetworkParams {
    /// Minimum Pearson correlation (positive correlations only, as in the
    /// paper's final networks).
    pub min_rho: f64,
    /// Maximum two-sided p-value of the correlation t-test.
    pub max_p: f64,
}

impl Default for NetworkParams {
    fn default() -> Self {
        NetworkParams {
            min_rho: 0.95,
            max_p: 0.0005,
        }
    }
}

/// A thresholded correlation network: the graph plus each retained edge's
/// correlation coefficient.
#[derive(Clone, Debug)]
pub struct CorrelationNetwork {
    /// The network (vertex = gene index in the expression matrix).
    pub graph: Graph,
    /// `(edge, ρ)` for every retained edge, canonical edge order.
    pub weights: Vec<(Edge, f64)>,
}

/// Helmert coordinates kept per indexed row. The paper's arrays have 8
/// and 9 samples, so 8 coordinates span their whole centred subspace.
const COORDS: usize = 8;

/// Rounding slack added to `r²`, per sample (see the module docs).
const SLACK: f64 = 1e-6;

/// Relative tolerance of the `‖z‖² = n` certificate.
const NORM_TOL: f64 = 1e-9;

/// Largest sample count the slack is proven for.
const MAX_SAMPLES: usize = 1 << 20;

/// Coordinates the index grids on; the next one orders each cell.
const GRID: usize = 3;

/// Candidates whose gaps one branch-free sweep checks.
const CHUNK: usize = 8;

/// Index positions per parallel task.
const TASK_ROWS: usize = 64;

/// `ρ` of the standardized rows `i` and `j` — the **single** dot-product
/// expression shared by the sequential and pruned paths, so both produce
/// bit-identical coefficients.
#[inline]
fn rho_of(z: &ExpressionMatrix, i: usize, j: usize, inv: f64) -> f64 {
    z.row(i)
        .iter()
        .zip(z.row(j))
        .map(|(a, b)| a * b)
        .sum::<f64>()
        * inv
}

/// The retention predicate shared by both paths.
#[inline]
fn retained(rho: f64, params: NetworkParams, samples: usize) -> bool {
    rho >= params.min_rho && pearson_p_value(rho, samples) <= params.max_p
}

/// First [`COORDS`] coordinates of `row` in the orthonormal Helmert basis
/// `hₖ = (1, …, 1, −k, 0, …) / √(k(k+1))` (`k` ones), zero-padded when
/// the row is shorter.
fn helmert(row: &[f64]) -> [f64; COORDS] {
    let mut p = [0.0; COORDS];
    let Some((&first, rest)) = row.split_first() else {
        return p;
    };
    let mut prefix = first;
    for (k, (&x, pk)) in rest.iter().zip(&mut p).enumerate() {
        let k = (k + 1) as f64;
        *pk = (prefix - k * x) / (k * (k + 1.0)).sqrt();
        prefix += x;
    }
    p
}

/// Whether a standardized row certifies `‖z‖² = n` (module docs).
fn certified(row: &[f64]) -> bool {
    let n = row.len() as f64;
    row.iter().all(|x| x.is_finite())
        && (row.iter().map(|x| x * x).sum::<f64>() - n).abs() <= NORM_TOL * n
}

/// The pruning index: certified rows' projections, grouped into cubic
/// cells of side `r` on the first [`GRID`] coordinates (cells in
/// lexicographic order, laid out contiguously) and sorted by coordinate
/// `GRID` inside each cell.
struct Index {
    /// Pruning radius.
    r: f64,
    /// Indexed rows.
    len: usize,
    /// Projections, coordinate-major: coordinate `k` of index position
    /// `p` is `cols[k * (len + CHUNK) + p]`. Each column ends in `CHUNK`
    /// zeros, so a sweep may always read a whole chunk.
    cols: Vec<f64>,
    /// Gene of each index position.
    gene: Vec<u32>,
    /// `(cell, first position)` of each non-empty cell, ascending, then a
    /// `([i32::MAX; GRID], len)` sentinel.
    cells: Vec<([i32; GRID], usize)>,
}

impl Index {
    /// Index the rows that `is_certified` marks.
    fn build(z: &ExpressionMatrix, is_certified: &[bool], r: f64) -> Index {
        // |p| ≤ √(1.01·n) and r ≥ √(10⁻⁶·n), so a cell index is at most
        // ~1000 in magnitude
        let cell = |p: &[f64; COORDS]| -> [i32; GRID] {
            std::array::from_fn(|k| (p[k] / r).floor() as i32)
        };
        // the sort key's coordinates only need the first GRID + 2
        // samples, and come out bit-identical to the full projection's
        let mut keyed: Vec<([i32; GRID], f64, u32)> = (0..z.genes() as u32)
            .filter(|&g| is_certified[g as usize])
            .map(|g| {
                let row = z.row(g as usize);
                let p = helmert(&row[..row.len().min(GRID + 2)]);
                (cell(&p), p[GRID], g)
            })
            .collect();
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
        let gene: Vec<u32> = keyed.into_iter().map(|(_, _, g)| g).collect();
        let len = gene.len();
        let mut cols = vec![0.0; COORDS * (len + CHUNK)];
        let mut cells: Vec<([i32; GRID], usize)> = Vec::new();
        for (pos, &g) in gene.iter().enumerate() {
            let p = helmert(z.row(g as usize));
            for (k, &x) in p.iter().enumerate() {
                cols[k * (len + CHUNK) + pos] = x;
            }
            let c = cell(&p);
            if cells.last().is_none_or(|&(last, _)| last != c) {
                cells.push((c, pos));
            }
        }
        cells.push(([i32::MAX; GRID], len));
        Index {
            r,
            len,
            cols,
            gene,
            cells,
        }
    }

    /// Coordinate `k` of every index position.
    #[inline]
    fn col(&self, k: usize) -> &[f64] {
        &self.cols[k * (self.len + CHUNK)..(k + 1) * (self.len + CHUNK)]
    }

    /// Call `visit(i, j)`, `i < j`, once for every pair of indexed genes
    /// whose earlier index position lies in `from..to`, whose cells
    /// differ by at most 1 on each grid coordinate, and whose kept
    /// coordinate gaps are all `≤ r`. Every pair within `r` less the
    /// rounding margin (module docs) is among them.
    ///
    /// The later position of such a pair sits further along its own cell
    /// or in a lexicographically later neighbour cell, within `r` on
    /// coordinate `GRID`, which orders every cell. Those runs are found by
    /// cursors that only move forward while `a` walks its cell, then
    /// swept [`CHUNK`] candidates at a time by a branch-free max-gap
    /// reduction.
    fn pairs_from(&self, from: usize, to: usize, mut visit: impl FnMut(u32, u32)) {
        let r = self.r;
        let sort_key = self.col(GRID);
        let mut c = self.cells.partition_point(|&(_, start)| start <= from) - 1;
        // (first, last, cell end) of each candidate run: own cell first,
        // then the neighbour cells
        let mut runs: Vec<(usize, usize, usize)> = Vec::new();
        for a in from..to {
            if a == from || self.cells[c + 1].1 <= a {
                while self.cells[c + 1].1 <= a {
                    c += 1;
                }
                // offsets in {-1, 0, 1}^GRID, lexicographically positive:
                // the base-3 codes above the all-zero offset's
                let key = self.cells[c].0;
                let centre = (3usize.pow(GRID as u32) - 1) / 2;
                runs.clear();
                runs.push((a + 1, a + 1, self.cells[c + 1].1));
                runs.extend((centre + 1..2 * centre + 1).filter_map(|code| {
                    let probe: [i32; GRID] = std::array::from_fn(|k| {
                        key[k] + (code / 3usize.pow((GRID - 1 - k) as u32) % 3) as i32 - 1
                    });
                    let n = self.cells.binary_search_by_key(&probe, |&(k, _)| k).ok()?;
                    let start = self.cells[n].1;
                    Some((start, start, self.cells[n + 1].1))
                }));
            }
            let pa: [f64; COORDS] = std::array::from_fn(|k| self.col(k)[a]);
            let (lo_v, hi_v) = (pa[GRID] - r, pa[GRID] + r);
            runs[0].0 = a + 1;
            for (lo, hi, end) in &mut runs {
                while *lo < *end && sort_key[*lo] < lo_v {
                    *lo += 1;
                }
                *hi = (*hi).max(*lo);
                while *hi < *end && sort_key[*hi] <= hi_v {
                    *hi += 1;
                }
            }
            for &(first, last, _) in &runs {
                for lo in (first..last).step_by(CHUNK) {
                    let w = (last - lo).min(CHUNK);
                    let mut gap = [0.0f64; CHUNK];
                    for (k, &pk) in pa.iter().enumerate() {
                        for (g, &x) in gap.iter_mut().zip(&self.col(k)[lo..lo + CHUNK]) {
                            let d = (pk - x).abs();
                            *g = if d > *g { d } else { *g };
                        }
                    }
                    for (b, &g) in (lo..).zip(&gap[..w]) {
                        if g <= r {
                            let (ga, gb) = (self.gene[a], self.gene[b]);
                            visit(ga.min(gb), ga.max(gb));
                        }
                    }
                }
            }
        }
    }
}

/// Euclid's algorithm.
fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl CorrelationNetwork {
    /// Build the network from an expression matrix with the exact pruned
    /// kernel (module docs): a pair becomes an edge iff it passes both
    /// thresholds, and only pairs the projection bound cannot rule out
    /// are scored. The output is bit-identical to
    /// [`CorrelationNetwork::from_expression_seq`] at any thread count.
    ///
    /// Blocks of index positions and the uncertified rows' dense scans
    /// run in parallel; the few retained edges are then sorted into
    /// canonical order. Counters: `expr.pairs_scored` (pairs that
    /// reached the dot product), `expr.edges_retained`, and
    /// `expr.tile_pairs`, a legacy name for the `genes·(genes−1)/2`
    /// pairs the network decides.
    pub fn from_expression(m: &ExpressionMatrix, params: NetworkParams) -> Self {
        let z = m.standardized();
        let genes = m.genes();
        let samples = m.samples();
        let inv = 1.0 / samples as f64;
        let n = samples as f64;
        let r2 = 2.0 * n * (1.0 - params.min_rho) + SLACK * n;
        let prune =
            params.min_rho > 0.0 && params.min_rho <= 1.0 && (2..=MAX_SAMPLES).contains(&samples);
        let is_certified: Vec<bool> = (0..genes).map(|g| prune && certified(z.row(g))).collect();
        let index = Index::build(&z, &is_certified, r2.sqrt());
        let dense: Vec<u32> = (0..genes as u32)
            .filter(|&g| !is_certified[g as usize])
            .collect();

        // tasks: blocks of index positions, then one per dense row —
        // visited in a coprime-stride order so each thread's contiguous
        // share mixes dense and sparse cells
        let blocks = index.len.div_ceil(TASK_ROWS);
        let tasks = blocks + dense.len();
        let mut stride = (tasks as f64 * 0.618) as usize | 1;
        while gcd(stride, tasks) > 1 {
            stride += 1;
        }
        let scored = AtomicU64::new(0);
        let mut weights: Vec<(Edge, f64)> = (0..tasks)
            .into_par_iter()
            .flat_map_iter(|t| {
                let t = (t as u128 * stride as u128 % tasks as u128) as usize;
                let mut out = Vec::new();
                let mut pairs = 0u64;
                let mut score = |i: u32, j: u32| {
                    pairs += 1;
                    let rho = rho_of(&z, i as usize, j as usize, inv);
                    if retained(rho, params, samples) {
                        out.push(((i, j), rho));
                    }
                };
                if t < blocks {
                    let from = t * TASK_ROWS;
                    index.pairs_from(from, (from + TASK_ROWS).min(index.len), &mut score);
                } else {
                    // every pair holding an uncertified gene, once: at
                    // its smaller uncertified gene
                    let u = dense[t - blocks];
                    for j in 0..genes as u32 {
                        if j > u || (j < u && is_certified[j as usize]) {
                            score(u.min(j), u.max(j));
                        }
                    }
                }
                scored.fetch_add(pairs, Ordering::Relaxed);
                out
            })
            .collect();
        weights.sort_unstable_by_key(|&(e, _)| e);

        casbn_obs::counter_add("expr.pairs_scored", scored.into_inner());
        casbn_obs::counter_add(
            "expr.tile_pairs",
            (genes * genes.saturating_sub(1) / 2) as u64,
        );
        casbn_obs::counter_add("expr.edges_retained", weights.len() as u64);
        Self::from_sorted_weights(genes, weights)
    }

    /// Sequential reference implementation: a plain `i < j` double loop in
    /// canonical edge order that scores every pair. This is the
    /// differential-testing oracle —
    /// [`CorrelationNetwork::from_expression`] must reproduce its output
    /// **bit-identically** (same edge list, same order, same `ρ` values)
    /// for every input and thread count.
    pub fn from_expression_seq(m: &ExpressionMatrix, params: NetworkParams) -> Self {
        let z = m.standardized();
        let genes = m.genes();
        let samples = m.samples();
        let inv = 1.0 / samples as f64;
        let mut weights: Vec<(Edge, f64)> = Vec::new();
        for i in 0..genes {
            for j in (i + 1)..genes {
                let rho = rho_of(&z, i, j, inv);
                if retained(rho, params, samples) {
                    weights.push(((i as u32, j as u32), rho));
                }
            }
        }
        Self::from_sorted_weights(genes, weights)
    }

    /// Assemble the network from an already-sorted weight list.
    fn from_sorted_weights(genes: usize, weights: Vec<(Edge, f64)>) -> Self {
        debug_assert!(weights.windows(2).all(|w| w[0].0 < w[1].0));
        let edges: Vec<Edge> = weights.iter().map(|&(e, _)| e).collect();
        CorrelationNetwork {
            graph: Graph::from_edges(genes, &edges),
            weights,
        }
    }
}

/// Two-sided p-value of a Pearson correlation `r` over `n` samples, via
/// the exact t-distribution relation `t = r·√((n−2)/(1−r²))` and the
/// regularised incomplete beta function.
pub fn pearson_p_value(r: f64, n: usize) -> f64 {
    if n <= 2 {
        return 1.0;
    }
    let r = r.clamp(-1.0, 1.0);
    if r.abs() >= 1.0 {
        return 0.0;
    }
    let df = (n - 2) as f64;
    let t2 = r * r * df / (1.0 - r * r);
    // P(|T| > t) = I_{df/(df+t²)}(df/2, 1/2)
    inc_beta(df / 2.0, 0.5, df / (df + t2))
}

/// Two-sided p-value of a Student-t statistic `t` with (possibly
/// fractional, e.g. Welch–Satterthwaite) degrees of freedom `df`.
pub fn students_t_two_sided_p(t: f64, df: f64) -> f64 {
    if df <= 0.0 {
        return 1.0;
    }
    let t = t.abs();
    inc_beta(df / 2.0, 0.5, df / (df + t * t))
}

/// ln Γ(x), Lanczos approximation (|error| < 2e-10 for x > 0).
fn ln_gamma(x: f64) -> f64 {
    const COF: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_7e-2,
        -0.539_523_938_495_3e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    for c in COF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

/// Regularised incomplete beta `I_x(a, b)` by continued fraction.
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - front * betacf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (Numerical Recipes betacf).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_IT: usize = 200;
    const EPS: f64 = 3e-14;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_IT {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticMicroarray, SyntheticParams};
    use proptest::prelude::*;

    #[test]
    fn p_value_limits() {
        assert_eq!(pearson_p_value(1.0, 10), 0.0);
        assert_eq!(pearson_p_value(0.5, 2), 1.0);
        // r = 0 => p = 1
        assert!((pearson_p_value(0.0, 20) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn p_value_matches_known_values() {
        // r = 0.95, n = 8 → t = 7.448, df = 6 → two-sided p ≈ 2.9e-4
        let p = pearson_p_value(0.95, 8);
        assert!(
            (2.0e-4..4.0e-4).contains(&p),
            "p(0.95, n=8) = {p:.2e}, expected ≈ 2.9e-4"
        );
        // r = 0.6, n = 12 → p ≈ 0.039
        let p = pearson_p_value(0.6, 12);
        assert!((0.03..0.05).contains(&p), "p(0.6, n=12) = {p:.3}");
    }

    #[test]
    fn p_value_monotone_in_r() {
        let ps: Vec<f64> = [0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99]
            .iter()
            .map(|&r| pearson_p_value(r, 10))
            .collect();
        for w in ps.windows(2) {
            assert!(w[0] > w[1], "p not decreasing: {ps:?}");
        }
    }

    #[test]
    fn p_value_decreases_with_samples() {
        assert!(pearson_p_value(0.9, 6) > pearson_p_value(0.9, 30));
    }

    #[test]
    fn inc_beta_is_a_cdf() {
        assert_eq!(inc_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(inc_beta(2.0, 3.0, 1.0), 1.0);
        // symmetry: I_x(a,b) = 1 - I_{1-x}(b,a)
        let x = 0.3;
        let lhs = inc_beta(2.0, 5.0, x);
        let rhs = 1.0 - inc_beta(5.0, 2.0, 1.0 - x);
        assert!((lhs - rhs).abs() < 1e-12);
        // I_x(1,1) = x (uniform)
        assert!((inc_beta(1.0, 1.0, 0.42) - 0.42).abs() < 1e-12);
    }

    #[test]
    fn network_finds_planted_modules() {
        let arr = SyntheticMicroarray::generate(
            &SyntheticParams {
                genes: 120,
                samples: 20,
                modules: 3,
                module_size: 8,
                loading_sq: 0.99,
            },
            3,
        );
        let net = CorrelationNetwork::from_expression(
            &arr.matrix,
            NetworkParams {
                min_rho: 0.9,
                max_p: 0.001,
            },
        );
        // each module should appear nearly complete
        for m in &arr.modules {
            let (sub, _) = net.graph.induced_subgraph(m);
            let possible = m.len() * (m.len() - 1) / 2;
            assert!(
                sub.m() as f64 > 0.7 * possible as f64,
                "module retained {} of {possible}",
                sub.m()
            );
        }
    }

    #[test]
    fn few_samples_produce_noise_edges() {
        // pure-noise matrix with few samples: some pairs cross ρ ≥ 0.95
        let arr = SyntheticMicroarray::generate(
            &SyntheticParams {
                genes: 800,
                samples: 8,
                modules: 0,
                module_size: 0,
                loading_sq: 0.0,
            },
            5,
        );
        let net = CorrelationNetwork::from_expression(&arr.matrix, NetworkParams::default());
        assert!(
            net.graph.m() > 0,
            "expected spurious edges from small-sample Pearson noise"
        );
        // and they are rarer with more samples
        let arr2 = SyntheticMicroarray::generate(
            &SyntheticParams {
                genes: 800,
                samples: 40,
                modules: 0,
                module_size: 0,
                loading_sq: 0.0,
            },
            5,
        );
        let net2 = CorrelationNetwork::from_expression(&arr2.matrix, NetworkParams::default());
        assert!(net2.graph.m() < net.graph.m());
    }

    #[test]
    fn default_entry_point_matches_sequential_reference() {
        let arr = SyntheticMicroarray::generate(
            &SyntheticParams {
                genes: 150,
                samples: 10,
                modules: 3,
                module_size: 8,
                loading_sq: 0.98,
            },
            23,
        );
        let a = CorrelationNetwork::from_expression(&arr.matrix, NetworkParams::default());
        let b = CorrelationNetwork::from_expression_seq(&arr.matrix, NetworkParams::default());
        assert!(!b.weights.is_empty());
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn helmert_coordinates_are_orthonormal_projections() {
        // a centred row keeps its norm over a full Helmert basis
        let row = [1.5, -0.25, 2.0, -3.25, 0.0, 1.0, -1.0];
        let p = helmert(&row);
        let norm2: f64 = row.iter().map(|x| x * x).sum();
        let proj2: f64 = p.iter().map(|x| x * x).sum();
        assert!((norm2 - proj2).abs() < 1e-12, "{norm2} vs {proj2}");
        // a constant row has no centred component
        assert!(helmert(&[4.0; 9]).iter().all(|&x| x.abs() < 1e-12));
        // prefixes give bit-identical leading coordinates (the sort key)
        let full = helmert(&row);
        assert_eq!(helmert(&row[..4])[..3], full[..3]);
        assert_eq!(helmert(&[]), [0.0; COORDS]);
    }

    #[test]
    fn only_finite_unit_norm_rows_are_certified() {
        let z = crate::matrix::ExpressionMatrix::from_rows(
            4,
            3,
            vec![
                1.0,
                2.0,
                3.0,
                5.0,
                5.0,
                5.0,
                1.0,
                f64::NAN,
                2.0,
                1e200,
                -1e200,
                0.0,
            ],
        )
        .standardized();
        assert!(certified(z.row(0)));
        assert!(!certified(z.row(1)), "zero variance");
        assert!(!certified(z.row(2)), "NaN input");
        assert!(!certified(z.row(3)), "variance overflow");
    }

    #[test]
    fn degenerate_matrices_produce_empty_networks() {
        for (genes, samples) in [(0usize, 0usize), (0, 5), (1, 8), (2, 0)] {
            let m = crate::matrix::ExpressionMatrix::zeros(genes, samples);
            let net = CorrelationNetwork::from_expression(&m, NetworkParams::default());
            assert_eq!(net.graph.n(), genes);
            assert_eq!(net.graph.m(), 0, "genes={genes} samples={samples}");
            let seq = CorrelationNetwork::from_expression_seq(&m, NetworkParams::default());
            assert_eq!(net.weights, seq.weights);
        }
    }

    #[test]
    fn weights_match_graph() {
        let arr = SyntheticMicroarray::generate(
            &SyntheticParams {
                genes: 60,
                samples: 15,
                modules: 2,
                module_size: 6,
                loading_sq: 0.98,
            },
            9,
        );
        let net = CorrelationNetwork::from_expression(
            &arr.matrix,
            NetworkParams {
                min_rho: 0.8,
                max_p: 0.01,
            },
        );
        assert_eq!(net.weights.len(), net.graph.m());
        for &((u, v), rho) in &net.weights {
            assert!(net.graph.has_edge(u, v));
            assert!(rho >= 0.8);
            // cross-check against the direct formula
            let direct = arr.matrix.pearson(u as usize, v as usize);
            assert!((rho - direct).abs() < 1e-9);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Small integer-valued matrices are full of ties, constant,
        /// duplicate and negated rows: exactly where rounding could
        /// break a pruning bound.
        #[test]
        fn pruned_kernel_matches_reference_on_random_inputs(
            genes in 0usize..48,
            samples in 0usize..12,
            raw in proptest::collection::vec(-6i64..7, 1..64),
            rho_pick in 0usize..7,
            p_pick in 0usize..3,
        ) {
            let data: Vec<f64> = (0..genes * samples)
                .map(|i| raw[(i * 7 + i / raw.len()) % raw.len()] as f64)
                .collect();
            let m = crate::matrix::ExpressionMatrix::from_rows(genes, samples, data);
            let params = NetworkParams {
                min_rho: [-0.5, 0.0, 0.3, 0.8, 0.95, 1.0, 0.999][rho_pick],
                max_p: [1.0, 0.05, 0.0005][p_pick],
            };
            let par = CorrelationNetwork::from_expression(&m, params);
            let seq = CorrelationNetwork::from_expression_seq(&m, params);
            prop_assert_eq!(par.weights.len(), seq.weights.len());
            for (a, b) in par.weights.iter().zip(&seq.weights) {
                prop_assert_eq!(a.0, b.0);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }
}
