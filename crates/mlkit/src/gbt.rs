//! Gradient-boosted regression trees.
//!
//! AutoTVM's surrogate cost model is an XGBoost ranker; this module is the
//! reproduction's equivalent: depth-limited regression trees fitted to
//! residuals with shrinkage and optional feature subsampling.
//!
//! **Presorted column-major fits.** Each call to [`Gbt::fit`] or
//! [`Gbt::fit_incremental`] transposes the training rows once into a
//! column-major matrix and stable-sorts every column once into `u32` row
//! orders. While a tree grows, each node owns the same `[lo, hi)` segment of
//! every column order (plus one segment in row-index order, over which the
//! leaf mean is summed); a split stably partitions every segment in place
//! through one reusable scratch buffer. A stable partition of a stable
//! presort is exactly the order a per-node stable sort would produce, so the
//! split search sees the same sequence — and sums in the same order — as
//! sorting `(value, target)` pairs at every node, without the sort.
//!
//! **Split search.** One sweep per (node, feature) over the sorted segment
//! keeps only the cumulative `(value, count, sum, sum²)` record at the end of
//! each run of equal values; the candidate thresholds are midpoints between
//! consecutive runs, strided so at most ~16 are scored, each in O(1). The
//! sweeps run inline, one feature after another, sharing one run buffer:
//! the tree builder never spawns threads, so the fitted ensemble is the same
//! at every thread count.
//!
//! **Flat forests.** All trees live in one pre-order node vector (a split's
//! left child is the node after it), so a warm start clones one allocation
//! rather than one per node. Prediction costs what it did with boxed nodes:
//! each step waits on a data-dependent compare, wherever the node lives.
//!
//! [`Gbt::fit_incremental`] warm-starts boosting from an existing forest:
//! new trees are fitted to the residuals of the current predictions, so a
//! tuner can append a handful of trees per round instead of refitting the
//! whole ensemble over the entire history. Training rows are accepted as any
//! `AsRef<[f64]>` (plain `Vec<f64>` or shared `Arc<[f64]>` rows from a
//! feature cache) so callers never have to clone feature matrices to fit.

use crate::parallel::{parallel_map, Threads};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyperparameters for [`Gbt`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GbtParams {
    /// Number of boosting rounds.
    pub trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage (learning rate).
    pub learning_rate: f64,
    /// Minimum samples to split a node.
    pub min_samples_split: usize,
    /// Fraction of features considered per split (0 < f ≤ 1).
    pub feature_fraction: f64,
}

impl Default for GbtParams {
    fn default() -> Self {
        Self {
            trees: 50,
            max_depth: 4,
            learning_rate: 0.15,
            min_samples_split: 4,
            feature_fraction: 0.9,
        }
    }
}

/// `Node::feature` of a leaf.
const LEAF: u32 = u32::MAX;

/// One node of a flattened tree. Nodes are stored in pre-order, so a
/// split's left child is the next node.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Split feature, or [`LEAF`].
    feature: u32,
    /// Index of a split's right child.
    right: u32,
    /// A split's threshold (`x[feature] <= value` goes left), or the leaf value.
    value: f64,
}

/// A fitted gradient-boosted tree ensemble (squared loss).
#[derive(Debug, Clone)]
pub struct Gbt {
    base: f64,
    /// Every tree's nodes; each tree is contiguous and in pre-order.
    nodes: Vec<Node>,
    /// Index of each tree's root in `nodes`.
    roots: Vec<u32>,
    params: GbtParams,
}

/// Minimum batch size before predictions fan out across workers.
const PARALLEL_PREDICT_ROWS: usize = 256;

impl Gbt {
    /// Fits the ensemble on `(xs, ys)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use glimpse_mlkit::gbt::{Gbt, GbtParams};
    /// use rand::SeedableRng;
    ///
    /// let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![f64::from(i)]).collect();
    /// let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0).collect();
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    /// let model = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
    /// assert!((model.predict(&[25.0]) - 50.0).abs() < 8.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty or ragged.
    #[must_use]
    pub fn fit<X: AsRef<[f64]> + Sync, R: Rng + ?Sized>(xs: &[X], ys: &[f64], params: GbtParams, rng: &mut R) -> Self {
        assert!(!xs.is_empty(), "empty training set");
        assert_eq!(xs.len(), ys.len());
        let base = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut residuals: Vec<f64> = ys.iter().map(|y| y - base).collect();
        let mut forest = Self {
            base,
            nodes: Vec::new(),
            roots: Vec::with_capacity(params.trees),
            params,
        };
        forest.boost(xs, &mut residuals, params.trees, rng);
        forest
    }

    /// Warm-starts boosting from this forest: fits `extra_trees` new trees
    /// on the residuals of the current predictions over `(xs, ys)` and
    /// returns the extended ensemble. `self` is unchanged.
    ///
    /// The base prediction and hyperparameters are inherited from the
    /// original fit, so with `extra_trees == 0` the returned forest predicts
    /// bit-identically to `self`. Continuing on the same `(xs, ys)` is the
    /// cheap per-round path for a tuner's cost model; a periodic seeded
    /// full [`Gbt::fit`] bounds any drift from the recomputed residuals
    /// (the warm start recomputes `y − predict(x)` in one pass, which can
    /// differ from the scratch fit's iteratively-updated residuals by
    /// float-rounding ulps).
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty, ragged, or narrower than the
    /// rows the forest was fitted on.
    #[must_use]
    pub fn fit_incremental<X: AsRef<[f64]> + Sync, R: Rng + ?Sized>(&self, xs: &[X], ys: &[f64], extra_trees: usize, rng: &mut R) -> Self {
        assert!(!xs.is_empty(), "empty training set");
        assert_eq!(xs.len(), ys.len());
        let preds = self.predict_batch(xs);
        let mut residuals: Vec<f64> = ys.iter().zip(&preds).map(|(y, p)| y - p).collect();
        let mut forest = self.clone();
        forest.roots.reserve(extra_trees);
        forest.boost(xs, &mut residuals, extra_trees, rng);
        forest
    }

    /// Shared boosting loop: appends `rounds` trees fitted on `residuals`,
    /// updating the residuals in place with shrinkage after each round.
    fn boost<X: AsRef<[f64]>, R: Rng + ?Sized>(&mut self, xs: &[X], residuals: &mut [f64], rounds: usize, rng: &mut R) {
        let mut builder = TreeBuilder::new(xs, &self.params);
        for _ in 0..rounds {
            self.roots.push(node_index(self.nodes.len()));
            builder.build(residuals, &mut self.nodes, rng);
            // A training row's tree prediction is the value of the leaf the
            // build partitioned it into.
            for (r, p) in residuals.iter_mut().zip(&builder.fitted) {
                *r -= self.params.learning_rate * p;
            }
        }
    }

    /// The prediction of the tree rooted at `root`.
    fn eval(&self, root: u32, x: &[f64]) -> f64 {
        let mut i = root as usize;
        loop {
            let node = self.nodes[i];
            if node.feature == LEAF {
                return node.value;
            }
            i = if x[node.feature as usize] <= node.value {
                i + 1
            } else {
                node.right as usize
            };
        }
    }

    /// Predicted value at `x`.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.base + self.params.learning_rate * self.roots.iter().map(|&root| self.eval(root, x)).sum::<f64>()
    }

    /// Predicted values for a batch of rows, fanned out across worker
    /// threads (same order and same values as mapping [`Gbt::predict`]).
    #[must_use]
    pub fn predict_batch<X: AsRef<[f64]> + Sync>(&self, xs: &[X]) -> Vec<f64> {
        let threads = if xs.len() >= PARALLEL_PREDICT_ROWS {
            Threads::AUTO
        } else {
            Threads::fixed(1)
        };
        parallel_map(threads, xs, |_, x| self.predict(x.as_ref()))
    }

    /// Number of fitted trees.
    #[must_use]
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// Whether the ensemble has no trees.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// The root split of tree `t` as `(feature, threshold)`, if it split.
    /// Diagnostic hook used by the split-search equivalence tests and the
    /// throughput harness; not part of the modeling API.
    #[doc(hidden)]
    #[must_use]
    pub fn root_split(&self, t: usize) -> Option<(usize, f64)> {
        let root = self.nodes[*self.roots.get(t)? as usize];
        (root.feature != LEAF).then_some((root.feature as usize, root.value))
    }
}

/// A row or node position as stored in the `u32` orders and node links.
// 2^32 rows or nodes would need tens of GB of presorted columns or nodes;
// past that, the fit cannot run at all.
fn node_index(i: usize) -> u32 {
    u32::try_from(i).expect("GBT row and node counts fit in u32")
}

/// Stable-sorts `order` (row indices) by `values[row]` under `total_cmp`.
fn sort_rows(values: &[f64], order: &mut [u32]) {
    order.sort_by(|&a, &b| values[a as usize].total_cmp(&values[b as usize]));
}

/// Per-fit tree-growing state: the presorted column-major training matrix
/// and the buffers every tree reuses.
struct TreeBuilder<'p> {
    params: &'p GbtParams,
    rows: usize,
    width: usize,
    /// Column-major training matrix: `cols[f * rows + row]`.
    cols: Vec<f64>,
    /// Every column's rows, stably sorted by value (`sort_rows`).
    presorted: Vec<u32>,
    /// Working copy of `presorted` that a tree partitions in place.
    orders: Vec<u32>,
    /// Rows in row-index order, partitioned alongside the columns.
    by_row: Vec<u32>,
    /// Per-row side of the split being applied.
    goes_left: Vec<bool>,
    /// Right-hand rows of a segment being partitioned.
    scratch: Vec<u32>,
    /// Run-end records of the split sweep, shared by every feature.
    runs: Vec<RunEnd>,
    /// Each training row's prediction under the last tree built.
    fitted: Vec<f64>,
}

impl<'p> TreeBuilder<'p> {
    fn new<X: AsRef<[f64]>>(xs: &[X], params: &'p GbtParams) -> Self {
        let rows = xs.len();
        let width = xs[0].as_ref().len();
        assert!(xs.iter().all(|x| x.as_ref().len() == width), "ragged features");
        let mut cols = vec![0.0; rows * width];
        for (row, x) in xs.iter().enumerate() {
            for (f, &v) in x.as_ref().iter().enumerate() {
                cols[f * rows + row] = v;
            }
        }
        let identity: Vec<u32> = (0..node_index(rows)).collect();
        let mut presorted = Vec::with_capacity(rows * width);
        for values in cols.chunks_exact(rows) {
            let start = presorted.len();
            presorted.extend_from_slice(&identity);
            sort_rows(values, &mut presorted[start..]);
        }
        Self {
            params,
            rows,
            width,
            orders: presorted.clone(),
            cols,
            presorted,
            by_row: identity,
            goes_left: vec![false; rows],
            scratch: Vec::with_capacity(rows),
            runs: Vec::new(),
            fitted: vec![0.0; rows],
        }
    }

    /// Grows one tree on `targets`, appending its nodes in pre-order and
    /// recording each row's leaf value in `fitted`.
    fn build<R: Rng + ?Sized>(&mut self, targets: &[f64], nodes: &mut Vec<Node>, rng: &mut R) {
        self.orders.copy_from_slice(&self.presorted);
        for (row, i) in self.by_row.iter_mut().zip(0..) {
            *row = i;
        }
        self.grow(targets, nodes, 0, self.rows, self.params.max_depth, rng);
    }

    fn grow<R: Rng + ?Sized>(&mut self, targets: &[f64], nodes: &mut Vec<Node>, lo: usize, hi: usize, depth: usize, rng: &mut R) {
        let n = hi - lo;
        let mean: f64 = self.by_row[lo..hi].iter().map(|&r| targets[r as usize]).sum::<f64>() / n.max(1) as f64;
        let split = if depth == 0 || n < self.params.min_samples_split {
            None
        } else {
            self.best_split(targets, lo, hi, rng)
        };
        let Some((feature, threshold)) = split else {
            for &row in &self.by_row[lo..hi] {
                self.fitted[row as usize] = mean;
            }
            nodes.push(Node {
                feature: LEAF,
                right: 0,
                value: mean,
            });
            return;
        };
        let at = nodes.len();
        nodes.push(Node {
            feature: node_index(feature),
            right: 0,
            value: threshold,
        });
        // Children at depth 0 are leaves: they need only the row segment.
        let mid = self.partition(feature, threshold, lo, hi, depth > 1);
        self.grow(targets, nodes, lo, mid, depth - 1, rng);
        nodes[at].right = node_index(nodes.len());
        self.grow(targets, nodes, mid, hi, depth - 1, rng);
    }

    /// The best `(feature, threshold)` for the node owning `[lo, hi)`, if
    /// any split gains more than 1e-12.
    fn best_split<R: Rng + ?Sized>(&mut self, targets: &[f64], lo: usize, hi: usize, rng: &mut R) -> Option<(usize, f64)> {
        let rows = self.rows;
        let fraction = self.params.feature_fraction;
        // Earliest feature wins on equal gain.
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        for feature in 0..self.width {
            // Feature subsampling: one coin flip per feature, in order.
            if fraction < 1.0 && rng.gen::<f64>() > fraction {
                continue;
            }
            let values = &self.cols[feature * rows..(feature + 1) * rows];
            let order = &self.orders[feature * rows + lo..feature * rows + hi];
            if let Some((threshold, gain)) = sweep(values, order, targets, &mut self.runs) {
                if best.is_none_or(|(_, _, g)| gain > g) && gain > 1e-12 {
                    best = Some((feature, threshold, gain));
                }
            }
        }
        best.map(|(feature, threshold, _)| (feature, threshold))
    }

    /// Stably partitions the row segment `[lo, hi)` — and, if `columns`,
    /// every column's segment — into rows with `x[feature] <= threshold`
    /// followed by the rest. Returns the boundary.
    fn partition(&mut self, feature: usize, threshold: f64, lo: usize, hi: usize, columns: bool) -> usize {
        let rows = self.rows;
        let values = &self.cols[feature * rows..(feature + 1) * rows];
        for &row in &self.by_row[lo..hi] {
            self.goes_left[row as usize] = values[row as usize] <= threshold;
        }
        let mid = lo + stable_partition(&mut self.by_row[lo..hi], &self.goes_left, &mut self.scratch);
        if columns {
            for order in self.orders.chunks_exact_mut(rows) {
                stable_partition(&mut order[lo..hi], &self.goes_left, &mut self.scratch);
            }
        }
        mid
    }
}

/// Moves the rows of `segment` with `goes_left[row]` to its front, both
/// halves keeping their order; returns how many went left.
fn stable_partition(segment: &mut [u32], goes_left: &[bool], scratch: &mut Vec<u32>) -> usize {
    scratch.clear();
    let mut left = 0;
    for i in 0..segment.len() {
        let row = segment[i];
        if goes_left[row as usize] {
            segment[left] = row;
            left += 1;
        } else {
            scratch.push(row);
        }
    }
    segment[left..].copy_from_slice(scratch);
    left
}

/// Cumulative statistics of a node's sorted targets at the end of one run
/// of equal feature values.
#[derive(Debug, Clone, Copy)]
struct RunEnd {
    /// The run's value (its first, under `==`, so `-0.0` and `0.0` share a run).
    value: f64,
    /// Samples with value ≤ this run's.
    count: usize,
    /// Sum of their targets, accumulated in sorted order.
    sum: f64,
    /// Sum of their squared targets, accumulated in sorted order.
    sq: f64,
}

/// Best `(threshold, gain)` for one feature from a single sweep over the
/// node's rows in sorted order (`order`), keeping only run-end
/// `(value, count, sum, sum²)` records in `runs`.
///
/// Candidate thresholds are midpoints between consecutive distinct values,
/// strided so at most ~16 are scored, each in O(1).
fn sweep(values: &[f64], order: &[u32], targets: &[f64], runs: &mut Vec<RunEnd>) -> Option<(f64, f64)> {
    runs.clear();
    let (mut sum, mut sq) = (0.0f64, 0.0f64);
    for (i, &row) in order.iter().enumerate() {
        let (v, t) = (values[row as usize], targets[row as usize]);
        sum += t;
        sq += t * t;
        match runs.last_mut() {
            Some(run) if run.value == v => {
                run.count = i + 1;
                run.sum = sum;
                run.sq = sq;
            }
            _ => runs.push(RunEnd {
                value: v,
                count: i + 1,
                sum,
                sq,
            }),
        }
    }
    if runs.len() < 2 {
        return None;
    }
    let n = order.len();
    let (total_sum, total_sq) = (sum, sq);
    let parent_sse = total_sq - total_sum * total_sum / n as f64;
    let step = (runs.len() / 16).max(1);
    let mut best: Option<(f64, f64)> = None;
    for j in (0..runs.len() - 1).step_by(step) {
        let (left, next) = (runs[j], runs[j + 1]);
        let threshold = (left.value + next.value) / 2.0;
        let left_sse = left.sq - left.sum * left.sum / left.count as f64;
        let right_sum = total_sum - left.sum;
        let right_sse = (total_sq - left.sq) - right_sum * right_sum / (n - left.count) as f64;
        let gain = parent_sse - (left_sse + right_sse);
        if best.is_none_or(|(_, g)| gain > g) {
            best = Some((threshold, gain));
        }
    }
    best
}

/// The split search for one feature over the node `indices`: stable-sorts
/// the node, then runs the production sweep. Exposed so the
/// `search_throughput` harness can time it and check it against the
/// two-pass reference. Not part of the modeling API.
#[doc(hidden)]
#[must_use]
pub fn prefix_sum_best_split(xs: &[Vec<f64>], targets: &[f64], indices: &[usize], feature: usize) -> Option<(f64, f64)> {
    let values: Vec<f64> = xs.iter().map(|x| x[feature]).collect();
    let mut order: Vec<u32> = indices.iter().map(|&i| node_index(i)).collect();
    sort_rows(&values, &mut order);
    sweep(&values, &order, targets, &mut Vec::new())
}

/// The original O(n·thresholds) two-pass split search, kept verbatim as the
/// reference implementation for the equivalence tests and the
/// `search_throughput` harness's algorithmic-speedup record. Not part of
/// the modeling API.
#[doc(hidden)]
#[must_use]
pub fn two_pass_best_split(xs: &[Vec<f64>], targets: &[f64], indices: &[usize], feature: usize) -> Option<(f64, f64)> {
    let mut values: Vec<f64> = indices.iter().map(|&i| xs[i][feature]).collect();
    values.sort_by(|a, b| a.total_cmp(b));
    values.dedup();
    if values.len() < 2 {
        return None;
    }
    let n = indices.len();
    let mean: f64 = indices.iter().map(|&i| targets[i]).sum::<f64>() / n.max(1) as f64;
    let parent_sse: f64 = indices.iter().map(|&i| (targets[i] - mean).powi(2)).sum();
    let step = (values.len() / 16).max(1);
    let mut best: Option<(f64, f64)> = None;
    for w in values.windows(2).step_by(step) {
        let threshold = (w[0] + w[1]) / 2.0;
        let (mut ln, mut ls, mut rn, mut rs) = (0usize, 0.0f64, 0usize, 0.0f64);
        for &i in indices {
            if xs[i][feature] <= threshold {
                ln += 1;
                ls += targets[i];
            } else {
                rn += 1;
                rs += targets[i];
            }
        }
        if ln == 0 || rn == 0 {
            continue;
        }
        let (lm, rm) = (ls / ln as f64, rs / rn as f64);
        let mut sse = 0.0;
        for &i in indices {
            let m = if xs[i][feature] <= threshold { lm } else { rm };
            sse += (targets[i] - m).powi(2);
        }
        let gain = parent_sse - sse;
        if best.is_none_or(|(_, g)| gain > g) {
            best = Some((threshold, gain));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn friedman_like(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..n).map(|_| (0..4).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] + x[1] * x[2] - 2.0 * (x[3] - 0.5).powi(2)).collect();
        (xs, ys)
    }

    #[test]
    fn fits_nonlinear_function() {
        let (xs, ys) = friedman_like(400, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let gbt = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
        let mse: f64 = xs.iter().zip(&ys).map(|(x, y)| (gbt.predict(x) - y).powi(2)).sum::<f64>() / xs.len() as f64;
        let var = crate::stats::std_dev(&ys).powi(2);
        assert!(mse < 0.05 * var, "mse {mse} vs var {var}");
    }

    #[test]
    fn ranks_better_than_random() {
        // The cost-model role only needs ranking quality: check Spearman-ish
        // agreement on held-out data.
        let (xs, ys) = friedman_like(600, 3);
        let (train_x, test_x) = xs.split_at(400);
        let (train_y, test_y) = ys.split_at(400);
        let mut rng = StdRng::seed_from_u64(4);
        let gbt = Gbt::fit(train_x, train_y, GbtParams::default(), &mut rng);
        let preds: Vec<f64> = test_x.iter().map(|x| gbt.predict(x)).collect();
        // Count concordant pairs.
        let mut concordant = 0usize;
        let mut total = 0usize;
        for i in 0..test_y.len() {
            for j in i + 1..test_y.len() {
                total += 1;
                if (test_y[i] - test_y[j]) * (preds[i] - preds[j]) > 0.0 {
                    concordant += 1;
                }
            }
        }
        let tau = concordant as f64 / total as f64;
        assert!(tau > 0.85, "concordance {tau}");
    }

    #[test]
    fn constant_targets_yield_constant_model() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys = vec![5.0; 20];
        let mut rng = StdRng::seed_from_u64(5);
        let gbt = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
        assert!((gbt.predict(&[100.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn more_trees_do_not_hurt_training_fit() {
        let (xs, ys) = friedman_like(200, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let small = Gbt::fit(
            &xs,
            &ys,
            GbtParams {
                trees: 5,
                ..GbtParams::default()
            },
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(7);
        let large = Gbt::fit(
            &xs,
            &ys,
            GbtParams {
                trees: 80,
                ..GbtParams::default()
            },
            &mut rng,
        );
        let mse = |g: &Gbt| xs.iter().zip(&ys).map(|(x, y)| (g.predict(x) - y).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mse(&large) <= mse(&small));
    }

    #[test]
    fn len_reports_tree_count() {
        let (xs, ys) = friedman_like(50, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let gbt = Gbt::fit(
            &xs,
            &ys,
            GbtParams {
                trees: 7,
                ..GbtParams::default()
            },
            &mut rng,
        );
        assert_eq!(gbt.len(), 7);
        assert!(!gbt.is_empty());
    }

    #[test]
    fn prefix_sum_split_matches_two_pass_reference() {
        // The PR-2 rewrite must pick the same (feature, threshold) as the
        // original re-scanning search on a fixed fixture.
        let (xs, ys) = friedman_like(500, 42);
        let indices: Vec<usize> = (0..xs.len()).collect();
        let width = xs[0].len();
        for feature in 0..width {
            let fast = prefix_sum_best_split(&xs, &ys, &indices, feature);
            let slow = two_pass_best_split(&xs, &ys, &indices, feature);
            match (fast, slow) {
                (Some((ft, fg)), Some((st, sg))) => {
                    assert_eq!(ft, st, "feature {feature}: thresholds diverged");
                    assert!((fg - sg).abs() < 1e-6 * sg.abs().max(1.0), "feature {feature}: gains {fg} vs {sg}");
                }
                (None, None) => {}
                other => panic!("feature {feature}: disagreement {other:?}"),
            }
        }
        // And the full-tree argmax across features must agree too: fit one
        // depth-1 tree and check its root against the reference argmax.
        let mut rng = StdRng::seed_from_u64(0);
        let gbt = Gbt::fit(
            &xs,
            &ys,
            GbtParams {
                trees: 1,
                max_depth: 1,
                feature_fraction: 1.0,
                ..GbtParams::default()
            },
            &mut rng,
        );
        let mut reference: Option<(usize, f64, f64)> = None;
        for feature in 0..width {
            if let Some((threshold, gain)) = two_pass_best_split(&xs, &ys, &indices, feature) {
                if reference.is_none_or(|(_, _, g)| gain > g) && gain > 1e-12 {
                    reference = Some((feature, threshold, gain));
                }
            }
        }
        let (rf, rt, _) = reference.expect("fixture has signal");
        assert_eq!(gbt.root_split(0), Some((rf, rt)));
    }

    #[test]
    fn splits_ties_and_duplicate_values() {
        // Columns with a single distinct value must be unsplittable.
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![1.0, (i % 3) as f64]).collect();
        let ys: Vec<f64> = (0..30).map(|i| (i % 3) as f64 * 10.0).collect();
        let indices: Vec<usize> = (0..30).collect();
        assert_eq!(prefix_sum_best_split(&xs, &ys, &indices, 0), None);
        let (_, gain) = prefix_sum_best_split(&xs, &ys, &indices, 1).expect("feature 1 separates");
        assert!(gain > 0.0);
    }

    #[test]
    fn fit_is_identical_at_any_thread_count() {
        let (xs, ys) = friedman_like(600, 10);
        let fit_at = |threads: usize| {
            crate::parallel::set_default_threads(threads);
            let mut rng = StdRng::seed_from_u64(3);
            let gbt = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
            crate::parallel::set_default_threads(0);
            xs.iter().map(|x| gbt.predict(x).to_bits()).collect::<Vec<u64>>()
        };
        let one = fit_at(1);
        assert_eq!(one, fit_at(4));
        assert_eq!(one, fit_at(13));
    }

    #[test]
    fn incremental_with_zero_trees_is_bit_identical() {
        let (xs, ys) = friedman_like(300, 20);
        let mut rng = StdRng::seed_from_u64(21);
        let base = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
        let mut rng = StdRng::seed_from_u64(22);
        let same = base.fit_incremental(&xs, &ys, 0, &mut rng);
        assert_eq!(same.len(), base.len());
        for x in &xs {
            assert_eq!(base.predict(x).to_bits(), same.predict(x).to_bits());
        }
    }

    #[test]
    fn incremental_trees_improve_training_fit() {
        let (xs, ys) = friedman_like(400, 23);
        let mut rng = StdRng::seed_from_u64(24);
        let short = Gbt::fit(
            &xs,
            &ys,
            GbtParams {
                trees: 8,
                ..GbtParams::default()
            },
            &mut rng,
        );
        let extended = short.fit_incremental(&xs, &ys, 40, &mut rng);
        assert_eq!(extended.len(), 48);
        assert_eq!(short.len(), 8, "warm start must not mutate the original");
        let mse = |g: &Gbt| xs.iter().zip(&ys).map(|(x, y)| (g.predict(x) - y).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mse(&extended) < mse(&short), "extra residual trees must tighten the fit");
    }

    #[test]
    fn incremental_tracks_scratch_fit_quality() {
        // Warm-start (8 scratch + 42 incremental) must land within a small
        // factor of a 50-tree scratch fit: the residual recurrence is the
        // same, only the RNG stream for the feature-subsampling differs.
        let (xs, ys) = friedman_like(400, 25);
        let mut rng = StdRng::seed_from_u64(26);
        let scratch = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
        let mut rng = StdRng::seed_from_u64(26);
        let short = Gbt::fit(
            &xs,
            &ys,
            GbtParams {
                trees: 8,
                ..GbtParams::default()
            },
            &mut rng,
        );
        let warm = short.fit_incremental(&xs, &ys, 42, &mut rng);
        let mse = |g: &Gbt| xs.iter().zip(&ys).map(|(x, y)| (g.predict(x) - y).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mse(&warm) < 2.0 * mse(&scratch), "warm {} vs scratch {}", mse(&warm), mse(&scratch));
    }

    #[test]
    fn incremental_is_deterministic_and_thread_invariant() {
        let (xs, ys) = friedman_like(600, 27);
        let mut rng = StdRng::seed_from_u64(28);
        let base = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
        let grow_at = |threads: usize| {
            crate::parallel::set_default_threads(threads);
            let mut rng = StdRng::seed_from_u64(29);
            let grown = base.fit_incremental(&xs, &ys, 8, &mut rng);
            crate::parallel::set_default_threads(0);
            xs.iter().map(|x| grown.predict(x).to_bits()).collect::<Vec<u64>>()
        };
        let one = grow_at(1);
        assert_eq!(one, grow_at(4));
        assert_eq!(one, grow_at(13));
    }

    #[test]
    fn fit_accepts_shared_rows() {
        // The row type is generic over AsRef<[f64]> so cached Arc rows feed
        // training without a clone; values must match the Vec path exactly.
        use std::sync::Arc;
        let (xs, ys) = friedman_like(200, 30);
        let shared: Vec<Arc<[f64]>> = xs.iter().map(|x| Arc::from(x.as_slice())).collect();
        let mut rng = StdRng::seed_from_u64(31);
        let from_vecs = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
        let mut rng = StdRng::seed_from_u64(31);
        let from_arcs = Gbt::fit(&shared, &ys, GbtParams::default(), &mut rng);
        for x in &xs {
            assert_eq!(from_vecs.predict(x).to_bits(), from_arcs.predict(x).to_bits());
        }
        let batch = from_arcs.predict_batch(&shared);
        assert_eq!(batch.len(), xs.len());
    }

    #[test]
    fn predict_batch_matches_predict() {
        let (xs, ys) = friedman_like(300, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let gbt = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
        let batch = gbt.predict_batch(&xs);
        assert_eq!(batch.len(), xs.len());
        for (x, b) in xs.iter().zip(&batch) {
            assert_eq!(gbt.predict(x).to_bits(), b.to_bits());
        }
    }

    /// The per-node-sort builder the presorted one replaced, kept
    /// (single-threaded) as the equivalence reference: every node re-sorts
    /// `(value, target)` pairs per feature and trees are boxed.
    mod reference {
        use crate::gbt::GbtParams;
        use rand::Rng;

        #[derive(Clone)]
        enum Node {
            Leaf(f64),
            Split {
                feature: usize,
                threshold: f64,
                left: Box<Node>,
                right: Box<Node>,
            },
        }

        impl Node {
            fn predict(&self, x: &[f64]) -> f64 {
                match self {
                    Node::Leaf(v) => *v,
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        if x[*feature] <= *threshold {
                            left.predict(x)
                        } else {
                            right.predict(x)
                        }
                    }
                }
            }
        }

        #[derive(Clone)]
        pub struct Forest {
            base: f64,
            trees: Vec<Node>,
            params: GbtParams,
        }

        impl Forest {
            pub fn fit<R: Rng + ?Sized>(xs: &[Vec<f64>], ys: &[f64], params: GbtParams, rng: &mut R) -> Self {
                let base = ys.iter().sum::<f64>() / ys.len() as f64;
                let mut residuals: Vec<f64> = ys.iter().map(|y| y - base).collect();
                let mut forest = Self {
                    base,
                    trees: Vec::new(),
                    params,
                };
                forest.boost(xs, &mut residuals, params.trees, rng);
                forest
            }

            pub fn fit_incremental<R: Rng + ?Sized>(&self, xs: &[Vec<f64>], ys: &[f64], extra_trees: usize, rng: &mut R) -> Self {
                let mut residuals: Vec<f64> = ys.iter().zip(xs).map(|(y, x)| y - self.predict(x)).collect();
                let mut forest = self.clone();
                forest.boost(xs, &mut residuals, extra_trees, rng);
                forest
            }

            fn boost<R: Rng + ?Sized>(&mut self, xs: &[Vec<f64>], residuals: &mut [f64], rounds: usize, rng: &mut R) {
                let indices: Vec<usize> = (0..xs.len()).collect();
                for _ in 0..rounds {
                    let tree = build_tree(xs, residuals, &indices, self.params.max_depth, &self.params, rng);
                    for (r, x) in residuals.iter_mut().zip(xs) {
                        *r -= self.params.learning_rate * tree.predict(x);
                    }
                    self.trees.push(tree);
                }
            }

            pub fn predict(&self, x: &[f64]) -> f64 {
                self.base + self.params.learning_rate * self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
            }

            pub fn len(&self) -> usize {
                self.trees.len()
            }

            pub fn root_split(&self, t: usize) -> Option<(usize, f64)> {
                match &self.trees[t] {
                    Node::Leaf(_) => None,
                    Node::Split { feature, threshold, .. } => Some((*feature, *threshold)),
                }
            }
        }

        fn build_tree<R: Rng + ?Sized>(
            xs: &[Vec<f64>],
            targets: &[f64],
            indices: &[usize],
            depth: usize,
            params: &GbtParams,
            rng: &mut R,
        ) -> Node {
            let n = indices.len();
            let mean: f64 = indices.iter().map(|&i| targets[i]).sum::<f64>() / n.max(1) as f64;
            if depth == 0 || n < params.min_samples_split {
                return Node::Leaf(mean);
            }
            let width = xs[0].len();
            let included: Vec<bool> = (0..width)
                .map(|_| !(params.feature_fraction < 1.0 && rng.gen::<f64>() > params.feature_fraction))
                .collect();
            let mut best: Option<(usize, f64, f64)> = None;
            for feature in (0..width).filter(|&f| included[f]) {
                if let Some((threshold, gain)) = best_split_for_feature(xs, targets, indices, feature) {
                    if best.is_none_or(|(_, _, g)| gain > g) && gain > 1e-12 {
                        best = Some((feature, threshold, gain));
                    }
                }
            }
            match best {
                None => Node::Leaf(mean),
                Some((feature, threshold, _)) => {
                    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices.iter().partition(|&&i| xs[i][feature] <= threshold);
                    let left = build_tree(xs, targets, &left_idx, depth - 1, params, rng);
                    let right = build_tree(xs, targets, &right_idx, depth - 1, params, rng);
                    Node::Split {
                        feature,
                        threshold,
                        left: Box::new(left),
                        right: Box::new(right),
                    }
                }
            }
        }

        fn best_split_for_feature(xs: &[Vec<f64>], targets: &[f64], indices: &[usize], feature: usize) -> Option<(f64, f64)> {
            let n = indices.len();
            let mut pairs: Vec<(f64, f64)> = indices.iter().map(|&i| (xs[i][feature], targets[i])).collect();
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut prefix_sum = vec![0.0f64; n + 1];
            let mut prefix_sq = vec![0.0f64; n + 1];
            let mut runs: Vec<(f64, usize)> = Vec::new();
            for (i, &(v, t)) in pairs.iter().enumerate() {
                prefix_sum[i + 1] = prefix_sum[i] + t;
                prefix_sq[i + 1] = prefix_sq[i] + t * t;
                match runs.last_mut() {
                    Some(run) if run.0 == v => run.1 = i + 1,
                    _ => runs.push((v, i + 1)),
                }
            }
            if runs.len() < 2 {
                return None;
            }
            let total_sum = prefix_sum[n];
            let total_sq = prefix_sq[n];
            let parent_sse = total_sq - total_sum * total_sum / n as f64;
            let step = (runs.len() / 16).max(1);
            let mut best: Option<(f64, f64)> = None;
            for j in (0..runs.len() - 1).step_by(step) {
                let threshold = (runs[j].0 + runs[j + 1].0) / 2.0;
                let p = runs[j].1;
                let left_sum = prefix_sum[p];
                let left_sse = prefix_sq[p] - left_sum * left_sum / p as f64;
                let right_sum = total_sum - left_sum;
                let right_sse = (total_sq - prefix_sq[p]) - right_sum * right_sum / (n - p) as f64;
                let gain = parent_sse - (left_sse + right_sse);
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((threshold, gain));
                }
            }
            best
        }
    }

    /// Rows whose columns cover what the tuners fit: continuous, 2–10
    /// distinct values, constant, mixed `-0.0`/`0.0` (alone and with a
    /// third value), and a duplicate column whose gains tie an earlier one.
    fn mixed_columns(rows: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let levels: Vec<u32> = (0..3).map(|_| rng.gen_range(2..=10)).collect();
        let xs: Vec<Vec<f64>> = (0..rows)
            .map(|_| {
                let c = rng.gen_range(-1.0..1.0);
                let d: Vec<f64> = levels.iter().map(|&k| f64::from(rng.gen_range(0..k))).collect();
                let zero = if rng.gen::<bool>() { -0.0 } else { 0.0 };
                let signed = [-0.0, 0.0, 1.0][rng.gen_range(0..3usize)];
                vec![c, d[0], 7.5, d[1], zero, signed, rng.gen_range(0.0..1.0), d[2], d[0], -c]
            })
            .collect();
        let ys = xs
            .iter()
            .map(|x| 2.0 * x[0] + 0.3 * x[1] - x[3] * x[6] + x[5] + 0.1 * x[7] + rng.gen_range(-0.05..0.05))
            .collect();
        (xs, ys)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn presorted_builder_matches_per_node_sort_reference(
            rows in 4usize..600,
            seed in 0u64..1_000_000,
        ) {
            // Row counts straddle the warm start's PARALLEL_PREDICT_ROWS, the
            // one fan-out a fit reaches.
            let (xs, ys) = mixed_columns(rows, seed);
            let params = GbtParams {
                trees: 4,
                feature_fraction: 0.8,
                ..GbtParams::default()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let reference = reference::Forest::fit(&xs, &ys, params, &mut rng);
            let reference_grown = reference.fit_incremental(&xs, &ys, 3, &mut rng);
            for threads in [1, 2, 8] {
                crate::parallel::set_default_threads(threads);
                let mut rng = StdRng::seed_from_u64(seed);
                let fitted = Gbt::fit(&xs, &ys, params, &mut rng);
                let grown = fitted.fit_incremental(&xs, &ys, 3, &mut rng);
                crate::parallel::set_default_threads(0);
                for (ours, theirs) in [(&fitted, &reference), (&grown, &reference_grown)] {
                    prop_assert_eq!(ours.len(), theirs.len());
                    for t in 0..ours.len() {
                        let bits = |split: Option<(usize, f64)>| split.map(|(f, threshold)| (f, threshold.to_bits()));
                        prop_assert_eq!(bits(ours.root_split(t)), bits(theirs.root_split(t)));
                    }
                    for x in &xs {
                        prop_assert_eq!(ours.predict(x).to_bits(), theirs.predict(x).to_bits());
                    }
                }
            }
        }
    }
}
