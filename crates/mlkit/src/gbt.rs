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
//! leaf mean is summed); a split stably partitions every segment in place.
//! The partition is branch-free: each row is written both to the next left
//! slot of its segment and to the next right slot of a rows-sized scratch
//! buffer, and only its own side's cursor advances by the row's side bit.
//! A stable partition of a stable presort is exactly the order a per-node
//! stable sort would produce, so the split search sees the same sequence —
//! and sums in the same order — as sorting `(value, target)` pairs at every
//! node, without the sort.
//!
//! **Split search.** One sweep per (node, feature) over the sorted segment
//! keeps only the cumulative `(value, count, sum, sum²)` record at the end of
//! each run of equal values. The current run's first value and the running
//! sums stay in locals; a record is written only where a row's value is not
//! `==` to the run's, so `-0.0` and `0.0` share a run and every NaN is a run
//! of its own. The candidate thresholds are midpoints between consecutive
//! runs, strided so at most ~16 are scored, each in O(1); only the winner's
//! midpoint is computed. The sweeps run inline, one feature after another,
//! sharing one run buffer: the tree builder never spawns threads, so the
//! fitted ensemble is the same at every thread count.
//!
//! **Flat forests.** Every tree is stored complete to `D = max_depth`: its
//! `2^D − 1` splits in heap order (node `i`'s children are `2i + 1` and
//! `2i + 2`) and its `2^D` leaves, all trees back to back in three flat
//! vectors, so a warm start clones three allocations rather than one per
//! node. A leaf that growth reaches above depth `D` fills every leaf of its
//! subtree with its value, under padding splits that may go either way. A
//! prediction walks exactly `D` levels per tree with no data-dependent
//! branch, `i = 2i + 2 − [x[f] <= t]`, eight trees level by level in
//! lockstep so their walks overlap, and adds the leaves to the sum in tree
//! order. At the default depth 4 a tree takes 308 bytes. [`MAX_DEPTH`] caps
//! the depth, because the layout grows as `2^D` whether or not a tree fills
//! it.
//!
//! [`Gbt::fit_incremental`] warm-starts boosting from an existing forest:
//! new trees are fitted to the residuals of the current predictions, so a
//! tuner can append a handful of trees per round instead of refitting the
//! whole ensemble over the entire history. Training rows are accepted as any
//! `AsRef<[f64]>` (plain `Vec<f64>` or shared `Arc<[f64]>` rows from a
//! feature cache) so callers never have to clone feature matrices to fit.
//!
//! **Carried leaf sums.** A prediction is `base + lr · s`, where the leaf
//! sum `s` ([`Gbt::leaf_sum`]) adds the row's leaves in tree order. Every
//! fit also extends a caller-held leaf sum per training row: a training
//! row's leaf in a new tree is the value of the leaf the build partitioned
//! it into. So a warm start over rows it has already fitted takes their
//! residuals from the carried sums, `y − (base + lr · s)`, bit for bit the
//! `y − predict(x)` a fresh walk would give, without walking the forest.

use crate::parallel::{parallel_map, Threads};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyperparameters for [`Gbt`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GbtParams {
    /// Number of boosting rounds.
    pub trees: usize,
    /// Maximum tree depth, at most [`MAX_DEPTH`].
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

/// The deepest tree [`Gbt::fit`] accepts. Every tree stores `2^max_depth`
/// leaves, 20 KB per tree at this cap.
pub const MAX_DEPTH: usize = 10;

/// Marks a padding split, one under a leaf that growth reached above the
/// full depth. Its feature index is 0 (the bit is masked off in the walk),
/// and every leaf below it holds the same value.
const PADDING: u32 = 1 << 31;

/// The start value of every leaf sum: `Iterator::sum`'s own, so a leaf
/// sum's bits are those of a `.sum()` over the trees' leaves.
fn empty_sum() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// A fitted gradient-boosted tree ensemble (squared loss).
#[derive(Debug, Clone)]
pub struct Gbt {
    base: f64,
    /// Each tree's `2^D − 1` split features in heap order, trees back to
    /// back; a padding split has [`PADDING`] set.
    features: Vec<u32>,
    /// The split thresholds, laid out like `features`: `x[f] <= t` goes left.
    thresholds: Vec<f64>,
    /// Each tree's `2^D` leaf values, left to right, trees back to back.
    leaves: Vec<f64>,
    params: GbtParams,
}

/// Trees one prediction walks in lockstep.
const WALK_LANES: usize = 8;

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
    /// Panics if the training set is empty, ragged or has no features, or
    /// if `params.max_depth` exceeds [`MAX_DEPTH`].
    #[must_use]
    pub fn fit<X: AsRef<[f64]> + Sync, R: Rng + ?Sized>(xs: &[X], ys: &[f64], params: GbtParams, rng: &mut R) -> Self {
        Self::fit_summed(xs, ys, params, &mut Vec::new(), rng)
    }

    /// [`Gbt::fit`], also leaving each training row's [`Gbt::leaf_sum`]
    /// under the fitted forest in `sums`, aligned with `xs`: the sums a
    /// later [`Gbt::fit_incremental`] over these rows starts from.
    ///
    /// # Panics
    ///
    /// As [`Gbt::fit`].
    #[must_use]
    pub fn fit_summed<X: AsRef<[f64]> + Sync, R: Rng + ?Sized>(
        xs: &[X],
        ys: &[f64],
        params: GbtParams,
        sums: &mut Vec<f64>,
        rng: &mut R,
    ) -> Self {
        assert!(!xs.is_empty(), "empty training set");
        assert_eq!(xs.len(), ys.len());
        assert!(params.max_depth <= MAX_DEPTH, "max_depth {} exceeds {MAX_DEPTH}", params.max_depth);
        let base = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut residuals: Vec<f64> = ys.iter().map(|y| y - base).collect();
        let (splits, leaves) = tree_size(params.max_depth);
        let mut forest = Self {
            base,
            features: Vec::with_capacity(params.trees * splits),
            thresholds: Vec::with_capacity(params.trees * splits),
            leaves: Vec::with_capacity(params.trees * leaves),
            params,
        };
        sums.clear();
        sums.resize(xs.len(), empty_sum());
        forest.boost(xs, &mut residuals, sums, params.trees, rng);
        forest
    }

    /// Warm-starts boosting from this forest: fits `extra_trees` new trees
    /// on the residuals of the current predictions over `(xs, ys)` and
    /// returns the extended ensemble. `self` is unchanged.
    ///
    /// `sums[i]` must be [`Gbt::leaf_sum`] of `xs[i]` under `self`, as a
    /// previous fit over these rows left it or as a walk gives it; the
    /// residuals are `y − (base + lr · sum)`, which is `y − predict(x)` bit
    /// for bit. On return `sums` holds the leaf sums under the extended
    /// forest.
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
    /// Panics if the training set is empty or ragged, if `sums` is not
    /// aligned with `xs`, or if the rows are narrower than the rows the
    /// forest was fitted on.
    #[must_use]
    pub fn fit_incremental<X: AsRef<[f64]> + Sync, R: Rng + ?Sized>(
        &self,
        xs: &[X],
        ys: &[f64],
        sums: &mut [f64],
        extra_trees: usize,
        rng: &mut R,
    ) -> Self {
        assert!(!xs.is_empty(), "empty training set");
        assert_eq!(xs.len(), ys.len());
        assert_eq!(xs.len(), sums.len(), "one leaf sum per training row");
        let (base, lr) = (self.base, self.params.learning_rate);
        let mut residuals: Vec<f64> = ys.iter().zip(&*sums).map(|(y, s)| y - (base + lr * s)).collect();
        let (splits, leaves) = tree_size(self.params.max_depth);
        let mut forest = Self {
            base: self.base,
            features: with_room(&self.features, extra_trees * splits),
            thresholds: with_room(&self.thresholds, extra_trees * splits),
            leaves: with_room(&self.leaves, extra_trees * leaves),
            params: self.params,
        };
        forest.boost(xs, &mut residuals, sums, extra_trees, rng);
        forest
    }

    /// Shared boosting loop: appends `rounds` trees fitted on `residuals`,
    /// updating the residuals in place with shrinkage after each round and
    /// adding each row's new leaf to its leaf sum.
    fn boost<X: AsRef<[f64]>, R: Rng + ?Sized>(&mut self, xs: &[X], residuals: &mut [f64], sums: &mut [f64], rounds: usize, rng: &mut R) {
        let mut builder = TreeBuilder::new(xs, &self.params);
        let (splits, leaves) = tree_size(self.params.max_depth);
        for _ in 0..rounds {
            let (at, leaf_at) = (self.features.len(), self.leaves.len());
            self.features.resize(at + splits, PADDING);
            self.thresholds.resize(at + splits, 0.0);
            self.leaves.resize(leaf_at + leaves, 0.0);
            let tree = Tree {
                features: &mut self.features[at..],
                thresholds: &mut self.thresholds[at..],
                leaves: &mut self.leaves[leaf_at..],
            };
            builder.build(residuals, tree, rng);
            // A training row's tree prediction is the value of the leaf the
            // build partitioned it into, the leaf its walk reaches.
            for ((r, s), p) in residuals.iter_mut().zip(sums.iter_mut()).zip(&builder.fitted) {
                *r -= self.params.learning_rate * p;
                *s += p;
            }
        }
    }

    /// Predicted value at `x`: `base + lr · leaf_sum(x)`.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.base + self.params.learning_rate * self.leaf_sum(x)
    }

    /// The sum of the leaves `x` reaches, in tree order: each tree walks its
    /// `D` levels, eight trees in lockstep.
    #[must_use]
    pub fn leaf_sum(&self, x: &[f64]) -> f64 {
        let trees = self.len();
        let grouped = trees - trees % WALK_LANES;
        let mut sum = empty_sum();
        for first in (0..grouped).step_by(WALK_LANES) {
            for leaf in self.walk::<WALK_LANES>(x, first) {
                sum += leaf;
            }
        }
        for tree in grouped..trees {
            sum += self.walk::<1>(x, tree)[0];
        }
        sum
    }

    /// The leaf values of trees `first..first + K` at `x`, walked level by
    /// level in lockstep so the `K` independent walks overlap.
    fn walk<const K: usize>(&self, x: &[f64], first: usize) -> [f64; K] {
        let depth = self.params.max_depth;
        let (splits, leaves) = tree_size(depth);
        let mut node = [0usize; K];
        for _ in 0..depth {
            for (k, i) in node.iter_mut().enumerate() {
                let at = (first + k) * splits + *i;
                let value = x[(self.features[at] & !PADDING) as usize];
                // Left child `2i + 1` if `x[f] <= t`, else right; NaN goes right.
                *i = 2 * *i + 2 - usize::from(value <= self.thresholds[at]);
            }
        }
        std::array::from_fn(|k| self.leaves[(first + k) * leaves + node[k] - splits])
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
        self.leaves.len() >> self.params.max_depth
    }

    /// Whether the ensemble has no trees.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// The root split of tree `t` as `(feature, threshold)`, if it split,
    /// for the split-search equivalence tests.
    #[cfg(test)]
    fn root_split(&self, t: usize) -> Option<(usize, f64)> {
        let root = t * tree_size(self.params.max_depth).0;
        let feature = *self.features.get(root)?;
        (feature & PADDING == 0).then(|| (feature as usize, self.thresholds[root]))
    }
}

/// Splits and leaves of one complete tree of depth `depth`.
fn tree_size(depth: usize) -> (usize, usize) {
    let leaves = 1 << depth;
    (leaves - 1, leaves)
}

/// A copy of `values` with room for `extra` more, in one allocation.
fn with_room<T: Copy>(values: &[T], extra: usize) -> Vec<T> {
    let mut copy = Vec::with_capacity(values.len() + extra);
    copy.extend_from_slice(values);
    copy
}

/// One tree's slots in the forest vectors, as [`TreeBuilder::grow`] fills
/// them.
struct Tree<'a> {
    features: &'a mut [u32],
    thresholds: &'a mut [f64],
    leaves: &'a mut [f64],
}

/// A row position, or a feature index, as stored in `u32`.
// 2^31 rows would need tens of GB of presorted columns, and a feature index
// must leave `PADDING`'s bit clear; past that, the fit cannot run at all.
fn u32_index(i: usize) -> u32 {
    u32::try_from(i)
        .ok()
        .filter(|&i| i & PADDING == 0)
        .expect("GBT rows and features fit in 31 bits")
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
    /// Right-hand rows of a segment being partitioned, one slot per row.
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
        assert!(width > 0, "rows need at least one feature");
        assert!(xs.iter().all(|x| x.as_ref().len() == width), "ragged features");
        let mut cols = vec![0.0; rows * width];
        for (row, x) in xs.iter().enumerate() {
            for (f, &v) in x.as_ref().iter().enumerate() {
                cols[f * rows + row] = v;
            }
        }
        let identity: Vec<u32> = (0..u32_index(rows)).collect();
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
            scratch: vec![0; rows],
            runs: Vec::new(),
            fitted: vec![0.0; rows],
        }
    }

    /// Grows one tree on `targets` into `tree`, whose splits are all
    /// padding, and records each row's leaf value in `fitted`.
    fn build<R: Rng + ?Sized>(&mut self, targets: &[f64], mut tree: Tree<'_>, rng: &mut R) {
        self.orders.copy_from_slice(&self.presorted);
        for (row, i) in self.by_row.iter_mut().zip(0..) {
            *row = i;
        }
        self.grow(targets, &mut tree, 0, 0, self.rows, self.params.max_depth, rng);
    }

    /// Grows heap node `node`, which owns the rows `[lo, hi)` and has
    /// `depth` levels below it.
    #[expect(clippy::too_many_arguments, reason = "one recursive step of the tree builder")]
    fn grow<R: Rng + ?Sized>(
        &mut self,
        targets: &[f64],
        tree: &mut Tree<'_>,
        node: usize,
        lo: usize,
        hi: usize,
        depth: usize,
        rng: &mut R,
    ) {
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
            // The subtree's leaves, `2^depth` of them, start at heap index
            // `(node + 1)·2^depth − 1`; the leaf row starts at `splits`.
            let first = ((node + 1) << depth) - tree.leaves.len();
            tree.leaves[first..first + (1 << depth)].fill(mean);
            return;
        };
        tree.features[node] = u32_index(feature);
        tree.thresholds[node] = threshold;
        // Children at depth 0 are leaves: they need only the row segment.
        let mid = self.partition(feature, threshold, lo, hi, depth > 1);
        self.grow(targets, tree, 2 * node + 1, lo, mid, depth - 1, rng);
        self.grow(targets, tree, 2 * node + 2, mid, hi, depth - 1, rng);
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
///
/// Branch-free: every row is written both to the next left slot of
/// `segment` and to the next right slot of `scratch` (at least as long as
/// `segment`), and only the side it belongs to advances. The left slot
/// never passes the row being read, so no unread row is overwritten.
fn stable_partition(segment: &mut [u32], goes_left: &[bool], scratch: &mut [u32]) -> usize {
    let scratch = &mut scratch[..segment.len()];
    let (mut left, mut right) = (0, 0);
    for i in 0..segment.len() {
        let row = segment[i];
        let side = usize::from(goes_left[row as usize]);
        segment[left] = row;
        scratch[right] = row;
        left += side;
        right += 1 - side;
    }
    segment[left..].copy_from_slice(&scratch[..right]);
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
/// The current run's first value and the running sums live in locals; a
/// record is pushed only when a row's value is not `==` to the run's, so a
/// NaN is a run of its own. Candidate thresholds are midpoints between
/// consecutive distinct values, strided so at most ~16 are considered, and
/// each finite one is scored in O(1). A midpoint next to `+∞` or NaN is
/// `+∞` or NaN, and `x <= +∞` or `x <= NaN` sends every row one way, so
/// such a split would separate nothing.
fn sweep(values: &[f64], order: &[u32], targets: &[f64], runs: &mut Vec<RunEnd>) -> Option<(f64, f64)> {
    runs.clear();
    let (&first, rest) = order.split_first()?;
    let t = targets[first as usize];
    // The sums start at `0.0`, not at `t`: `0.0 + -0.0` is `0.0`.
    let (mut sum, mut sq) = (0.0f64, 0.0f64);
    sum += t;
    sq += t * t;
    let mut value = values[first as usize];
    for (i, &row) in (1..).zip(rest) {
        let (v, t) = (values[row as usize], targets[row as usize]);
        if v != value {
            runs.push(RunEnd { value, count: i, sum, sq });
            value = v;
        }
        sum += t;
        sq += t * t;
    }
    if runs.is_empty() {
        return None;
    }
    let n = order.len();
    runs.push(RunEnd { value, count: n, sum, sq });
    let (total_sum, total_sq) = (sum, sq);
    let parent_sse = total_sq - total_sum * total_sum / n as f64;
    let step = (runs.len() / 16).max(1);
    let gain = |left: &RunEnd| {
        let left_sse = left.sq - left.sum * left.sum / left.count as f64;
        let right_sum = total_sum - left.sum;
        let right_sse = (total_sq - left.sq) - right_sum * right_sum / (n - left.count) as f64;
        parent_sse - (left_sse + right_sse)
    };
    // Runs ascend in `total_cmp` order: sign-bit NaNs, -∞, finite values,
    // +∞, other NaNs. A midpoint is not finite next to a NaN or an
    // infinity, or where the sum overflows, which happens only at the two
    // ends, so the boundaries with a finite midpoint form one range. The
    // candidates are its multiples of `step`, `lo..hi`: stepping from 0
    // past the non-finite prefix lands on the first of them.
    let midpoint = |j: usize| (runs[j].value + runs[j + 1].value) / 2.0;
    let mut hi = runs.len() - 1;
    while hi > 0 && !midpoint(hi - 1).is_finite() {
        hi -= 1;
    }
    let mut lo = 0;
    while lo < hi && !midpoint(lo).is_finite() {
        lo += step;
    }
    if lo >= hi {
        return None;
    }
    // The first candidate is taken even if its gain is NaN; a later one
    // only if it gains strictly more.
    let (mut best, mut best_gain) = (lo, gain(&runs[lo]));
    for j in (lo + step..hi).step_by(step) {
        let g = gain(&runs[j]);
        if g > best_gain {
            (best, best_gain) = (j, g);
        }
    }
    Some((midpoint(best), best_gain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every row's leaf sum under `gbt`, by a walk.
    fn walked_sums(gbt: &Gbt, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| gbt.leaf_sum(x)).collect()
    }

    fn friedman_like(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..n).map(|_| (0..4).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] + x[1] * x[2] - 2.0 * (x[3] - 0.5).powi(2)).collect();
        (xs, ys)
    }

    /// The split search for one feature over the node `indices`: stable-sorts
    /// the node, then runs the production sweep.
    fn prefix_sum_best_split(xs: &[Vec<f64>], targets: &[f64], indices: &[usize], feature: usize) -> Option<(f64, f64)> {
        let values: Vec<f64> = xs.iter().map(|x| x[feature]).collect();
        let mut order: Vec<u32> = indices.iter().map(|&i| u32_index(i)).collect();
        sort_rows(&values, &mut order);
        sweep(&values, &order, targets, &mut Vec::new())
    }

    /// The original O(n·thresholds) two-pass split search, the reference
    /// implementation for the equivalence tests. It scores only finite
    /// thresholds, as the sweep does.
    fn two_pass_best_split(xs: &[Vec<f64>], targets: &[f64], indices: &[usize], feature: usize) -> Option<(f64, f64)> {
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
            if !threshold.is_finite() {
                continue;
            }
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
        let same = base.fit_incremental(&xs, &ys, &mut walked_sums(&base, &xs), 0, &mut rng);
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
        let extended = short.fit_incremental(&xs, &ys, &mut walked_sums(&short, &xs), 40, &mut rng);
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
        let warm = short.fit_incremental(&xs, &ys, &mut walked_sums(&short, &xs), 42, &mut rng);
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
            let grown = base.fit_incremental(&xs, &ys, &mut walked_sums(&base, &xs), 8, &mut rng);
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
                if !threshold.is_finite() {
                    continue;
                }
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
    /// With `non_finite`, one more column mixes NaN and ±∞ into finite
    /// values.
    fn mixed_columns(rows: usize, seed: u64, non_finite: bool) -> (Vec<Vec<f64>>, Vec<f64>) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let levels: Vec<u32> = (0..3).map(|_| rng.gen_range(2..=10)).collect();
        let xs: Vec<Vec<f64>> = (0..rows)
            .map(|_| {
                let c = rng.gen_range(-1.0..1.0);
                let d: Vec<f64> = levels.iter().map(|&k| f64::from(rng.gen_range(0..k))).collect();
                let zero = if rng.gen::<bool>() { -0.0 } else { 0.0 };
                let signed = [-0.0, 0.0, 1.0][rng.gen_range(0..3usize)];
                let mut x = vec![c, d[0], 7.5, d[1], zero, signed, rng.gen_range(0.0..1.0), d[2], d[0], -c];
                if non_finite {
                    x.push([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 3.0 * c, 1.0][rng.gen_range(0..5usize)]);
                }
                x
            })
            .collect();
        let ys = xs
            .iter()
            .map(|x| 2.0 * x[0] + 0.3 * x[1] - x[3] * x[6] + x[5] + 0.1 * x[7] + rng.gen_range(-0.05..0.05))
            .collect();
        (xs, ys)
    }

    /// Fits `params` (then grows `warm_trees` more from the fit's carried
    /// leaf sums) with the presorted builder at 1, 2 and 8 workers and with
    /// the per-node-sort reference, whose warm start predicts every row
    /// afresh, and asserts every root split, every training prediction and
    /// every carried leaf sum agree to the bit.
    fn assert_matches_reference(xs: &[Vec<f64>], ys: &[f64], params: GbtParams, warm_trees: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let reference = reference::Forest::fit(xs, ys, params, &mut rng);
        let reference_grown = reference.fit_incremental(xs, ys, warm_trees, &mut rng);
        for threads in [1, 2, 8] {
            crate::parallel::set_default_threads(threads);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sums = Vec::new();
            let fitted = Gbt::fit_summed(xs, ys, params, &mut sums, &mut rng);
            assert_eq!(bits(&sums), bits(&walked_sums(&fitted, xs)), "sums carried by a fit");
            let grown = fitted.fit_incremental(xs, ys, &mut sums, warm_trees, &mut rng);
            assert_eq!(bits(&sums), bits(&walked_sums(&grown, xs)), "sums carried by a warm start");
            crate::parallel::set_default_threads(0);
            for (ours, theirs) in [(&fitted, &reference), (&grown, &reference_grown)] {
                assert_eq!(ours.len(), theirs.len());
                for t in 0..ours.len() {
                    let split_bits = |split: Option<(usize, f64)>| split.map(|(f, threshold)| (f, threshold.to_bits()));
                    assert_eq!(split_bits(ours.root_split(t)), split_bits(theirs.root_split(t)), "tree {t}");
                }
                for x in xs {
                    assert_eq!(ours.predict(x).to_bits(), theirs.predict(x).to_bits());
                }
            }
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// One case of the builder-vs-reference property: `mixed_columns` rows,
    /// with shallow depths and a large `min_samples_split` stopping trees
    /// early, down to leaf roots. Forests of 1 to 15 trees are walked both
    /// in lockstep groups and one by one.
    fn matches_reference_case(rows: usize, seed: u64, max_depth: usize, split_rule: usize, non_finite: bool, trees: usize) {
        let min_samples_split = [2, 4, rows / 2, rows + 1][split_rule];
        let (xs, ys) = mixed_columns(rows, seed, non_finite);
        let params = GbtParams {
            trees,
            max_depth,
            min_samples_split,
            feature_fraction: 0.8,
            ..GbtParams::default()
        };
        assert_matches_reference(&xs, &ys, params, 3, seed);
    }

    #[test]
    fn stable_partition_matches_iterator_partition() {
        let goes_left: Vec<bool> = (0..12).map(|row| row % 3 != 1).collect();
        let segments: [Vec<u32>; 6] = [
            vec![],
            vec![4],
            vec![0, 2, 3, 5, 9],
            vec![1, 4, 7, 10],
            vec![11, 1, 0, 4, 6, 7, 2, 10],
            (0..12).rev().collect(),
        ];
        for segment in segments {
            let (left, right): (Vec<u32>, Vec<u32>) = segment.iter().partition(|&&row| goes_left[row as usize]);
            let mut ours = segment.clone();
            let mut scratch = vec![u32::MAX; segment.len()];
            let mid = stable_partition(&mut ours, &goes_left, &mut scratch);
            assert_eq!(mid, left.len(), "{segment:?}");
            assert_eq!(ours, [left, right].concat(), "{segment:?}");
        }
    }

    #[test]
    fn sweep_matches_two_pass_reference_on_non_finite_columns() {
        // Each column pairs NaN, ±0 or ±∞ with finite values; the targets
        // step at a finite midpoint. Neither search scores a midpoint next
        // to ±∞ or NaN: it is ±∞ or NaN, not a threshold between values.
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let columns: [(&[f64], &[f64]); 6] = [
            (
                &[-0.0, 0.0, -0.0, 1.0, 2.0, 0.0, 1.0, 2.0],
                &[0.0, 0.0, 0.0, 5.0, 9.0, 0.0, 5.0, 9.0],
            ),
            (&[nan, 1.0, nan, 2.0, 3.0, 1.0], &[10.0, 0.0, 10.0, 0.0, 10.0, 0.0]),
            (&[-inf, -1.0, -0.0, 0.0, 1.0, inf, 1.0], &[0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0]),
            (&[-inf, 0.0, -0.0, nan, inf, 2.0, -inf], &[1.0, 1.0, 1.0, 7.0, 7.0, 7.0, 1.0]),
            (&[nan, nan, 0.0, -0.0, 5.0], &[3.0, 3.0, 0.0, 0.0, 8.0]),
            (&[1.0, 2.0, inf, 1.0, 2.0, inf], &[0.0, 0.0, 10.0, 0.0, 0.0, 10.0]),
        ];
        for (column, targets) in columns {
            let xs: Vec<Vec<f64>> = column.iter().map(|&v| vec![v]).collect();
            let indices: Vec<usize> = (0..xs.len()).collect();
            let ours = prefix_sum_best_split(&xs, targets, &indices, 0);
            let theirs = two_pass_best_split(&xs, targets, &indices, 0);
            let (Some((ot, og)), Some((tt, tg))) = (ours, theirs) else {
                panic!("{column:?}: {ours:?} vs {theirs:?}");
            };
            assert_eq!(ot.to_bits(), tt.to_bits(), "{column:?}: thresholds");
            assert!((og - tg).abs() < 1e-9 * tg.abs().max(1.0), "{column:?}: gains {og} vs {tg}");
        }
        // Where the targets step at `+∞`, the best split is the best finite
        // one, 1.5, not the `+∞` midpoint that keeps every row left.
        let xs: Vec<Vec<f64>> = [1.0, 2.0, inf, 1.0, 2.0, inf].iter().map(|&v| vec![v]).collect();
        let targets = [0.0, 0.0, 10.0, 0.0, 0.0, 10.0];
        let split = prefix_sum_best_split(&xs, &targets, &[0, 1, 2, 3, 4, 5], 0);
        assert_eq!(split.map(|(threshold, _)| threshold), Some(1.5));
        let params = GbtParams {
            trees: 1,
            max_depth: 1,
            feature_fraction: 1.0,
            ..GbtParams::default()
        };
        let gbt = Gbt::fit(&xs, &targets, params, &mut StdRng::seed_from_u64(0));
        assert_eq!(gbt.root_split(0).map(|(_, threshold)| threshold), Some(1.5));
        // Only a non-finite boundary: nothing to split.
        let xs: Vec<Vec<f64>> = [1.0, inf, nan].iter().map(|&v| vec![v]).collect();
        assert_eq!(prefix_sum_best_split(&xs, &[0.0, 10.0, 5.0], &[0, 1, 2], 0), None);
        // One value, however signed, is one run: nothing to split.
        let xs: Vec<Vec<f64>> = [0.0, -0.0, 0.0].iter().map(|&v| vec![v]).collect();
        assert_eq!(prefix_sum_best_split(&xs, &[1.0, 2.0, 3.0], &[0, 1, 2], 0), None);
    }

    #[test]
    fn tuner_sized_fits_match_per_node_sort_reference() {
        // What a tuner's surrogate fits: hundreds of rows, more than 20
        // features, depth 4, the default feature fraction and a warm start
        // of at least 8 trees.
        for (rows, seed) in [(256, 1), (411, 2), (600, 3)] {
            let (mut xs, ys) = mixed_columns(rows, seed, true);
            let (more, _) = mixed_columns(rows, seed + 100, false);
            for (x, extra) in xs.iter_mut().zip(more) {
                x.extend(extra);
            }
            assert!(xs[0].len() >= 20);
            let params = GbtParams {
                trees: 12,
                ..GbtParams::default()
            };
            assert_eq!((params.max_depth, params.feature_fraction), (4, 0.9));
            assert_matches_reference(&xs, &ys, params, 8, seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn presorted_builder_matches_per_node_sort_reference(
            rows in 4usize..600,
            seed in 0u64..1_000_000,
            max_depth in 0usize..=5,
            split_rule in 0usize..4,
            non_finite in 0u8..2,
            trees in 1usize..=12,
        ) {
            matches_reference_case(rows, seed, max_depth, split_rule, non_finite == 1, trees);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The same property at 512 cases, for release builds:
        /// `cargo test --release -p glimpse-mlkit -- --ignored`.
        #[test]
        #[ignore = "512 cases: run in release with --ignored"]
        fn presorted_builder_matches_per_node_sort_reference_512_cases(
            rows in 4usize..600,
            seed in 0u64..1_000_000,
            max_depth in 0usize..=5,
            split_rule in 0usize..4,
            non_finite in 0u8..2,
            trees in 1usize..=12,
        ) {
            matches_reference_case(rows, seed, max_depth, split_rule, non_finite == 1, trees);
        }
    }
}
