//! Batched parallel simulated annealing.
//!
//! AutoTVM and Chameleon "formulate a cost minimization with a batch of
//! Markov chains" (§4.2) driven by a surrogate cost model; the number of
//! chain update steps is the key compile-time factor Fig. 6 counts. This
//! module runs that batch generically through one entry point, [`anneal`]
//! — callers provide the energy (higher = better here, matching GFLOPS)
//! and the neighbor move — and actually in parallel: chains fan out across
//! worker threads through [`crate::parallel`].
//!
//! **Determinism:** chain `c` draws from its own RNG, seed-split from the
//! master seed as `child_rng(seed, c)`. A chain's trajectory is therefore a
//! pure function of `(seed, c, start state)` — independent of how many
//! chains ran before it, of the worker count, and of chain execution order.
//! The same seed replays bit-identically at any `--threads` setting.
//!
//! **Cancellation:** the batch is the cancellation unit. Chains poll the
//! token before scoring their start and every `CANCEL_POLL_STEPS` steps
//! after, and bail once it trips; a batch during which the token tripped
//! is discarded whole, never partially consumed. The tuners drain at their
//! own trial boundary, so a cancelled run's journal stays a byte-identical
//! prefix of the uninterrupted run's.
//!
//! **Score memo:** the energy is fixed for the length of one [`anneal`]
//! call, so each chain remembers `(state, score)` for every distinct state
//! it has scored — its start and every proposal — and a repeated proposal
//! reuses the score instead of calling the energy again. About a quarter of
//! the tuners' proposals repeat a state their chain already scored. The
//! memo is a linear scan, newest first, over at most `max_steps + 1`
//! entries; it needs only `S: PartialEq`. It lives inside one chain, so a
//! chain is still a pure function of `(seed, c, start)`, and accept
//! decisions, RNG draws, `steps_executed` and `chain_bests` are bit-identical
//! to scoring every proposal.
//!
//! **Allocation:** the move writes its proposal into a persistent scratch
//! state, which is swapped in on acceptance, so a chain allocates the
//! start, best and scratch states once, plus one clone per distinct scored
//! state (the memo's copy), instead of one fresh state per step.

use crate::parallel::{parallel_map_range, Threads};
use crate::stats::child_rng;
use glimpse_supervise::CancelToken;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Annealing schedule and batch parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaParams {
    /// Number of parallel Markov chains.
    pub chains: usize,
    /// Maximum steps per chain.
    pub max_steps: usize,
    /// Starting temperature.
    pub t_start: f64,
    /// Final temperature (geometric schedule).
    pub t_end: f64,
    /// Stop a chain after this many consecutive non-improving steps
    /// (0 disables early stopping).
    pub patience: usize,
}

impl Default for SaParams {
    fn default() -> Self {
        Self {
            chains: 128,
            max_steps: 500,
            t_start: 1.0,
            t_end: 0.02,
            patience: 0,
        }
    }
}

/// Outcome of one batched annealing run.
#[derive(Debug, Clone)]
pub struct SaOutcome<S> {
    /// Best state found by each chain, with its score.
    pub chain_bests: Vec<(S, f64)>,
    /// Total chain-update steps executed across the batch (Fig. 6's metric).
    pub steps_executed: usize,
}

impl<S: Clone> SaOutcome<S> {
    /// The `k` best states across all chains, best first. Only the `k`
    /// returned states are cloned; the full batch is never copied.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<(S, f64)> {
        let mut order: Vec<usize> = (0..self.chain_bests.len()).collect();
        order.sort_by(|&a, &b| self.chain_bests[b].1.total_cmp(&self.chain_bests[a].1));
        order.truncate(k);
        order.into_iter().map(|i| self.chain_bests[i].clone()).collect()
    }
}

/// Runs `params.chains` annealing chains maximizing `score`, fanned out
/// across up to `threads` workers of [`crate::parallel`]; `None` if
/// `cancel` tripped at any time during the batch.
///
/// # Examples
///
/// ```
/// use glimpse_mlkit::parallel::Threads;
/// use glimpse_mlkit::sa::{anneal, SaParams};
/// use glimpse_supervise::CancelToken;
///
/// let out = anneal(
///     &[0i64],
///     |x| -((*x - 5) as f64).abs(),
///     |x, out, r| *out = x + if rand::Rng::gen::<bool>(r) { 1 } else { -1 },
///     SaParams { chains: 4, max_steps: 200, ..SaParams::default() },
///     7,
///     Threads::AUTO,
///     &CancelToken::new(),
/// )
/// .expect("an untripped token never cancels");
/// let (best, _) = &out.top_k(1)[0];
/// assert!((best - 5).abs() <= 1);
/// ```
///
/// Each chain starts from the corresponding entry of `initial` (recycled if
/// fewer starts than chains are given) and owns an RNG seed-split from
/// `seed` by chain index, so the outcome is identical at every thread
/// count. `neighbor_into(current, out, rng)` must fully overwrite `out`
/// with the proposed state (whatever a previous proposal left there is
/// stale). Acceptance follows Metropolis on the score difference with a
/// geometric temperature schedule. The energy is called once per distinct
/// state per chain (see the module docs), so it must be a pure function of
/// the state.
///
/// # Panics
///
/// Panics if `initial` is empty or temperatures are non-positive.
pub fn anneal<S, F, N>(
    initial: &[S],
    score: F,
    neighbor_into: N,
    params: SaParams,
    seed: u64,
    threads: Threads,
    cancel: &CancelToken,
) -> Option<SaOutcome<S>>
where
    S: Clone + PartialEq + Send + Sync,
    F: Fn(&S) -> f64 + Sync,
    N: Fn(&S, &mut S, &mut StdRng) + Sync,
{
    assert!(!initial.is_empty(), "need at least one starting state");
    assert!(params.t_start > 0.0 && params.t_end > 0.0, "temperatures must be positive");
    let chains = params.chains.max(1);
    let results: Option<Vec<_>> = parallel_map_range(threads, chains, |c| {
        run_chain(&initial[c % initial.len()], c, &score, &neighbor_into, &params, seed, cancel)
    })
    .into_iter()
    .collect();
    // Cancellation is monotonic: a chain cut short by the token, or one
    // that ran to its end after the token tripped, discards the batch too.
    let results = results.filter(|_| !cancel.is_cancelled())?;
    let steps_executed = results.iter().map(|(_, steps)| steps).sum();
    let chain_bests = results.into_iter().map(|(best, _)| best).collect();
    Some(SaOutcome {
        chain_bests,
        steps_executed,
    })
}

/// How many chain-update steps run between cancellation polls: cheap
/// enough to bound post-cancel latency, coarse enough to stay invisible in
/// the step profile.
const CANCEL_POLL_STEPS: usize = 16;

/// One chain's trajectory: a pure function of `(start, chain index, seed)`,
/// or `None` if `cancel` tripped before the chain started. A trip seen
/// later only cuts the chain short — the caller discards the whole batch
/// in that case, so the bail never leaks into results.
///
/// Proposals are generated into a persistent `candidate` scratch state and
/// swapped into `current` on acceptance (the in-place move must fully
/// overwrite the scratch). Each distinct state is scored once: `memo` holds
/// a copy of every state scored so far with its score.
fn run_chain<S, F, N>(
    start: &S,
    chain: usize,
    score: &F,
    neighbor_into: &N,
    params: &SaParams,
    seed: u64,
    cancel: &CancelToken,
) -> Option<((S, f64), usize)>
where
    S: Clone + PartialEq,
    F: Fn(&S) -> f64,
    N: Fn(&S, &mut S, &mut StdRng),
{
    use rand::Rng;
    if cancel.is_cancelled() {
        return None;
    }
    let cooling = if params.max_steps > 1 {
        (params.t_end / params.t_start).powf(1.0 / (params.max_steps - 1) as f64)
    } else {
        1.0
    };
    let mut rng = child_rng(seed, chain as u64);
    let mut current = start.clone();
    let mut current_score = score(&current);
    let mut memo: Vec<(S, f64)> = Vec::with_capacity(params.max_steps + 1);
    memo.push((current.clone(), current_score));
    let mut best = current.clone();
    let mut best_score = current_score;
    let mut candidate = current.clone();
    let mut t = params.t_start;
    let mut stale = 0usize;
    let mut steps = 0usize;
    for step in 0..params.max_steps {
        if step % CANCEL_POLL_STEPS == 0 && cancel.is_cancelled() {
            break;
        }
        steps += 1;
        neighbor_into(&current, &mut candidate, &mut rng);
        let candidate_score = memo_score(&mut memo, &candidate, score);
        let accept = candidate_score >= current_score || {
            let p = ((candidate_score - current_score) / t).exp();
            rng.gen::<f64>() < p
        };
        if accept {
            std::mem::swap(&mut current, &mut candidate);
            current_score = candidate_score;
        }
        if current_score > best_score {
            best.clone_from(&current);
            best_score = current_score;
            stale = 0;
        } else {
            stale += 1;
            if params.patience > 0 && stale >= params.patience {
                break;
            }
        }
        t *= cooling;
    }
    Some(((best, best_score), steps))
}

/// The score of `state` from `memo` if the chain has scored it, or else
/// `score(state)`, remembered. Newest first: a repeat is most often a move
/// straight back, or a rejected proposal drawn again from the same state.
fn memo_score<S: Clone + PartialEq>(memo: &mut Vec<(S, f64)>, state: &S, score: impl Fn(&S) -> f64) -> f64 {
    if let Some(&(_, known)) = memo.iter().rev().find(|(seen, _)| seen == state) {
        return known;
    }
    let fresh = score(state);
    memo.push((state.clone(), fresh));
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use glimpse_supervise::CancelReason;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// 1-D multi-modal score with global max at x = 37 on 0..=100.
    fn score(x: &i64) -> f64 {
        let xf = *x as f64;
        -((xf - 37.0) / 10.0).powi(2) + 0.5 * (xf / 7.0).sin()
    }

    fn neighbor(x: &i64, out: &mut i64, rng: &mut StdRng) {
        use rand::Rng;
        *out = (x + rng.gen_range(-5i64..=5)).clamp(0, 100);
    }

    /// [`anneal`] under a token nothing trips.
    fn run<F, N>(starts: &[i64], score: F, neighbor: N, params: SaParams, seed: u64, threads: Threads) -> SaOutcome<i64>
    where
        F: Fn(&i64) -> f64 + Sync,
        N: Fn(&i64, &mut i64, &mut StdRng) + Sync,
    {
        anneal(starts, score, neighbor, params, seed, threads, &CancelToken::new()).expect("an untripped token never cancels")
    }

    #[test]
    fn finds_global_optimum_region() {
        let starts: Vec<i64> = (0..8).map(|i| i * 12).collect();
        let params = SaParams {
            chains: 8,
            max_steps: 300,
            ..SaParams::default()
        };
        let out = run(&starts, score, neighbor, params, 1, Threads::AUTO);
        let (best, _) = &out.top_k(1)[0];
        assert!((best - 37).abs() <= 3, "best {best}");
    }

    #[test]
    fn step_count_is_bounded_by_budget() {
        let params = SaParams {
            chains: 4,
            max_steps: 100,
            patience: 0,
            ..SaParams::default()
        };
        let out = run(&[50i64], score, neighbor, params, 2, Threads::AUTO);
        assert_eq!(out.steps_executed, 400);
    }

    #[test]
    fn patience_reduces_steps() {
        let params = SaParams {
            chains: 4,
            max_steps: 500,
            patience: 0,
            ..SaParams::default()
        };
        let full = run(&[37i64], score, neighbor, params, 3, Threads::AUTO);
        let early = run(&[37i64], score, neighbor, SaParams { patience: 25, ..params }, 3, Threads::AUTO);
        assert!(early.steps_executed < full.steps_executed);
    }

    #[test]
    fn top_k_is_sorted_descending() {
        let starts: Vec<i64> = (0..16).map(|i| i * 6).collect();
        let params = SaParams {
            chains: 16,
            max_steps: 50,
            ..SaParams::default()
        };
        let top = run(&starts, score, neighbor, params, 4, Threads::AUTO).top_k(5);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let params = SaParams {
            chains: 2,
            max_steps: 100,
            ..SaParams::default()
        };
        let best = || run(&[0i64], score, neighbor, params, 11, Threads::AUTO).top_k(1)[0].1;
        assert_eq!(best(), best());
    }

    #[test]
    fn chain_bests_never_worse_than_start() {
        let starts = vec![0i64, 100];
        let params = SaParams {
            chains: 2,
            max_steps: 100,
            ..SaParams::default()
        };
        let out = run(&starts, score, neighbor, params, 5, Threads::AUTO);
        for (i, (_, s)) in out.chain_bests.iter().enumerate() {
            assert!(*s >= score(&starts[i]) - 1e-12);
        }
    }

    #[test]
    fn chain_trajectory_is_independent_of_batch_position() {
        // The determinism contract: chain c's result does not depend on how
        // many chains ran before it.
        let starts: Vec<i64> = (0..6).map(|i| i * 20).collect();
        let params = SaParams {
            chains: 6,
            max_steps: 120,
            ..SaParams::default()
        };
        let batch = run(&starts, score, neighbor, params, 9, Threads::AUTO);
        for (c, expected) in batch.chain_bests.iter().enumerate() {
            let (solo, _) = run_chain(&starts[c], c, &score, &neighbor, &params, 9, &CancelToken::new()).expect("untripped");
            assert_eq!(&solo, expected, "chain {c} diverged from its solo replay");
        }
    }

    fn bests_equal(a: &SaOutcome<i64>, b: &SaOutcome<i64>) -> bool {
        a.steps_executed == b.steps_executed
            && a.chain_bests.len() == b.chain_bests.len()
            && a.chain_bests
                .iter()
                .zip(&b.chain_bests)
                .all(|((sa, fa), (sb, fb))| sa == sb && fa.to_bits() == fb.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Bit-identical `chain_bests` for threads ∈ {1, 2, 8} and for a
        /// permuted chain execution order.
        #[test]
        fn identical_at_any_thread_count_and_order(seed in 0u64..1_000_000, chains in 1usize..12, max_steps in 1usize..60) {
            let starts: Vec<i64> = (0..4).map(|i| i * 25).collect();
            let params = SaParams { chains, max_steps, ..SaParams::default() };
            let reference = run(&starts, score, neighbor, params, seed, Threads::fixed(1));
            for threads in [2usize, 8] {
                let out = run(&starts, score, neighbor, params, seed, Threads::fixed(threads));
                prop_assert!(bests_equal(&reference, &out), "threads={threads}");
            }
            // Execute chains in reverse order, sequentially, and scatter
            // the results back: must reproduce the batch exactly.
            let mut permuted: Vec<Option<(i64, f64)>> = vec![None; chains];
            let mut steps = 0usize;
            for c in (0..chains).rev() {
                let (best, s) = run_chain(&starts[c % starts.len()], c, &score, &neighbor, &params, seed, &CancelToken::new()).expect("untripped");
                permuted[c] = Some(best);
                steps += s;
            }
            let permuted = SaOutcome {
                chain_bests: permuted.into_iter().map(|b| b.expect("all chains ran")).collect(),
                steps_executed: steps,
            };
            prop_assert!(bests_equal(&reference, &permuted), "permuted execution order diverged");
        }
    }

    /// The chain loop before the score memo: every proposal is scored. Kept
    /// as the reference the memoized chain must match bit for bit.
    fn run_chain_unmemoized<S, F, N>(
        start: &S,
        chain: usize,
        score: &F,
        neighbor_into: &N,
        params: &SaParams,
        seed: u64,
    ) -> ((S, f64), usize)
    where
        S: Clone,
        F: Fn(&S) -> f64,
        N: Fn(&S, &mut S, &mut StdRng),
    {
        use rand::Rng;
        let cooling = if params.max_steps > 1 {
            (params.t_end / params.t_start).powf(1.0 / (params.max_steps - 1) as f64)
        } else {
            1.0
        };
        let mut rng = child_rng(seed, chain as u64);
        let mut current = start.clone();
        let mut current_score = score(&current);
        let mut best = current.clone();
        let mut best_score = current_score;
        let mut candidate = current.clone();
        let mut t = params.t_start;
        let mut stale = 0usize;
        let mut steps = 0usize;
        for _ in 0..params.max_steps {
            steps += 1;
            neighbor_into(&current, &mut candidate, &mut rng);
            let candidate_score = score(&candidate);
            let accept = candidate_score >= current_score || {
                let p = ((candidate_score - current_score) / t).exp();
                rng.gen::<f64>() < p
            };
            if accept {
                std::mem::swap(&mut current, &mut candidate);
                current_score = candidate_score;
            }
            if current_score > best_score {
                best.clone_from(&current);
                best_score = current_score;
                stale = 0;
            } else {
                stale += 1;
                if params.patience > 0 && stale >= params.patience {
                    break;
                }
            }
            t *= cooling;
        }
        ((best, best_score), steps)
    }

    /// A state space of nine points where most proposals revisit a state
    /// the chain has already scored.
    fn tiny_score(x: &i64) -> f64 {
        [0.3, -1.0, 0.9, 0.1, 2.0, -0.5, 1.1, 0.0, 1.7][*x as usize]
    }

    fn tiny_neighbor(x: &i64, out: &mut i64, rng: &mut StdRng) {
        use rand::Rng;
        *out = (x + rng.gen_range(-2i64..=2)).clamp(0, 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The memoized chains reproduce the memo-free loop exactly, at any
        /// worker count, with and without patience.
        #[test]
        fn score_memo_is_bit_identical_to_scoring_every_proposal(
            seed in 0u64..1_000_000,
            chains in 1usize..10,
            max_steps in 1usize..120,
            patience in 0usize..12,
        ) {
            let starts: Vec<i64> = vec![0, 4, 8];
            let params = SaParams { chains, max_steps, patience, ..SaParams::default() };
            let mut reference = SaOutcome { chain_bests: Vec::new(), steps_executed: 0 };
            for c in 0..chains {
                let (best, steps) = run_chain_unmemoized(&starts[c % starts.len()], c, &tiny_score, &tiny_neighbor, &params, seed);
                reference.chain_bests.push(best);
                reference.steps_executed += steps;
            }
            for threads in [1usize, 2, 8] {
                let out = run(&starts, tiny_score, tiny_neighbor, params, seed, Threads::fixed(threads));
                prop_assert!(bests_equal(&reference, &out), "threads={threads}");
            }
        }
    }

    #[test]
    fn score_runs_once_per_distinct_state_per_chain() {
        use std::collections::BTreeSet;
        let starts: Vec<i64> = vec![0, 4, 8];
        let params = SaParams {
            chains: 6,
            max_steps: 200,
            ..SaParams::default()
        };
        // Each chain's distinct scored states, from the memo-free loop.
        let mut distinct = 0;
        let mut proposals = 0;
        for c in 0..params.chains {
            let seen = std::cell::RefCell::new(BTreeSet::new());
            let recording = |x: &i64| {
                seen.borrow_mut().insert(*x);
                tiny_score(x)
            };
            let (_, steps) = run_chain_unmemoized(&starts[c % starts.len()], c, &recording, &tiny_neighbor, &params, 17);
            distinct += seen.borrow().len();
            proposals += steps + 1;
        }
        let calls = AtomicUsize::new(0);
        let counted = |x: &i64| {
            calls.fetch_add(1, Ordering::Relaxed);
            tiny_score(x)
        };
        run(&starts, counted, tiny_neighbor, params, 17, Threads::fixed(2));
        assert_eq!(calls.load(Ordering::Relaxed), distinct);
        assert!(distinct * 10 < proposals, "the fixture must revisit states");
    }

    #[test]
    fn tripped_token_discards_the_whole_batch() {
        let params = SaParams {
            chains: 8,
            max_steps: 400,
            ..SaParams::default()
        };
        let starts: Vec<i64> = (0..8).map(|i| i * 12).collect();
        // Long jumps: almost every proposal is a state its chain has not
        // scored, so the energy calls track the steps taken.
        let neighbor = |x: &i64, out: &mut i64, rng: &mut StdRng| {
            use rand::Rng;
            *out = x + rng.gen_range(-1000i64..=1000);
        };
        let calls = AtomicUsize::new(0);
        let counted = |x: &i64| {
            calls.fetch_add(1, Ordering::Relaxed);
            score(x)
        };
        run(&starts, counted, neighbor, params, 2, Threads::fixed(2));
        let full = calls.swap(0, Ordering::Relaxed);
        // Tripped from inside the energy at its 41st call: every chain
        // bails within one poll interval, and the cut-short batch is never
        // returned.
        let trip_at = 40;
        let bound = trip_at + 1 + params.chains * CANCEL_POLL_STEPS;
        assert!(full > bound, "the fixture must run well past the trip ({full} calls)");
        for threads in [1usize, 2, 8] {
            // A token tripped before the batch: no chain scores anything.
            let pre = CancelToken::new();
            pre.cancel(CancelReason::Interrupted);
            calls.store(0, Ordering::Relaxed);
            assert!(anneal(&starts, counted, neighbor, params, 2, Threads::fixed(threads), &pre).is_none());
            assert_eq!(calls.load(Ordering::Relaxed), 0, "threads={threads}");

            let mid = CancelToken::new();
            calls.store(0, Ordering::Relaxed);
            let tripping = |x: &i64| {
                if calls.fetch_add(1, Ordering::Relaxed) == trip_at {
                    mid.cancel(CancelReason::DeadlineExceeded);
                }
                score(x)
            };
            assert!(anneal(&starts, tripping, neighbor, params, 2, Threads::fixed(threads), &mid).is_none());
            let spent = calls.load(Ordering::Relaxed);
            assert!(spent <= bound, "threads={threads}: {spent} energy calls after a trip at {trip_at}");
        }
        // Tripped by the first proposal, after the chain's last poll: the
        // chain runs to its end, and the batch is discarded all the same.
        let late = CancelToken::new();
        calls.store(0, Ordering::Relaxed);
        let tripping = |x: &i64| {
            if calls.fetch_add(1, Ordering::Relaxed) == 1 {
                late.cancel(CancelReason::Interrupted);
            }
            score(x)
        };
        let unpolled = SaParams {
            chains: 1,
            max_steps: CANCEL_POLL_STEPS - 1,
            ..params
        };
        assert!(anneal(&starts, tripping, neighbor, unpolled, 2, Threads::fixed(1), &late).is_none());
    }

    #[test]
    fn top_k_clones_only_k_states() {
        let out = SaOutcome {
            chain_bests: vec![(1i64, 1.0), (3, 3.0), (2, 2.0), (4, 4.0)],
            steps_executed: 0,
        };
        assert_eq!(out.top_k(2), vec![(4, 4.0), (3, 3.0)]);
        assert_eq!(out.top_k(0), Vec::<(i64, f64)>::new());
        assert_eq!(out.top_k(10).len(), 4);
    }
}
