//! Seeded inputs: the goal list drawn from the paper's benchmark generator,
//! the order a run asks it in, and the generator behind warm-hit's goal
//! choices. The same seed gives the same inputs; the daemon only ever sees
//! the generated goal text.

use std::collections::{BTreeMap, BTreeSet};

use linx_benchgen::generate_benchmark;
use linx_data::DatasetKind;
use linx_nl2ldx::MetaGoal;

/// The dataset id `linx serve` registers a built-in dataset under.
pub fn dataset_id(kind: DatasetKind) -> &'static str {
    match kind {
        DatasetKind::Netflix => "netflix",
        DatasetKind::Flights => "flights",
        DatasetKind::PlayStore => "playstore",
    }
}

/// One natural-language goal against one registered dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Goal {
    /// Dataset id (`netflix`, `flights`, `playstore`).
    pub dataset: &'static str,
    /// The goal text as generated.
    pub text: String,
}

/// SplitMix64: a tiny seeded generator whose sequence this package fixes, so
/// inputs do not depend on another crate's RNG stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// The benchmark generator seed whose goals every run asks.
pub const GOAL_SEED: u64 = 0;

/// `count` distinct goals (by dataset and text) from the benchmark generator
/// for [`GOAL_SEED`], dealt round-robin across the eight meta-goals in the
/// generator's own order, so each meta-goal gets `count / 8` of them (the
/// first ones one more). A meta-goal whose goals run out is topped up from
/// later generator seeds, which word the same parameters differently. The
/// list is the same for every run; a shorter list is a prefix of a longer one.
///
/// The run's seed only orders the list (see [`shuffled`]), so every seed
/// trains the same work. Drawing the goals from the seed's own generation
/// would not: its plausibility filter shifts which parameters come up, and
/// training cost differs several times between parameters of one meta-goal.
/// Nor would drawing only the wording: for 46 of 160 goals, five wordings of
/// the same parameters did not all derive the same LDX.
pub fn goal_list(count: usize) -> Vec<Goal> {
    let metas = MetaGoal::ALL.len();
    let per_meta = count.div_ceil(metas);
    let mut seen = BTreeSet::new();
    let mut queues: BTreeMap<usize, Vec<Goal>> = BTreeMap::new();
    let mut round = 0u64;
    while round < 64 && (queues.len() < metas || queues.values().any(|q| q.len() < per_meta)) {
        for i in generate_benchmark(GOAL_SEED.wrapping_add(round)).instances {
            let goal = Goal {
                dataset: dataset_id(i.dataset),
                text: i.goal_text,
            };
            if seen.insert((goal.dataset, goal.text.clone())) {
                queues.entry(i.meta_goal.index()).or_default().push(goal);
            }
        }
        round += 1;
    }
    let mut goals = Vec::with_capacity(count);
    for k in 0..per_meta {
        goals.extend(queues.values().filter_map(|q| q.get(k).cloned()));
    }
    goals.truncate(count);
    goals
}

/// `goals` in an order drawn from `seed`: each run of eight consecutive goals
/// (one deal of [`goal_list`]: one goal per meta-goal, and up to the 120th
/// goal all on one dataset) is shuffled in place (Fisher–Yates over
/// [`SplitMix64`]). The deals keep their order, so every seed trains the
/// datasets in the same sequence and each dataset's LRU statistics cache
/// sees the same goals, in another order within a deal.
pub fn shuffled(goals: &[Goal], seed: u64) -> Vec<Goal> {
    let mut out = goals.to_vec();
    let mut rng = SplitMix64::new(seed);
    for deal in out.chunks_mut(MetaGoal::ALL.len()) {
        for i in (1..deal.len()).rev() {
            deal.swap(i, rng.below(i + 1));
        }
    }
    out
}
