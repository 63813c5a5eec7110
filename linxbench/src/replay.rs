//! The traced in-process replay: the workload's first goals through
//! `Router::submit` with one worker, and the pipeline's stages timed from
//! outside by calling each layer's public function on a `DatasetContext`
//! built like the router's own.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use linx_cdrl::CdrlTrainer;
use linx_data::{generate, DatasetKind, ScaleConfig};
use linx_dataframe::DataFrame;
use linx_engine::{
    EngineConfig, ExploreRequest, ExploreResult, PersistConfig, RoutedContext, Router,
    RouterConfig, Stage, TraceHandle, STAGE_COUNT,
};
use linx_explore::{narrate_with, Notebook, SessionExecutor};
use linx_nl2ldx::SpecDeriver;
use linxbench::workload::{dataset_id, Goal};

use crate::daemon::{DATA_SEED, EPISODES, ROWS};

/// One replayed request.
pub struct Request {
    /// The goal.
    pub goal: Goal,
    /// Whether the router should answer from a cache tier.
    pub expect_cached: bool,
}

/// Outside-in timings of one exploration's pipeline stages, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub derive_ms: f64,
    pub train_ms: f64,
    pub render_ms: f64,
    pub narrate_ms: f64,
    /// `TrainLog::total_env_steps` of the training run.
    pub env_steps: usize,
    /// The router's own traced `execute` stage for the same goal.
    pub execute_ms: f64,
}

/// What the replay measured.
pub struct Replay {
    /// Mean milliseconds of `Router::dataset_context` per dataset.
    pub context_ms: f64,
    /// Staged timings of every replayed request that trained, each with the
    /// router's traced execute time for that goal.
    pub stages: Vec<Stages>,
    /// Router trace of every replayed request: per-stage microseconds and the
    /// caller-observed microseconds from submit to response.
    pub traces: Vec<([u64; STAGE_COUNT], u64)>,
    /// Summed `OpMemo::stats` of the router's contexts: (hits, misses).
    pub memo: (u64, u64),
    /// The router's engine-wide `StatsCache::stats`: (hits, misses).
    pub stats: (u64, u64),
    /// The router's result per goal (first answer), for comparison with the
    /// daemon.
    pub results: BTreeMap<(String, String), ExploreResult>,
    /// Requests whose staged calls and router answer differ in any bit.
    pub stage_mismatch: usize,
    /// Content fingerprint of every dataset, by id.
    pub dataset_fps: BTreeMap<&'static str, u64>,
}

fn datasets() -> Vec<(&'static str, DataFrame)> {
    [
        DatasetKind::Netflix,
        DatasetKind::Flights,
        DatasetKind::PlayStore,
    ]
    .into_iter()
    .map(|kind| {
        let frame = generate(
            kind,
            ScaleConfig {
                rows: Some(ROWS),
                seed: DATA_SEED,
            },
        );
        (dataset_id(kind), frame)
    })
    .collect()
}

/// Run the derive → train → render → narrate sequence of the engine's
/// pipeline on `ctx`, timing each public call.
fn staged(routed: &RoutedContext, cfg: &EngineConfig, goal: &str) -> (ExploreResult, Stages) {
    let ctx = &routed.ctx;
    let t = Instant::now();
    let derivation =
        SpecDeriver::new().derive(goal, &ctx.dataset_id, &ctx.schema, Some(&ctx.sample));
    let derive_ms = ms(t);
    let trainer = CdrlTrainer::new(cfg.cdrl.clone());
    let executor = SessionExecutor::with_memo(ctx.dataset.clone(), Arc::clone(&ctx.memo))
        .with_stats(Arc::clone(&ctx.shared.stats));
    let t = Instant::now();
    let outcome =
        trainer.train_with_shared(executor.clone(), derivation.ldx.clone(), ctx.shared.clone());
    let train_ms = ms(t);
    let t = Instant::now();
    let notebook = Notebook::render(
        format!("{} — {}", ctx.dataset_id, goal),
        &executor,
        &outcome.best_tree,
    );
    let render_ms = ms(t);
    let t = Instant::now();
    let narrative = narrate_with(&executor, &outcome.best_tree);
    let narrate_ms = ms(t);
    let result = ExploreResult {
        ldx_canonical: derivation.ldx.canonical(),
        notebook,
        narrative,
        best_structural: outcome.best_structural,
        best_score: outcome.best_score,
    };
    let stages = Stages {
        derive_ms,
        train_ms,
        render_ms,
        narrate_ms,
        env_steps: outcome.log.total_env_steps(),
        execute_ms: 0.0,
    };
    (result, stages)
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1000.0
}

/// Whether two results are the same answer, bit for bit where numeric.
fn same_result(a: &ExploreResult, b: &ExploreResult) -> bool {
    a.best_score.to_bits() == b.best_score.to_bits()
        && a.best_structural == b.best_structural
        && a.ldx_canonical == b.ldx_canonical
        && format!("{:?}{:?}", a.notebook, a.narrative)
            == format!("{:?}{:?}", b.notebook, b.narrative)
}

/// A single-shard router on `engine`, with `cache_dir` mounting a disk tier.
fn router(engine: &EngineConfig, cache_dir: Option<&Path>) -> Router {
    let mut engine = engine.clone();
    engine.persist = cache_dir.map(PersistConfig::new);
    Router::new(RouterConfig {
        shards: 1,
        engine,
        ..RouterConfig::default()
    })
}

/// Replay `requests` in order through a one-worker router configured like
/// the daemon (`cache_dir` mounts a disk tier), tracing each.
///
/// Every request that trains is also run as timed stage calls against a
/// second router's contexts, which see the same goals in the same order. So
/// the staged calls and the traced router both start from cold per-goal memo
/// and statistics caches, and the memo and statistics counts are the
/// router's alone. The two answers should agree bit for bit; where they do
/// not, the request is counted in `stage_mismatch` (the engine's float sums
/// still depend on `HashMap` iteration order), and the run stays valid.
pub fn replay(requests: &[Request], cache_dir: Option<&Path>) -> Result<Replay, String> {
    let mut engine = EngineConfig::default();
    engine.cdrl.episodes = EPISODES;
    engine.workers = 1;
    let traced = router(&engine, cache_dir);
    let stager = router(&engine, None);
    let mut contexts = BTreeMap::new();
    let mut staged_contexts = BTreeMap::new();
    let mut context_ms = Vec::new();
    for (id, frame) in datasets() {
        let t = Instant::now();
        let routed = traced.dataset_context(&frame, id);
        context_ms.push(ms(t));
        contexts.insert(id, routed);
        staged_contexts.insert(id, stager.dataset_context(&frame, id));
    }

    let mut out = Replay {
        context_ms: linxbench::stats::mean(&context_ms),
        stages: Vec::new(),
        traces: Vec::new(),
        memo: (0, 0),
        stats: (0, 0),
        results: BTreeMap::new(),
        stage_mismatch: 0,
        dataset_fps: contexts
            .iter()
            .map(|(id, r)| (*id, r.ctx.dataset_fp))
            .collect(),
    };
    let mut failure = None;
    for ask in requests {
        let staged_run = (!ask.expect_cached)
            .then(|| staged(&staged_contexts[ask.goal.dataset], &engine, &ask.goal.text));
        let routed = &contexts[ask.goal.dataset];
        let clock = traced.engine(routed.shard).config().clock.clone();
        let trace = TraceHandle::active(&clock);
        let request =
            ExploreRequest::new(ask.goal.dataset, ask.goal.text.clone()).with_trace(trace.clone());
        let t = Instant::now();
        let response = traced.submit(routed, request).wait();
        let waited = t.elapsed().as_micros() as u64;
        let snap = trace.snapshot();
        out.traces.push((snap.stage_micros, waited));
        let result = match response.outcome {
            Ok(result) => result,
            Err(e) => {
                failure.get_or_insert(format!("replay of {:?}: {e}", ask.goal.text));
                continue;
            }
        };
        if response.served_from_cache != ask.expect_cached {
            failure.get_or_insert(format!(
                "replay of {:?}: served_from_cache={} but expected {}",
                ask.goal.text, response.served_from_cache, ask.expect_cached
            ));
        }
        if let Some((staged_result, mut stages)) = staged_run {
            out.stage_mismatch += !same_result(&staged_result, &result) as usize;
            stages.execute_ms = snap.stage_micros[Stage::Execute as usize] as f64 / 1000.0;
            out.stages.push(stages);
        }
        out.results
            .entry((ask.goal.dataset.to_string(), ask.goal.text.clone()))
            .or_insert(result);
    }
    for routed in contexts.values() {
        let m = routed.ctx.memo.stats();
        out.memo.0 += m.hits;
        out.memo.1 += m.misses;
    }
    if let Some(routed) = contexts.values().next() {
        let s = routed.ctx.shared.stats.stats();
        out.stats = (s.hits, s.misses);
    }
    traced.shutdown();
    stager.shutdown();
    match failure {
        Some(f) => Err(f),
        None => Ok(out),
    }
}
