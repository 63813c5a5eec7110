//! `linxbench` — the repository's end-to-end benchmark.
//!
//! Builds `linx` from the checkout, drives a real `linx serve` child over
//! loopback HTTP under one of two workloads, validates every answer, and
//! prints every metric by name and unit. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 1`
//! the same traffic runs and an in-process replay adds the per-layer numbers.
//!
//! ```text
//! cargo run --release --manifest-path linxbench/Cargo.toml -- \
//!     --workload cold-train --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `README.md` beside this package for the workloads and metrics.

mod daemon;
mod phase;
mod replay;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use linx_engine::{request_fingerprint, DiskTier, EngineConfig, PersistConfig, STAGE_COUNT};
use linxbench::procfs;
use linxbench::prom::{self, Scrape};
use linxbench::stats::{self, summarize, Summary};
use linxbench::workload::{goal_list, shuffled, Goal, SplitMix64};
use serde_json::{json, Value};

use crate::daemon::{Daemon, EPISODES, ROWS, WORKERS};
use crate::phase::{closed_loop, each_once, Record};

/// Concurrent client threads (and connections) of the closed loops that are
/// answered from a cache, and of warm-hit's untimed populate phase.
const CLIENTS: usize = 2;
/// Clients of the phases whose explorations train, and so whose
/// `miss_cpu_ms` is measured. With two trainings on the two vCPUs of the
/// reference VM, each one's CPU time followed how the host placed them:
/// mean training CPU spread 11–15% (quartile distance over median) over five
/// seeds of the same goals, 4.8% with one training at a time.
const TRAIN_CLIENTS: usize = 1;
/// Daemon start-ups per run, without and with a disk tier to scrub; `setup_s`
/// is their median. A memory-only start-up takes about 25 ms and single ones
/// ranged from 18 to 37 ms within one run on a 2-vCPU VM; one over warm-hit's
/// cache directory takes about 0.6 s, most of it the scrub.
const SETUPS_MEMORY: usize = 15;
const SETUPS_DISK: usize = 9;
/// Distinct goals cold-train trains per second of `--seconds`, one at a
/// time: about 30 s of training at 20 s. The work is fixed by the run length,
/// not by how fast the build is, so parent and change train exactly the same
/// goals and `miss_cpu_ms` averages over all of them.
const COLD_GOALS_PER_S: f64 = 4.0;
/// Times cold-train re-asks every answered goal, for its hit samples (240 at
/// 20 s). One pass of 120 hits lasted under half a second, so a single
/// scheduler hiccup slowed a tenth of them and moved the tail by 27% between
/// runs.
const REASK_ROUNDS: usize = 3;
/// The fixed goal set warm-hit trains before timing and then repeats. Its
/// trainings leave about 16,000 entries that every start-up scrubs.
const WARM_SET: usize = 32;
/// Distinct goals (the set among them) warm-hit trains on a memory-only
/// daemon, one at a time and in the seed's order, for its miss samples and
/// `miss_cpu_ms`.
const WARM_MISSES: usize = 64;
/// Latency limits behind `slo_share`: a cache-served answer within
/// `SLO_HIT_MS`, a trained one within `SLO_MISS_MS`.
const SLO_HIT_MS: f64 = 25.0;
const SLO_MISS_MS: f64 = 1000.0;
/// Requests the traced replay takes from the head of each workload.
const REPLAY_REQUESTS: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdTrain,
    WarmHit,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-train" => Some(Workload::ColdTrain),
            "warm-hit" => Some(Workload::WarmHit),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdTrain => "cold-train",
            Workload::WarmHit => "warm-hit",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| {
                        format!("unknown workload {value:?} (cold-train, warm-hit)")
                    })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// A scratch directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Recreate `src` under `dst` with hard links: the disk tier only ever
/// replaces entries by rename and never writes into an existing file, so
/// every copy starts from the template's bytes without copying them.
fn link_dir(src: &Path, dst: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dst).map_err(|e| format!("create {}: {e}", dst.display()))?;
    let entries = std::fs::read_dir(src).map_err(|e| format!("read {}: {e}", src.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", src.display()))?;
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            link_dir(&entry.path(), &to)?;
        } else {
            std::fs::hard_link(entry.path(), &to)
                .map_err(|e| format!("link {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let resp = linxbench::client::once(addr, "GET", "/metrics")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET /metrics answered {}", resp.status));
    }
    Ok(prom::parse(&resp.text()))
}

/// Start the daemon `setups` times (each over its own cache directory, when
/// `cache_dirs` gives them) and keep the last one running. Returns it with
/// every set-up time.
fn start_daemon(
    bin: &Path,
    setups: usize,
    cache_dirs: &[PathBuf],
) -> Result<(Daemon, Vec<f64>), String> {
    let mut times = Vec::new();
    for i in 0..setups {
        let (daemon, secs) = daemon::spawn(bin, cache_dirs.get(i).map(PathBuf::as_path))?;
        times.push(secs);
        if i + 1 == setups {
            return Ok((daemon, times));
        }
        daemon.shutdown()?;
    }
    Err("no daemon start-up was asked for".to_string())
}

/// Everything one workload run observed.
struct Measured {
    setup_s: Vec<f64>,
    /// Every record that feeds a latency metric.
    records: Vec<Record>,
    /// Records of untimed preparation that feed no latency metric; validated,
    /// and counted in the quality guards.
    prep: Vec<Record>,
    /// Completions of the timed phase and its wall time.
    timed_done: usize,
    timed_secs: f64,
    /// The daemon's CPU seconds over the phase whose explorations all train,
    /// and how many trained in it.
    miss_cpu_s: f64,
    miss_trained: usize,
    /// Records of the timed phase, for reconciliation with the daemon's counters.
    timed: Vec<Record>,
    before: Scrape,
    after: Scrape,
    /// `/metrics` delta over the untimed daemon that filled the disk tier
    /// (empty when the workload has none).
    populate: Scrape,
    peak_rss_mb: f64,
    /// The replay's requests and, for the disk-backed workloads, the tier
    /// template and the measured daemon's cache directory.
    replay: Vec<replay::Request>,
    template: Option<PathBuf>,
    daemon_dir: Option<PathBuf>,
}

/// A disk tier filled by an untimed daemon, ready to be restarted over.
struct Populated {
    template: PathBuf,
    /// One hard-linked copy of the template per start-up.
    dirs: Vec<PathBuf>,
    /// The populate daemon's exchanges (all trained).
    records: Vec<Record>,
    /// The populate daemon's `/metrics` delta (its write-through).
    delta: Scrape,
}

/// Train `goals` with an untimed daemon whose `--cache-dir` becomes the
/// template, flush it, and lay out one identical copy per start-up.
fn populate(bin: &Path, work: &WorkDir, goals: &[Goal]) -> Result<Populated, String> {
    let template = work.0.join("template");
    let (daemon, _) = daemon::spawn(bin, Some(&template))?;
    let before = scrape(daemon.addr)?;
    let records = closed_loop(
        daemon.addr,
        CLIENTS,
        goals,
        None,
        &each_once(goals.len()),
        false,
    );
    let delta = prom::delta(&before, &scrape(daemon.addr)?);
    daemon.shutdown()?;
    // Flush the template's pages now, so their write-back does not land in
    // the timed phase.
    let _ = Command::new("sync").arg("-f").arg(&template).status();
    let dirs: Vec<PathBuf> = (0..SETUPS_DISK)
        .map(|i| work.0.join(format!("run-{i}")))
        .collect();
    for dir in &dirs {
        link_dir(&template, dir)?;
    }
    Ok(Populated {
        template,
        dirs,
        records,
        delta,
    })
}

fn cold_train(bin: &Path, args: &Args) -> Result<Measured, String> {
    let goals = shuffled(
        &goal_list((COLD_GOALS_PER_S * args.seconds as f64).round() as usize),
        args.seed,
    );
    let (daemon, setup_s) = start_daemon(bin, SETUPS_MEMORY, &[])?;
    let before = scrape(daemon.addr)?;
    let cpu_before = daemon.cpu_s()?;
    let start = Instant::now();
    let timed = closed_loop(
        daemon.addr,
        TRAIN_CLIENTS,
        &goals,
        None,
        &each_once(goals.len()),
        false,
    );
    let timed_secs = start.elapsed().as_secs_f64();
    let miss_cpu_s = daemon.cpu_s()? - cpu_before;
    let after = scrape(daemon.addr)?;
    let answered: Vec<Goal> = timed
        .iter()
        .filter(|r| r.ok())
        .map(|r| r.goal.clone())
        .collect();
    let reasks: Vec<Goal> = (0..REASK_ROUNDS)
        .flat_map(|_| answered.iter().cloned())
        .collect();
    let reask = closed_loop(
        daemon.addr,
        CLIENTS,
        &reasks,
        None,
        &each_once(reasks.len()),
        true,
    );
    let peak_rss_mb = daemon.peak_rss_mb()?;
    daemon.shutdown()?;
    let replay = goals
        .iter()
        .take(REPLAY_REQUESTS)
        .map(|g| replay::Request {
            goal: g.clone(),
            expect_cached: false,
        })
        .collect();
    let mut records = timed.clone();
    records.extend(reask);
    Ok(Measured {
        setup_s,
        records,
        prep: Vec::new(),
        timed_done: timed.iter().filter(|r| r.outcome.is_ok()).count(),
        timed_secs,
        miss_cpu_s,
        miss_trained: trained(&timed),
        timed,
        before,
        after,
        populate: Scrape::new(),
        peak_rss_mb,
        replay,
        template: None,
        daemon_dir: None,
    })
}

fn warm_hit(bin: &Path, args: &Args, work: &WorkDir) -> Result<Measured, String> {
    let list = goal_list(WARM_MISSES);
    let set = &list[..WARM_SET];
    let goals = shuffled(&list, args.seed);
    // The miss samples come from a memory-only daemon: with write-through they
    // followed the disk's speed (miss p50 spread 26% over ten runs on a 2-vCPU
    // VM).
    let (trainer, _) = daemon::spawn(bin, None)?;
    let cpu_before = trainer.cpu_s()?;
    let warm = closed_loop(
        trainer.addr,
        TRAIN_CLIENTS,
        &goals,
        None,
        &each_once(goals.len()),
        false,
    );
    let miss_cpu_s = trainer.cpu_s()? - cpu_before;
    trainer.shutdown()?;
    let filled = populate(bin, work, set)?;
    let (daemon, setup_s) = start_daemon(bin, filled.dirs.len(), &filled.dirs)?;
    let before = scrape(daemon.addr)?;
    let seed = args.seed;
    let pick = move |client: usize, turn: usize| {
        let mut rng = SplitMix64::new(seed ^ ((client as u64) << 40) ^ turn as u64);
        Some(rng.below(WARM_SET))
    };
    let start = Instant::now();
    let timed = closed_loop(
        daemon.addr,
        CLIENTS,
        set,
        Some(Duration::from_secs(args.seconds)),
        &pick,
        true,
    );
    let timed_secs = start.elapsed().as_secs_f64();
    let after = scrape(daemon.addr)?;
    let peak_rss_mb = daemon.peak_rss_mb()?;
    daemon.shutdown()?;
    let replay = set
        .iter()
        .take(REPLAY_REQUESTS)
        .map(|g| replay::Request {
            goal: g.clone(),
            expect_cached: true,
        })
        .collect();
    let miss_trained = trained(&warm);
    let mut records = warm;
    records.extend(timed.iter().cloned());
    Ok(Measured {
        setup_s,
        records,
        prep: filled.records,
        timed_done: timed.iter().filter(|r| r.outcome.is_ok()).count(),
        timed_secs,
        miss_cpu_s,
        miss_trained,
        timed,
        before,
        after,
        populate: filled.delta,
        peak_rss_mb,
        replay,
        template: Some(filled.template),
        daemon_dir: filled.dirs.last().cloned(),
    })
}

/// Number of exchanges that answered from a training run.
fn trained(records: &[Record]) -> usize {
    records
        .iter()
        .filter(|r| matches!(&r.outcome, Ok(a) if !a.cached))
        .count()
}

/// Reconcile the daemon's `/metrics` deltas over the timed phase with the
/// client's own counts. Returns one line per disagreement.
fn reconcile(delta: &Scrape, timed: &[Record]) -> Vec<String> {
    let posts = timed.len() as f64;
    let cached = timed
        .iter()
        .filter(|r| matches!(&r.outcome, Ok(a) if a.cached))
        .count() as f64;
    let submitted = prom::total(delta, "linx_requests_submitted_total");
    let mem_hits = prom::series(delta, "linx_cache_hits_total{tier=\"memory\"}");
    let mem_misses = prom::series(delta, "linx_cache_misses_total{tier=\"memory\"}");
    let disk_hits = prom::series(delta, "linx_cache_hits_total{tier=\"disk\"}");
    let coalesced = prom::total(delta, "linx_requests_coalesced_total");
    let mut problems = Vec::new();
    if submitted != posts {
        problems.push(format!(
            "linx_requests_submitted_total rose by {submitted}, the client submitted {posts}"
        ));
    }
    if mem_hits + mem_misses != posts {
        problems.push(format!(
            "memory-tier hits {mem_hits} + misses {mem_misses} != {posts} submissions"
        ));
    }
    // Cache-served answers are memory hits, coalesced attachments, or disk
    // result hits; the disk counter also counts statistics loads, so it bounds
    // the inferred result hits from above.
    let disk_result_hits = cached - mem_hits - coalesced;
    if disk_result_hits < 0.0 || disk_result_hits > disk_hits {
        problems.push(format!(
            "{cached} cache-served answers != memory hits {mem_hits} + coalesced {coalesced} + disk result hits (at most {disk_hits})"
        ));
    }
    problems
}

/// One reported metric.
struct Metric {
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(value: f64, unit: &'static str) -> Metric {
    Metric {
        value,
        unit,
        note: String::new(),
    }
}

fn timing(summary: &Summary, unit: &'static str, tail: bool) -> Metric {
    Metric {
        value: if tail { summary.tail } else { summary.p50 },
        unit,
        note: if tail {
            format!("p{:.1} of n={}", summary.tail_pct, summary.n)
        } else {
            format!("p50 of n={}", summary.n)
        },
    }
}

/// Completions per second of the timed phase.
fn done_per_s(m: &Measured) -> f64 {
    m.timed_done as f64 / m.timed_secs
}

fn latencies(records: &[Record], cached: bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| matches!(&r.outcome, Ok(a) if a.cached == cached))
        .map(|r| r.latency_ms)
        .collect()
}

/// The end-to-end metrics of a run, plus problems that make it invalid.
fn end_to_end(m: &Measured, problems: &mut Vec<String>) -> BTreeMap<&'static str, Metric> {
    let mut out = BTreeMap::new();
    let setup = stats::median(&m.setup_s);
    out.insert(
        "setup_s",
        Metric {
            value: setup,
            unit: "s",
            note: format!(
                "median of {} start-ups: {}",
                m.setup_s.len(),
                m.setup_s
                    .iter()
                    .map(|s| format!("{s:.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        },
    );
    // The hit tail and wall-clock training latency follow the host's load
    // (steal time, CPU speed), so they are reported in notes here and in the
    // traced run's per-layer numbers, not bounded.
    match summarize(&latencies(&m.records, true)) {
        Some(s) => {
            let mut p50 = timing(&s, "ms", false);
            p50.note = format!("{}; tail p{:.1} {:.3} ms", p50.note, s.tail_pct, s.tail);
            out.insert("hit_p50_ms", p50);
        }
        None => problems.push("too few hit samples for a tail percentile".to_string()),
    }
    let wall = match summarize(&latencies(&m.records, false)) {
        Some(s) => format!(
            "; wall p50 {:.1} ms, p{:.1} {:.1} ms of n={}",
            s.p50, s.tail_pct, s.tail, s.n
        ),
        None => {
            problems.push("too few miss samples for a tail percentile".to_string());
            String::new()
        }
    };
    out.insert(
        "miss_cpu_ms",
        Metric {
            value: 1000.0 * m.miss_cpu_s / m.miss_trained.max(1) as f64,
            unit: "ms",
            note: format!(
                "mean of {} trained{wall}; timed phase {:.3} done/s",
                m.miss_trained,
                done_per_s(m)
            ),
        },
    );
    let meets = m
        .records
        .iter()
        .filter(|r| match &r.outcome {
            Ok(a) => r.latency_ms <= if a.cached { SLO_HIT_MS } else { SLO_MISS_MS },
            Err(_) => false,
        })
        .count();
    out.insert(
        "slo_share",
        Metric {
            value: meets as f64 / m.records.len().max(1) as f64,
            unit: "share",
            note: format!(
                "{meets} of {} within hit {SLO_HIT_MS} ms / miss {SLO_MISS_MS} ms",
                m.records.len()
            ),
        },
    );
    let trained: Vec<_> = m
        .records
        .iter()
        .chain(&m.prep)
        .filter_map(|r| r.outcome.as_ref().ok())
        .filter(|a| !a.cached)
        .collect();
    let n = trained.len().max(1) as f64;
    out.insert(
        "structural_rate",
        Metric {
            value: trained.iter().filter(|a| a.structural).count() as f64 / n,
            unit: "share",
            note: format!("of {} trained", trained.len()),
        },
    );
    out.insert(
        "score_mean",
        Metric {
            value: trained.iter().map(|a| a.score).sum::<f64>() / n,
            unit: "score",
            note: format!("of {} trained", trained.len()),
        },
    );
    out
}

/// Number of replayed goals whose router answer differs from the daemon's:
/// at the wire's precision (score to four decimals, structural flag, LDX,
/// cell code), and bit for bit on `best_score` where the daemon persisted
/// the result.
fn result_mismatch(m: &Measured, rep: &replay::Replay) -> Result<usize, String> {
    let mut answers = BTreeMap::new();
    for r in m.records.iter().chain(&m.prep) {
        if let Ok(a) = &r.outcome {
            answers
                .entry((r.goal.dataset.to_string(), r.goal.text.clone()))
                .or_insert(a);
        }
    }
    let tier = match &m.daemon_dir {
        Some(dir) => Some(
            DiskTier::open(&PersistConfig::new(dir))
                .map_err(|e| format!("open {}: {e}", dir.display()))?,
        ),
        None => None,
    };
    let mut cdrl = EngineConfig::default().cdrl;
    cdrl.episodes = EPISODES;
    let sample_rows = EngineConfig::default().sample_rows;
    let mut mismatched = 0;
    for (key, result) in &rep.results {
        let Some(a) = answers.get(key) else { continue };
        let cells: Vec<&str> = result
            .notebook
            .cells
            .iter()
            .map(|c| c.code.as_str())
            .collect();
        let mut differs = format!("{:.4}", result.best_score) != format!("{:.4}", a.score)
            || result.best_structural != a.structural
            || result.ldx_canonical != a.ldx
            || cells != a.cells.iter().map(String::as_str).collect::<Vec<_>>();
        if let (Some(tier), Some(fp)) = (&tier, rep.dataset_fps.get(key.0.as_str())) {
            let key_fp = request_fingerprint(*fp, &key.1, &cdrl, EPISODES, sample_rows);
            if let Some(persisted) = tier.load_result(key_fp.0) {
                differs |= persisted.best_score.to_bits() != result.best_score.to_bits();
            }
        }
        mismatched += differs as usize;
    }
    Ok(mismatched)
}

/// The per-layer metrics of a traced run.
fn per_layer(
    m: &Measured,
    e2e: &BTreeMap<&'static str, Metric>,
    problems: &mut Vec<String>,
) -> Result<BTreeMap<&'static str, Metric>, String> {
    let d = prom::delta(&m.before, &m.after);
    let mut out = BTreeMap::new();
    let posts = m.timed.len().max(1) as f64;
    let ok: Vec<&phase::Answer> = m
        .timed
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .collect();
    let trained = ok.iter().filter(|a| !a.cached).count() as f64;

    // The measured daemon's memory. Not bounded: on warm-hit it followed the
    // run, not the code (26.6–36.3 MiB over ten seeds on a 2-vCPU VM).
    out.insert("daemon.peak_rss_mb", metric(m.peak_rss_mb, "MiB"));

    // engine::http / serve
    let overhead: Vec<f64> = m
        .timed
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|a| r.latency_ms - a.server_ms))
        .collect();
    let overhead_ms = stats::median(&overhead);
    out.insert("http.overhead_ms", metric(overhead_ms, "ms"));
    let hit_p50 = e2e.get("hit_p50_ms").map_or(0.0, |x| x.value);
    out.insert(
        "http.overhead_share",
        metric(
            if hit_p50 > 0.0 {
                overhead_ms / hit_p50
            } else {
                0.0
            },
            "share",
        ),
    );
    out.insert(
        "http.request_us_mean",
        metric(prom::mean(&d, "linx_http_request_micros"), "us"),
    );
    // The closing scrape opened one connection inside the window.
    let conns = prom::total(&d, "linx_http_connections_total") - 1.0;
    out.insert("http.conns_per_explore", metric(conns / posts, "count"));

    // engine::router / cache / quota
    out.insert(
        "router.route_us_mean",
        metric(prom::mean(&m.after, "linx_route_micros"), "us"),
    );
    let mem_hits = prom::series(&d, "linx_cache_hits_total{tier=\"memory\"}");
    let mem_misses = prom::series(&d, "linx_cache_misses_total{tier=\"memory\"}");
    out.insert(
        "cache.hit_ratio",
        metric(ratio(mem_hits, mem_hits + mem_misses), "share"),
    );
    out.insert(
        "cache.lookup_us_mean",
        metric(prom::mean(&d, "linx_cache_lookup_micros"), "us"),
    );
    out.insert(
        "quota.admit_us_mean",
        metric(prom::mean(&d, "linx_admit_micros"), "us"),
    );
    out.insert(
        "quota.throttled",
        metric(prom::total(&d, "linx_quota_throttled_total"), "count"),
    );

    // engine::pool
    out.insert(
        "pool.queue_wait_ms_mean",
        metric(prom::mean(&d, "linx_queue_wait_micros") / 1000.0, "ms"),
    );
    out.insert(
        "pool.execute_ms_mean",
        metric(prom::mean(&d, "linx_execute_micros") / 1000.0, "ms"),
    );
    let completed = prom::total(&d, "linx_pool_completed_total");
    out.insert("pool.completed", metric(completed, "count"));
    out.insert("pool.completed_lag", metric(trained - completed, "count"));

    // engine::persist
    out.insert(
        "disk.read_us_mean",
        metric(prom::mean(&d, "linx_disk_read_micros"), "us"),
    );
    // Warm-hit's write-through happens in the populate daemon, before the
    // timed phase: add that daemon's delta to the timed one.
    let writes: Scrape = d
        .iter()
        .map(|(k, v)| (k.clone(), v + prom::series(&m.populate, k)))
        .collect();
    out.insert(
        "disk.write_us_mean",
        metric(prom::mean(&writes, "linx_disk_write_micros"), "us"),
    );
    out.insert(
        "disk.evict_us_mean",
        metric(prom::mean(&d, "linx_disk_evict_micros"), "us"),
    );
    let disk_hits = prom::series(&d, "linx_cache_hits_total{tier=\"disk\"}");
    let disk_misses = prom::series(&d, "linx_cache_misses_total{tier=\"disk\"}");
    out.insert(
        "disk.hit_ratio",
        metric(ratio(disk_hits, disk_hits + disk_misses), "share"),
    );
    out.insert(
        "disk.stores",
        metric(prom::total(&writes, "linx_tier_stores_total"), "count"),
    );
    out.insert(
        "disk.scrub_scanned",
        metric(prom::total(&m.after, "linx_scrub_scanned_total"), "count"),
    );
    let scrub_ms = match &m.template {
        Some(template) => {
            let mut times = Vec::new();
            for i in 0..SETUPS_DISK {
                let dir = template.with_file_name(format!("scrub-{i}"));
                link_dir(template, &dir)?;
                let t = Instant::now();
                let tier = DiskTier::open(&PersistConfig::new(&dir))
                    .map_err(|e| format!("open {}: {e}", dir.display()))?;
                times.push(t.elapsed().as_secs_f64() * 1000.0);
                drop(tier);
            }
            stats::median(&times)
        }
        None => 0.0,
    };
    out.insert("disk.scrub_ms", metric(scrub_ms, "ms"));

    // The in-process replay: setup, pipeline stages, cdrl/rl, memo and stats.
    let replay_dir = match &m.template {
        Some(template) => {
            let dir = template.with_file_name("replay");
            link_dir(template, &dir)?;
            Some(dir)
        }
        None => None,
    };
    let started = Instant::now();
    let rep = replay::replay(&m.replay, replay_dir.as_deref());
    let replay_s = started.elapsed().as_secs_f64();
    let rep = match rep {
        Ok(rep) => rep,
        Err(e) => {
            problems.push(e);
            return Ok(out);
        }
    };
    out.insert("setup.context_ms", metric(rep.context_ms, "ms"));
    let st = &rep.stages;
    let mean_of =
        |f: fn(&replay::Stages) -> f64| stats::mean(&st.iter().map(f).collect::<Vec<_>>());
    let derive = mean_of(|s| s.derive_ms);
    let train = mean_of(|s| s.train_ms);
    let render = mean_of(|s| s.render_ms);
    let narrate = mean_of(|s| s.narrate_ms);
    // The total is the router's own traced execute stage of the same goals,
    // so the gap is whatever the engine does around the four public calls.
    let total = mean_of(|s| s.execute_ms);
    out.insert("nl2ldx.derive_ms", metric(derive, "ms"));
    out.insert("cdrl.train_ms", metric(train, "ms"));
    out.insert("explore.render_ms", metric(render, "ms"));
    out.insert("explore.narrate_ms", metric(narrate, "ms"));
    out.insert("pipeline.total_ms", metric(total, "ms"));
    out.insert(
        "pipeline.unaccounted_ms",
        metric(total - derive - train - render - narrate, "ms"),
    );
    out.insert("pipeline.goals", metric(st.len() as f64, "count"));
    let steps: usize = st.iter().map(|s| s.env_steps).sum();
    let train_us: f64 = st.iter().map(|s| s.train_ms * 1000.0).sum();
    out.insert("cdrl.env_steps", metric(steps as f64, "count"));
    out.insert(
        "cdrl.us_per_step",
        metric(ratio(train_us, steps as f64), "us"),
    );
    out.insert(
        "cdrl.result_mismatch",
        metric(result_mismatch(m, &rep)? as f64, "count"),
    );
    out.insert(
        "trace.stage_mismatch",
        metric(rep.stage_mismatch as f64, "count"),
    );
    out.insert(
        "memo.hit_ratio",
        metric(
            ratio(rep.memo.0 as f64, (rep.memo.0 + rep.memo.1) as f64),
            "share",
        ),
    );
    out.insert(
        "stats.hit_ratio",
        metric(
            ratio(rep.stats.0 as f64, (rep.stats.0 + rep.stats.1) as f64),
            "share",
        ),
    );
    out.insert("stats.misses", metric(rep.stats.1 as f64, "count"));

    // The router's own 7-stage trace of the replayed requests.
    const STAGES: [&str; STAGE_COUNT] = [
        "trace.route_ms",
        "trace.cache_lookup_ms",
        "trace.admit_ms",
        "trace.queue_wait_ms",
        "trace.execute_ms",
        "trace.disk_io_ms",
        "trace.respond_ms",
    ];
    let n = rep.traces.len().max(1) as f64;
    let mut accounted = 0.0;
    for (i, name) in STAGES.iter().enumerate() {
        let v = rep.traces.iter().map(|(s, _)| s[i] as f64).sum::<f64>() / n / 1000.0;
        accounted += v;
        out.insert(name, metric(v, "ms"));
    }
    let waited = rep.traces.iter().map(|(_, w)| *w as f64).sum::<f64>() / n / 1000.0;
    out.insert("trace.total_ms", metric(waited, "ms"));
    out.insert("trace.unaccounted_ms", metric(waited - accounted, "ms"));
    out.insert("trace.replay_s", metric(replay_s, "s"));

    // The traced run's own client view: wall-clock latency and throughput,
    // to set against an untraced run of the same seed.
    if let Some(s) = summarize(&latencies(&m.records, false)) {
        out.insert("traced.miss_p50_ms", timing(&s, "ms", false));
        out.insert("traced.miss_tail_ms", timing(&s, "ms", true));
    }
    if let Some(s) = summarize(&latencies(&m.records, true)) {
        out.insert("traced.hit_p50_ms", timing(&s, "ms", false));
        out.insert("traced.hit_tail_ms", timing(&s, "ms", true));
    }
    out.insert(
        "traced.done_per_s",
        Metric {
            value: done_per_s(m),
            unit: "1/s",
            note: format!("{} in {:.2} s", m.timed_done, m.timed_secs),
        },
    );
    Ok(out)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn environment(args: &Args, steal_share: Option<f64>) -> Value {
    json!({
        "nproc": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0) as u64,
        "commit": command_line("git", &["rev-parse", "HEAD"]),
        "rustc": command_line("rustc", &["-V"]),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rows": ROWS as u64,
        "episodes": EPISODES as u64,
        "workers": WORKERS as u64,
        "clients": CLIENTS as u64,
        "train_clients": TRAIN_CLIENTS as u64,
        "slo_hit_ms": SLO_HIT_MS,
        "slo_miss_ms": SLO_MISS_MS,
        "host_steal_share": steal_share
    })
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<&'static str, Metric>,
    problems: Vec<String>,
    /// Share of the machine's CPU time the hypervisor gave to other guests
    /// during the run, where `/proc/stat` tells.
    steal_share: Option<f64>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let bin = daemon::build_linx()?;
    let work = WorkDir::new(args.workload.name())?;
    let host_before = procfs::read_host_ticks();
    let measured = match args.workload {
        Workload::ColdTrain => cold_train(&bin, args)?,
        Workload::WarmHit => warm_hit(&bin, args, &work)?,
    };
    let all: Vec<&Record> = measured.records.iter().chain(&measured.prep).collect();
    let mut problems: Vec<String> = all.iter().filter_map(|r| r.problem()).collect();
    let failed = all.iter().filter(|r| !r.ok()).count();
    problems.extend(reconcile(
        &prom::delta(&measured.before, &measured.after),
        &measured.timed,
    ));
    let e2e = end_to_end(&measured, &mut problems);
    let metrics = if args.trace {
        per_layer(&measured, &e2e, &mut problems)?
    } else {
        e2e
    };
    let steal_share = match (host_before, procfs::read_host_ticks()) {
        (Some((all0, steal0)), Some((all1, steal1))) if all1 > all0 => {
            Some((steal1 - steal0) as f64 / (all1 - all0) as f64)
        }
        _ => None,
    };
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: all.len(),
        failed,
        metrics,
        problems,
        steal_share,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("linxbench: {e}\nusage: linxbench --workload <cold-train|warm-hit> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("linxbench: {e}");
            std::process::exit(1);
        }
    };
    for (name, m) in &outcome.metrics {
        println!("{name:<26} {:>14.4} {:<6} {}", m.value, m.unit, m.note);
    }
    for p in &outcome.problems {
        println!("problem: {p}");
    }
    let detail: serde_json::Map = outcome
        .metrics
        .iter()
        .map(|(name, m)| {
            (
                name.to_string(),
                json!({"value": m.value, "unit": m.unit, "note": m.note.as_str()}),
            )
        })
        .collect();
    let record = json!({
        "env": environment(&args, outcome.steal_share),
        "metrics": Value::Object(detail),
        "problems": outcome.problems.iter().map(|p| Value::String(p.clone())).collect::<Vec<_>>()
    });
    println!(
        "record: {}",
        serde_json::to_string(&record).expect("serializable")
    );
    let metrics: serde_json::Map = outcome
        .metrics
        .iter()
        .map(|(name, m)| (name.to_string(), json!({"value": m.value, "unit": m.unit})))
        .collect();
    let result = json!({
        "correct": outcome.correct,
        "attempted": outcome.attempted as u64,
        "failed": outcome.failed as u64,
        "metrics": Value::Object(metrics)
    });
    println!("{}", serde_json::to_string(&result).expect("serializable"));
    std::process::exit(if outcome.correct { 0 } else { 1 });
}
