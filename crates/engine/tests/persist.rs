//! Persistence-layer integration tests: corrupted, truncated, wrong-version, and
//! zero-length cache files must all load as clean misses (and be unlinked) — never
//! panics, never wrong data — and the codec must round-trip every persisted type
//! exactly (proptest-verified).

use std::path::PathBuf;
use std::sync::Arc;

use linx_dataframe::filter::CompareOp;
use linx_dataframe::fingerprint::Fnv1a;
use linx_dataframe::groupby::{AggFunc, Groups};
use linx_dataframe::stats::Histogram;
use linx_dataframe::{ColumnSummary, StatKey, StatKind, StatValue, StatsCache, StatsTier, Value};
use linx_engine::persist::{decode_result, decode_stat, encode_result, encode_stat};
use linx_engine::{DiskTier, ExploreResult, PersistConfig};
use linx_explore::notebook::{Notebook, NotebookCell};
use linx_explore::{Narrative, QueryOp};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("linx-persist-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn sample_result() -> ExploreResult {
    ExploreResult {
        ldx_canonical: "ROOT CHILDREN {A1}\nA1 LIKE [F,country,eq,India]".to_string(),
        notebook: Notebook {
            title: "netflix — examine India".to_string(),
            cells: vec![
                NotebookCell {
                    node: 1,
                    depth: 1,
                    op: QueryOp::filter("country", CompareOp::Eq, Value::str("India")),
                    code: "view_1 = df[df['country'] == 'India']".to_string(),
                    result_preview: "country  type\nIndia    Movie".to_string(),
                    result_rows: 42,
                    caption: "Focus on rows where country eq India".to_string(),
                },
                NotebookCell {
                    node: 2,
                    depth: 2,
                    op: QueryOp::group_by("type", AggFunc::Count, "show_id"),
                    code: "view_2 = view_1.groupby('type').agg({'show_id': 'count'})".to_string(),
                    result_preview: "type  count".to_string(),
                    result_rows: 2,
                    caption: "Break down count(show_id) by type".to_string(),
                },
            ],
        },
        narrative: Narrative {
            headline: "In India, most titles are movies.".to_string(),
            bullets: vec!["93% of Indian titles are movies.".to_string()],
        },
        best_structural: true,
        best_score: 0.8125,
    }
}

/// The on-disk path of a persisted result entry (format documented in
/// `crates/engine/src/persist.rs`).
fn result_path(tier: &DiskTier, fp: u64) -> PathBuf {
    tier.dir().join(format!("res-{fp:016x}.lnx"))
}

/// Assert that a tier treats the current bytes of entry `fp` as a clean miss *and*
/// unlinks the offending file.
fn assert_clean_miss(tier: &DiskTier, fp: u64, what: &str) {
    let path = result_path(tier, fp);
    assert!(path.exists(), "{what}: corrupt file must exist before load");
    let before = tier.stats().load_errors;
    assert!(
        tier.load_result(fp).is_none(),
        "{what}: corrupt entry must load as a miss"
    );
    assert!(!path.exists(), "{what}: corrupt file must be unlinked");
    assert_eq!(
        tier.stats().load_errors,
        before + 1,
        "{what}: load_errors must count the rejection"
    );
    // Once deleted, the lookup is an ordinary (uncounted-as-error) miss.
    assert!(tier.load_result(fp).is_none());
}

#[test]
fn zero_length_entries_are_clean_misses_and_unlinked() {
    let dir = temp_dir("zero");
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    std::fs::write(result_path(&tier, 1), b"").unwrap();
    assert_clean_miss(&tier, 1, "zero-length");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_entries_are_clean_misses_and_unlinked() {
    let dir = temp_dir("trunc");
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    let full = encode_result(&sample_result());
    // Every strictly-shorter prefix must be rejected: header-only, mid-payload,
    // and all-but-one-checksum-byte truncations included.
    for keep in [1, 7, 14, 15, full.len() / 2, full.len() - 9, full.len() - 1] {
        let keep = keep.min(full.len() - 1);
        std::fs::write(result_path(&tier, 2), &full[..keep]).unwrap();
        assert_clean_miss(&tier, 2, &format!("truncated to {keep} bytes"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_entries_are_clean_misses_and_unlinked() {
    let dir = temp_dir("flip");
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    let full = encode_result(&sample_result());
    // Flip one bit in every region of the file: magic, version, kind, payload
    // (several offsets), and the trailing checksum itself.
    let offsets = [
        0,
        4,
        6,
        7,
        full.len() / 3,
        full.len() / 2,
        full.len() - 8,
        full.len() - 1,
    ];
    for (i, &offset) in offsets.iter().enumerate() {
        let mut corrupt = full.clone();
        corrupt[offset] ^= 1 << (i % 8);
        std::fs::write(result_path(&tier, 3), &corrupt).unwrap();
        assert_clean_miss(&tier, 3, &format!("bit flipped at byte {offset}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wrong_version_entries_are_clean_misses_and_unlinked() {
    let dir = temp_dir("version");
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    // A structurally valid file from a *future* format version: patch the version
    // field and re-seal the checksum, so only the version check can reject it.
    let mut future = encode_result(&sample_result());
    let body_len = future.len() - 8;
    future[4..6].copy_from_slice(&(linx_engine::persist::FORMAT_VERSION + 1).to_le_bytes());
    let mut h = Fnv1a::new();
    h.write(&future[..body_len]);
    let sum = h.finish().to_le_bytes();
    future[body_len..].copy_from_slice(&sum);
    assert!(
        decode_result(&future).is_err(),
        "future version must not decode"
    );
    std::fs::write(result_path(&tier, 4), &future).unwrap();
    assert_clean_miss(&tier, 4, "wrong version");
    std::fs::remove_dir_all(&dir).ok();
}

/// Frame `payload` as a statistics entry of kind `kind`, sealed with a valid
/// checksum, so only the payload checks can reject it.
fn seal(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = b"LNXP".to_vec();
    out.extend_from_slice(&linx_engine::persist::FORMAT_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(payload);
    let mut h = Fnv1a::new();
    h.write(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

/// A histogram payload of `(string or null, count)` pairs written in the given order.
fn hist_payload(pairs: &[(Option<&str>, u64)]) -> Vec<u8> {
    let mut p = (pairs.len() as u64).to_le_bytes().to_vec();
    for (v, c) in pairs {
        match v {
            Some(s) => {
                p.push(3);
                p.extend_from_slice(&(s.len() as u64).to_le_bytes());
                p.extend_from_slice(s.as_bytes());
            }
            None => p.push(0),
        }
        p.extend_from_slice(&c.to_le_bytes());
    }
    p
}

#[test]
fn histograms_encode_to_the_same_bytes_whatever_the_build_order() {
    let cells: Vec<Value> = ["b", "a", "c", "a", "b", "a"]
        .iter()
        .map(|s| Value::str(*s))
        .chain([
            Value::Int(3),
            Value::float(0.5),
            Value::Null,
            Value::Bool(true),
        ])
        .collect();
    let encode =
        |cells: &[Value]| encode_stat(&StatValue::Hist(Arc::new(Histogram::from_values(cells))));
    let forward = encode(&cells);
    let mut reversed = cells.clone();
    reversed.reverse();
    assert_eq!(forward, encode(&reversed));
    let mut rotated = cells.clone();
    rotated.rotate_left(4);
    assert_eq!(forward, encode(&rotated));
    // The typed (dictionary) build writes the same bytes as the boxed one.
    let strs: Vec<Value> = cells
        .iter()
        .filter(|v| v.as_str().is_some())
        .cloned()
        .collect();
    let df = linx_dataframe::DataFrame::from_rows(
        &["c"],
        strs.iter().map(|v| vec![v.clone()]).collect(),
    )
    .unwrap();
    assert_eq!(
        encode_stat(&StatValue::Hist(Arc::new(df.histogram("c").unwrap()))),
        encode(&strs)
    );
}

#[test]
fn non_canonical_histogram_payloads_are_rejected_and_quarantined() {
    const KIND_HIST: u8 = 2;
    let canonical = seal(KIND_HIST, &hist_payload(&[(Some("a"), 1), (Some("b"), 2)]));
    match decode_stat(&canonical).unwrap() {
        StatValue::Hist(h) => assert_eq!((h.total(), h.n_distinct()), (3, 2)),
        other => panic!("wrong variant: {other:?}"),
    }
    let bad = [
        (
            "out of order",
            hist_payload(&[(Some("b"), 1), (Some("a"), 1)]),
        ),
        (
            "duplicate key",
            hist_payload(&[(Some("a"), 1), (Some("a"), 2)]),
        ),
        ("null value", hist_payload(&[(None, 1), (Some("a"), 1)])),
        (
            "zero count",
            hist_payload(&[(Some("a"), 0), (Some("b"), 1)]),
        ),
    ];
    let dir = temp_dir("non-canonical");
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (why, payload)) in bad.iter().enumerate() {
        let bytes = seal(KIND_HIST, payload);
        assert!(decode_stat(&bytes).is_err(), "{why} must not decode");
        std::fs::write(dir.join(format!("sth-{i:016x}-{i:016x}.lnx")), &bytes).unwrap();
    }
    std::fs::write(
        dir.join("sth-00000000000000ff-00000000000000ff.lnx"),
        &canonical,
    )
    .unwrap();
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    let scrub = tier.scrub_report();
    assert_eq!((scrub.scanned, scrub.quarantined, scrub.entries), (5, 4, 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_stat_entries_fall_back_to_computation() {
    let dir = temp_dir("stat-corrupt");
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    let df = linx_dataframe::DataFrame::from_rows(
        &["c"],
        vec![vec![Value::str("a")], vec![Value::str("b")]],
    )
    .unwrap();
    let key = StatKey::new(StatKind::Hist, &df, "c");
    // Persist a valid entry, then corrupt it in place.
    let hist = df.histogram("c").unwrap();
    StatsTier::store(&*tier, &key, &StatValue::Hist(Arc::new(hist.clone())));
    let path = tier.dir().join(format!(
        "sth-{:016x}-{:016x}.lnx",
        key.frame_fp, key.column_fp
    ));
    assert!(path.exists(), "stat entry persisted");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    // A tier-backed cache over the corrupt entry computes the correct histogram.
    let cache = StatsCache::with_tier(64 * 1024, 2, Arc::clone(&tier) as Arc<dyn StatsTier>);
    let served = cache.histogram(&df, "c").unwrap();
    assert_eq!(*served, hist, "corruption must never yield wrong data");
    assert!(
        !path.exists() || std::fs::read(&path).unwrap() != bytes,
        "corrupt stat file must be unlinked (and may be legitimately re-persisted)"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_cache_round_trips_through_a_shared_tier() {
    let dir = temp_dir("stat-share");
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    let df = linx_dataframe::DataFrame::from_rows(
        &["k", "v"],
        vec![
            vec![Value::str("x"), Value::Int(1)],
            vec![Value::str("x"), Value::Int(2)],
            vec![Value::str("y"), Value::Int(3)],
        ],
    )
    .unwrap();
    let warm = StatsCache::with_tier(64 * 1024, 2, Arc::clone(&tier) as Arc<dyn StatsTier>);
    let h = warm.histogram(&df, "k").unwrap();
    let g = warm.groups(&df, "k").unwrap();
    let z = warm.group_sizes(&df, "k").unwrap();
    let s = warm.summary(&df, "v").unwrap();

    // A fresh cache over the same tier ("new process / other shard") loads every
    // statistic from disk instead of recomputing — and the values are identical.
    let cold = StatsCache::with_tier(64 * 1024, 2, Arc::clone(&tier) as Arc<dyn StatsTier>);
    assert_eq!(*cold.histogram(&df, "k").unwrap(), *h);
    assert_eq!(*cold.groups(&df, "k").unwrap(), *g);
    assert_eq!(*cold.group_sizes(&df, "k").unwrap(), *z);
    assert_eq!(*cold.summary(&df, "v").unwrap(), *s);
    assert!(tier.stats().hits >= 4, "cold cache must hit the tier");
    // Tier-loaded entries are promoted into the in-memory level: a repeat lookup
    // is served from memory, not the disk tier.
    let tier_hits_before = tier.stats().hits;
    assert_eq!(*cold.histogram(&df, "k").unwrap(), *h);
    assert!(cold.stats().hits >= 1, "repeat lookup served from memory");
    assert_eq!(
        tier.stats().hits,
        tier_hits_before,
        "tier not consulted again"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// --- startup scrub, durability, and eviction determinism --------------------------

#[test]
fn startup_scrub_quarantines_corrupt_entries_and_rebuilds_counters() {
    let dir = temp_dir("scrub");
    {
        let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
        tier.store_result(1, &sample_result());
        tier.store_result(2, &sample_result());
    }
    // Damage entry 2 in place and drop in a garbage neighbour plus an empty file.
    let corrupt_path = dir.join(format!("res-{:016x}.lnx", 2u64));
    let mut corrupt = std::fs::read(&corrupt_path).unwrap();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x01;
    std::fs::write(&corrupt_path, &corrupt).unwrap();
    std::fs::write(dir.join("res-00000000000000ff.lnx"), b"not a cache entry").unwrap();
    std::fs::write(dir.join("res-00000000000000fe.lnx"), b"").unwrap();

    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    let scrub = tier.scrub_report();
    assert_eq!(scrub.scanned, 4);
    assert_eq!(scrub.quarantined, 3);
    assert_eq!(scrub.entries, 1);
    let good_len = std::fs::metadata(result_path(&tier, 1)).unwrap().len();
    assert_eq!(scrub.bytes, good_len);
    // Counters are rebuilt exactly from what survived the scrub...
    let stats = tier.stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.bytes, good_len);
    assert_eq!(stats.scrub_scanned, 4);
    assert_eq!(stats.scrub_quarantined, 3);
    // ...the intact entry warm-hits while the damaged one is a clean miss...
    assert_eq!(
        tier.load_result(1).unwrap().best_score,
        sample_result().best_score
    );
    assert!(tier.load_result(2).is_none());
    // ...and every damaged file sits bit-preserved in quarantine/, never unlinked.
    let quarantine = tier.quarantine_dir();
    assert_eq!(
        std::fs::read(quarantine.join(format!("res-{:016x}.lnx", 2u64))).unwrap(),
        corrupt,
        "quarantined bytes must be preserved for forensics"
    );
    assert!(quarantine.join("res-00000000000000ff.lnx").exists());
    assert!(quarantine.join("res-00000000000000fe.lnx").exists());
    drop(tier);

    // Reopen: the quarantine directory is invisible to the next scrub.
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    assert_eq!(tier.scrub_report().scanned, 1);
    assert_eq!(tier.scrub_report().quarantined, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_mode_fsyncs_every_store_and_records_sync_latency() {
    let dir = temp_dir("durable");
    let tier = DiskTier::open(&PersistConfig::new(&dir).with_durable(true)).unwrap();
    tier.store_result(1, &sample_result());
    tier.store_result(2, &sample_result());
    assert_eq!(
        tier.latency().sync.count,
        2,
        "one fsync recorded per durable store"
    );
    assert_eq!(
        tier.load_result(1).unwrap().best_score,
        sample_result().best_score
    );
    // A non-durable tier over the same directory records no sync samples.
    let plain = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    plain.store_result(3, &sample_result());
    assert_eq!(plain.latency().sync.count, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn orphan_sweep_window_is_configurable_and_counts_reclaimed_temps() {
    let dir = temp_dir("orphan-knob");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(".tmp-1-0"), b"fresh in-flight").unwrap();
    std::fs::write(dir.join(".tmp-1-1"), b"also fresh").unwrap();

    // The default 60 s window keeps fresh temps — they may be a live writer's...
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    assert_eq!(tier.scrub_report().orphans_reclaimed, 0);
    drop(tier);
    assert!(dir.join(".tmp-1-0").exists());

    // ...while a zero window treats every temp as orphaned and counts the reclaim.
    let tier = DiskTier::open(&PersistConfig::new(&dir).with_orphan_sweep_secs(0)).unwrap();
    assert_eq!(tier.scrub_report().orphans_reclaimed, 2);
    assert_eq!(tier.stats().orphans_reclaimed, 2);
    assert!(!dir.join(".tmp-1-0").exists());
    assert!(!dir.join(".tmp-1-1").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eviction_breaks_equal_mtimes_by_file_name() {
    let dir = temp_dir("evict-tie");
    // Bulky entries keep the arithmetic above the 4 KiB cap floor.
    let bulky = || {
        let mut result = sample_result();
        result.narrative.headline = "x".repeat(4096);
        result
    };
    let entry_len = encode_result(&bulky()).len() as u64;
    // Cap sized so the third store evicts exactly one file: 3E exceeds 2.5E,
    // and removing one lands at 2E, under the 90% low-water mark (2.25E).
    let tier = DiskTier::open(&PersistConfig::new(&dir).with_max_bytes(entry_len * 5 / 2)).unwrap();
    // Stored newest-name-first, so a recency-or-insertion-order tie-break would
    // pick differently than the name tie-break.
    tier.store_result(2, &bulky());
    tier.store_result(1, &bulky());
    // Give both files the identical mtime a coarse-timestamp filesystem would.
    let stamp = std::time::SystemTime::now() - std::time::Duration::from_secs(10);
    for fp in [1u64, 2] {
        let f = std::fs::File::options()
            .append(true)
            .open(result_path(&tier, fp))
            .unwrap();
        f.set_times(std::fs::FileTimes::new().set_modified(stamp))
            .unwrap();
    }
    tier.store_result(3, &bulky());
    assert!(
        !result_path(&tier, 1).exists(),
        "equal mtimes: the lexicographically first name must evict first"
    );
    assert!(result_path(&tier, 2).exists());
    assert!(result_path(&tier, 3).exists());
    assert_eq!(tier.stats().evictions, 1);
    std::fs::remove_dir_all(&dir).ok();
}

// --- proptest round-trips ---------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (-1000i64..1000).prop_map(Value::Int),
        2 => prop::sample::select(vec!["a", "b", "quoted \"x\"", "uni-✓", ""]).prop_map(Value::str),
        2 => (-500i64..500).prop_map(|i| Value::float(i as f64 / 8.0)),
        1 => any::<bool>().prop_map(Value::Bool),
        1 => Just(Value::Null),
    ]
}

fn histogram_strategy() -> impl Strategy<Value = Histogram> {
    prop::collection::vec(value_strategy(), 0..40).prop_map(|vals| Histogram::from_values(&vals))
}

fn groups_strategy() -> impl Strategy<Value = Groups> {
    prop::collection::vec(value_strategy(), 0..40).prop_map(|vals| Groups::from_values(&vals))
}

fn summary_strategy() -> impl Strategy<Value = ColumnSummary> {
    (
        0usize..10_000,
        0usize..500,
        0usize..500,
        0.0f64..1.0,
        any::<bool>(),
    )
        .prop_map(
            |(rows, n_distinct, null_count, normalized_entropy, numeric)| ColumnSummary {
                rows,
                n_distinct,
                null_count,
                normalized_entropy,
                numeric,
            },
        )
}

fn query_op_strategy() -> impl Strategy<Value = QueryOp> {
    let attrs = || prop::sample::select(vec!["country", "type", "release year", "α"]);
    prop_oneof![
        (
            attrs(),
            prop::sample::select(CompareOp::ALL.to_vec()),
            value_strategy()
        )
            .prop_map(|(a, op, term)| QueryOp::filter(a, op, term)),
        (
            attrs(),
            prop::sample::select(AggFunc::ALL.to_vec()),
            attrs()
        )
            .prop_map(|(g, agg, a)| QueryOp::group_by(g, agg, a)),
    ]
}

fn text_strategy() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "".to_string(),
        "plain".to_string(),
        "multi\nline\ttext".to_string(),
        "unicode — ✓ müßig".to_string(),
        "x".repeat(300),
    ])
}

fn result_strategy() -> impl Strategy<Value = ExploreResult> {
    let cell = (
        (0usize..64, 0usize..8),
        query_op_strategy(),
        (text_strategy(), text_strategy(), text_strategy()),
        0usize..100_000,
    )
        .prop_map(
            |((node, depth), op, (code, result_preview, caption), result_rows)| NotebookCell {
                node,
                depth,
                op,
                code,
                result_preview,
                result_rows,
                caption,
            },
        );
    (
        (text_strategy(), text_strategy()),
        prop::collection::vec(cell, 0..6),
        (
            text_strategy(),
            prop::collection::vec(text_strategy(), 0..4),
        ),
        (any::<bool>(), -10.0f64..10.0),
    )
        .prop_map(
            |(
                (ldx_canonical, title),
                cells,
                (headline, bullets),
                (best_structural, best_score),
            )| {
                ExploreResult {
                    ldx_canonical,
                    notebook: Notebook { title, cells },
                    narrative: Narrative { headline, bullets },
                    best_structural,
                    best_score,
                }
            },
        )
}

proptest! {
    /// `decode(encode(x)) == x` for histograms.
    #[test]
    fn histogram_round_trip(h in histogram_strategy()) {
        let decoded = decode_stat(&encode_stat(&StatValue::Hist(Arc::new(h.clone())))).unwrap();
        match decoded {
            StatValue::Hist(d) => prop_assert_eq!(&*d, &h),
            other => return Err(TestCaseError::Fail(format!("wrong variant: {other:?}"))),
        }
    }

    /// `decode(encode(x)) == x` for groupings and their size vectors.
    #[test]
    fn groups_and_sizes_round_trip(g in groups_strategy()) {
        match decode_stat(&encode_stat(&StatValue::Groups(Arc::new(g.clone())))).unwrap() {
            StatValue::Groups(d) => prop_assert_eq!(&*d, &g),
            other => return Err(TestCaseError::Fail(format!("wrong variant: {other:?}"))),
        }
        let sizes = g.sizes();
        match decode_stat(&encode_stat(&StatValue::Sizes(Arc::new(sizes.clone())))).unwrap() {
            StatValue::Sizes(d) => prop_assert_eq!(&*d, &sizes),
            other => return Err(TestCaseError::Fail(format!("wrong variant: {other:?}"))),
        }
    }

    /// `decode(encode(x)) == x` for column summaries (floats bit-exact).
    #[test]
    fn summary_round_trip(s in summary_strategy()) {
        match decode_stat(&encode_stat(&StatValue::Summary(Arc::new(s.clone())))).unwrap() {
            StatValue::Summary(d) => {
                prop_assert_eq!(d.rows, s.rows);
                prop_assert_eq!(d.n_distinct, s.n_distinct);
                prop_assert_eq!(d.null_count, s.null_count);
                prop_assert_eq!(d.normalized_entropy.to_bits(), s.normalized_entropy.to_bits());
                prop_assert_eq!(d.numeric, s.numeric);
            }
            other => return Err(TestCaseError::Fail(format!("wrong variant: {other:?}"))),
        }
    }

    /// `decode(encode(x)) == x` for full exploration results.
    #[test]
    fn result_round_trip(r in result_strategy()) {
        let d = decode_result(&encode_result(&r)).unwrap();
        prop_assert_eq!(&d.ldx_canonical, &r.ldx_canonical);
        prop_assert_eq!(&d.notebook.title, &r.notebook.title);
        prop_assert_eq!(d.notebook.cells.len(), r.notebook.cells.len());
        for (dc, rc) in d.notebook.cells.iter().zip(&r.notebook.cells) {
            prop_assert_eq!(dc.node, rc.node);
            prop_assert_eq!(dc.depth, rc.depth);
            prop_assert_eq!(&dc.op, &rc.op);
            prop_assert_eq!(&dc.code, &rc.code);
            prop_assert_eq!(&dc.result_preview, &rc.result_preview);
            prop_assert_eq!(dc.result_rows, rc.result_rows);
            prop_assert_eq!(&dc.caption, &rc.caption);
        }
        prop_assert_eq!(&d.narrative.headline, &r.narrative.headline);
        prop_assert_eq!(&d.narrative.bullets, &r.narrative.bullets);
        prop_assert_eq!(d.best_structural, r.best_structural);
        prop_assert_eq!(d.best_score.to_bits(), r.best_score.to_bits());
    }

    /// Arbitrary byte garbage never decodes (and never panics).
    #[test]
    fn garbage_never_decodes(bytes in prop::collection::vec(0u8..=255, 0..200)) {
        prop_assert!(decode_result(&bytes).is_err());
        prop_assert!(decode_stat(&bytes).is_err());
    }
}

// --- scrub property: arbitrary damage is contained --------------------------------

/// One way to damage a persisted entry file before the scrub sees it.
#[derive(Debug, Clone)]
enum Damage {
    Intact,
    Flip { pos: usize, bit: u8 },
    Truncate { keep: usize },
    Extend { extra: Vec<u8> },
    Garbage { bytes: Vec<u8> },
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        2 => Just(Damage::Intact),
        2 => (0usize..4096, 0u8..8).prop_map(|(pos, bit)| Damage::Flip { pos, bit }),
        2 => (0usize..4096).prop_map(|keep| Damage::Truncate { keep }),
        1 => prop::collection::vec(0u8..=255, 1..24).prop_map(|extra| Damage::Extend { extra }),
        1 => prop::collection::vec(0u8..=255, 0..64).prop_map(|bytes| Damage::Garbage { bytes }),
    ]
}

/// Apply `damage` to the on-disk bytes; returns whether anything changed.
fn apply_damage(damage: &Damage, bytes: &mut Vec<u8>) -> bool {
    match damage {
        Damage::Intact => false,
        Damage::Flip { pos, bit } => {
            let i = pos % bytes.len();
            bytes[i] ^= 1 << bit;
            true
        }
        Damage::Truncate { keep } => {
            bytes.truncate(keep % bytes.len());
            true
        }
        Damage::Extend { extra } => {
            bytes.extend_from_slice(extra);
            true
        }
        Damage::Garbage { bytes: garbage } => {
            *bytes = garbage.clone();
            true
        }
    }
}

proptest! {
    /// The startup scrub is total over arbitrarily damaged cache directories:
    /// it never panics, every entry is afterwards either served bit-identical
    /// or sitting in `quarantine/`, and the scrub counters reconcile exactly
    /// with a directory walk.
    #[test]
    fn scrub_contains_arbitrary_damage_and_counters_reconcile(
        cases in prop::collection::vec((damage_strategy(), result_strategy()), 1..6),
    ) {
        let dir = temp_dir("scrub-prop");
        std::fs::create_dir_all(&dir).unwrap();
        let mut written = Vec::new();
        for (i, (damage, result)) in cases.iter().enumerate() {
            let fp = i as u64;
            let mut bytes = encode_result(result);
            let original = bytes.clone();
            let damaged = apply_damage(damage, &mut bytes);
            std::fs::write(dir.join(format!("res-{fp:016x}.lnx")), &bytes).unwrap();
            written.push((fp, original, damaged));
        }

        let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
        let scrub = tier.scrub_report();
        prop_assert_eq!(scrub.scanned, written.len() as u64);

        // Counters reconcile with what is actually on disk.
        let quarantine = tier.quarantine_dir();
        let quarantined_files = std::fs::read_dir(&quarantine)
            .map(|entries| entries.count() as u64)
            .unwrap_or(0);
        prop_assert_eq!(scrub.quarantined, quarantined_files);
        let mut live = 0u64;
        let mut live_bytes = 0u64;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let meta = entry.unwrap().metadata().unwrap();
            if meta.is_dir() {
                continue;
            }
            live += 1;
            live_bytes += meta.len();
        }
        prop_assert_eq!(scrub.entries, live);
        prop_assert_eq!(scrub.bytes, live_bytes);
        prop_assert_eq!(scrub.scanned, scrub.quarantined + live);
        let stats = tier.stats();
        prop_assert_eq!(stats.scrub_scanned, scrub.scanned);
        prop_assert_eq!(stats.scrub_quarantined, scrub.quarantined);
        prop_assert_eq!(stats.entries, live);
        prop_assert_eq!(stats.bytes, live_bytes);

        // Every entry is served bit-identical or quarantined — never wrong data,
        // never silently deleted.
        for (fp, original, damaged) in &written {
            let in_quarantine = quarantine.join(format!("res-{fp:016x}.lnx")).exists();
            match tier.load_result(*fp) {
                Some(loaded) => {
                    prop_assert!(!in_quarantine, "entry {fp} both live and quarantined");
                    if !damaged {
                        // Undamaged entries must serve bit-identical.
                        prop_assert_eq!(&encode_result(&loaded), original);
                    }
                }
                None => {
                    prop_assert!(
                        *damaged,
                        "undamaged entry {} must survive the scrub",
                        fp
                    );
                    prop_assert!(
                        in_quarantine,
                        "damaged entry {} must be quarantined, not deleted",
                        fp
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
