//! Property-based tests for the dataframe engine invariants.

use linx_dataframe::filter::{CompareOp, Predicate};
use linx_dataframe::groupby::AggFunc;
use std::collections::BTreeMap;

use linx_dataframe::stats::Histogram;
use linx_dataframe::{Column, DataFrame, Value};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (-50i64..50).prop_map(Value::Int),
        2 => prop::sample::select(vec!["a", "b", "c", "d", "e"]).prop_map(Value::str),
        1 => Just(Value::Null),
    ]
}

/// Cells of every value type, with keys that collide textually across types.
fn cell_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (-20i64..20).prop_map(Value::Int),
        2 => (-16i64..16).prop_map(|i| Value::float(i as f64 / 4.0)),
        3 => prop::sample::select(vec!["a", "b", "c", "d", "1", "0.5"]).prop_map(Value::str),
        1 => any::<bool>().prop_map(Value::Bool),
        1 => Just(Value::Null),
    ]
}

/// A cell vector and a permutation of it (cells reordered by random sort keys).
fn cells_and_permutation() -> impl Strategy<Value = (Vec<Value>, Vec<Value>)> {
    (
        prop::collection::vec(cell_strategy(), 0..60),
        prop::collection::vec(any::<u64>(), 60),
    )
        .prop_map(|(cells, keys)| {
            let mut order: Vec<usize> = (0..cells.len()).collect();
            order.sort_by_key(|&i| keys[i]);
            let shuffled = order.iter().map(|&i| cells[i].clone()).collect();
            (cells, shuffled)
        })
}

/// The histogram's entries as `(key text, count)`, in iteration order. The key text
/// ([`linx_dataframe::GroupKey`]'s `Display`) is injective across value types.
fn entries(h: &Histogram) -> Vec<(String, usize)> {
    h.iter()
        .map(|(v, c)| (v.group_key().to_string(), c))
        .collect()
}

/// Reference probabilities: key text → relative frequency (denominator `total.max(1)`).
fn reference_probs(h: &Histogram) -> BTreeMap<String, f64> {
    let total = h.total().max(1) as f64;
    entries(h)
        .into_iter()
        .map(|(k, c)| (k, c as f64 / total))
        .collect()
}

/// Plain KL(p || q) with the histogram's documented 1e-9 smoothing.
fn reference_kl(p: &Histogram, q: &Histogram) -> f64 {
    if p.total() == 0 {
        return 0.0;
    }
    let qs = reference_probs(q);
    let kl: f64 = reference_probs(p)
        .iter()
        .map(|(k, &pi)| pi * (pi / qs.get(k).copied().unwrap_or(0.0).max(1e-9)).ln())
        .sum();
    kl.max(0.0)
}

/// Plain total variation: half the L1 distance over the union of supports.
fn reference_tv(p: &Histogram, q: &Histogram) -> f64 {
    let (ps, qs) = (reference_probs(p), reference_probs(q));
    let mut keys: Vec<&String> = ps.keys().chain(qs.keys()).collect();
    keys.sort();
    keys.dedup();
    let l1: f64 = keys
        .into_iter()
        .map(|k| (ps.get(k).copied().unwrap_or(0.0) - qs.get(k).copied().unwrap_or(0.0)).abs())
        .sum();
    (l1 / 2.0).clamp(0.0, 1.0)
}

/// The histogram of `cells` through one builder: the boxed path, or a typed column
/// kernel (`i64`, `f64`, `dict`) fed only the cells of its type, nulls included.
fn build(builder: &str, cells: &[Value]) -> Histogram {
    let keep = |v: &Value| match builder {
        "i64" => matches!(v, Value::Int(_)),
        "f64" => matches!(v, Value::Float(_)),
        _ => v.as_str().is_some(),
    };
    if builder == "boxed" {
        return Histogram::from_values(cells);
    }
    let kept: Vec<Value> = cells
        .iter()
        .filter(|v| v.is_null() || keep(v))
        .cloned()
        .collect();
    Histogram::from_column(&Column::new("c", kept))
}

fn frame_strategy() -> impl Strategy<Value = DataFrame> {
    prop::collection::vec((value_strategy(), value_strategy()), 1..60).prop_map(|rows| {
        DataFrame::from_rows(
            &["k", "v"],
            rows.into_iter().map(|(a, b)| vec![a, b]).collect(),
        )
        .unwrap()
    })
}

proptest! {
    /// Filtering with Eq and Neq on the same term partitions the rows exactly
    /// (every row satisfies exactly one of the two predicates).
    #[test]
    fn filter_eq_neq_partitions(df in frame_strategy(), term in value_strategy()) {
        let eq = df.filter(&Predicate::new("k", CompareOp::Eq, term.clone())).unwrap();
        let neq = df.filter(&Predicate::new("k", CompareOp::Neq, term)).unwrap();
        prop_assert_eq!(eq.num_rows() + neq.num_rows(), df.num_rows());
    }

    /// Filtering never invents rows and is idempotent.
    #[test]
    fn filter_is_monotone_and_idempotent(df in frame_strategy(), term in value_strategy()) {
        let pred = Predicate::new("k", CompareOp::Eq, term);
        let once = df.filter(&pred).unwrap();
        prop_assert!(once.num_rows() <= df.num_rows());
        let twice = once.filter(&pred).unwrap();
        prop_assert_eq!(twice.num_rows(), once.num_rows());
    }

    /// Group-by COUNT totals equal the number of input rows, and the number of groups
    /// equals the number of distinct key values (including null as its own group).
    #[test]
    fn group_by_count_conserves_rows(df in frame_strategy()) {
        let agg = df.group_by("k", AggFunc::Count, "v").unwrap();
        let total: i64 = (0..agg.num_rows())
            .map(|i| agg.row(i)[1].as_i64().unwrap())
            .sum();
        prop_assert_eq!(total as usize, df.num_rows());
    }

    /// SUM aggregated per group and then summed equals the column-wide sum.
    #[test]
    fn group_by_sum_matches_total_sum(df in frame_strategy()) {
        // v may be a mixed column; SUM skips non-numeric cells in both paths.
        let agg = df.group_by("k", AggFunc::Sum, "v");
        prop_assume!(agg.is_ok());
        let agg = agg.unwrap();
        let group_total: f64 = (0..agg.num_rows())
            .map(|i| agg.row(i)[1].as_f64().unwrap_or(0.0))
            .sum();
        let direct: f64 = df.column("v").unwrap().sum();
        prop_assert!((group_total - direct).abs() < 1e-6);
    }

    /// Histogram frequencies sum to 1 for non-empty columns, entropy is non-negative,
    /// and self-KL-divergence is zero.
    #[test]
    fn histogram_axioms(df in frame_strategy()) {
        let h = df.histogram("k").unwrap();
        if h.total() > 0 {
            let sum: f64 = h.iter().map(|(v, _)| h.freq(v)).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
        prop_assert!(h.entropy() >= 0.0);
        prop_assert!(h.kl_divergence(&h) < 1e-9);
        prop_assert!(h.total_variation(&h) < 1e-9);
    }

    /// Total variation distance is symmetric and bounded by 1.
    #[test]
    fn total_variation_symmetric(a in prop::collection::vec(value_strategy(), 0..40),
                                 b in prop::collection::vec(value_strategy(), 0..40)) {
        let ha = Histogram::from_values(&a);
        let hb = Histogram::from_values(&b);
        let d1 = ha.total_variation(&hb);
        let d2 = hb.total_variation(&ha);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&d1));
    }

    /// A histogram is canonical: any permutation of the same cells yields the same
    /// entry sequence, and its entropy, KL and TV agree bit for bit — through the boxed
    /// builder and through each typed column kernel (int, float, dictionary).
    #[test]
    fn histogram_is_independent_of_cell_order(
        (cells, shuffled) in cells_and_permutation(),
        other in prop::collection::vec(cell_strategy(), 0..40),
    ) {
        let other = Histogram::from_values(&other);
        for builder in ["boxed", "i64", "f64", "dict"] {
            let (a, b) = (build(builder, &cells), build(builder, &shuffled));
            prop_assert_eq!(entries(&a), entries(&b));
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a.entropy().to_bits(), b.entropy().to_bits());
            prop_assert_eq!(a.kl_divergence(&other).to_bits(), b.kl_divergence(&other).to_bits());
            prop_assert_eq!(other.kl_divergence(&a).to_bits(), other.kl_divergence(&b).to_bits());
            prop_assert_eq!(a.total_variation(&other).to_bits(), b.total_variation(&other).to_bits());
        }
        // The boxed and typed builds of a homogeneous column agree entry for entry.
        let strs: Vec<Value> = cells.iter().filter(|v| v.as_str().is_some()).cloned().collect();
        prop_assert_eq!(entries(&Histogram::from_values(&strs)), entries(&build("dict", &cells)));
    }

    /// The merge-walk KL and TV agree with plain map-based reference implementations,
    /// including disjoint supports and empty histograms.
    #[test]
    fn divergences_match_reference(a in prop::collection::vec(cell_strategy(), 0..50),
                                   b in prop::collection::vec(cell_strategy(), 0..50),
                                   disjoint in any::<bool>()) {
        // Disjoint supports: keep only the strings on one side and the numbers on the other.
        let (a, b): (Vec<Value>, Vec<Value>) = if disjoint {
            (
                a.into_iter().filter(|v| v.as_str().is_some()).collect(),
                b.into_iter().filter(|v| v.as_str().is_none()).collect(),
            )
        } else {
            (a, b)
        };
        let (ha, hb) = (Histogram::from_values(&a), Histogram::from_values(&b));
        for (p, q) in [(&ha, &hb), (&hb, &ha), (&ha, &ha), (&ha, &Histogram::default()), (&Histogram::default(), &hb)] {
            prop_assert!((p.kl_divergence(q) - reference_kl(p, q)).abs() < 1e-12);
            prop_assert!((p.total_variation(q) - reference_tv(p, q)).abs() < 1e-12);
        }
        if disjoint && ha.total() > 0 && hb.total() > 0 {
            prop_assert!((ha.total_variation(&hb) - 1.0).abs() < 1e-12);
        }
    }

    /// CSV serialization round-trips row counts and cell display values.
    #[test]
    fn csv_round_trip(df in frame_strategy()) {
        let text = linx_dataframe::csv::to_csv(&df, ',');
        let back = linx_dataframe::csv::parse_csv(&text, Default::default()).unwrap();
        prop_assert_eq!(back.num_rows(), df.num_rows());
        prop_assert_eq!(back.num_columns(), df.num_columns());
    }

    /// take() preserves requested row order and content.
    #[test]
    fn take_preserves_rows(df in frame_strategy()) {
        let n = df.num_rows();
        prop_assume!(n >= 2);
        let idx = vec![n - 1, 0];
        let taken = df.take(&idx);
        prop_assert_eq!(taken.num_rows(), 2);
        prop_assert_eq!(taken.row(0), df.row(n - 1));
        prop_assert_eq!(taken.row(1), df.row(0));
    }
}

/// Keys of different value types never merge: `Int(1)`, `Float(1.0)` and `Str("1")`
/// are three entries, each counted and looked up on its own.
#[test]
fn histogram_keys_distinguish_value_types() {
    let cells = [
        Value::Int(1),
        Value::Float(1.0),
        Value::str("1"),
        Value::Int(1),
    ];
    let h = Histogram::from_values(&cells);
    assert_eq!(h.n_distinct(), 3);
    assert_eq!(h.total(), 4);
    assert_eq!(h.count(&Value::Int(1)), 2);
    assert_eq!(h.count(&Value::Float(1.0)), 1);
    assert_eq!(h.count(&Value::str("1")), 1);
    assert_ne!(
        Histogram::from_values(&[Value::Int(1)]),
        Histogram::from_values(&[Value::Float(1.0)])
    );
    assert_eq!(
        Histogram::from_values(&[Value::Int(1)])
            .total_variation(&Histogram::from_values(&[Value::str("1")])),
        1.0
    );
}
