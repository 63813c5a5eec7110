//! Micro-benchmarks of the LDX verification engine (§7.4 / Appendix A.2: the
//! compliance-reward machinery must add negligible overhead to session generation).

use criterion::{criterion_group, criterion_main, Criterion};
use linx_dataframe::filter::CompareOp;
use linx_dataframe::groupby::AggFunc;
use linx_dataframe::Value;
use linx_explore::{ExplorationTree, NodeId, QueryOp};
use linx_ldx::{parse_ldx, partial, VerifyEngine};

fn fig1c_engine() -> VerifyEngine {
    VerifyEngine::new(
        parse_ldx(
            "ROOT CHILDREN {A1,A2}\n\
             A1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}\n\
             B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
             A2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {B2}\n\
             B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
        )
        .unwrap(),
    )
}

fn compliant_tree() -> ExplorationTree {
    let mut t = ExplorationTree::new();
    let f1 = t.add_child(
        NodeId::ROOT,
        QueryOp::filter("country", CompareOp::Eq, Value::str("India")),
    );
    t.add_child(f1, QueryOp::group_by("rating", AggFunc::Count, "show_id"));
    let f2 = t.add_child(
        NodeId::ROOT,
        QueryOp::filter("country", CompareOp::Neq, Value::str("India")),
    );
    t.add_child(f2, QueryOp::group_by("rating", AggFunc::Count, "show_id"));
    // A few extra exploratory nodes to make matching non-trivial.
    t.add_child(
        NodeId::ROOT,
        QueryOp::group_by("type", AggFunc::Count, "show_id"),
    );
    t.add_child(
        NodeId::ROOT,
        QueryOp::filter("release_year", CompareOp::Ge, Value::Int(2015)),
    );
    t
}

fn bench_verification(c: &mut Criterion) {
    let engine = fig1c_engine();
    let tree = compliant_tree();
    c.bench_function("verify_full_fig1c", |b| {
        b.iter(|| std::hint::black_box(engine.verify(&tree)))
    });
    c.bench_function("verify_structural_assignments", |b| {
        b.iter(|| std::hint::black_box(engine.structural_assignments(&tree).len()))
    });
    c.bench_function("best_operational_score", |b| {
        b.iter(|| std::hint::black_box(engine.best_operational_score(&tree)))
    });

    // Partial (ongoing-session) verification with tree completions.
    let ldx = engine.ldx().clone();
    let mut prefix = ExplorationTree::new();
    let f = prefix.add_child(
        NodeId::ROOT,
        QueryOp::filter("country", CompareOp::Eq, Value::str("India")),
    );
    prefix.add_child(f, QueryOp::group_by("rating", AggFunc::Count, "show_id"));
    c.bench_function("partial_completion_check_3_remaining", |b| {
        b.iter(|| {
            std::hint::black_box(partial::can_complete_structurally(
                &ldx,
                &prefix,
                prefix.current(),
                3,
            ))
        })
    });

    // The same question through a training run's memo: after the first ask it is a
    // shape-key lookup.
    let memo = partial::CompletionMemo::new(&engine);
    c.bench_function("partial_completion_check_3_remaining_memoized", |b| {
        b.iter(|| std::hint::black_box(memo.can_complete(&prefix, prefix.current(), 3)))
    });

    c.bench_function("parse_ldx_fig1c", |b| {
        b.iter(|| {
            std::hint::black_box(
                parse_ldx(
                    "ROOT CHILDREN {A1,A2}\n\
                     A1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}\n\
                     B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
                     A2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {B2}\n\
                     B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
                )
                .unwrap(),
            )
        })
    });
}

criterion_group!(benches, bench_verification);
criterion_main!(benches);
