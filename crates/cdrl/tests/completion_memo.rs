//! The memoized structural-feasibility test must give exactly the answers of the
//! uncached completion search, and its memo key must ignore operation parameters.
//!
//! Random apply/back sessions (the environment's growth discipline, up to the episode's
//! operation budget) are replayed over the running example of Fig. 1c and a few gold
//! queries of the generated benchmark. At every state, for the cursor and each of its
//! ancestors and for every remaining budget, `ComplianceReward::can_complete` and
//! `ComplianceReward::immediate` are compared with
//! `partial::can_complete_structurally`.

use linx_benchgen::generate_benchmark;
use linx_cdrl::{CdrlConfig, ComplianceReward};
use linx_dataframe::filter::CompareOp;
use linx_dataframe::groupby::AggFunc;
use linx_dataframe::Value;
use linx_explore::{ExplorationTree, NodeId, QueryOp};
use linx_ldx::partial::{self, ShapeKey};
use linx_ldx::{parse_ldx, Ldx};
use proptest::prelude::*;

/// Fig. 1c plus the first benchmark gold query of each meta-goal that fits a small
/// episode, so the uncached search stays cheap.
fn queries() -> Vec<Ldx> {
    let mut out = vec![parse_ldx(
        "ROOT CHILDREN {A1,A2}\n\
         A1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}\n\
         B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
         A2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {B2}\n\
         B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
    )
    .unwrap()];
    let mut seen = Vec::new();
    for inst in generate_benchmark(0).instances {
        if out.len() == 5 {
            break;
        }
        if seen.contains(&inst.meta_goal) || inst.gold_ldx.min_operations() > 4 {
            continue;
        }
        seen.push(inst.meta_goal);
        out.push(inst.gold_ldx);
    }
    assert_eq!(out.len(), 5, "expected four small benchmark queries");
    out
}

/// One of a few operations of the given kind (`true` = filter), picked by `variant`.
fn op(filter: bool, variant: usize) -> QueryOp {
    let cols = ["country", "type", "rating", "release_year"];
    let col = cols[variant % cols.len()];
    if filter {
        let cmp = [CompareOp::Eq, CompareOp::Neq][variant % 2];
        QueryOp::filter(col, cmp, Value::str(format!("v{variant}")))
    } else {
        let agg = [AggFunc::Count, AggFunc::Avg][variant % 2];
        QueryOp::group_by(col, agg, "show_id")
    }
}

/// Replay `actions` (0 = back, 1 = filter, 2 = group-by) under the environment's
/// budget, calling `visit` on every state reached. `shift` changes every operation's
/// parameters without changing its kind.
fn replay(
    actions: &[(u8, usize)],
    max_ops: usize,
    shift: usize,
    mut visit: impl FnMut(&ExplorationTree),
) {
    let mut tree = ExplorationTree::new();
    visit(&tree);
    for &(action, variant) in actions {
        if tree.num_ops() >= max_ops {
            break;
        }
        match action {
            0 => {
                tree.back();
            }
            kind => {
                tree.push_op(op(kind == 1, variant + shift));
            }
        }
        visit(&tree);
    }
}

/// The cursor and every node a run of `back` actions can reach from it.
fn cursors(tree: &ExplorationTree) -> Vec<NodeId> {
    let mut out = vec![tree.current()];
    while let Some(p) = tree.parent(*out.last().unwrap()) {
        out.push(p);
    }
    out
}

proptest! {
    #[test]
    fn memoized_feasibility_equals_the_uncached_search(
        query in 0usize..5,
        actions in prop::collection::vec((0u8..3, 0usize..4), 0..14),
    ) {
        let ldx = queries().swap_remove(query);
        let max_ops = ldx.min_operations() + 1;
        let config = CdrlConfig { imm_min_step: 0, ..CdrlConfig::default() };
        let reward = ComplianceReward::new(ldx.clone(), config.clone());
        let mut checked = 0usize;
        replay(&actions, max_ops, 0, |tree| {
            for cursor in cursors(tree) {
                for budget in 0..=max_ops - tree.num_ops() {
                    let expected = partial::can_complete_structurally(&ldx, tree, cursor, budget);
                    assert_eq!(reward.can_complete(tree, cursor, budget), expected);
                    // A second ask is a memo hit and must agree too.
                    assert_eq!(reward.can_complete(tree, cursor, budget), expected);
                    let penalty = if expected { 0.0 } else { config.imm_penalty };
                    assert_eq!(reward.immediate(tree, cursor, tree.num_ops(), budget), penalty);
                    checked += 1;
                }
            }
        });
        prop_assert!(checked > 0);
        prop_assert!(reward.completions().len() <= checked);
    }

    #[test]
    fn sessions_differing_only_in_parameters_share_memo_keys(
        query in 0usize..5,
        actions in prop::collection::vec((0u8..3, 0usize..4), 0..14),
        shift in 1usize..4,
    ) {
        let ldx = queries().swap_remove(query);
        let max_ops = ldx.min_operations() + 1;
        let reward = ComplianceReward::new(ldx, CdrlConfig::default());
        let mut keys = Vec::new();
        replay(&actions, max_ops, 0, |tree| {
            for budget in 0..=max_ops - tree.num_ops() {
                keys.push(ShapeKey::of(tree, tree.current(), budget));
                reward.can_complete(tree, tree.current(), budget);
            }
        });
        let decided = reward.completions().len();
        let mut shifted = Vec::new();
        replay(&actions, max_ops, shift, |tree| {
            for budget in 0..=max_ops - tree.num_ops() {
                shifted.push(ShapeKey::of(tree, tree.current(), budget));
                reward.can_complete(tree, tree.current(), budget);
            }
        });
        prop_assert_eq!(keys, shifted);
        prop_assert_eq!(reward.completions().len(), decided);
    }
}
