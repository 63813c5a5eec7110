//! Partial (ongoing-session) verification — the basis of the *immediate* compliance
//! reward (paper §5.2 and Appendix A.3).
//!
//! During an episode the agent has produced only a prefix `T_D^i` of the final session
//! and has `N − i` steps left. The immediate reward must decide whether *some*
//! completion of the prefix can still satisfy the structural specifications
//! `struct(Q_X)`. A completion extends the ongoing tree with blank placeholder nodes,
//! respecting the pre-order construction discipline: each new node is attached under
//! the current node or one of its ancestors (the positions reachable with `back`
//! actions), and then becomes the new current node.
//!
//! The number of completions of an `N`-node session is bounded by the Catalan number
//! `C_N` (Appendix A.3); the helper [`catalan`] and [`count_completions`] expose the
//! bound and the exact count for analysis and benchmarking.

use std::cell::RefCell;
use std::collections::HashMap;

use linx_explore::{ExplorationTree, NodeId, OpKind};

use crate::ast::Ldx;
use crate::verify::{MatchTree, VerifyEngine};

/// Whether some completion of the ongoing tree with at most `remaining` additional
/// operations can satisfy the *structural* part of `ldx`.
///
/// `current` is the node under which the next operation would be placed (the CDRL
/// environment's cursor). This builds the structural engine and searches afresh on
/// every call; callers asking repeatedly about one query should hold a
/// [`CompletionMemo`].
pub fn can_complete_structurally(
    ldx: &Ldx,
    tree: &ExplorationTree,
    current: NodeId,
    remaining: usize,
) -> bool {
    search_completions(
        &VerifyEngine::new(ldx.structural()),
        tree,
        current,
        remaining,
    )
}

/// The completion search behind [`can_complete_structurally`], over a prebuilt
/// structural engine.
fn search_completions(
    engine: &VerifyEngine,
    tree: &ExplorationTree,
    current: NodeId,
    remaining: usize,
) -> bool {
    let mtree = MatchTree::from(tree);
    // Fast path: already satisfied.
    if engine.find_assignment_in(&mtree).is_some() {
        return true;
    }
    let mut found = false;
    explore_completions(engine, mtree, current.index(), remaining, &mut found);
    found
}

/// Recursively extend the tree with blank nodes (respecting the pre-order growth rule)
/// and test structural satisfiability after each extension.
fn explore_completions(
    engine: &VerifyEngine,
    tree: MatchTree,
    current: usize,
    remaining: usize,
    found: &mut bool,
) {
    if *found || remaining == 0 {
        return;
    }
    // Attachment points: the current node and each of its ancestors (including root).
    let mut attach_points = Vec::new();
    let mut cur = Some(current);
    while let Some(c) = cur {
        attach_points.push(c);
        cur = tree.parent(c);
    }
    for &p in &attach_points {
        let mut next = tree.clone();
        let new_node = next.push_blank(p);
        if engine.find_assignment_in(&next).is_some() {
            *found = true;
            return;
        }
        explore_completions(engine, next, new_node, remaining - 1, found);
        if *found {
            return;
        }
    }
}

/// Everything [`can_complete_structurally`] depends on: each operation node's parent
/// index and operation kind (in node order), the cursor, and the remaining budget.
///
/// Operation parameters are left out on purpose. `struct(Q_X)` keeps only the kind
/// token of every `LIKE` pattern ([`crate::OpPattern::structural`]), so two sessions
/// that differ only in parameters have the same structural answer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    nodes: Vec<(usize, OpKind)>,
    cursor: usize,
    remaining: usize,
}

impl ShapeKey {
    /// The key of an ongoing session at cursor `current` with `remaining` steps left.
    pub fn of(tree: &ExplorationTree, current: NodeId, remaining: usize) -> ShapeKey {
        let nodes = (1..tree.len())
            .filter_map(|idx| {
                let id = NodeId(idx);
                Some((tree.parent(id)?.index(), tree.op(id)?.kind()))
            })
            .collect();
        ShapeKey {
            nodes,
            cursor: current.index(),
            remaining,
        }
    }
}

/// [`can_complete_structurally`] for one query, memoized by [`ShapeKey`].
///
/// Holds the structural engine, built once, and remembers every answer. One memo
/// serves one training run, which visits only a few hundred distinct shapes, so the
/// map is never pruned. It is single-threaded by design (a `RefCell`, no lock).
#[derive(Debug, Clone)]
pub struct CompletionMemo {
    engine: VerifyEngine,
    answers: RefCell<HashMap<ShapeKey, bool>>,
}

impl CompletionMemo {
    /// A memo over the structural reduction of `query`'s specification.
    pub fn new(query: &VerifyEngine) -> Self {
        CompletionMemo {
            engine: query.structural().clone(),
            answers: RefCell::new(HashMap::new()),
        }
    }

    /// Same answer as [`can_complete_structurally`] on this memo's query.
    pub fn can_complete(&self, tree: &ExplorationTree, current: NodeId, remaining: usize) -> bool {
        let key = ShapeKey::of(tree, current, remaining);
        if let Some(&known) = self.answers.borrow().get(&key) {
            return known;
        }
        let answer = search_completions(&self.engine, tree, current, remaining);
        self.answers.borrow_mut().insert(key, answer);
        answer
    }

    /// Number of distinct shapes decided so far.
    pub fn len(&self) -> usize {
        self.answers.borrow().len()
    }

    /// Whether nothing has been decided yet.
    pub fn is_empty(&self) -> bool {
        self.answers.borrow().is_empty()
    }
}

/// Exact number of distinct completions when extending a session whose current node has
/// `depth` ancestors-plus-self attachment choices, with `remaining` nodes still to add.
///
/// Each added node may attach at any of the current attachment points; attaching at
/// depth `d` gives the next step `d + 1` choices. This is the quantity bounded by the
/// Catalan number in the paper's analysis.
pub fn count_completions(depth_choices: usize, remaining: usize) -> u64 {
    fn rec(choices: usize, remaining: usize) -> u64 {
        if remaining == 0 {
            return 1;
        }
        let mut total = 0u64;
        // Attaching under the current node keeps `choices + 1` options next; attaching
        // under the k-th ancestor reduces the options to `k + 1`.
        for k in 0..choices {
            total += rec(k + 2, remaining - 1);
        }
        total
    }
    rec(depth_choices, remaining)
}

/// The `n`-th Catalan number `C_n = (2n)! / (n! (n+1)!)`, the paper's bound on the
/// number of ordered trees of size `n`.
pub fn catalan(n: u64) -> u64 {
    let mut c: u128 = 1;
    for i in 0..n as u128 {
        c = c * 2 * (2 * i + 1) / (i + 2);
    }
    c as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ldx;
    use linx_dataframe::filter::CompareOp;
    use linx_dataframe::groupby::AggFunc;
    use linx_dataframe::Value;
    use linx_explore::QueryOp;

    fn fig1c_struct() -> Ldx {
        parse_ldx(
            "BEGIN CHILDREN {A1,A2}\n\
             A1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}\n\
             B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
             A2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {B2}\n\
             B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
        )
        .unwrap()
    }

    #[test]
    fn empty_prefix_can_always_complete_given_enough_steps() {
        let ldx = fig1c_struct();
        let tree = ExplorationTree::new();
        assert!(can_complete_structurally(&ldx, &tree, NodeId::ROOT, 4));
        assert!(
            !can_complete_structurally(&ldx, &tree, NodeId::ROOT, 3),
            "spec needs 4 operations; 3 remaining steps cannot complete it"
        );
    }

    #[test]
    fn good_prefix_remains_completable() {
        let ldx = fig1c_struct();
        let mut tree = ExplorationTree::new();
        let f1 = tree.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("India")),
        );
        assert!(can_complete_structurally(&ldx, &tree, f1, 3));
    }

    #[test]
    fn bad_prefix_detected_when_budget_too_small() {
        let ldx = fig1c_struct();
        // Prefix: a group-by straight off the root. The structural spec requires the
        // root's children to be two filters; with only 3 steps left there is no room for
        // both filters and their group-by children *and* the stray group-by is harmless,
        // but only 3 more nodes cannot give ROOT two filter children each with a G child.
        let mut tree = ExplorationTree::new();
        tree.add_child(
            NodeId::ROOT,
            QueryOp::group_by("type", AggFunc::Count, "id"),
        );
        assert!(!can_complete_structurally(&ldx, &tree, NodeId(1), 3));
        assert!(can_complete_structurally(&ldx, &tree, NodeId(1), 4));
    }

    #[test]
    fn already_compliant_prefix_is_trivially_completable() {
        let ldx = fig1c_struct();
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
        assert!(can_complete_structurally(&ldx, &t, NodeId(4), 0));
    }

    #[test]
    fn catalan_numbers() {
        assert_eq!(catalan(0), 1);
        assert_eq!(catalan(1), 1);
        assert_eq!(catalan(2), 2);
        assert_eq!(catalan(3), 5);
        assert_eq!(catalan(4), 14);
        assert_eq!(catalan(10), 16796);
    }

    #[test]
    fn completion_counts_match_the_paper_example() {
        // Appendix A.3: right after the first step (current node is a child of the
        // root, 2 attachment choices), adding one node gives 2 trees, adding two gives 5.
        assert_eq!(count_completions(2, 0), 1);
        assert_eq!(count_completions(2, 1), 2);
        assert_eq!(count_completions(2, 2), 5);
        // And the counts stay below the Catalan bound for the total tree size.
        for remaining in 0..6u64 {
            let total_nodes = 2 + remaining; // root + first op + completions
            assert!(count_completions(2, remaining as usize) <= catalan(total_nodes));
        }
    }
}
