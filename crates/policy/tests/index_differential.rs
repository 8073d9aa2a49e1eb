//! Differential testing of the indexed decision path against the
//! preserved linear scan.
//!
//! [`Policy::check`] answers through the positional policy index and the
//! memoized decision cache; [`Policy::check_naive`] is the pre-index
//! first-match scan kept verbatim as the oracle. The two must agree on
//! every `(user, action)` — including *across mutations*, which is where
//! the index can go wrong (stale buckets, a cache entry surviving an
//! invalidation). Each proptest case therefore interleaves checks with
//! random policy mutations and re-compares after every step.

use dce_policy::{Action, Authorization, DocObject, Policy, Right, Sign, Subject};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_subject() -> impl Strategy<Value = Subject> {
    prop_oneof![
        Just(Subject::All),
        (1u32..8).prop_map(Subject::User),
        proptest::collection::btree_set(1u32..8, 1..4).prop_map(Subject::Users),
        "[abc]".prop_map(Subject::Group),
    ]
}

fn arb_object() -> impl Strategy<Value = DocObject> {
    prop_oneof![
        Just(DocObject::Document),
        (1usize..15).prop_map(DocObject::Element),
        (1usize..15, 0usize..6).prop_map(|(f, w)| DocObject::Range { from: f, to: f + w }),
        "[xyz]".prop_map(DocObject::Named),
    ]
}

fn arb_rights() -> impl Strategy<Value = BTreeSet<Right>> {
    proptest::collection::btree_set(
        prop_oneof![
            Just(Right::Read),
            Just(Right::Insert),
            Just(Right::Delete),
            Just(Right::Update)
        ],
        1..4,
    )
}

fn arb_auth() -> impl Strategy<Value = Authorization> {
    (arb_subject(), arb_object(), arb_rights(), any::<bool>()).prop_map(|(s, o, r, plus)| {
        Authorization::new(s, o, r, if plus { Sign::Plus } else { Sign::Minus })
    })
}

/// One step of policy churn between check batches.
#[derive(Debug, Clone)]
enum Mutation {
    AddAuth(usize, Authorization),
    DelAuth(usize),
    AddUser(u32),
    DelUser(u32),
    SetGroup(String, Vec<u32>),
    Bump,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        ((0usize..20), arb_auth()).prop_map(|(i, a)| Mutation::AddAuth(i, a)),
        (0usize..20).prop_map(Mutation::DelAuth),
        (1u32..10).prop_map(Mutation::AddUser),
        (1u32..10).prop_map(Mutation::DelUser),
        ("[abc]", proptest::collection::vec(1u32..10, 0..4))
            .prop_map(|(g, m)| Mutation::SetGroup(g, m)),
        Just(Mutation::Bump),
    ]
}

fn apply(p: &mut Policy, m: &Mutation) {
    match m {
        Mutation::AddAuth(i, a) => {
            let pos = (*i).min(p.authorizations().len());
            p.add_auth_at(pos, a.clone()).unwrap();
        }
        Mutation::DelAuth(i) => {
            // Deleting requires quoting the entry (the paper's admin
            // requests name what they remove); skip when out of range.
            if let Some(a) = p.authorizations().get(*i).cloned() {
                p.del_auth_at(*i, &a).unwrap();
            }
        }
        Mutation::AddUser(u) => {
            p.add_user(*u);
        }
        Mutation::DelUser(u) => {
            p.del_user(*u);
        }
        Mutation::SetGroup(g, members) => p.set_group(g, members.iter().copied()),
        Mutation::Bump => {
            p.bump_version();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn indexed_policy_matches_naive_first_match(
        auths in proptest::collection::vec(arb_auth(), 0..14),
        mutations in proptest::collection::vec(arb_mutation(), 0..12),
        checks in proptest::collection::vec(
            ((1u32..10), (0u8..4), proptest::option::of(1usize..18)),
            1..24
        ),
    ) {
        let mut p = Policy::new();
        for u in 1..8 {
            p.add_user(u);
        }
        p.set_group("a", [1, 2, 3]);
        p.set_group("b", [4]);
        // "c" intentionally undefined.
        p.add_object("x", DocObject::Range { from: 3, to: 9 }).unwrap();
        p.add_object("y", DocObject::Element(2)).unwrap();
        // "z" intentionally undefined.
        for (i, a) in auths.iter().enumerate() {
            p.add_auth_at(i, a.clone()).unwrap();
        }

        // Check, mutate, check again — every batch runs against the same
        // policy twice, so the memo cache is exercised (second hit of a
        // (user, right, pos) triple must come from the cache) and every
        // mutation must flush it.
        let mut step = 0;
        loop {
            for (user, right_tag, pos) in &checks {
                let action = Action::new(Right::ALL[*right_tag as usize], *pos);
                let indexed = p.check(*user, &action);
                // A version bump between the two checks must keep the
                // memoized decision valid: no decision reads the version.
                p.bump_version();
                let again = p.check(*user, &action);
                let naive = p.check_naive(*user, &action);
                prop_assert_eq!(indexed, naive,
                    "step {}: user {} action {} policy {}", step, user, action, p);
                prop_assert_eq!(again, naive, "cached decision diverged at step {}", step);
            }
            if step >= mutations.len() {
                break;
            }
            apply(&mut p, &mutations[step]);
            step += 1;
        }
    }
}
