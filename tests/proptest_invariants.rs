//! Property-based tests for the algebraic invariants the paper relies on.
//!
//! Each property is one of the "easy to verify" facts of Section 2/3 that
//! the proofs lean on; here they are checked on thousands of random bags.

use bag_consistency::prelude::*;
use bagcons_core::join::{bag_join, bag_join_hash, bag_join_merge, relation_join};
use bagcons_core::{FxHashMap, FxHashSet, RowStore};
use bagcons_flow::ConsistencyNetwork;
use proptest::prelude::*;
use std::sync::Arc;

/// Corollary 4 as the paper states it (Section 5.3), kept as the oracle
/// for the group fill: loop over the middle edges of `N(R,S)`; for each
/// one, remove it and keep the removal if the reduced network still has
/// a saturated max-flow. After one pass the surviving saturated flow uses
/// an inclusion-minimal set of middle edges. Runs `|R' ⋈ S'| + 1`
/// max-flows; `None` when the bags are inconsistent.
fn corollary4_flow_loop(r: &Bag, s: &Bag) -> bagcons_core::Result<Option<Bag>> {
    let Some(mut witness) = ConsistencyNetwork::build(r, s)?.solve() else {
        return Ok(None);
    };
    // Deterministic middle-edge order: sorted join support.
    let join_support = relation_join(&r.support(), &s.support());
    let mut excluded: FxHashSet<bagcons_core::Row> = FxHashSet::default();
    for row in join_support.iter_sorted() {
        if witness.multiplicity(row) == 0 {
            // Not used by the current witness; excluding it permanently
            // can only shrink later feasible sets, and keeps the
            // minimality argument intact.
            excluded.insert(row.to_vec().into_boxed_slice());
            continue;
        }
        excluded.insert(row.to_vec().into_boxed_slice());
        let trial = ConsistencyNetwork::build_excluding(r, s, |t| excluded.contains(t))?.solve();
        match trial {
            Some(w) => witness = w,
            None => {
                excluded.remove(row);
            }
        }
    }
    debug_assert!(
        witness.support_size() <= r.support_size() + s.support_size(),
        "Theorem 5: minimal witness support must be ≤ ‖R‖supp + ‖S‖supp"
    );
    Ok(Some(witness))
}

/// Strategy: a random bag over `{A0..A_arity}` with small domain.
fn arb_bag(
    arity: u32,
    domain: u64,
    max_support: usize,
    max_mult: u64,
) -> impl Strategy<Value = Bag> {
    let schema = Schema::range(0, arity);
    proptest::collection::vec(
        (
            proptest::collection::vec(0..domain, arity as usize),
            1..=max_mult,
        ),
        0..=max_support,
    )
    .prop_map(move |rows| {
        let mut bag = Bag::new(schema.clone());
        for (row, m) in rows {
            let vals: Vec<Value> = row.into_iter().map(Value::new).collect();
            bag.insert(vals, m).unwrap();
        }
        bag
    })
}

/// Strategy: two bags over overlapping schemas {A0,A1} and {A1,A2}.
fn arb_pair() -> impl Strategy<Value = (Bag, Bag)> {
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let mk = move |schema: Schema| {
        proptest::collection::vec((proptest::collection::vec(0..3u64, 2), 1..=8u64), 0..=12)
            .prop_map(move |rows| {
                let mut bag = Bag::new(schema.clone());
                for (row, m) in rows {
                    let vals: Vec<Value> = row.into_iter().map(Value::new).collect();
                    bag.insert(vals, m).unwrap();
                }
                bag
            })
    };
    (mk(x), mk(y))
}

/// Strategy: a consistent pair — the {A0,A1} and {A1,A2} marginals of
/// one random bag over {A0,A1,A2}.
fn arb_consistent_pair() -> impl Strategy<Value = (Bag, Bag)> {
    arb_bag(3, 3, 12, 8).prop_map(|t| {
        (
            t.marginal(&Schema::range(0, 2)).unwrap(),
            t.marginal(&Schema::range(1, 3)).unwrap(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Section 2: `R'[Z] = R[Z]'` — support commutes with marginals.
    #[test]
    fn support_of_marginal_is_projection_of_support(bag in arb_bag(3, 4, 20, 16)) {
        let z = Schema::range(0, 2);
        let lhs = bag.marginal(&z).unwrap().support();
        let rhs = bag.support().project(&z).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Section 2: `R[Z][W] = R[W]` for `W ⊆ Z ⊆ X`.
    #[test]
    fn marginals_compose(bag in arb_bag(4, 3, 25, 16)) {
        let z = Schema::range(0, 3);
        let w = Schema::range(0, 2);
        prop_assert_eq!(
            bag.marginal(&z).unwrap().marginal(&w).unwrap(),
            bag.marginal(&w).unwrap()
        );
    }

    /// Marginals preserve the multiset cardinality `‖R‖u`.
    #[test]
    fn marginals_preserve_total(bag in arb_bag(3, 4, 20, 16)) {
        let z = Schema::range(1, 3);
        prop_assert_eq!(bag.marginal(&z).unwrap().unary_size(), bag.unary_size());
    }

    /// Section 2: `(R ⋈ᵇ S)' = R' ⋈ S'`.
    #[test]
    fn bag_join_support_law((r, s) in arb_pair()) {
        let lhs = bag_join(&r, &s).unwrap().support();
        let rhs = relation_join(&r.support(), &s.support());
        prop_assert_eq!(lhs, rhs);
    }

    /// Lemma 1: every consistency witness has support inside `R' ⋈ S'`.
    #[test]
    fn lemma1_witness_support((r, s) in arb_pair()) {
        if let Some(t) = Session::default().consistency_witness(&r, &s).unwrap() {
            let join_supp = relation_join(&r.support(), &s.support());
            prop_assert!(t.support().subset_of(&join_supp));
        }
    }

    /// Lemma 2: the flow test agrees with the marginal test.
    #[test]
    fn lemma2_flow_agrees_with_marginals((r, s) in arb_pair()) {
        let by_marginals = Session::default().bags_consistent(&r, &s).unwrap();
        let by_flow = ConsistencyNetwork::build(&r, &s)
            .unwrap()
            .solve()
            .is_some();
        prop_assert_eq!(by_marginals, by_flow);
    }

    /// Corollary 1: the witness really marginalizes to both inputs.
    #[test]
    fn corollary1_witness_is_correct((r, s) in arb_pair()) {
        if let Some(t) = Session::default().consistency_witness(&r, &s).unwrap() {
            prop_assert_eq!(t.marginal(r.schema()).unwrap(), r);
            prop_assert_eq!(t.marginal(s.schema()).unwrap(), s);
        }
    }

    /// Theorem 3(1)+(2): fill witnesses obey the multiplicity and unary
    /// support bounds.
    #[test]
    fn theorem3_bounds_on_flow_witness((r, s) in arb_pair()) {
        if let Some(t) = Session::default().consistency_witness(&r, &s).unwrap() {
            let mu = r.multiplicity_bound().max(s.multiplicity_bound());
            prop_assert!(t.multiplicity_bound() <= mu);
            prop_assert!((t.support_size() as u128) <= r.unary_size() + s.unary_size());
        }
    }

    /// Theorem 5: minimal witnesses obey the Carathéodory support bound.
    /// The paper's Corollary 4 loop ([`corollary4_flow_loop`]) and the
    /// group fill behind `consistency_witness` both give vertices of
    /// `P(R,S)`: each
    /// marginalizes to both inputs, has support at most
    /// `|supp R| + |supp S| − |supp R[Z]|` and multiplicities at most the
    /// inputs' maximum, and is inclusion-minimal — with any one support
    /// row banned, `N(R,S)` restricted to the rest has no saturated flow.
    #[test]
    fn theorem5_minimal_witness_bound((r0, s0) in arb_pair(), (r1, s1) in arb_consistent_pair()) {
        for (r, s) in [(r0, s0), (r1, s1)] {
            let z = r.schema().intersection(s.schema());
            let bound = r.support_size() + s.support_size() - r.marginal(&z).unwrap().support_size();
            let mu = r.multiplicity_bound().max(s.multiplicity_bound());
            let witnesses = [
                corollary4_flow_loop(&r, &s).unwrap(),
                Session::default().consistency_witness(&r, &s).unwrap(),
            ];
            for t in witnesses.into_iter().flatten() {
                prop_assert_eq!(&t.marginal(r.schema()).unwrap(), &r);
                prop_assert_eq!(&t.marginal(s.schema()).unwrap(), &s);
                prop_assert!(t.support_size() <= bound);
                prop_assert!(t.multiplicity_bound() <= mu);
                let support: Vec<&[Value]> = t.iter().map(|(row, _)| row).collect();
                for banned in &support {
                    let net = ConsistencyNetwork::build_excluding(&r, &s, |row| {
                        row == *banned || !support.contains(&row)
                    })
                    .unwrap();
                    prop_assert!(net.solve().is_none(), "support row {:?} is not needed", banned);
                }
            }
        }
    }

    /// Bag containment is a partial order compatible with sums.
    #[test]
    fn containment_sum_compatibility(bag in arb_bag(2, 3, 10, 8)) {
        let doubled = bag.sum(&bag).unwrap();
        prop_assert!(bag.contained_in(&doubled));
        prop_assert!(doubled.contained_in(&bag) == bag.is_empty());
    }

    /// Scaling preserves pairwise consistency.
    #[test]
    fn scaling_preserves_consistency((r, s) in arb_pair(), k in 1..5u64) {
        let consistent = Session::default().bags_consistent(&r, &s).unwrap();
        let rk = r.scale(k).unwrap();
        let sk = s.scale(k).unwrap();
        prop_assert_eq!(Session::default().bags_consistent(&rk, &sk).unwrap(), consistent);
    }
}

// ---------------------------------------------------------------------
// Columnar-store equivalence: the arena-backed `Bag`/`Relation` must be
// observationally identical to the seed's hash-map semantics. The model
// below *is* that seed semantics: a plain map from rows to counts.
// ---------------------------------------------------------------------

/// One mutation: `set` pins the multiplicity exactly (0 removes), `insert`
/// accumulates — mirroring the public `Bag` API.
type Op = (Vec<u64>, u64, bool);

/// Strategy: a mutation script over `arity`-column rows.
fn arb_ops(arity: u32, domain: u64, len: usize, max_mult: u64) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0..domain, arity as usize),
            0..=max_mult,
            proptest::collection::vec(0..2u64, 1).prop_map(|v| v[0] == 0),
        ),
        0..=len,
    )
}

/// The reference model: seed hash-map semantics for the same script.
fn model_of(ops: &[Op]) -> FxHashMap<Vec<u64>, u64> {
    let mut model: FxHashMap<Vec<u64>, u64> = FxHashMap::default();
    for (row, m, is_set) in ops {
        if *is_set {
            if *m == 0 {
                model.remove(row);
            } else {
                model.insert(row.clone(), *m);
            }
        } else if *m > 0 {
            let slot = model.entry(row.clone()).or_insert(0);
            *slot = slot.saturating_add(*m);
        }
    }
    model
}

/// Replays the script on a columnar `Bag`.
///
/// After each removal (`set` to 0) the bag must be sealed and equal, in
/// layout too, the bag built in bulk from the model so far.
fn bag_of(schema: &Schema, ops: &[Op]) -> Bag {
    let mut bag = Bag::new(schema.clone());
    for (at, (row, m, is_set)) in ops.iter().enumerate() {
        let vals: Vec<Value> = row.iter().copied().map(Value::new).collect();
        if *is_set {
            bag.set(vals, *m).unwrap();
            if *m == 0 {
                assert!(bag.is_sealed(), "a removal leaves the bag sealed");
                let model = model_of(&ops[..=at]);
                let want = Bag::from_u64s(schema.clone(), model.iter().map(|(r, &m)| (&r[..], m)))
                    .unwrap();
                assert_eq!(bag, want, "after op {at}");
            }
        } else {
            bag.insert(vals, *m).unwrap();
        }
    }
    bag
}

fn to_vals(row: &[u64]) -> Vec<Value> {
    row.iter().copied().map(Value::new).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `insert`/`set`/`multiplicity`/size measures agree with the model.
    #[test]
    fn columnar_bag_matches_hashmap_model(ops in arb_ops(2, 3, 24, 8)) {
        let schema = Schema::range(0, 2);
        let bag = bag_of(&schema, &ops);
        let model = model_of(&ops);
        prop_assert_eq!(bag.support_size(), model.len());
        prop_assert_eq!(bag.unary_size(), model.values().map(|&m| m as u128).sum::<u128>());
        prop_assert_eq!(
            bag.multiplicity_bound(),
            model.values().copied().max().unwrap_or(0)
        );
        for (row, &m) in &model {
            prop_assert_eq!(bag.multiplicity(&to_vals(row)), m);
        }
        // sealing changes the layout, never the observations
        let mut sealed = bag.clone();
        sealed.seal();
        prop_assert!(sealed.is_sealed());
        prop_assert_eq!(&sealed, &bag);
        prop_assert_eq!(sealed.sorted_rows(), bag.sorted_rows());
    }

    /// Marginals agree with the model's group-by, on every sub-schema.
    #[test]
    fn columnar_marginal_matches_hashmap_model(ops in arb_ops(3, 3, 20, 8)) {
        let schema = Schema::range(0, 3);
        let bag = bag_of(&schema, &ops);
        let model = model_of(&ops);
        for keep in [vec![0usize], vec![1], vec![2], vec![0, 1], vec![1, 2], vec![0, 2]] {
            let sub = Schema::from_attrs(keep.iter().map(|&i| Attr::new(i as u32)));
            let mut expected: FxHashMap<Vec<u64>, u64> = FxHashMap::default();
            for (row, &m) in &model {
                let key: Vec<u64> = keep.iter().map(|&i| row[i]).collect();
                *expected.entry(key).or_insert(0) += m;
            }
            let marg = bag.marginal(&sub).unwrap();
            prop_assert_eq!(marg.support_size(), expected.len());
            for (row, &m) in &expected {
                prop_assert_eq!(marg.multiplicity(&to_vals(row)), m);
            }
        }
    }

    /// The bag join agrees with the model's nested-loop join, and the
    /// sort-merge and hash physical paths agree with each other.
    #[test]
    fn columnar_join_matches_hashmap_model(
        r_ops in arb_ops(2, 3, 16, 4),
        s_ops in arb_ops(2, 3, 16, 4),
    ) {
        let x = Schema::range(0, 2); // {A0, A1}
        let y = Schema::range(1, 3); // {A1, A2}
        let r = bag_of(&x, &r_ops);
        let s = bag_of(&y, &s_ops);
        let r_model = model_of(&r_ops);
        let s_model = model_of(&s_ops);
        let mut expected: FxHashMap<Vec<u64>, u64> = FxHashMap::default();
        for (rr, &rm) in &r_model {
            for (sr, &sm) in &s_model {
                if rr[1] == sr[0] {
                    *expected.entry(vec![rr[0], rr[1], sr[1]]).or_insert(0) += rm * sm;
                }
            }
        }
        for join in [bag_join(&r, &s).unwrap(), bag_join_merge(&r, &s).unwrap(),
                     bag_join_hash(&r, &s).unwrap()] {
            prop_assert_eq!(join.support_size(), expected.len());
            for (row, &m) in &expected {
                prop_assert_eq!(join.multiplicity(&to_vals(row)), m);
            }
        }
    }

    /// Relations built columnar agree with set semantics on the model.
    #[test]
    fn columnar_relation_matches_set_model(rows in proptest::collection::vec(
        proptest::collection::vec(0..4u64, 2), 0..=20)) {
        let schema = Schema::range(0, 2);
        let mut rel = Relation::new(schema.clone());
        for row in &rows {
            rel.insert(to_vals(row)).unwrap();
        }
        let model: std::collections::BTreeSet<Vec<u64>> = rows.iter().cloned().collect();
        prop_assert_eq!(rel.len(), model.len());
        for row in &model {
            prop_assert!(rel.contains(&to_vals(row)));
        }
        // projection = model projection
        let sub = Schema::range(0, 1);
        let projected = rel.project(&sub).unwrap();
        let model_proj: std::collections::BTreeSet<u64> =
            model.iter().map(|r| r[0]).collect();
        prop_assert_eq!(projected.len(), model_proj.len());
    }

    /// RowStore interning round-trips: every row's id resolves back to
    /// identical content, lookups find exactly the interned ids, and the
    /// arena holds each distinct row once.
    #[test]
    fn rowstore_intern_round_trip(rows in proptest::collection::vec(
        proptest::collection::vec(0..5u64, 3), 0..=40)) {
        let mut store = RowStore::new(3);
        let mut ids = Vec::new();
        for row in &rows {
            let vals = to_vals(row);
            let (id, _) = store.intern(&vals);
            ids.push((id, vals));
        }
        let distinct: std::collections::BTreeSet<Vec<u64>> = rows.iter().cloned().collect();
        prop_assert_eq!(store.len(), distinct.len());
        for (id, vals) in &ids {
            prop_assert_eq!(store.row(*id), &vals[..]);
            prop_assert_eq!(store.lookup(vals), Some(*id));
        }
        // equal content ⇒ equal id (interning is injective on content)
        for (a, va) in &ids {
            for (b, vb) in &ids {
                prop_assert_eq!(a == b, va == vb);
            }
        }
        // absent rows are not found
        let absent = to_vals(&[9, 9, 9]);
        prop_assert_eq!(store.lookup(&absent), None);
    }
}

// ---------------------------------------------------------------------
// Untrusted delta lines: `watch` and `serve` feed client bytes straight
// into `protocol::parse_delta_edit`. Whatever arrives, it must return a
// typed answer — never panic — and an edit it accepts must fit its bag.
// ---------------------------------------------------------------------

/// The bags delta lines are parsed against: arities 1, 2 and 3.
fn delta_bags() -> Vec<Arc<Bag>> {
    (1..=3)
        .map(|arity| Arc::new(Bag::new(Schema::range(0, arity))))
        .collect()
}

/// Strategy: a well-formed delta line for one of [`delta_bags`], with the
/// edit it encodes. `form` picks `: +d`, `: -d`, `: d` or no delta.
fn arb_delta_line() -> impl Strategy<Value = (String, usize, Vec<u64>, i64)> {
    (
        0..3usize,
        proptest::collection::vec(0..20u64, 3),
        0..1_000u64,
        0..4u8,
    )
        .prop_map(|(index, values, d, form)| {
            let row = values[..=index].to_vec();
            let mut line = index.to_string();
            for v in &row {
                line.push(' ');
                line.push_str(&v.to_string());
            }
            let delta = match form {
                0 => {
                    line.push_str(&format!(" : +{d}"));
                    d as i64
                }
                1 => {
                    line.push_str(&format!(" : -{d}"));
                    -(d as i64)
                }
                2 => {
                    line.push_str(&format!(" : {d}"));
                    d as i64
                }
                _ => 1,
            };
            (line, index, row, delta)
        })
}

/// Strategy: arbitrary text over the delta grammar's own bytes plus
/// hostile ones (signs, extreme numbers, Unicode spaces, control bytes).
fn arb_hostile_text() -> impl Strategy<Value = String> {
    const PIECES: [&str; 24] = [
        "0",
        "1",
        "7",
        "2",
        " ",
        "\t",
        ":",
        "%",
        "+",
        "-",
        "\r",
        "\n",
        "\u{0}",
        "\u{a0}",
        "\u{2003}",
        "é",
        "x",
        "18446744073709551615",
        "18446744073709551616",
        "9223372036854775807",
        "-9223372036854775808",
        "9223372036854775808",
        "99999999999999999999999",
        "::",
    ];
    proptest::collection::vec(0..PIECES.len(), 0..=16)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
}

/// Applies `parse_delta_edit`'s contract to one line: `Ok` edits name an
/// existing bag and carry rows of its arity; `Err` is a non-empty message
/// on one line.
fn check_delta_contract(line: &str, bags: &[Arc<Bag>]) {
    match bagcons::protocol::parse_delta_edit(line, 1, bags) {
        Ok(None) => {}
        Ok(Some((index, set))) => {
            prop_assert!(index < bags.len(), "index {} for {:?}", index, line);
            let arity = bags[index].schema().arity();
            prop_assert_eq!(set.schema(), bags[index].schema());
            prop_assert!(!set.is_empty());
            for edit in set.edits() {
                prop_assert_eq!(edit.row().len(), arity);
            }
        }
        Err(msg) => {
            prop_assert!(!msg.is_empty(), "empty error for {:?}", line);
            prop_assert!(
                !msg.contains(['\n', '\r']),
                "multi-line error {:?} for {:?}",
                msg,
                line
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A valid line parses to exactly the edit it encodes; the same line
    /// with one bit flipped or cut short still gets a typed answer that
    /// keeps the contract.
    #[test]
    fn delta_lines_survive_flips_and_truncation(
        (line, index, row, delta) in arb_delta_line(),
        pos in 0..64usize,
        bit in 0..8u8,
    ) {
        let bags = delta_bags();
        let (got_index, set) = bagcons::protocol::parse_delta_edit(&line, 1, &bags)
            .unwrap()
            .expect("a valid line carries an edit");
        prop_assert_eq!(got_index, index);
        prop_assert_eq!(set.edits().len(), 1);
        prop_assert_eq!(set.edits()[0].row(), &to_vals(&row)[..]);
        prop_assert_eq!(set.edits()[0].delta(), delta);

        let pos = pos % line.len();
        let mut flipped = line.clone().into_bytes();
        flipped[pos] ^= 1 << bit;
        check_delta_contract(&String::from_utf8_lossy(&flipped), &bags);
        check_delta_contract(&line[..pos], &bags);
    }

    /// Arbitrary text never panics the delta parser and keeps the
    /// contract.
    #[test]
    fn hostile_delta_text_keeps_the_contract(text in arb_hostile_text()) {
        check_delta_contract(&text, &delta_bags());
    }
}
