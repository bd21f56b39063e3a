//! Quickstart: the `Session` API in five minutes.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Walks through the paper's opening moves on one [`Session`]: two-bag
//! consistency (Lemma 2), witness construction (Corollary 1), why the bag
//! join is *not* a witness (Section 3), and the acyclic-vs-cyclic
//! dichotomy (Theorem 4) — plus the machine-readable JSON reports.

use bag_consistency::prelude::*;
use bagcons::tseitin::tseitin_bags;

fn main() {
    // ---------------------------------------------------------------
    // 1. A Session owns all configuration: threads, budgets, names.
    // ---------------------------------------------------------------
    let mut session = Session::builder()
        .threads(2)
        .budget(1_000_000)
        .build()
        .expect("valid config");

    // Bags are multisets of tuples over a schema; loading through the
    // session interns attribute names consistently across inputs.
    // Flight legs: (Origin, Dest) seats sold; ops: (Dest, Carrier).
    // city codes: 0 = SFO, 1 = JFK, 2 = BOS; carriers: 10, 11
    let sold = session
        .load_bag("Origin Dest #\n0 1 : 120\n0 2 : 80\n")
        .unwrap();
    let handled = session
        .load_bag("Dest Carrier #\n1 10 : 70\n1 11 : 50\n2 10 : 80\n")
        .unwrap();

    println!("sold (Origin, Dest):\n{sold}");
    println!("handled (Dest, Carrier):\n{handled}");

    // ---------------------------------------------------------------
    // 2. Lemma 2: consistency == equal marginals on shared attributes.
    // ---------------------------------------------------------------
    let consistent = session.bags_consistent(&sold, &handled).unwrap();
    println!("consistent on Dest? {consistent}");
    assert!(consistent);

    // ---------------------------------------------------------------
    // 3. Corollary 1: build an actual joint bag (a saturated flow of
    //    N(R,S), filled one shared-key group at a time).
    // ---------------------------------------------------------------
    let joint = session
        .consistency_witness(&sold, &handled)
        .unwrap()
        .expect("consistent");
    println!("a joint bag over (Origin, Dest, Carrier):\n{joint}");
    assert_eq!(joint.marginal(sold.schema()).unwrap(), sold);
    assert_eq!(joint.marginal(handled.schema()).unwrap(), handled);

    // ---------------------------------------------------------------
    // 4. The bag join is NOT a witness (the Section 3 surprise).
    // ---------------------------------------------------------------
    let join = bagcons_core::join::bag_join(&sold, &handled).unwrap();
    let join_marginal = join.marginal(sold.schema()).unwrap();
    println!(
        "bag join marginal on (Origin, Dest) inflates multiplicities: {} sold at (0,1) vs {}",
        join_marginal.multiplicity(&[Value(0), Value(1)]),
        sold.multiplicity(&[Value(0), Value(1)]),
    );
    assert_ne!(join_marginal, sold);

    // ---------------------------------------------------------------
    // 5. The dichotomy: acyclic schemas are easy, cyclic ones need search.
    // ---------------------------------------------------------------
    let triangle = tseitin_bags(&bag_consistency::hypergraph::triangle()).unwrap();
    let refs: Vec<&Bag> = triangle.iter().collect();
    assert!(session.pairwise_consistent(&refs).unwrap());
    let outcome = session.check(&refs).unwrap();
    println!(
        "parity triangle: branch = {} — decision = {}",
        outcome.branch.as_str(),
        outcome.decision.as_str(),
    );
    assert!(!outcome.branch.is_acyclic());
    assert_eq!(outcome.decision, Decision::Inconsistent);
    println!("pairwise consistency does NOT imply global consistency on cyclic schemas.");

    // Every outcome also renders as machine-readable JSON:
    println!(
        "JSON report: {}",
        outcome.render(ReportFormat::Json, session.names())
    );

    // On an acyclic schema the same question needs no search at all:
    // Corollary 4: the group fill is a minimal witness.
    let t = session
        .consistency_witness(&sold, &handled)
        .unwrap()
        .unwrap();
    println!(
        "minimal witness support: {} (bound {} = ‖R‖supp + ‖S‖supp)",
        t.support_size(),
        sold.support_size() + handled.support_size(),
    );
}
