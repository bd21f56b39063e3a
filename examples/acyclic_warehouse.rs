//! Building a universal bag over an acyclic warehouse schema (Theorem 6).
//!
//! ```sh
//! cargo run --release --example acyclic_warehouse
//! ```
//!
//! A retailer keeps four fact tables that share dimensions in a tree
//! shape (a snowflake — an acyclic hypergraph):
//!
//! ```text
//! Sales(Store, Product)      Stock(Store, Depot)
//!            \                   /
//!             Stores(Store, City)
//!                     |
//!             Promos(City, Campaign)
//! ```
//!
//! Under bag semantics, row *counts* matter: the question "is there one
//! joint event log whose per-table counts are exactly these tables?" is
//! global bag consistency. Because the schema is acyclic, Theorem 2 says
//! pairwise checks suffice, and Theorem 6 constructs the joint log in
//! polynomial time with support no larger than the sum of the inputs.

use bagcons::acyclic::WitnessStrategy;
use bagcons::session::Session;
use bagcons_core::{Attr, AttrNames, Bag, Schema};
use bagcons_gen::consistent::planted_family;
use bagcons_hypergraph::{is_acyclic, rip_order, Hypergraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let session = Session::builder().threads(2).build().expect("valid config");
    let mut names = AttrNames::new();
    let store = names.fresh("Store");
    let product = names.fresh("Product");
    let depot = names.fresh("Depot");
    let city = names.fresh("City");
    let campaign = names.fresh("Campaign");

    let sales = Schema::from_attrs([store, product]);
    let stock = Schema::from_attrs([store, depot]);
    let stores = Schema::from_attrs([store, city]);
    let promos = Schema::from_attrs([city, campaign]);

    let schema_h =
        Hypergraph::from_edges([sales.clone(), stock.clone(), stores.clone(), promos.clone()]);
    assert!(is_acyclic(&schema_h), "the snowflake is acyclic");
    let order = rip_order(&schema_h).unwrap();
    println!("running-intersection order of the warehouse schema:");
    for (i, s) in order.iter().enumerate() {
        let pretty: Vec<String> = s.iter().map(|a| names.name(a)).collect();
        println!("  {}: {{{}}}", i + 1, pretty.join(", "));
    }

    // Plant a consistent set of fact tables from a hidden event log, then
    // forget the log — the warehouse only has the per-table counts.
    let mut rng = StdRng::seed_from_u64(2024);
    let (tables, hidden_log) = planted_family(&schema_h, 4, 60, 20, &mut rng).unwrap();
    println!(
        "\nfact tables: {} rows total across {} tables (hidden log had {} distinct events)",
        tables.iter().map(|b| b.unary_size()).sum::<u128>(),
        tables.len(),
        hidden_log.support_size(),
    );

    // 1. consistency audit: pairwise only, thanks to acyclicity
    let refs: Vec<&Bag> = tables.iter().collect();
    assert!(session.pairwise_consistent(&refs).unwrap());
    println!("pairwise audit passed — by Theorem 2 the tables are globally consistent");

    // 2. reconstruct a joint event log (Theorem 6)
    let log = session
        .acyclic_global_witness(&refs, WitnessStrategy::Saturated)
        .unwrap();
    assert!(session.is_global_witness(&log, &refs).unwrap());
    let bound: usize = refs.iter().map(|b| b.support_size()).sum();
    println!(
        "reconstructed joint log: {} distinct events (Theorem 6 bound: ≤ {bound})",
        log.support_size(),
    );
    assert!(log.support_size() <= bound);

    // 3. the reconstruction explains every table exactly
    for (table, schema) in tables.iter().zip([&sales, &stock, &stores, &promos]) {
        assert_eq!(&log.marginal(schema).unwrap(), table);
    }
    println!("every fact table is exactly a marginal of the reconstructed log");

    // 4. contrast: what if a consultant adds a cyclic "shortcut" table?
    let shortcut = Schema::from_attrs([product, city]); // Sales–Stores–shortcut cycle
    let cyclic = Hypergraph::from_edges([sales, stores, shortcut]);
    assert!(!is_acyclic(&cyclic));
    println!(
        "\nadding a (Product, City) shortcut makes the schema cyclic: {:?} edges — \
         pairwise audits would no longer certify global consistency (Theorem 4)",
        cyclic.num_edges()
    );
    let _ = Attr::new(99); // names registry demo ends here
}
