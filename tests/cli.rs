//! End-to-end tests of the `bagcons` CLI binary.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn write(dir: &std::path::Path, name: &str, content: &str) -> PathBuf {
    let p = dir.join(name);
    fs::write(&p, content).unwrap();
    p
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bagcons"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bagcons-cli-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn usage_on_no_args() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn check_consistent_path_instance() {
    let dir = tempdir("sat");
    let r = write(&dir, "r.bag", "A B #\n0 0 : 2\n1 1 : 3\n");
    let s = write(&dir, "s.bag", "B C #\n0 7 : 2\n1 8 : 3\n");
    let out = run(&["check", r.to_str().unwrap(), s.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("globally consistent"));
    assert!(stdout.contains("acyclic"));
}

#[test]
fn witness_marginalizes_back() {
    let dir = tempdir("wit");
    let r = write(&dir, "r.bag", "A B #\n0 0 : 2\n1 0 : 1\n");
    let s = write(&dir, "s.bag", "B C #\n0 5 : 1\n0 6 : 2\n");
    let out = run(&["witness", r.to_str().unwrap(), s.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // parse the emitted witness and verify its totals
    let (w, _) = bagcons_core::io::parse_bag(&stdout).unwrap();
    assert_eq!(w.unary_size(), 3);
    assert_eq!(w.schema().arity(), 3);
}

#[test]
fn pairwise_decides_past_u64_group_sums() {
    // Legal bags whose shared-key group sums pass `u64::MAX`: `check`,
    // `witness` and `diagnose` decide them, and so must `pairwise`.
    let dir = tempdir("pairwide");
    let pairs = [
        (
            "A B #\n1 1 : 9223372036854775808\n2 1 : 9223372036854775808\n",
            "B C #\n1 1 : 9223372036854775808\n1 2 : 9223372036854775808\n",
        ),
        (
            "A B #\n1 1 : 18446744073709551615\n2 1 : 18446744073709551615\n3 1 : 1\n",
            "B C #\n1 1 : 18446744073709551615\n1 2 : 18446744073709551615\n1 3 : 1\n",
        ),
    ];
    for (i, (r, s)) in pairs.iter().enumerate() {
        let r = write(&dir, &format!("r{i}.bag"), r);
        let s = write(&dir, &format!("s{i}.bag"), s);
        let out = run(&["pairwise", r.to_str().unwrap(), s.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("consistent: true (all five characterizations agree"),
            "{stdout}"
        );
    }
}

#[test]
fn json_witness_total_is_exact_past_u64() {
    // The witness of this pair has unary size 2^64, one past `u64::MAX`:
    // the JSON summary must print it exactly, not saturate.
    let dir = tempdir("jsontotal");
    let r = write(
        &dir,
        "r.bag",
        "A B #\n1 1 : 9223372036854775808\n2 1 : 9223372036854775808\n",
    );
    let s = write(
        &dir,
        "s.bag",
        "B C #\n1 1 : 9223372036854775808\n1 2 : 9223372036854775808\n",
    );
    let out = run(&[
        "pairwise",
        "--format",
        "json",
        r.to_str().unwrap(),
        s.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"total\":18446744073709551616"),
        "{stdout}"
    );
    assert!(!stdout.contains("18446744073709551615"), "{stdout}");
}

#[test]
fn check_parity_triangle_is_inconsistent() {
    let dir = tempdir("tri");
    let a = write(&dir, "a.bag", "A B #\n0 0 : 1\n1 1 : 1\n");
    let b = write(&dir, "b.bag", "B C #\n0 0 : 1\n1 1 : 1\n");
    let c = write(&dir, "c.bag", "A C #\n0 1 : 1\n1 0 : 1\n");
    let files = [
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        c.to_str().unwrap(),
    ];
    let out = run(&[&["check"], &files[..]].concat());
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("NOT globally consistent"));
    // diagnose says pairwise consistent + cyclic schema
    let out = run(&[&["diagnose"], &files[..]].concat());
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pairwise consistent"));
    assert!(stdout.contains("CYCLIC"));
    // schema analysis finds the H3 obstruction
    let out = run(&[&["schema"], &files[..]].concat());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("acyclic:   false"));
    assert!(stdout.contains("H3"));
}

#[test]
fn diagnose_points_at_the_broken_tuple() {
    let dir = tempdir("diag");
    let r = write(&dir, "r.bag", "A B #\n0 5 : 2\n");
    let s = write(&dir, "s.bag", "B C #\n5 9 : 3\n");
    let out = run(&["diagnose", r.to_str().unwrap(), s.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("INCONSISTENT"));
    assert!(stdout.contains("2 vs 3"));
}

#[test]
fn counterexample_roundtrips_through_check() {
    let dir = tempdir("ctr");
    let a = write(&dir, "a.bag", "A B #\n0 0 : 1\n");
    let b = write(&dir, "b.bag", "B C #\n0 0 : 1\n");
    let c = write(&dir, "c.bag", "A C #\n0 0 : 1\n");
    let files = [
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        c.to_str().unwrap(),
    ];
    let out = run(&[&["counterexample"], &files[..]].concat());
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // split the emitted family back into bags and verify the claim
    let mut interner = bagcons_core::io::NameInterner::new();
    let cfg = bagcons_core::ExecConfig::sequential();
    let bags: Vec<bagcons_core::Bag> = stdout
        .split("%% ---")
        .skip(1)
        .map(|chunk| bagcons_core::io::parse_bag_with(chunk, &mut interner, &cfg).unwrap())
        .collect();
    assert_eq!(bags.len(), 3);
    let refs: Vec<&bagcons_core::Bag> = bags.iter().collect();
    assert!(bagcons::session::Session::default()
        .pairwise_consistent(&refs)
        .unwrap());
    let dec = bagcons::global::globally_consistent_via_ilp(
        &refs,
        &bagcons_lp::ilp::SolverConfig::default(),
    )
    .unwrap();
    assert_eq!(dec.outcome, bagcons_lp::ilp::IlpOutcome::Unsat);
}

#[test]
fn counterexample_refuses_acyclic_schema() {
    let dir = tempdir("acy");
    let r = write(&dir, "r.bag", "A B #\n0 0 : 1\n");
    let s = write(&dir, "s.bag", "B C #\n0 0 : 1\n");
    let out = run(&["counterexample", r.to_str().unwrap(), s.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("acyclic"));
}

#[test]
fn parse_errors_are_reported_with_location() {
    let dir = tempdir("bad");
    let bad = write(&dir, "bad.bag", "A B #\n1 : 1\n");
    let out = run(&["check", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
}
