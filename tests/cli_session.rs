//! End-to-end tests of the session-based `bagcons` CLI: golden-file
//! checks for `--format json`, exit-code coverage for 0/1/2/3, and the
//! acceptance gate that JSON and text decisions agree on the E12/E13
//! fixture families at threads 1 and 4.
//!
//! Timings are nondeterministic, so JSON comparisons run through
//! [`normalize_micros`], which zeroes every `"micros":N` value; the
//! golden files under `tests/golden/` store `"micros":0`.

use bagcons_gen::consistent::planted_pair;
use rand::rngs::StdRng;
use rand::SeedableRng;
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
    let dir = std::env::temp_dir().join(format!("bagcons-clis-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

/// Replaces every `"micros":<digits>` with `"micros":0` so timing noise
/// never breaks a golden comparison.
fn normalize_micros(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    const KEY: &str = "\"micros\":";
    while let Some(pos) = rest.find(KEY) {
        let (head, tail) = rest.split_at(pos + KEY.len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("golden file {path:?}: {e}"))
}

fn assert_golden(out: &Output, name: &str) {
    let actual = normalize_micros(stdout(out).trim_end());
    let expected = golden(name);
    assert_eq!(
        actual,
        expected.trim_end(),
        "JSON output diverged from tests/golden/{name}"
    );
}

// ---------------------------------------------------------------------
// A minimal JSON well-formedness checker (the build is offline — no
// serde): validates the grammar and returns the value of a top-level
// string field when present.
// ---------------------------------------------------------------------

struct JsonCheck<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonCheck<'a> {
    fn parse(text: &'a str) -> Result<(), String> {
        let mut p = JsonCheck {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.value()?;
        p.ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(())
    }

    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b" \t\r\n".contains(b))
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(|_| ()),
            Some(b'0'..=b'9') | Some(b'-') => self.number(),
            _ if self.literal("true") || self.literal("false") || self.literal("null") => Ok(()),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.eat(b'{')?;
        self.ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.string()?;
            self.ws();
            self.eat(b':')?;
            self.value()?;
            self.ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("bad object separator {other:?} at {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.eat(b'[')?;
        self.ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("bad array separator {other:?} at {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 2; // escape + escaped byte (\uXXXX not emitted bare)
                }
                Some(&b) => {
                    out.push(b as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("bad number at {start}"));
        }
        Ok(())
    }
}

/// Extracts `"key":"value"` from flat JSON output (enough for decisions).
fn json_str_field(json: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = json.find(&pat)? + pat.len();
    let end = json[start..].find('"')? + start;
    Some(json[start..end].to_string())
}

// ---------------------------------------------------------------------
// Golden-file checks
// ---------------------------------------------------------------------

#[test]
fn golden_check_consistent_path() {
    let dir = tempdir("gcheck");
    let r = write(&dir, "r.bag", "A B #\n0 0 : 2\n1 1 : 3\n");
    let s = write(&dir, "s.bag", "B C #\n0 7 : 2\n1 8 : 3\n");
    let out = run(&[
        "check",
        "--format",
        "json",
        r.to_str().unwrap(),
        s.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    JsonCheck::parse(stdout(&out).trim()).expect("well-formed JSON");
    assert_golden(&out, "check_consistent_path.json");
}

#[test]
fn golden_check_parity_triangle() {
    let dir = tempdir("gtri");
    let a = write(&dir, "a.bag", "A B #\n0 0 : 1\n1 1 : 1\n");
    let b = write(&dir, "b.bag", "B C #\n0 0 : 1\n1 1 : 1\n");
    let c = write(&dir, "c.bag", "A C #\n0 1 : 1\n1 0 : 1\n");
    let out = run(&[
        "check",
        "--format=json",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        c.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    JsonCheck::parse(stdout(&out).trim()).expect("well-formed JSON");
    assert_golden(&out, "check_parity_triangle.json");
}

#[test]
fn golden_witness_rows() {
    let dir = tempdir("gwit");
    let r = write(&dir, "r.bag", "A B #\n0 0 : 2\n1 0 : 1\n");
    let s = write(&dir, "s.bag", "B C #\n0 5 : 1\n0 6 : 2\n");
    let out = run(&[
        "witness",
        "--format",
        "json",
        r.to_str().unwrap(),
        s.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    JsonCheck::parse(stdout(&out).trim()).expect("well-formed JSON");
    assert_golden(&out, "witness_rows.json");
}

#[test]
fn golden_diagnose_mismatch() {
    let dir = tempdir("gdiag");
    let r = write(&dir, "r.bag", "A B #\n0 5 : 2\n");
    let s = write(&dir, "s.bag", "B C #\n5 9 : 3\n");
    let out = run(&[
        "diagnose",
        "--format",
        "json",
        r.to_str().unwrap(),
        s.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    JsonCheck::parse(stdout(&out).trim()).expect("well-formed JSON");
    assert_golden(&out, "diagnose_mismatch.json");
}

#[test]
fn golden_diagnose_cyclic_obstruction() {
    let dir = tempdir("gobs");
    let a = write(&dir, "a.bag", "A B #\n0 0 : 1\n1 1 : 1\n");
    let b = write(&dir, "b.bag", "B C #\n0 0 : 1\n1 1 : 1\n");
    let c = write(&dir, "c.bag", "A C #\n0 1 : 1\n1 0 : 1\n");
    let out = run(&[
        "diagnose",
        "--format",
        "json",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        c.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    JsonCheck::parse(stdout(&out).trim()).expect("well-formed JSON");
    assert_golden(&out, "diagnose_cyclic_obstruction.json");
}

#[test]
fn golden_schema_triangle() {
    let dir = tempdir("gschema");
    let a = write(&dir, "a.bag", "A B #\n0 0 : 1\n");
    let b = write(&dir, "b.bag", "B C #\n0 0 : 1\n");
    let c = write(&dir, "c.bag", "A C #\n0 0 : 1\n");
    let out = run(&[
        "schema",
        "--format",
        "json",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        c.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    JsonCheck::parse(stdout(&out).trim()).expect("well-formed JSON");
    assert_golden(&out, "schema_triangle.json");
}

#[test]
fn golden_counterexample_triangle() {
    let dir = tempdir("gctr");
    let a = write(&dir, "a.bag", "A B #\n0 0 : 1\n");
    let b = write(&dir, "b.bag", "B C #\n0 0 : 1\n");
    let c = write(&dir, "c.bag", "A C #\n0 0 : 1\n");
    let out = run(&[
        "counterexample",
        "--format",
        "json",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        c.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    JsonCheck::parse(stdout(&out).trim()).expect("well-formed JSON");
    assert_golden(&out, "counterexample_triangle.json");
}

/// Legal bags whose shared key `B = 7` carries mass 2^64 on both sides
/// (each row 2^63). Lemma 2's pair test is exact, so every verb decides
/// consistent instead of reporting a u64 overflow.
#[test]
fn shared_key_mass_of_two_pow_64_is_consistent() {
    use bag_consistency::prelude::Session;
    use std::io::Write;
    use std::process::Stdio;

    let dir = tempdir("mass64");
    let r_text = "A B #\n0 7 : 9223372036854775808\n1 7 : 9223372036854775808\n";
    let s_text = "B C #\n7 0 : 9223372036854775808\n7 1 : 9223372036854775808\n";
    let r = write(&dir, "r.bag", r_text);
    let s = write(&dir, "s.bag", s_text);
    let (r, s) = (r.to_str().unwrap(), s.to_str().unwrap());

    let out = run(&["check", r, s]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = run(&["check", "--format", "json", r, s]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout(&out).contains("\"witness\":null"));
    let out = run(&["diagnose", r, s]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let out = run(&["witness", r, s]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let mut session = Session::default();
    let rb = session.load_bag(r_text).unwrap();
    let sb = session.load_bag(s_text).unwrap();
    let w = session.load_bag(&stdout(&out)).unwrap();
    assert!(session.is_global_witness(&w, &[&rb, &sb]).unwrap());

    let child = Command::new(env!("CARGO_BIN_EXE_bagcons"))
        .args(["watch", r, s])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut child = child;
    child.stdin.take().unwrap().write_all(b"").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(stdout(&out).starts_with("open: consistent"), "{out:?}");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn witness_over_the_empty_schema() {
    let dir = tempdir("empty-schema");
    let e = write(&dir, "e.bag", "#\n : 3\n");
    let none = write(&dir, "none.bag", "#\n");
    let (e, none) = (e.to_str().unwrap(), none.to_str().unwrap());
    for args in [vec!["witness", e], vec!["witness", e, e]] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        assert_eq!(stdout(&out), "#\n : 3\n");
    }
    let out = run(&["witness", none]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(stdout(&out), "#\n");
    let out = run(&["witness", e, none]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

/// A header name that only looks like an attribute id (`A1073741824` is
/// past the canonical range, `A05` is not the plain decimal of 5) must
/// not alias another file's attribute: bags over disjoint schemas with
/// equal totals are consistent.
#[test]
fn lookalike_attribute_names_do_not_alias() {
    let dir = tempdir("alias");
    for (x, y) in [
        ("X Y #\n1 2 : 1\n", "A1073741824 Z #\n5 6 : 1\n"),
        ("A5 #\n1 : 1\n", "A05 #\n2 : 1\n"),
    ] {
        let x = write(&dir, "x.bag", x);
        let y = write(&dir, "y.bag", y);
        let out = run(&["check", x.to_str().unwrap(), y.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        assert!(!stdout(&out).contains("NOT"), "{out:?}");
    }
}

// ---------------------------------------------------------------------
// Exit-code coverage: 0 / 1 / 2 / 3 on both formats
// ---------------------------------------------------------------------

#[test]
fn exit_codes_cover_all_four() {
    let dir = tempdir("codes");
    let r = write(&dir, "r.bag", "A B #\n0 0 : 2\n1 1 : 3\n");
    let s = write(&dir, "s.bag", "B C #\n0 7 : 2\n1 8 : 3\n");
    let bad = write(&dir, "bad.bag", "A B #\n1 : 1\n");
    // the loose satisfiable triangle needs real search nodes
    let wide = "0 0 : 3\n0 1 : 3\n1 0 : 3\n1 1 : 3\n";
    let ta = write(&dir, "ta.bag", &format!("A B #\n{wide}"));
    let tb = write(&dir, "tb.bag", &format!("B C #\n{wide}"));
    let tc = write(&dir, "tc.bag", &format!("A C #\n{wide}"));

    for format in ["text", "json"] {
        // 0: consistent
        let out = run(&[
            "check",
            "--format",
            format,
            r.to_str().unwrap(),
            s.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "format={format} {out:?}");
        // 1: inconsistent
        let out = run(&[
            "check",
            "--format",
            format,
            r.to_str().unwrap(),
            r.to_str().unwrap(),
            write(&dir, "s9.bag", "B C #\n0 7 : 9\n").to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(1), "format={format}");
        // 2: input error
        let out = run(&["check", "--format", format, bad.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "format={format}");
        // 3: budget exhausted
        let out = run(&[
            "check",
            "--format",
            format,
            "--budget",
            "1",
            ta.to_str().unwrap(),
            tb.to_str().unwrap(),
            tc.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(3), "format={format}");
        if format == "json" {
            assert_eq!(
                json_str_field(&stdout(&out), "decision").as_deref(),
                Some("unknown")
            );
        }
    }

    // 2: usage, bad flag values, zero threads, threads past the cap
    assert_eq!(run(&[]).status.code(), Some(2));
    assert_eq!(
        run(&["check", "--format", "yaml", r.to_str().unwrap()])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        run(&["check", "--threads", "0", r.to_str().unwrap()])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        run(&["check", "--threads", "257", r.to_str().unwrap()])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        run(&["frobnicate", r.to_str().unwrap()]).status.code(),
        Some(2)
    );
}

// ---------------------------------------------------------------------
// Acceptance gate: JSON decision == text decision on the E12/E13
// fixture families at threads 1 and 4
// ---------------------------------------------------------------------

fn text_decision(stdout_text: &str, code: i32) -> &'static str {
    if stdout_text.contains("NOT globally consistent") {
        assert_eq!(code, 1);
        "inconsistent"
    } else if stdout_text.contains("globally consistent") {
        assert_eq!(code, 0);
        "consistent"
    } else if stdout_text.contains("undecided") {
        assert_eq!(code, 3);
        "unknown"
    } else {
        panic!("unrecognized text decision: {stdout_text}");
    }
}

#[test]
fn json_decision_matches_text_on_e12_e13_fixtures() {
    // The E12/E13 benchmark fixture family: planted consistent pairs over
    // {A0,A1} × {A1,A2} (bagcons-gen), plus a perturbed (inconsistent)
    // variant of each.
    let dir = tempdir("e12e13");
    let x = bagcons_core::Schema::range(0, 2);
    let y = bagcons_core::Schema::range(1, 3);
    let names = {
        let mut names = bagcons_core::AttrNames::new();
        for (i, n) in ["A0", "A1", "A2"].iter().enumerate() {
            names.set(bagcons_core::Attr::new(i as u32), *n);
        }
        names
    };
    let mut rng = StdRng::seed_from_u64(12);
    for (case, support) in [(0u32, 64usize), (1, 256)] {
        let (r, s) = planted_pair(&x, &y, support as u64, support, 1 << 10, &mut rng).unwrap();
        for (variant, scale) in [("sat", 1u64), ("unsat", 3)] {
            let s = s.scale(scale).unwrap();
            let rf = write(
                &dir,
                &format!("r{case}{variant}.bag"),
                &bagcons_core::io::write_bag(&r, &names),
            );
            let sf = write(
                &dir,
                &format!("s{case}{variant}.bag"),
                &bagcons_core::io::write_bag(&s, &names),
            );
            for threads in ["1", "4"] {
                let text_out = run(&[
                    "check",
                    "--threads",
                    threads,
                    rf.to_str().unwrap(),
                    sf.to_str().unwrap(),
                ]);
                let json_out = run(&[
                    "check",
                    "--threads",
                    threads,
                    "--format",
                    "json",
                    rf.to_str().unwrap(),
                    sf.to_str().unwrap(),
                ]);
                let json_text = stdout(&json_out);
                JsonCheck::parse(json_text.trim()).expect("well-formed JSON");
                let expected = text_decision(&stdout(&text_out), text_out.status.code().unwrap());
                assert_eq!(
                    json_str_field(&json_text, "decision").as_deref(),
                    Some(expected),
                    "support={support} variant={variant} threads={threads}"
                );
                assert_eq!(json_out.status.code(), text_out.status.code());
            }
        }
    }
}

#[test]
fn threads_flag_is_decision_invariant_on_triangle() {
    // E13's thread grid on the cyclic branch: same decision at 1 and 4.
    let dir = tempdir("tgrid");
    let a = write(&dir, "a.bag", "A B #\n0 0 : 1\n1 1 : 1\n");
    let b = write(&dir, "b.bag", "B C #\n0 0 : 1\n1 1 : 1\n");
    let c = write(&dir, "c.bag", "A C #\n0 0 : 1\n1 1 : 1\n");
    let files = [
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        c.to_str().unwrap(),
    ];
    let mut outputs = Vec::new();
    for threads in ["1", "4"] {
        let out = run(&[
            &["check", "--format", "json", "--threads", threads],
            &files[..],
        ]
        .concat());
        assert_eq!(out.status.code(), Some(0));
        outputs.push(normalize_micros(&stdout(&out)));
    }
    assert_eq!(
        outputs[0], outputs[1],
        "thread count must not leak into JSON"
    );
}

#[test]
fn watch_emits_one_decision_per_delta() {
    use std::io::Write;
    use std::process::Stdio;

    let dir = tempdir("watch");
    let r = write(&dir, "r.bag", "A B #\n0 0 : 2\n1 1 : 3\n");
    let s = write(&dir, "s.bag", "B C #\n0 7 : 2\n1 8 : 3\n");
    let mut child = Command::new(env!("CARGO_BIN_EXE_bagcons"))
        .args(["watch", r.to_str().unwrap(), s.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"% a bump, a revert, a fresh row, its removal\n0 0 0 : +1\n0 0 0 : -1\n1 5 5 : +2\n1 5 5 : -2\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "open line + 4 deltas: {text}");
    assert!(lines[0].starts_with("open: consistent"));
    assert!(
        lines[1].starts_with("inconsistent (bag 0: in-place"),
        "{}",
        lines[1]
    );
    assert!(
        lines[2].starts_with("consistent (bag 0: in-place"),
        "{}",
        lines[2]
    );
    assert!(
        lines[3].starts_with("inconsistent (bag 1: +1/-0 rows"),
        "{}",
        lines[3]
    );
    assert!(
        lines[4].starts_with("consistent (bag 1: +0/-1 rows"),
        "{}",
        lines[4]
    );
    assert_eq!(out.status.code(), Some(0), "final decision is consistent");
}

#[test]
fn watch_batch_groups_deltas_into_one_decision() {
    use std::io::Write;
    use std::process::Stdio;

    let dir = tempdir("watchbatch");
    let r = write(&dir, "r.bag", "A B #\n0 0 : 2\n1 1 : 3\n");
    let s = write(&dir, "s.bag", "B C #\n0 7 : 2\n1 8 : 3\n");
    let mut child = Command::new(env!("CARGO_BIN_EXE_bagcons"))
        .args(["watch", r.to_str().unwrap(), s.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // The two edits grow both B-marginals together: individually each
    // would flip the decision, batched they cancel out — one decision
    // line for the whole group proves the burst decided atomically.
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"batch\n0 0 0 : +1\n1 0 7 : +1\nend\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "open line + 1 batch decision: {text}");
    assert!(lines[0].starts_with("open: consistent"));
    assert!(
        lines[1].starts_with("consistent (batch of 2: in-place"),
        "{}",
        lines[1]
    );
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn watch_rejects_unterminated_batch() {
    use std::io::Write;
    use std::process::Stdio;

    let dir = tempdir("watchbatchopen");
    let r = write(&dir, "r.bag", "A B #\n0 0 : 2\n");
    let s = write(&dir, "s.bag", "B C #\n0 7 : 2\n");
    let mut child = Command::new(env!("CARGO_BIN_EXE_bagcons"))
        .args(["watch", r.to_str().unwrap(), s.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"batch\n0 0 0 : +1\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(2), "open batch at EOF is an error");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("open batch"), "{err}");
}

#[test]
fn serve_subcommand_serves_the_wire_protocol() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;

    let dir = tempdir("servecli");
    let r = write(&dir, "r.bag", "A B #\n0 0 : 2\n1 1 : 3\n");
    let s = write(&dir, "s.bag", "B C #\n0 7 : 2\n1 8 : 3\n");
    let mut child = Command::new(env!("CARGO_BIN_EXE_bagcons"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--name",
            "flights",
            r.to_str().unwrap(),
            s.to_str().unwrap(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut child_out = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    child_out.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut request = |line: &str| -> String {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        writer.flush().expect("flush");
        let mut resp = String::new();
        assert!(reader.read_line(&mut resp).expect("recv") > 0, "EOF");
        resp.trim_end().to_string()
    };
    assert_eq!(request("ping"), "ok pong");
    assert_eq!(request("list"), "ok list datasets=flights:gen=0:bags=2");
    assert!(request("open flights").starts_with("ok open dataset=flights gen=0 "));
    assert!(request("0 0 0 : 1").starts_with("status=1 "));
    assert_eq!(request("shutdown"), "ok shutdown");

    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "clean drain after shutdown");
}

#[test]
fn watch_json_lines_and_exit_code_follow_last_decision() {
    use std::io::Write;
    use std::process::Stdio;

    let dir = tempdir("watchjson");
    let r = write(&dir, "r.bag", "A B #\n0 0 : 2\n");
    let s = write(&dir, "s.bag", "B C #\n0 7 : 2\n");
    let mut child = Command::new(env!("CARGO_BIN_EXE_bagcons"))
        .args([
            "watch",
            "--format",
            "json",
            r.to_str().unwrap(),
            s.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"0 0 0 : +1\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].contains("\"report\":\"open\""));
    JsonCheck::parse(lines[1]).expect("well-formed JSON");
    assert_eq!(
        json_str_field(lines[1], "decision").as_deref(),
        Some("inconsistent")
    );
    assert_eq!(out.status.code(), Some(1), "exit code = last decision");
}

#[test]
fn watch_rejects_bad_delta_lines() {
    use std::io::Write;
    use std::process::Stdio;

    let dir = tempdir("watchbad");
    let r = write(&dir, "r.bag", "A B #\n0 0 : 2\n");
    let s = write(&dir, "s.bag", "B C #\n0 7 : 2\n");
    for bad in ["9 0 0 : 1\n", "0 0 : 1\n", "0 0 0 : x\n", "0 0 0 : -5\n"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_bagcons"))
            .args(["watch", r.to_str().unwrap(), s.to_str().unwrap()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(bad.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(2), "input {bad:?} must fail");
        assert!(!out.stderr.is_empty());
    }
}

/// Each bad delta line is reported once, with its line named once, and
/// a bad delta token is a bad *signed* integer.
#[test]
fn watch_names_the_bad_line_once() {
    use std::io::Write;
    use std::process::Stdio;

    let dir = tempdir("watchbadline");
    let r = write(&dir, "r.bag", "A B #\n0 0 : 2\n");
    let s = write(&dir, "s.bag", "B C #\n0 7 : 2\n");
    for (input, want) in [
        (
            "0 1 2 : x\n",
            "error: stdin line 1: \"x\" is not a signed integer\n",
        ),
        (
            "0 a b\n",
            "error: stdin line 1: \"a\" is not an unsigned integer\n",
        ),
        (
            "-1 1 2\n",
            "error: stdin line 1: \"-1\" is not an unsigned integer\n",
        ),
        (
            "% header\n9 0 0 : 1\n",
            "error: stdin line 2: bag index 9 out of range (0..2)\n",
        ),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_bagcons"))
            .args(["watch", r.to_str().unwrap(), s.to_str().unwrap()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(2), "input {input:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            want,
            "input {input:?}"
        );
    }
}

#[test]
fn timeout_zero_degrades_check_to_unknown() {
    let dir = tempdir("timeout");
    let r = write(&dir, "r.bag", "A B #\n0 0 : 2\n1 1 : 3\n");
    let s = write(&dir, "s.bag", "B C #\n0 7 : 2\n1 8 : 3\n");
    let wide = "0 0 : 3\n0 1 : 3\n1 0 : 3\n1 1 : 3\n";
    let ta = write(&dir, "ta.bag", &format!("A B #\n{wide}"));
    let tb = write(&dir, "tb.bag", &format!("B C #\n{wide}"));
    let tc = write(&dir, "tc.bag", &format!("A C #\n{wide}"));

    // acyclic branch: the pairwise sweep polls before the first pair
    let out = run(&[
        "check",
        "--timeout",
        "0",
        "--format",
        "json",
        r.to_str().unwrap(),
        s.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let json = stdout(&out);
    assert_eq!(
        json_str_field(&json, "decision").as_deref(),
        Some("unknown")
    );
    assert_eq!(
        json_str_field(&json, "abort_reason").as_deref(),
        Some("deadline_exceeded")
    );

    // cyclic branch: the ILP entry poll fires before presolve
    let out = run(&[
        "check",
        "--timeout=0",
        "--format",
        "json",
        ta.to_str().unwrap(),
        tb.to_str().unwrap(),
        tc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert_eq!(
        json_str_field(&stdout(&out), "abort_reason").as_deref(),
        Some("deadline_exceeded")
    );

    // text mode names the reason
    let out = run(&[
        "check",
        "--timeout",
        "0",
        r.to_str().unwrap(),
        s.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3));
    assert!(
        stdout(&out).contains("deadline exceeded"),
        "{:?}",
        stdout(&out)
    );

    // a generous timeout changes nothing on an easy instance
    let out = run(&[
        "check",
        "--timeout",
        "60000",
        r.to_str().unwrap(),
        s.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn watch_stdin_read_error_exits_two_with_diagnostic() {
    use std::process::Stdio;

    let dir = tempdir("watcherr");
    let r = write(&dir, "r.bag", "A B #\n0 0 : 2\n");
    let s = write(&dir, "s.bag", "B C #\n0 7 : 2\n");
    // a directory opens fine but reads fail (EISDIR), so the stream dies
    // mid-watch rather than at spawn
    let broken_stdin = fs::File::open(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bagcons"))
        .args(["watch", r.to_str().unwrap(), s.to_str().unwrap()])
        .stdin(Stdio::from(broken_stdin))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr.clone()).unwrap();
    assert_eq!(stderr.lines().count(), 1, "one-line diagnostic: {stderr:?}");
    assert!(stderr.starts_with("error: stdin:"), "{stderr:?}");
    // the opening state line still lands before the failure
    assert!(stdout(&out).starts_with("open: consistent"), "{out:?}");
}
