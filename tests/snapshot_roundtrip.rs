//! Round-trip and corruption-safety tests for the binary snapshot
//! format (`bagcons-snap`) and the typed dataset-loading surface built
//! on it.
//!
//! The contracts pinned here:
//!
//! * **Bit-identical round trips** — write → load → write reproduces the
//!   exact byte stream, and the loaded bags are observationally equal to
//!   the originals (multiplicities, sorted runs, joins through both the
//!   packed and slice physical paths, deltas applied after load).
//! * **Determinism across parallelism** — sealing the same text dataset
//!   at thread caps 1, 2, and 4 yields byte-identical snapshots.
//! * **Corruption never panics** — any single bit flip or truncation is
//!   answered with a typed [`SnapError`], or (when the flip lands in
//!   inert padding) an `Ok` that decodes to the identical bags.

use bag_consistency::prelude::*;
use bagcons_core::io::parse_delta_line;
use bagcons_core::join::{bag_join_hash, bag_join_merge};
use bagcons_core::DeltaSet;
use bagcons_snap::{SnapError, Snapshot, SnapshotWriter};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const R_TEXT: &str = "A B #\n0 0 : 2\n1 1 : 3\n";
const S_TEXT: &str = "B C #\n0 7 : 2\n1 8 : 3\n";

/// A fresh per-test scratch directory under the system temp dir.
fn temp_dir() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bagcons-snapshot-test-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Serializes sealed bags to snapshot bytes (no name table).
fn snap_bytes(bags: &[&Bag]) -> Vec<u8> {
    let mut writer = SnapshotWriter::new();
    for bag in bags {
        writer.add_bag(bag).expect("sealed bag");
    }
    writer.to_bytes()
}

/// Strategy: two sealed bags over overlapping schemas {A0,A1}, {A1,A2}.
fn arb_sealed_pair() -> impl Strategy<Value = (Bag, Bag)> {
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let mk = move |schema: Schema| {
        proptest::collection::vec((proptest::collection::vec(0..4u64, 2), 1..=9u64), 0..=14)
            .prop_map(move |rows| {
                let mut bag = Bag::new(schema.clone());
                for (row, m) in rows {
                    let vals: Vec<Value> = row.into_iter().map(Value::new).collect();
                    bag.insert(vals, m).unwrap();
                }
                bag.seal();
                bag
            })
    };
    (mk(x), mk(y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Write → load → write is bit-identical, and the loaded bags are
    /// observationally equal to the originals: same bags, same sorted
    /// runs, and the same join results through both the packed-key merge
    /// path and the hash path (the merge join packs a loaded bag's keys
    /// for that join only, as for any other bag).
    #[test]
    fn round_trip_is_bit_identical((r, s) in arb_sealed_pair()) {
        let bytes = snap_bytes(&[&r, &s]);
        let snapshot = Snapshot::from_bytes(&bytes).expect("round trip decodes");
        let loaded = snapshot.bags();
        prop_assert_eq!(loaded.len(), 2);
        prop_assert_eq!(&loaded[0], &r);
        prop_assert_eq!(&loaded[1], &s);
        prop_assert_eq!(loaded[0].sorted_rows(), r.sorted_rows());
        prop_assert_eq!(loaded[1].sorted_rows(), s.sorted_rows());
        prop_assert_eq!(
            bag_join_merge(&loaded[0], &loaded[1]).unwrap(),
            bag_join_merge(&r, &s).unwrap()
        );
        prop_assert_eq!(
            bag_join_hash(&loaded[0], &loaded[1]).unwrap(),
            bag_join_hash(&r, &s).unwrap()
        );
        let rewritten = snap_bytes(&[&loaded[0], &loaded[1]]);
        prop_assert_eq!(rewritten, bytes);
    }

    /// Mutating a snapshot-loaded bag behaves exactly like mutating the
    /// original: the lazily rebuilt dedup index must observe the same
    /// rows the arena was adopted with.
    #[test]
    fn deltas_after_load_match_original(
        (r, s) in arb_sealed_pair(),
        row in proptest::collection::vec(0..4u64, 2),
        m in 1..6u64,
    ) {
        let bytes = snap_bytes(&[&r, &s]);
        let snapshot = Snapshot::from_bytes(&bytes).expect("decodes");
        let mut loaded = snapshot.bags()[0].clone();
        let mut original = r.clone();
        let vals: Vec<Value> = row.iter().copied().map(Value::new).collect();
        loaded.insert(vals.clone(), m).unwrap();
        original.insert(vals.clone(), m).unwrap();
        prop_assert_eq!(&loaded, &original);
        prop_assert_eq!(loaded.multiplicity(&vals), original.multiplicity(&vals));
        loaded.seal();
        original.seal();
        prop_assert_eq!(loaded.sorted_rows(), original.sorted_rows());
    }

    /// Any single bit flip either fails with a typed error or — when it
    /// lands in bytes the decoder never interprets — decodes to the
    /// identical bags. It never panics and never yields different data.
    #[test]
    fn bit_flips_never_panic_or_corrupt(
        (r, s) in arb_sealed_pair(),
        pos in 0..1_000_000usize,
        bit in 0..8u32,
    ) {
        let bytes = snap_bytes(&[&r, &s]);
        let mut corrupt = bytes.clone();
        let i = pos % corrupt.len();
        corrupt[i] ^= 1 << bit;
        match Snapshot::from_bytes(&corrupt) {
            Err(_) => {}
            Ok(snapshot) => {
                prop_assert_eq!(&snapshot.bags()[0], &r);
                prop_assert_eq!(&snapshot.bags()[1], &s);
            }
        }
    }

    /// Every truncation of a valid snapshot is rejected with a typed
    /// error — a short read can never produce a half-loaded dataset.
    #[test]
    fn truncations_are_rejected((r, s) in arb_sealed_pair(), cut in 0..1_000_000usize) {
        let bytes = snap_bytes(&[&r, &s]);
        let keep = cut % bytes.len();
        prop_assert!(Snapshot::from_bytes(&bytes[..keep]).is_err());
    }
}

/// Sealing is deterministic across thread caps: the same text dataset
/// loaded and sealed at threads 1, 2, and 4 snapshots to identical
/// bytes (the format persists the sorted-run layout verbatim, so this
/// pins the seal itself).
#[test]
fn snapshot_bytes_identical_across_thread_caps() {
    let dir = temp_dir();
    let r_path = dir.join("r.bag");
    std::fs::write(&r_path, R_TEXT).expect("write text");
    let mut snaps = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut session = Session::builder()
            .threads(threads)
            .build()
            .expect("session");
        let bags = session.load_path(&r_path).expect("load text");
        let refs: Vec<&Bag> = bags.iter().collect();
        let path = dir.join(format!("t{threads}.snap"));
        session
            .write_snapshot(&path, &refs)
            .expect("write snapshot");
        snaps.push(std::fs::read(&path).expect("read back"));
    }
    assert_eq!(snaps[0], snaps[1], "threads=1 vs threads=2");
    assert_eq!(snaps[0], snaps[2], "threads=1 vs threads=4");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The session-level surface: snapshots restore attribute names into
/// the loading session's interner, `DatasetSource::detect` tells the
/// two on-disk formats apart by magic bytes, and a stream opened over
/// snapshot-loaded bags produces the same decision trace as one opened
/// over the text-parsed originals — at every thread cap.
#[test]
fn snapshot_loaded_stream_matches_text_loaded_trace() {
    let dir = temp_dir();
    let r_path = dir.join("r.bag");
    let s_path = dir.join("s.bag");
    std::fs::write(&r_path, R_TEXT).expect("write r");
    std::fs::write(&s_path, S_TEXT).expect("write s");
    let snap_path = dir.join("pair.snap");
    {
        let mut session = Session::builder().build().expect("session");
        let r = session.load_bag(R_TEXT).expect("parse r");
        let s = session.load_bag(S_TEXT).expect("parse s");
        let stream = session.open_stream(vec![r, s]).expect("open");
        assert_eq!(stream.decision().as_str(), "consistent");
        let refs: Vec<&Bag> = stream.bags().iter().map(|b| b.as_ref()).collect();
        session
            .write_snapshot(&snap_path, &refs)
            .expect("write snapshot");
    }
    assert!(matches!(
        DatasetSource::detect(&r_path).expect("detect text"),
        DatasetSource::Text(_)
    ));
    assert!(matches!(
        DatasetSource::detect(&snap_path).expect("detect snapshot"),
        DatasetSource::Snapshot(_)
    ));

    const DELTAS: [&str; 3] = ["0 0 0 : 1", "0 0 0 : -1", "1 0 7 : 2"];
    for threads in [1usize, 2, 4] {
        // Reference trace: text files through the shared loading path.
        let mut text_session = Session::builder()
            .threads(threads)
            .build()
            .expect("session");
        let mut text_bags = text_session.load_path(&r_path).expect("load r");
        text_bags.extend(text_session.load_path(&s_path).expect("load s"));
        let mut text_stream = text_session.open_stream(text_bags).expect("open text");

        // Candidate trace: snapshot open.
        let mut snap_session = Session::builder()
            .threads(threads)
            .build()
            .expect("session");
        let snap_bags = snap_session.load_path(&snap_path).expect("load snapshot");
        let mut snap_stream = snap_session.open_stream(snap_bags).expect("open snap");

        let streams: [&mut bagcons::stream::ConsistencyStream; 2] =
            [&mut text_stream, &mut snap_stream];
        let mut traces: Vec<Vec<String>> = streams
            .iter()
            .map(|s| vec![s.decision().as_str().to_string()])
            .collect();
        for stream_and_trace in streams.into_iter().zip(traces.iter_mut()) {
            let (stream, trace) = stream_and_trace;
            for line in DELTAS {
                let (index, row, delta) = parse_delta_line(line, 0)
                    .expect("delta parses")
                    .expect("delta is not blank");
                let mut set = DeltaSet::new(stream.bags()[index].schema().clone());
                set.bump(row, delta).expect("bump");
                let out = stream.update(index, &set).expect("update");
                trace.push(format!(
                    "{}:{}",
                    out.decision.as_str(),
                    stream.decision().as_str()
                ));
            }
        }
        assert_eq!(traces[0], traces[1], "snapshot trace, threads={threads}");
        // The script is decision-bearing: the first delta flips the
        // fixture inconsistent, the revert flips it back.
        assert_eq!(traces[0][1].as_str(), "inconsistent:inconsistent");
        assert_eq!(traces[0][2].as_str(), "consistent:consistent");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot written with the retired per-pair FLOWS section (the
/// [`R_TEXT`]/[`S_TEXT`] pair plus its stream's flow column, saved by an
/// earlier release) still opens: the reader verifies the section's hash
/// and ignores it, yielding the same bags and names as a flow-free save
/// of the same pair.
#[test]
fn snapshot_with_retired_flows_section_opens_like_a_flow_free_save() {
    let legacy = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("pair_with_flows_v1.snap");
    let bytes = std::fs::read(&legacy).expect("read fixture");
    let info = bagcons_snap::verify(&bytes).expect("legacy file verifies");
    assert!(info.has_flows);
    assert_eq!(info.pair_count, 1);
    assert!(info.sections.iter().any(|s| s.name == "flows"));

    let dir = temp_dir();
    let fresh = dir.join("pair.snap");
    {
        let mut session = Session::builder().build().expect("session");
        let r = session.load_bag(R_TEXT).expect("parse r");
        let s = session.load_bag(S_TEXT).expect("parse s");
        session.write_snapshot(&fresh, &[&r, &s]).expect("write");
    }
    let fresh_info = bagcons_snap::verify(&std::fs::read(&fresh).expect("read")).expect("verify");
    assert!(!fresh_info.has_flows);
    assert_eq!(fresh_info.pair_count, 0);

    let mut legacy_session = Session::builder().build().expect("session");
    let legacy_bags = legacy_session.load_path(&legacy).expect("load legacy");
    let mut fresh_session = Session::builder().build().expect("session");
    let fresh_bags = fresh_session.load_path(&fresh).expect("load fresh");
    assert_eq!(legacy_bags, fresh_bags);
    for (a, b) in legacy_bags.iter().zip(&fresh_bags) {
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    }
    let names = |session: &Session, bags: &[Bag]| -> Vec<String> {
        bags.iter()
            .flat_map(|b| b.schema().attrs().to_vec())
            .map(|a| session.names().name(a))
            .collect()
    };
    assert_eq!(
        names(&legacy_session, &legacy_bags),
        names(&fresh_session, &fresh_bags)
    );
    assert_eq!(names(&legacy_session, &legacy_bags), ["A", "B", "B", "C"]);
    let stream = legacy_session.open_stream(legacy_bags).expect("open");
    assert_eq!(stream.decision().as_str(), "consistent");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Loading errors stay typed end to end: a missing file is an I/O
/// error, a non-snapshot file opened as a snapshot is a format error,
/// and an unsealed bag is refused at write time.
#[test]
fn typed_errors_on_the_loading_surface() {
    let dir = temp_dir();
    let missing = dir.join("nope.snap");
    assert!(matches!(Snapshot::open(&missing), Err(SnapError::Io(_))));

    let text_path = dir.join("r.bag");
    std::fs::write(&text_path, R_TEXT).expect("write text");
    assert!(
        Snapshot::open(&text_path).is_err(),
        "text is not a snapshot"
    );

    // Out-of-order inserts break the sorted-run invariant, leaving the
    // bag unsealed (a fresh bag stays sealed while inserts extend the
    // run in order).
    let mut unsealed = Bag::new(Schema::range(0, 2));
    unsealed
        .insert(vec![Value::new(5), Value::new(5)], 1)
        .expect("insert");
    unsealed
        .insert(vec![Value::new(1), Value::new(2)], 1)
        .expect("insert");
    assert!(!unsealed.is_sealed());
    let mut writer = SnapshotWriter::new();
    assert!(matches!(
        writer.add_bag(&unsealed),
        Err(SnapError::Unsealed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
