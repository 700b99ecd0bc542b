//! Property tests for snapshot/checkpoint parsing: arbitrary (hostile)
//! bytes must come back as typed [`SnapshotError`]s, never a panic — for
//! the low-level reader and for composite [`Codec`] decoders alike; a
//! written checkpoint round-trips exactly; and any single corrupted byte
//! or truncation of a valid file is detected.

use doram_sim::snapshot::{
    read_checkpoint, write_checkpoint, CheckpointData, Codec, SnapshotError, SnapshotErrorKind,
    SnapshotReader, SnapshotWriter,
};
use doram_sim::{MemCycle, RequestId, SimError};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch path per case (proptest shrinks re-enter the closure,
/// so a fixed name would race under `--test-threads` > 1).
fn scratch_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "doram-proptest-ckpt-{}-{n}.dorc",
        std::process::id()
    ))
}

/// Runs `f` against a file holding `bytes`, cleaning up afterwards.
fn with_file<T>(bytes: &[u8], f: impl FnOnce(&std::path::Path) -> T) -> T {
    let path = scratch_path();
    std::fs::write(&path, bytes).expect("scratch write");
    let out = f(&path);
    let _ = std::fs::remove_file(&path);
    out
}

/// Decodes `bytes` as `T`, discarding the outcome: the property is "a
/// value or a typed error, never a panic".
fn decode<T: Codec>(bytes: &[u8]) {
    let _ = T::get(&mut SnapshotReader::new(bytes));
}

/// Runs every composite decoder under test over `bytes`.
fn decode_all(bytes: &[u8]) {
    decode::<HashMap<u64, (RequestId, u32)>>(bytes);
    decode::<Option<SimError>>(bytes);
    decode::<Vec<(u64, Vec<u8>)>>(bytes);
    decode::<VecDeque<(MemCycle, RequestId)>>(bytes);
    decode::<BTreeMap<u64, usize>>(bytes);
    decode::<HashSet<RequestId>>(bytes);
    decode::<BTreeSet<u64>>(bytes);
    decode::<(bool, [u64; 4], String)>(bytes);
}

fn id_map(entries: &[(u64, u64, u32)]) -> HashMap<u64, (RequestId, u32)> {
    entries
        .iter()
        .map(|&(k, id, n)| (k, (RequestId(id), n)))
        .collect()
}

fn encode<T: Codec>(v: &T) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    v.put(&mut w);
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes never panic a composite decoder.
    #[test]
    fn arbitrary_bytes_never_panic_composite_decoders(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        decode_all(&bytes);
    }

    /// A valid encoding with one corrupted byte, then cut short: decoders
    /// get deep into the layout before they meet the damage.
    #[test]
    fn damaged_encodings_never_panic_composite_decoders(
        entries in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u32>()), 0..16),
        victim in any::<u64>(),
        flip in 1u8..255,
        keep in any::<u64>(),
    ) {
        let mut bytes = encode(&id_map(&entries));
        bytes.extend(encode(&Some(SimError::fault("link", "gave up"))));
        let i = (victim % bytes.len() as u64) as usize;
        bytes[i] ^= flip;
        decode_all(&bytes);
        decode_all(&bytes[..(keep % (bytes.len() as u64 + 1)) as usize]);
    }

    /// A hash map's encoding depends on its contents, not on insertion
    /// order, and decodes back to the same map.
    #[test]
    fn hash_map_encoding_ignores_insertion_order(
        entries in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u32>()), 0..64),
    ) {
        let forward = id_map(&entries);
        let mut keys: Vec<u64> = forward.keys().copied().collect();
        keys.sort_unstable_by(|a, b| b.cmp(a));
        let mut reversed = HashMap::new();
        for k in keys {
            reversed.insert(k, forward[&k]);
        }
        let bytes = encode(&forward);
        prop_assert_eq!(&bytes, &encode(&reversed));
        let back: HashMap<u64, (RequestId, u32)> =
            Codec::get(&mut SnapshotReader::new(&bytes)).expect("round trip");
        prop_assert_eq!(back, forward);
    }

    /// Arbitrary bytes never panic the checkpoint reader — every outcome
    /// is a typed error (random bytes cannot satisfy the checksum).
    #[test]
    fn arbitrary_bytes_never_panic_read_checkpoint(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let res: Result<CheckpointData, SnapshotError> =
            with_file(&bytes, read_checkpoint);
        prop_assert!(res.is_err(), "random bytes must not parse");
    }

    /// Arbitrary bytes never panic the low-level reader, whatever order
    /// its accessors are called in.
    #[test]
    fn arbitrary_bytes_never_panic_snapshot_reader(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        ops in prop::collection::vec(0u8..6, 0..32),
    ) {
        let mut r = SnapshotReader::new(&bytes);
        for op in ops {
            // Ignore results — the property is "no panic, ever".
            match op {
                0 => { let _ = r.get_u8(); }
                1 => { let _ = r.get_u32(); }
                2 => { let _ = r.get_u64(); }
                3 => { let _ = r.get_bool(); }
                4 => { let _ = r.get_bytes(); }
                _ => { let _ = r.get_str(); }
            }
        }
        prop_assert!(r.remaining() <= bytes.len());
    }

    /// A written checkpoint reads back field-for-field identical.
    #[test]
    fn checkpoint_round_trips(
        config_hash in any::<u64>(),
        epoch in any::<u64>(),
        cycle in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let data = CheckpointData::unkeyed(config_hash, epoch, cycle, payload);
        let back = with_file(&[], |path| {
            write_checkpoint(path, &data).expect("write");
            read_checkpoint(path)
        });
        prop_assert_eq!(back.expect("round trip"), data);
    }

    /// Flipping any single byte of a valid checkpoint is detected (the
    /// trailing FNV checksum covers the whole file, itself included).
    #[test]
    fn any_corrupted_byte_is_detected(
        cycle in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..128),
        victim in any::<u64>(),
        flip in 0u8..255,
    ) {
        let flip = flip + 1; // 1..=255: always changes the victim byte
        let data = CheckpointData::unkeyed(7, 1, cycle, payload);
        let res = with_file(&[], |path| {
            write_checkpoint(path, &data).expect("write");
            let mut bytes = std::fs::read(path).expect("read back");
            let i = (victim % bytes.len() as u64) as usize;
            bytes[i] ^= flip;
            std::fs::write(path, &bytes).expect("rewrite");
            read_checkpoint(path)
        });
        prop_assert!(res.is_err(), "corruption at one byte must not parse");
    }

    /// Every strict prefix of a valid checkpoint is rejected with a typed
    /// error — truncated files never produce a (partial) parse.
    #[test]
    fn any_truncation_is_detected(
        payload in prop::collection::vec(any::<u8>(), 0..128),
        keep in any::<u64>(),
    ) {
        let data = CheckpointData::unkeyed(7, 1, 42, payload);
        let res = with_file(&[], |path| {
            write_checkpoint(path, &data).expect("write");
            let bytes = std::fs::read(path).expect("read back");
            let n = (keep % bytes.len() as u64) as usize; // always a strict prefix
            std::fs::write(path, &bytes[..n]).expect("rewrite");
            read_checkpoint(path)
        });
        let err = res.expect_err("strict prefix must not parse");
        prop_assert!(
            matches!(
                err.kind(),
                SnapshotErrorKind::Truncated | SnapshotErrorKind::BadChecksum
            ),
            "unexpected kind {:?}",
            err.kind()
        );
    }
}
