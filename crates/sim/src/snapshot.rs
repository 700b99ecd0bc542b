//! Checkpoint/restore substrate: the [`Snapshot`] and [`Codec`] traits,
//! a compact binary encoding, and the crash-consistent checkpoint file
//! format.
//!
//! Every stateful component of the simulation implements [`Snapshot`]:
//! `save_state` appends the component's *dynamic* state (queues, RNG
//! streams, timing horizons, accumulated metrics) to a [`SnapshotWriter`];
//! `load_state` overwrites that state in-place from a [`SnapshotReader`].
//! Configuration-derived structure (capacities, timings, wiring) is *not*
//! serialized — a restore target is always freshly built from the same
//! configuration first, so only the dynamic fields need to travel.
//!
//! Plain values — counters, requests, queued messages, maps — implement
//! [`Codec`] instead, and every encoding rule lives in this module once:
//! little-endian integers, `usize` as `u64`, a presence byte before an
//! `Option`, a `u64` count before a `Vec`/`VecDeque`/map/set, hash maps
//! and sets written sorted by key so the payload never depends on hash
//! order. Components declare their ordered field list with
//! [`impl_snapshot!`](crate::impl_snapshot) and value types with
//! [`impl_codec!`](crate::impl_codec); neither writes its layout twice.
//!
//! The file format is versioned and checksummed (FNV-1a 64): a truncated,
//! corrupted, or incompatible checkpoint is rejected with a typed
//! [`SnapshotError`] instead of yielding a silently wrong resume. All
//! files are written crash-consistently (temp file + fsync + atomic
//! rename) via [`write_atomic`], which report writers share.
//!
//! # Examples
//!
//! ```
//! use doram_sim::snapshot::{Codec, SnapshotReader, SnapshotWriter};
//! use doram_sim::rng::Xoshiro256;
//!
//! let mut rng = Xoshiro256::seed_from(7);
//! rng.next_u64();
//! let mut w = SnapshotWriter::new();
//! rng.put(&mut w);
//! let bytes = w.into_bytes();
//!
//! let mut restored = Xoshiro256::get(&mut SnapshotReader::new(&bytes)).unwrap();
//! assert_eq!(restored.next_u64(), rng.next_u64());
//! ```

use crate::clock::MemCycle;
use crate::id::{AppId, RequestId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::io::Write;
use std::path::Path;

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"DORAMCKP";

/// Checkpoint format version. Bumped on any incompatible layout change;
/// older files are rejected, never misread.
///
/// Version 4 added the run-epoch counter and the 16-byte authentication
/// field to the header, and extended several component payloads with
/// adversarial-fault state.
///
/// Version 5 extended the payloads with the interference observatory:
/// per-class blame tags and enqueue-time busy snapshots on queued
/// DRAM/link entries, and the recorder's blame matrix, latency
/// histograms, and in-flight access ledger — so a resumed traced run
/// continues its telemetry exactly.
///
/// Version 6 dropped each link direction's backoff-jitter stream, wrote
/// the link serializer's class with `Option`'s codec, left the SD's
/// read-merging buffers (empty between ticks) out of the payload, and
/// renamed D-ORAM's normal channels in checkpointed blame rows to their
/// paper numbers (`ch1`–`ch3`).
///
/// Version 7 dropped the SD verifier's CMAC tag section and its leaf
/// counter, and writes its freshness leaves as a set of bucket addresses:
/// the verifier models its checks by verdict and cost, so no behaviour
/// read the tags or the leaf numbers.
///
/// Version 8 dropped each DRAM sub-channel's share-arbiter tallies and
/// read/write latency means, which no run read, and keeps the SD
/// verifier's bucket versions and owners only when a read can be checked.
///
/// Version 9 dropped the state no report read: each core's statistics
/// but its retired count, the per-app NS read-latency means, each link's
/// delayed-frame count, and the secure-memory engine's count of expanded
/// accesses.
///
/// Version 10 (this build) stores each core's non-memory instructions as
/// runs, one ROB entry per stretch. Older files are rejected with
/// [`SnapshotErrorKind::BadVersion`] — re-run from the start rather than
/// resuming across the format change.
///
/// Changing any encoded field — adding, removing, reordering or retyping
/// one in an [`impl_snapshot!`](crate::impl_snapshot) or
/// [`impl_codec!`](crate::impl_codec) list, or a hand-written layout —
/// changes the payload: bump this version and re-bless the golden
/// checkpoint table (`tests/golden_checkpoints.rs`).
pub const CHECKPOINT_VERSION: u32 = 10;

/// Width of the checkpoint authentication tag (a CMAC computed by the
/// layer that owns the key; all-zero when the run is unkeyed).
pub const CHECKPOINT_AUTH_BYTES: usize = 16;

/// What went wrong with a snapshot, machine-readably.
///
/// `--resume` surfaces these as distinct failures so an operator can tell
/// a half-written file ([`Truncated`](Self::Truncated)) from tampering
/// ([`BadChecksum`](Self::BadChecksum)/[`BadMac`](Self::BadMac)) from a
/// rollback attack ([`RolledBack`](Self::RolledBack)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotErrorKind {
    /// The data ended before the decoder was done.
    Truncated,
    /// The bytes decode but violate the layout (bad tag, trailing data…).
    Malformed,
    /// The file does not open with the checkpoint magic.
    BadMagic,
    /// The file's format version is not the one this build reads.
    BadVersion,
    /// The trailing FNV checksum does not match (accidental corruption).
    BadChecksum,
    /// The keyed authentication tag does not match (active tampering).
    BadMac,
    /// The checkpoint's run epoch is older than the newest one recorded —
    /// an attacker (or operator error) is re-supplying a stale checkpoint.
    RolledBack,
    /// The file could not be read at all.
    Io,
}

impl SnapshotErrorKind {
    /// Stable lowercase label used in error messages and logs.
    pub fn label(self) -> &'static str {
        match self {
            SnapshotErrorKind::Truncated => "truncated",
            SnapshotErrorKind::Malformed => "malformed",
            SnapshotErrorKind::BadMagic => "bad_magic",
            SnapshotErrorKind::BadVersion => "bad_version",
            SnapshotErrorKind::BadChecksum => "bad_checksum",
            SnapshotErrorKind::BadMac => "bad_mac",
            SnapshotErrorKind::RolledBack => "rolled_back",
            SnapshotErrorKind::Io => "io",
        }
    }
}

/// A malformed, truncated, tampered, or incompatible snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    kind: SnapshotErrorKind,
    message: String,
}

impl SnapshotError {
    /// Creates a generic layout error ([`SnapshotErrorKind::Malformed`]).
    pub fn new(message: impl Into<String>) -> SnapshotError {
        SnapshotError::of_kind(SnapshotErrorKind::Malformed, message)
    }

    /// Creates an error of a specific kind.
    pub fn of_kind(kind: SnapshotErrorKind, message: impl Into<String>) -> SnapshotError {
        SnapshotError {
            kind,
            message: message.into(),
        }
    }

    /// The machine-readable failure class.
    pub fn kind(&self) -> SnapshotErrorKind {
        self.kind
    }

    /// The description without the prefix `Display` adds.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid snapshot: {}", self.message)
    }
}

impl std::error::Error for SnapshotError {}

/// A component whose dynamic state can be captured and restored in-place.
///
/// Implement it with [`impl_snapshot!`](crate::impl_snapshot) from the
/// component's ordered field list. The macro destructures the whole
/// struct (no `..` rest pattern), so adding a field without listing it —
/// as encoded state or as skipped configuration — is a compile error
/// rather than a silent resume divergence. Hand-written implementations
/// must destructure the same way.
pub trait Snapshot {
    /// Appends this component's dynamic state to `w`.
    fn save_state(&self, w: &mut SnapshotWriter);

    /// Overwrites this component's dynamic state from `r`.
    ///
    /// `self` must have been freshly constructed from the same
    /// configuration the snapshot was taken under.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation or layout mismatch.
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;
}

/// A value with one binary encoding: [`put`](Codec::put) appends it,
/// [`get`](Codec::get) decodes a fresh one.
///
/// Decoders never trust a length prefix for allocation: collections grow
/// one decoded element at a time, so a hostile count fails with
/// [`SnapshotErrorKind::Truncated`] once the input runs out.
pub trait Codec: Sized {
    /// Appends the encoding of `self`.
    fn put(&self, w: &mut SnapshotWriter);

    /// Decodes one value.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation or a malformed encoding.
    fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

macro_rules! codec_via {
    ($($ty:ty => $put:ident, $get:ident;)*) => {$(
        impl Codec for $ty {
            fn put(&self, w: &mut SnapshotWriter) {
                w.$put(*self);
            }

            fn get(r: &mut SnapshotReader<'_>) -> Result<$ty, SnapshotError> {
                r.$get()
            }
        }
    )*};
}

codec_via! {
    u8 => put_u8, get_u8;
    u32 => put_u32, get_u32;
    u64 => put_u64, get_u64;
    usize => put_usize, get_usize;
    bool => put_bool, get_bool;
    f64 => put_f64, get_f64;
}

impl Codec for String {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put_str(self);
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<String, SnapshotError> {
        r.get_str()
    }
}

crate::impl_codec!(struct MemCycle(cycle));
crate::impl_codec!(struct RequestId(id));
crate::impl_codec!(struct AppId(app));

impl<T: Codec> Codec for Option<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<Option<T>, SnapshotError> {
        Ok(if r.get_bool()? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

/// Appends a `u64` count, then each item.
fn put_seq<'a, T: Codec + 'a>(
    w: &mut SnapshotWriter,
    len: usize,
    items: impl Iterator<Item = &'a T>,
) {
    w.put_usize(len);
    items.for_each(|v| v.put(w));
}

/// Decodes a count-prefixed sequence into any collection, one element at
/// a time (never preallocating from the untrusted count).
fn get_seq<T: Codec, C: Default + Extend<T>>(
    r: &mut SnapshotReader<'_>,
) -> Result<C, SnapshotError> {
    let mut out = C::default();
    for _ in 0..r.get_usize()? {
        out.extend(Some(T::get(r)?));
    }
    Ok(out)
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        put_seq(w, self.len(), self.iter());
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<Vec<T>, SnapshotError> {
        get_seq(r)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        put_seq(w, self.len(), self.iter());
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<VecDeque<T>, SnapshotError> {
        get_seq(r)
    }
}

impl<T: Codec + Ord> Codec for BTreeSet<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        put_seq(w, self.len(), self.iter());
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<BTreeSet<T>, SnapshotError> {
        get_seq(r)
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<BTreeMap<K, V>, SnapshotError> {
        get_seq::<(K, V), _>(r)
    }
}

/// Written sorted, so the payload depends neither on hash order nor on
/// the hasher.
impl<T: Codec + Ord + Hash, S: BuildHasher + Default> Codec for HashSet<T, S> {
    fn put(&self, w: &mut SnapshotWriter) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_unstable();
        put_seq(w, items.len(), items.into_iter());
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<HashSet<T, S>, SnapshotError> {
        get_seq(r)
    }
}

/// Written sorted by key, so the payload depends neither on hash order
/// nor on the hasher.
impl<K: Codec + Ord + Hash, V: Codec, S: BuildHasher + Default> Codec for HashMap<K, V, S> {
    fn put(&self, w: &mut SnapshotWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.put_usize(entries.len());
        for (k, v) in entries {
            k.put(w);
            v.put(w);
        }
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<HashMap<K, V, S>, SnapshotError> {
        get_seq::<(K, V), _>(r)
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn put(&self, w: &mut SnapshotWriter) {
        self.iter().for_each(|v| v.put(w));
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<[T; N], SnapshotError> {
        let items = (0..N).map(|_| T::get(r)).collect::<Result<Vec<T>, _>>()?;
        Ok(items
            .try_into()
            .unwrap_or_else(|_| unreachable!("exactly N items decoded")))
    }
}

macro_rules! codec_tuple {
    ($($name:ident)+) => {
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            #[allow(non_snake_case)]
            fn put(&self, w: &mut SnapshotWriter) {
                let ($($name,)+) = self;
                $($name.put(w);)+
            }

            fn get(r: &mut SnapshotReader<'_>) -> Result<($($name,)+), SnapshotError> {
                Ok(($($name::get(r)?,)+))
            }
        }
    };
}

codec_tuple!(A B);
codec_tuple!(A B C);

/// A fixed-shape collection of components: the count is written and must
/// match the configured shape on load, then each element restores in
/// place.
impl<T: Snapshot> Snapshot for Vec<T> {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        self.iter().for_each(|v| v.save_state(w));
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_usize()?;
        if n != self.len() {
            return Err(SnapshotError::new(format!(
                "count mismatch: snapshot has {n} {}, configuration builds {}",
                std::any::type_name::<T>(),
                self.len()
            )));
        }
        self.iter_mut().try_for_each(|v| v.load_state(r))
    }
}

/// A fixed-size array of components: elements restore in place, in order.
impl<T: Snapshot, const N: usize> Snapshot for [T; N] {
    fn save_state(&self, w: &mut SnapshotWriter) {
        self.iter().for_each(|v| v.save_state(w));
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.iter_mut().try_for_each(|v| v.load_state(r))
    }
}

/// A component whose presence is configuration: a presence byte is
/// written and must match the restore target's.
impl<T: Snapshot> Snapshot for Option<T> {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.save_state(w);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let present = r.get_bool()?;
        match self {
            Some(v) if present => v.load_state(r),
            None if !present => Ok(()),
            _ => Err(SnapshotError::new(format!(
                "presence mismatch: snapshot {} {}, configuration {}",
                if present { "has" } else { "lacks" },
                std::any::type_name::<T>(),
                if present { "builds none" } else { "builds one" },
            ))),
        }
    }
}

/// Implements [`Snapshot`] for a component from its ordered field list.
///
/// ```text
/// impl_snapshot! {
///     Type<M> { plain, nested: state, custom: via(save_fn, load_fn) }
///     skip { config_field, host_only_field }
///     after_load Type::check
/// }
/// ```
///
/// * A bare field is a [`Codec`] value: written with `put`, replaced by
///   `get` on load (resizable queues, maps and sets are refilled).
/// * `field: state` is a nested [`Snapshot`] component built from the
///   configuration: it restores in place (fixed-shape collections reject
///   a count mismatch).
/// * `field: via(save, load)` names a hand-written layout:
///   `save(&field, w)` and `load(&mut field, r) -> Result<(), _>`.
/// * `skip` lists configuration and host-only fields; every field of the
///   struct must appear in exactly one of the two lists, because the
///   generated code destructures it without `..`.
/// * `after_load` names an optional `fn(&mut Self) -> Result<(),
///   SnapshotError>` run once all fields are restored (rebuilds and
///   cross-field validation).
/// * Generic parameters are bounded by [`Codec`].
///
/// Fields are encoded in list order, which is independent of declaration
/// order.
#[macro_export]
macro_rules! impl_snapshot {
    (@save $w:ident $f:ident) => { $crate::snapshot::Codec::put($f, $w) };
    (@save $w:ident $f:ident state) => { $crate::snapshot::Snapshot::save_state($f, $w) };
    (@save $w:ident $f:ident via ($save:path, $load:path)) => { $save($f, $w) };
    (@load $r:ident $f:ident) => { *$f = $crate::snapshot::Codec::get($r)? };
    (@load $r:ident $f:ident state) => { $crate::snapshot::Snapshot::load_state($f, $r)? };
    (@load $r:ident $f:ident via ($save:path, $load:path)) => { $load($f, $r)? };
    (
        $ty:ident $(<$($p:ident),+>)? {
            $($field:ident $(: $mode:ident $(($($arg:tt)*))?)?),* $(,)?
        }
        $(skip { $($skip:ident),* $(,)? })?
        $(after_load $hook:path)?
    ) => {
        impl$(<$($p: $crate::snapshot::Codec),+>)? $crate::snapshot::Snapshot
            for $ty$(<$($p),+>)?
        {
            fn save_state(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                let $ty { $($field,)* $($($skip: _,)*)? } = self;
                $($crate::impl_snapshot!(@save w $field $($mode $(($($arg)*))?)?);)*
            }

            fn load_state(
                &mut self,
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<(), $crate::snapshot::SnapshotError> {
                {
                    let $ty { $($field,)* $($($skip: _,)*)? } = &mut *self;
                    $($crate::impl_snapshot!(@load r $field $($mode $(($($arg)*))?)?);)*
                }
                $($hook(self)?;)?
                Ok(())
            }
        }
    };
}

/// Implements [`Codec`] for a value type from its ordered field list.
///
/// ```text
/// impl_codec!(struct Request { id, addr, arrival });   // named fields
/// impl_codec!(struct Cycle(raw));                     // tuple struct
/// impl_codec!(enum Msg { Idle = 0, Req(r) = 1, Job { id, op } = 2 });
/// impl_codec!(tagged Kind);   // `*self as u8` out, `Kind::from_tag` in
/// ```
///
/// Structs encode their fields in list order; enums write the variant's
/// `u8` tag, then its fields. Generic parameters are bounded by
/// [`Codec`].
#[macro_export]
macro_rules! impl_codec {
    (@get $r:ident $_f:ident) => { $crate::snapshot::Codec::get($r)? };
    (struct $ty:ident $(<$($p:ident),+>)? { $($field:ident),* $(,)? }) => {
        impl$(<$($p: $crate::snapshot::Codec),+>)? $crate::snapshot::Codec for $ty$(<$($p),+>)? {
            fn put(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                let $ty { $($field),* } = self;
                $($crate::snapshot::Codec::put($field, w);)*
            }

            fn get(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok($ty { $($field: $crate::snapshot::Codec::get(r)?),* })
            }
        }
    };
    (struct $ty:ident($($field:ident),+)) => {
        impl $crate::snapshot::Codec for $ty {
            fn put(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                let $ty($($field),+) = self;
                $($crate::snapshot::Codec::put($field, w);)+
            }

            fn get(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok($ty($($crate::impl_codec!(@get r $field)),+))
            }
        }
    };
    (enum $ty:ident {
        $($var:ident $(($($tf:ident),+))? $({ $($sf:ident),+ })? = $tag:literal),+ $(,)?
    }) => {
        impl $crate::snapshot::Codec for $ty {
            fn put(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                match self {
                    $($ty::$var $(($($tf),+))? $({ $($sf),+ })? => {
                        w.put_u8($tag);
                        $($($crate::snapshot::Codec::put($tf, w);)+)?
                        $($($crate::snapshot::Codec::put($sf, w);)+)?
                    })+
                }
            }

            fn get(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok(match r.get_u8()? {
                    $($tag => $ty::$var
                        $(($($crate::impl_codec!(@get r $tf)),+))?
                        $({ $($sf: $crate::snapshot::Codec::get(r)?),+ })?,)+
                    tag => {
                        return Err($crate::snapshot::SnapshotError::new(format!(
                            concat!("unknown ", stringify!($ty), " tag {}"),
                            tag
                        )))
                    }
                })
            }
        }
    };
    (tagged $ty:ident) => {
        impl $crate::snapshot::Codec for $ty {
            fn put(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                w.put_u8(*self as u8);
            }

            fn get(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                let tag = r.get_u8()?;
                $ty::from_tag(tag).ok_or_else(|| {
                    $crate::snapshot::SnapshotError::new(format!(
                        concat!("unknown ", stringify!($ty), " tag {}"),
                        tag
                    ))
                })
            }
        }
    };
}

/// Append-only binary encoder for snapshots (little-endian, no padding).
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> SnapshotWriter {
        SnapshotWriter { buf: Vec::new() }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` (encoded as `u64`).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a `bool` (one byte).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends an `f64` via its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over snapshot bytes; every read is bounds-checked.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> SnapshotReader<'a> {
        SnapshotReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        // Checked arithmetic: a hostile length prefix near usize::MAX must
        // come back as a typed error, not an overflow panic.
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(SnapshotError::of_kind(
                SnapshotErrorKind::Truncated,
                format!(
                    "truncated: needed {n} bytes at offset {}, only {} remain",
                    self.pos,
                    self.buf.len() - self.pos
                ),
            ));
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        let b: [u8; 4] = b
            .try_into()
            .map_err(|_| SnapshotError::of_kind(SnapshotErrorKind::Truncated, "short u32"))?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        let b: [u8; 8] = b
            .try_into()
            .map_err(|_| SnapshotError::of_kind(SnapshotErrorKind::Truncated, "short u64"))?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `usize` (stored as `u64`).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation or overflow.
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::new(format!("usize overflow: {v}")))
    }

    /// Reads a `bool`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation or a non-0/1 byte.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::new(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.get_usize()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        String::from_utf8(self.get_bytes()?)
            .map_err(|_| SnapshotError::new("invalid UTF-8 in snapshot string"))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the reader consumed everything.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] if trailing bytes remain.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::new(format!(
                "{} trailing bytes after snapshot payload",
                self.remaining()
            )))
        }
    }
}

/// FNV-1a 64-bit hash, used as the checkpoint checksum and for hashing
/// the configuration a snapshot was taken under.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes `bytes` to `path` crash-consistently: the data lands in a temp
/// file in the same directory, is fsynced, and is atomically renamed over
/// `path`. A crash at any point leaves either the old file or the new one
/// — never a truncated hybrid.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    write_atomic_inner(path, bytes, false)
}

/// Test hook behind [`write_atomic`]: with `abort_before_rename` the
/// function stops after writing the temp file, simulating a crash in the
/// window where a naive writer would have left `path` truncated.
#[doc(hidden)]
pub fn write_atomic_inner(
    path: &Path,
    bytes: &[u8],
    abort_before_rename: bool,
) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if abort_before_rename {
        return Ok(());
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable (best-effort: some filesystems
    // reject opening a directory for sync).
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

/// The parsed header + payload of a checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointData {
    /// FNV-1a hash of the configuration the snapshot was taken under.
    pub config_hash: u64,
    /// Monotonic run-epoch counter: bumped every time a checkpointing run
    /// starts, so a resume can detect being handed a checkpoint from an
    /// *earlier* run (a rollback attack) even when the file itself is
    /// authentic.
    pub epoch: u64,
    /// Memory cycle the simulation had completed up to.
    pub cycle: u64,
    /// Keyed authentication tag over [`checkpoint_auth_message`]. The key
    /// lives above this crate (the simulation layer owns `--ckpt-key`);
    /// all-zero marks an unkeyed checkpoint protected only by the FNV
    /// checksum.
    pub auth: [u8; CHECKPOINT_AUTH_BYTES],
    /// Component state, to feed through [`Snapshot::load_state`].
    pub payload: Vec<u8>,
}

impl CheckpointData {
    /// An unkeyed checkpoint (auth field zeroed).
    pub fn unkeyed(config_hash: u64, epoch: u64, cycle: u64, payload: Vec<u8>) -> CheckpointData {
        CheckpointData {
            config_hash,
            epoch,
            cycle,
            auth: [0; CHECKPOINT_AUTH_BYTES],
            payload,
        }
    }

    /// Whether the auth field carries a (nonzero) tag.
    pub fn is_authenticated(&self) -> bool {
        self.auth != [0; CHECKPOINT_AUTH_BYTES]
    }
}

/// The exact byte string a keyed checkpoint MAC must cover: every header
/// field *except* the tag itself, then the payload. Both the writer (to
/// tag) and the reader (to verify) derive it from the same
/// [`CheckpointData`], so the tag binds the version, configuration, epoch,
/// cycle and state together — truncating, splicing, or rolling any of them
/// back breaks it.
pub fn checkpoint_auth_message(data: &CheckpointData) -> Vec<u8> {
    let mut msg = Vec::with_capacity(44 + data.payload.len());
    msg.extend_from_slice(&CHECKPOINT_MAGIC);
    msg.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    msg.extend_from_slice(&data.config_hash.to_le_bytes());
    msg.extend_from_slice(&data.epoch.to_le_bytes());
    msg.extend_from_slice(&data.cycle.to_le_bytes());
    msg.extend_from_slice(&(data.payload.len() as u64).to_le_bytes());
    msg.extend_from_slice(&data.payload);
    msg
}

/// Minimum size of a well-formed checkpoint file: header + auth + checksum.
const CHECKPOINT_MIN_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8 + CHECKPOINT_AUTH_BYTES + 8;

/// Writes a checkpoint file: magic, version, config hash, run epoch,
/// cycle, payload, the authentication tag and a trailing FNV-1a checksum
/// over everything before it — via [`write_atomic`].
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_checkpoint(path: &Path, data: &CheckpointData) -> std::io::Result<()> {
    let mut out = checkpoint_auth_message(data);
    out.extend_from_slice(&data.auth);
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    write_atomic(path, &out)
}

/// Reads and validates a checkpoint file written by [`write_checkpoint`].
///
/// Validates framing, version and the FNV checksum; verifying the keyed
/// `auth` tag (and the epoch against the recorded maximum) is the caller's
/// job, since only the simulation layer holds the key.
///
/// # Errors
///
/// Returns [`SnapshotError`] — with a discriminating
/// [`kind`](SnapshotError::kind) — on I/O failure, bad magic, unsupported
/// version, length mismatch, or checksum mismatch.
pub fn read_checkpoint(path: &Path) -> Result<CheckpointData, SnapshotError> {
    let bytes = std::fs::read(path).map_err(|e| {
        SnapshotError::of_kind(
            SnapshotErrorKind::Io,
            format!("cannot read {}: {e}", path.display()),
        )
    })?;
    if bytes.len() < CHECKPOINT_MIN_LEN {
        return Err(SnapshotError::of_kind(
            SnapshotErrorKind::Truncated,
            "file shorter than checkpoint header",
        ));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut stored = [0u8; 8];
    stored.copy_from_slice(tail);
    if fnv1a64(body) != u64::from_le_bytes(stored) {
        return Err(SnapshotError::of_kind(
            SnapshotErrorKind::BadChecksum,
            "checksum mismatch (corrupt checkpoint)",
        ));
    }
    let mut r = SnapshotReader::new(body);
    let magic = r.take(8)?;
    if magic != CHECKPOINT_MAGIC {
        return Err(SnapshotError::of_kind(
            SnapshotErrorKind::BadMagic,
            "bad magic (not a checkpoint file)",
        ));
    }
    let version = r.get_u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(SnapshotError::of_kind(
            SnapshotErrorKind::BadVersion,
            format!(
                "unsupported checkpoint version {version} (this build reads {CHECKPOINT_VERSION})"
            ),
        ));
    }
    let config_hash = r.get_u64()?;
    let epoch = r.get_u64()?;
    let cycle = r.get_u64()?;
    let payload_len = r.get_usize()?;
    let payload = r.take(payload_len)?.to_vec();
    let mut auth = [0u8; CHECKPOINT_AUTH_BYTES];
    auth.copy_from_slice(r.take(CHECKPOINT_AUTH_BYTES)?);
    r.finish()?;
    Ok(CheckpointData {
        config_hash,
        epoch,
        cycle,
        auth,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("doram-snap-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_usize(12);
        w.put_bool(true);
        w.put_f64(-1.5e300);
        w.put_bytes(b"abc");
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_usize().unwrap(), 12);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_f64().unwrap(), -1.5e300);
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = SnapshotWriter::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes[..4]);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = SnapshotWriter::new();
        w.put_u64(1);
        w.put_u64(2);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        r.get_u64().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn bad_bool_byte_is_rejected() {
        let mut r = SnapshotReader::new(&[9]);
        assert!(r.get_bool().is_err());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// Encodes `v`, decodes it back, and checks nothing is left over.
    fn round_trip<T: Codec + PartialEq + fmt::Debug>(v: &T) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        v.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(&T::get(&mut r).unwrap(), v);
        r.finish().unwrap();
        bytes
    }

    #[test]
    fn sim_error_codec_round_trips_every_variant() {
        let cases = vec![
            SimError::config("bad k"),
            SimError::fault("link", "gave up"),
            SimError::integrity(0xabc, "tag mismatch"),
            SimError::link_timeout(4, "72B frame"),
            SimError::protocol("invariant"),
            SimError::stash_overflow(130, 128),
        ];
        for e in cases {
            round_trip(&e);
        }
        round_trip(&None::<SimError>);
        round_trip(&Some(SimError::protocol("x")));
        let mut r = SnapshotReader::new(&[9]);
        let err = SimError::get(&mut r).unwrap_err();
        assert!(err.message().contains("SimError tag 9"), "{err}");
    }

    #[test]
    fn generic_codecs_round_trip() {
        round_trip(&7u8);
        round_trip(&u32::MAX);
        round_trip(&(u64::MAX - 1));
        round_trip(&usize::MAX);
        round_trip(&true);
        round_trip(&-0.5f64);
        round_trip(&String::from("héllo"));
        round_trip(&MemCycle(9));
        round_trip(&RequestId(10));
        round_trip(&AppId(3));
        round_trip(&Some(5u64));
        round_trip(&vec![1u64, 2, 3]);
        round_trip(&VecDeque::from(vec![(1u64, true), (2, false)]));
        round_trip(&[4u64, 5, 6, 7]);
        round_trip(&(1u8, 2u32, 3u64));
        round_trip(&HashMap::from([
            (3u64, (RequestId(1), 2u32)),
            (1, (RequestId(4), 5)),
        ]));
        round_trip(&HashSet::from([RequestId(8), RequestId(2)]));
        round_trip(&BTreeMap::from([(2u64, 1usize), (1, 0)]));
        round_trip(&BTreeSet::from([5u64, 1]));
        // Layout spot checks: usize and bool widths, presence byte, count prefix.
        assert_eq!(round_trip(&1usize).len(), 8);
        assert_eq!(round_trip(&None::<u64>), vec![0]);
        assert_eq!(round_trip(&vec![7u8]), vec![1, 0, 0, 0, 0, 0, 0, 0, 7]);
        assert_eq!(round_trip(&[1u8, 2]), vec![1, 2], "arrays carry no count");
    }

    #[test]
    fn hash_collections_encode_independently_of_insertion_order() {
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for k in 0..200u64 {
            a.insert(k, k * 3);
            b.insert(199 - k, (199 - k) * 3);
        }
        let sorted: BTreeMap<u64, u64> = a.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(round_trip(&a), round_trip(&b));
        assert_eq!(round_trip(&a), round_trip(&sorted), "written sorted by key");
        let x: HashSet<u64> = (0..100).collect();
        let y: HashSet<u64> = (0..100).rev().collect();
        assert_eq!(round_trip(&x), round_trip(&y));
    }

    #[test]
    fn id_collections_encode_like_std_ones() {
        use crate::id::{IdMap, IdSet};
        fn decode<T: Codec>(bytes: &[u8]) -> T {
            let mut r = SnapshotReader::new(bytes);
            let v = T::get(&mut r).unwrap();
            r.finish().unwrap();
            v
        }
        let entries = (0..300u64).map(|k| (RequestId(k * 64), (k, k % 3 == 0)));
        let std_map: HashMap<RequestId, (u64, bool)> = entries.clone().collect();
        let id_map: IdMap<RequestId, (u64, bool)> = entries.collect();
        let bytes = round_trip(&std_map);
        assert_eq!(round_trip(&id_map), bytes, "same entries, same payload");
        assert_eq!(decode::<IdMap<_, _>>(&bytes), id_map);
        let back: HashMap<RequestId, (u64, bool)> = decode(&round_trip(&id_map));
        assert_eq!(back, std_map);

        let std_set: HashSet<u64> = (0..300).map(|k| k << 12).collect();
        let id_set: IdSet<u64> = std_set.iter().copied().collect();
        let bytes = round_trip(&std_set);
        assert_eq!(round_trip(&id_set), bytes, "same items, same payload");
        assert_eq!(decode::<IdSet<u64>>(&bytes), id_set);
        let back: HashSet<u64> = decode(&round_trip(&id_set));
        assert_eq!(back, std_set);
    }

    #[test]
    fn huge_count_prefix_is_truncated_without_allocating() {
        // A count of u64::MAX over a 16-byte input: each decoder must stop
        // at the first missing element instead of reserving room for it.
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX);
        w.put_u64(1);
        let bytes = w.into_bytes();
        fn decode<T: Codec>(bytes: &[u8]) -> Result<(), SnapshotError> {
            T::get(&mut SnapshotReader::new(bytes)).map(drop)
        }
        let kinds = [
            decode::<Vec<u64>>(&bytes),
            decode::<VecDeque<u64>>(&bytes),
            decode::<HashMap<u64, u64>>(&bytes),
            decode::<HashSet<u64>>(&bytes),
            decode::<BTreeMap<u64, u64>>(&bytes),
            decode::<BTreeSet<u64>>(&bytes),
            decode::<String>(&bytes),
        ];
        for k in kinds {
            assert_eq!(k.unwrap_err().kind(), SnapshotErrorKind::Truncated);
        }
    }

    /// A fixed-shape component for the in-place collection impls.
    #[derive(Debug, Default, PartialEq)]
    struct Cell {
        v: u64,
        cap: u64,
    }

    crate::impl_snapshot!(Cell { v } skip { cap });

    #[test]
    fn fixed_shape_collections_restore_in_place_and_reject_reshaping() {
        let src = vec![Cell { v: 1, cap: 9 }, Cell { v: 2, cap: 9 }];
        let mut w = SnapshotWriter::new();
        src.save_state(&mut w);
        Some([Cell { v: 3, cap: 0 }]).save_state(&mut w);
        let bytes = w.into_bytes();

        let mut r = SnapshotReader::new(&bytes);
        let mut dst = vec![Cell::default(), Cell { v: 0, cap: 4 }];
        dst.load_state(&mut r).unwrap();
        assert_eq!(dst, vec![Cell { v: 1, cap: 0 }, Cell { v: 2, cap: 4 }]);
        let mut opt = Some([Cell::default()]);
        opt.load_state(&mut r).unwrap();
        assert_eq!(opt.unwrap()[0].v, 3);
        r.finish().unwrap();

        let mut three = vec![Cell::default(), Cell::default(), Cell::default()];
        let err = three
            .load_state(&mut SnapshotReader::new(&bytes))
            .unwrap_err();
        assert!(err.message().contains("count mismatch"), "{err}");
        let mut absent: Option<Cell> = None;
        let err = absent
            .load_state(&mut SnapshotReader::new(&[1]))
            .unwrap_err();
        assert!(err.message().contains("presence mismatch"), "{err}");
    }

    #[test]
    fn checkpoint_file_round_trips() {
        let path = tmp_path("ok.ckpt");
        let data = CheckpointData::unkeyed(0x1234, 7, 999, b"payload bytes".to_vec());
        write_checkpoint(&path, &data).unwrap();
        let read = read_checkpoint(&path).unwrap();
        assert_eq!(read, data);
        assert_eq!(read.config_hash, 0x1234);
        assert_eq!(read.epoch, 7);
        assert_eq!(read.cycle, 999);
        assert!(!read.is_authenticated());
        assert_eq!(read.payload, b"payload bytes");
    }

    #[test]
    fn authenticated_checkpoint_round_trips_its_tag() {
        let path = tmp_path("auth.ckpt");
        let mut data = CheckpointData::unkeyed(9, 2, 50, vec![1, 2, 3]);
        data.auth = [0xA5; CHECKPOINT_AUTH_BYTES];
        write_checkpoint(&path, &data).unwrap();
        let read = read_checkpoint(&path).unwrap();
        assert!(read.is_authenticated());
        assert_eq!(read.auth, [0xA5; CHECKPOINT_AUTH_BYTES]);
        // The auth message covers everything but the tag itself.
        assert_eq!(
            checkpoint_auth_message(&read),
            checkpoint_auth_message(&data)
        );
        let mut rolled = read.clone();
        rolled.epoch = 1;
        assert_ne!(
            checkpoint_auth_message(&rolled),
            checkpoint_auth_message(&data),
            "the tag binds the epoch"
        );
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let path = tmp_path("corrupt.ckpt");
        write_checkpoint(&path, &CheckpointData::unkeyed(1, 1, 2, b"data".to_vec())).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert_eq!(err.kind(), SnapshotErrorKind::BadChecksum);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let path = tmp_path("trunc.ckpt");
        write_checkpoint(&path, &CheckpointData::unkeyed(1, 1, 2, b"data".to_vec())).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();
        assert!(read_checkpoint(&path).is_err());
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let path = tmp_path("magic.ckpt");
        std::fs::write(
            &path,
            b"NOTACKPTNOTACKPTNOTACKPTNOTACKPTNOTACKPTNOTACKPTNOTACKPTNOTACKPT",
        )
        .unwrap();
        assert!(read_checkpoint(&path).is_err());

        // Valid checksum but wrong version.
        let mut out = Vec::new();
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&99u32.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // config hash
        out.extend_from_slice(&0u64.to_le_bytes()); // epoch
        out.extend_from_slice(&0u64.to_le_bytes()); // cycle
        out.extend_from_slice(&0u64.to_le_bytes()); // payload len
        out.extend_from_slice(&[0u8; CHECKPOINT_AUTH_BYTES]);
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &out).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert_eq!(err.kind(), SnapshotErrorKind::BadVersion);
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn error_kinds_discriminate() {
        assert_eq!(SnapshotError::new("x").kind(), SnapshotErrorKind::Malformed);
        let e = SnapshotError::of_kind(SnapshotErrorKind::RolledBack, "epoch 1 < 3");
        assert_eq!(e.kind(), SnapshotErrorKind::RolledBack);
        assert_eq!(e.kind().label(), "rolled_back");
        assert_eq!(e.to_string(), "invalid snapshot: epoch 1 < 3");
        let missing = read_checkpoint(Path::new("/nonexistent/doram.ckpt")).unwrap_err();
        assert_eq!(missing.kind(), SnapshotErrorKind::Io);
    }

    #[test]
    fn hostile_length_prefix_is_an_error_not_a_panic() {
        // A length prefix of u64::MAX must not overflow the cursor math.
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let err = r.get_bytes().unwrap_err();
        assert_eq!(err.kind(), SnapshotErrorKind::Truncated);
    }

    #[test]
    fn aborted_atomic_write_leaves_no_partial_file() {
        let path = tmp_path("atomic.json");
        // A previous complete write...
        write_atomic(&path, b"{\"old\":true}").unwrap();
        // ...then a crash mid-write of the replacement: the abort hook
        // stops after the temp file is written but before the rename.
        write_atomic_inner(&path, b"{\"new\":tru", true).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "{\"old\":true}", "old file must be intact");
        // Completing the write replaces it atomically.
        write_atomic(&path, b"{\"new\":true}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"new\":true}");
    }

    #[test]
    fn atomic_write_to_fresh_path_works() {
        let path = tmp_path("fresh/sub/file.bin");
        write_atomic(&path, &[1, 2, 3]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), vec![1, 2, 3]);
    }
}
