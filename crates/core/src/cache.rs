//! Per-step annotation result caching for repeat crawls.
//!
//! The deployment the paper targets (§4, Figure 2) is a data catalog
//! repeatedly crawling slowly changing customer warehouses: between two
//! crawls most columns are byte-identical, and every cascade step is a
//! deterministic function of its [`StepContext`]. This module memoizes
//! step results across crawls:
//!
//! * a [`ColumnFingerprint`] identifies one column *in its full
//!   annotation context* — the column's header and values, the rest of
//!   the table (neighbor headers and values feed the lookup and
//!   embedding steps, and custom steps may read anything in the
//!   context), the ordered step ids of the cascade (earlier steps
//!   shape the confidence later steps gate on), the step-relevant
//!   [`SigmaTyperConfig`] fields, and the customer's **cache epoch**;
//! * a [`CacheKey`] combines a fingerprint with one [`StepId`];
//! * a [`StepCache`] stores `CacheKey → StepScores`; the default
//!   backend is [`ShardedLruCache`], a capacity-bounded, mutex-sharded
//!   in-memory LRU safe to share (`Arc`) across the
//!   [`AnnotationService`](crate::service::AnnotationService) worker
//!   threads.
//!
//! # Correctness model
//!
//! Annotation is deterministic and read-only, so a step's scores are a
//! pure function of `(table content, cascade step order, config, global
//! model, local model)`. The global model is immutable after training.
//! The local model and ontology mutate only through
//! [`SigmaTyper`](crate::system::SigmaTyper) adaptation entry points
//! (feedback, implicit approval, custom type registration, cascade
//! surgery), each of which re-draws the customer's epoch — and the
//! epoch is hashed into every column fingerprint, so adaptation can
//! never serve a stale column-scoped score: old entries simply become
//! unreachable and age out of the LRU (or are dropped by disk-tier
//! compaction). Config changes need no epoch re-draw because the config
//! fields are hashed into the fingerprint directly.
//!
//! Header-scoped entries (see [Scopes](#scopes)) take the other road to
//! the same guarantee: their key hashes everything a header step may
//! read — the global model's
//! [`header_fingerprint`](crate::global::GlobalModel::header_fingerprint),
//! the config, the header text and the customer's `Wg` state under that
//! header — and no epoch. An adaptation that changes none of these
//! leaves the key, and the entry, valid; one that changes a header's
//! `Wg` changes that header's key.
//!
//! Epochs are drawn from a process-global monotone counter seeded
//! with process-unique entropy (pid mixed with startup time), so they
//! are unique both within a process *and* across processes with
//! overwhelming probability. Several customer instances — even in
//! different processes pooling one external cache — never share an
//! epoch, so their entries never collide. A customer built with a
//! [`DurableEpochSource`](crate::diskcache::DurableEpochSource) starts
//! instead from the epoch stored in a small file, which the process
//! that created the file drew from its counter: a restarted process
//! reaches the entries its predecessor wrote while it was the customer
//! as built, so a persistent cache tier stays warm. Adaptation draws
//! from the counter and never writes the file: the local model is not
//! persisted, so a restart answers as the customer as built, and the
//! post-adaptation entries, under epochs no restart resumes, are never
//! read again.
//!
//! The on-disk tier ([`DiskCache`](crate::diskcache::DiskCache))
//! additionally tags its segment with an explicit format/fingerprint
//! version ([`DISK_FORMAT_VERSION`](crate::diskcache::DISK_FORMAT_VERSION)):
//! the [`StableHasher`] contract is only "stable for one code
//! version", so a segment written by a different version is discarded
//! as cold at open instead of being trusted.
//!
//! The golden-equivalence suite (`tests/golden_cascade.rs`) proves
//! cached and uncached annotation bit-identical across fresh, ablated,
//! and adaptation-heavy customers; `tests/persistent_cache.rs` extends
//! the proof across a simulated process restart.
//!
//! # Scopes
//!
//! Every step is memoized; its
//! [`AnnotationStep::cache_scope`](crate::step::AnnotationStep::cache_scope)
//! says what the key hashes. [`CacheScope::Column`] steps (the
//! default) are keyed by the [`ColumnFingerprint`] above, epoch
//! included. [`CacheScope::Header`] steps — the built-in header step
//! alone — read only the header text, the config, the global model's
//! header matcher and embedder and the customer's `Wg` discount under
//! the normalized header, so their key hashes exactly that, in a hash
//! domain of its own: one entry serves every column with that header
//! in every table, for every customer with the same `Wg` state under
//! it, across epoch moves, until a feedback overrides a global
//! prediction under that header. Both kinds of entry share the LRU and
//! the disk tier. The executor tags each insert with the epoch that
//! retires it (see [`StepCache::insert`]): column entries with the
//! epoch their key hashes, header entries with none, so disk-tier
//! compaction drops dead column entries and keeps every header entry.
//!
//! # Global parts
//!
//! A third kind of entry serves [split](crate::step::SplitStep) steps
//! — the built-in lookup and embedding steps — whose work divides into
//! a global half, read from the column, the config and the global model
//! alone, and a local combine with the customer's state.
//! [`ShardedLruCache`] owns a [`GlobalPartStore`] (and the tiered cache
//! serves its L1's), an in-memory LRU bounded at
//! [`GLOBAL_PART_BYTES`] and never written to disk, that keeps the
//! global halves under keys hashing the column's content hash (the one
//! [`column_fingerprints`] absorbs), the config, the global model's
//! identity in the process (see
//! [Cache identity](crate::global::GlobalModel#cache-identity)) and,
//! for the embedding step, the other columns' headers — no epoch.
//! When a column's scores miss (after a feedback moved the epoch, say),
//! the executor runs only the combine on a stored half, bit-identical to
//! running the whole step. No adaptation retires a part; only eviction
//! and [`StepCache::clear`] drop one. The store's traffic is counted
//! apart from [`CacheStats`].
//!
//! [`CacheScope::Column`]: crate::step::CacheScope::Column
//! [`CacheScope::Header`]: crate::step::CacheScope::Header
//! [`StepContext`]: crate::step::StepContext
//! [`SigmaTyperConfig`]: crate::config::SigmaTyperConfig

use crate::config::SigmaTyperConfig;
use crate::global::GlobalModel;
use crate::local::LocalModel;
use crate::prediction::{StepId, StepScores};
use crate::step::GlobalPart;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tu_table::{Column, ColumnDelta, ColumnDeltaKind, Table, TableDelta, Value};

/// A deterministic 128-bit streaming hasher (two FNV-1a/64 lanes with
/// distinct offset bases, avalanche-finalized).
///
/// `std::hash` hashers are not guaranteed stable across std releases
/// and `DefaultHasher` is explicitly documented as unstable, so the
/// fingerprint pipeline uses this fixed algorithm instead: the same
/// bytes always produce the same fingerprint within and across runs.
/// Custom [`StepCache`] backends that persist entries can rely on that
/// stability for the lifetime of one code version (the hashed field
/// set may grow in future versions). That promise is checked, not
/// assumed: persistent backends stamp their artifacts with
/// [`DISK_FORMAT_VERSION`](crate::diskcache::DISK_FORMAT_VERSION) and
/// treat a mismatched segment as cold at open.
#[derive(Debug, Clone)]
pub struct StableHasher {
    a: u64,
    b: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Offset of the second lane — an arbitrary odd constant (the golden
/// ratio) keeping the two lanes decorrelated.
const LANE_B_TWEAK: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64's avalanche finalizer: every input bit affects every
/// output bit, so truncating or XOR-folding the result stays well
/// distributed (the sharded cache picks shards from the low bits).
pub(crate) const fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        StableHasher {
            a: FNV_OFFSET,
            b: FNV_OFFSET ^ LANE_B_TWEAK,
        }
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a `usize` (widened to `u64` so 32/64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorb an `f64` by bit pattern (`-0.0` and `0.0` therefore hash
    /// differently — bitwise identity is exactly what the
    /// golden-equivalence contract demands).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorb a string, length-prefixed so `("ab", "c")` and
    /// `("a", "bc")` cannot collide.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// Absorb one table cell. The dynamic type tag is hashed alongside
    /// the payload: `Value::Int(1)` and `Value::Text("1")` render the
    /// same but drive type-sensitive signals differently.
    pub fn write_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.write_u8(0),
            Value::Int(i) => {
                self.write_u8(1);
                self.write(&i.to_le_bytes());
            }
            Value::Float(f) => {
                self.write_u8(2);
                self.write_f64(*f);
            }
            Value::Bool(b) => {
                self.write_u8(3);
                self.write_u8(u8::from(*b));
            }
            Value::Date(d) => {
                self.write_u8(4);
                self.write(&d.to_epoch_days().to_le_bytes());
            }
            Value::Text(s) => {
                self.write_u8(5);
                self.write_str(s);
            }
        }
    }

    /// Finish, producing 128 avalanche-mixed bits.
    #[must_use]
    pub fn finish128(&self) -> [u64; 2] {
        [avalanche(self.a), avalanche(self.b ^ LANE_B_TWEAK)]
    }
}

/// The cache identity of one column within one annotation run.
///
/// Two equal fingerprints guarantee the cascade would compute
/// bit-identical scores for the column at every step (see the module
/// docs for the correctness model); two unequal fingerprints merely
/// miss. Computed once per column per table by
/// [`column_fingerprints`].
/// The keys of header-scoped steps use the same type, hashed over the
/// header text alone (see [Scopes](self#scopes)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnFingerprint([u64; 2]);

impl ColumnFingerprint {
    /// Raw 128 bits (stable across runs; useful for telemetry keys or
    /// persistent cache backends).
    #[must_use]
    pub fn raw(self) -> [u64; 2] {
        self.0
    }
}

/// Key of one cache entry: a [`ColumnFingerprint`] bound to the step
/// that produced (or would produce) the scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey([u64; 2]);

impl CacheKey {
    /// Key for `step`'s result on the column identified by `fp`.
    #[must_use]
    pub fn for_step(fp: ColumnFingerprint, step: StepId) -> Self {
        let tweak = avalanche(u64::from(step.raw()) ^ LANE_B_TWEAK);
        CacheKey([avalanche(fp.0[0] ^ tweak), fp.0[1] ^ tweak])
    }

    /// Raw 128 bits.
    #[must_use]
    pub fn raw(self) -> [u64; 2] {
        self.0
    }

    /// Rebuild a key from its raw 128 bits — the inverse of
    /// [`raw`](CacheKey::raw), for persistent backends that store keys
    /// on disk and reconstruct them at open.
    #[must_use]
    pub fn from_raw(raw: [u64; 2]) -> Self {
        CacheKey(raw)
    }
}

/// Longest fingerprint delta chain before
/// [`ColumnHashState::apply_delta`] collapses back to a fresh full
/// rehash of the column.
///
/// The chained hash is bit-exact at any length (property-tested), so
/// the cap is not about hash quality — it bounds how far a retained
/// mid-state may drift from its last full-rehash checkpoint before the
/// next delta re-anchors it against the actual materialized values.
pub const MAX_FINGERPRINT_CHAIN: usize = 16;

/// A retained mid-state of one column's content hash, extendable by
/// append-only deltas without rehashing the values already absorbed.
///
/// The column content hash absorbs the header, then every cell in
/// order, then a trailing row count. Cells are self-delimiting (type
/// tag plus length-prefixed payloads) and the count comes *last*, so
/// the state after `name + cells` is a valid prefix of the hash of any
/// extension of the column: an
/// [`ColumnDeltaKind::Appended`]
/// delta
/// folds just the new cells into the retained hasher — O(delta), not
/// O(column) — and [`content_hash`](ColumnHashState::content_hash)
/// stays bit-identical to hashing the materialized column from
/// scratch. Non-append deltas (truncations, rewrites, header changes)
/// have no incremental structure in an append-only hash and collapse
/// to a fresh full rehash, as does the chain once it exceeds
/// [`MAX_FINGERPRINT_CHAIN`].
#[derive(Debug, Clone)]
pub struct ColumnHashState {
    hasher: StableHasher,
    len: usize,
    chain_len: usize,
}

impl ColumnHashState {
    /// Hash `col` from scratch (a fresh base fingerprint: chain length
    /// zero).
    #[must_use]
    pub fn of(col: &Column) -> Self {
        let mut hasher = StableHasher::new();
        hasher.write_str(&col.name);
        for v in &col.values {
            hasher.write_value(v);
        }
        ColumnHashState {
            hasher,
            len: col.values.len(),
            chain_len: 0,
        }
    }

    /// Advance the state over `delta`, where `col` is the column the
    /// delta produces (the new crawl's column).
    ///
    /// Returns `true` when the delta was folded in incrementally
    /// (append-only, header unchanged, chain below the cap); `false`
    /// when the state collapsed to a fresh full rehash of `col`. In
    /// both cases the resulting
    /// [`content_hash`](ColumnHashState::content_hash) equals
    /// `ColumnHashState::of(col).content_hash()` exactly.
    pub fn apply_delta(&mut self, col: &Column, delta: &ColumnDelta) -> bool {
        if !delta.header_changed {
            if delta.is_empty() {
                return true;
            }
            if self.chain_len < MAX_FINGERPRINT_CHAIN {
                if let Some(appended) = delta.appended() {
                    for v in appended {
                        self.hasher.write_value(v);
                    }
                    self.len += appended.len();
                    self.chain_len += 1;
                    debug_assert_eq!(self.len, col.values.len());
                    return true;
                }
            }
        }
        *self = ColumnHashState::of(col);
        false
    }

    /// The column content hash of the current state — bit-identical to
    /// hashing the materialized column from scratch.
    #[must_use]
    pub fn content_hash(&self) -> [u64; 2] {
        finish_content_hash(&self.hasher, self.len)
    }

    /// Rows absorbed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no rows have been absorbed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Deltas folded in since the last full rehash.
    #[must_use]
    pub fn chain_len(&self) -> usize {
        self.chain_len
    }
}

/// A column's content hash from a hasher that absorbed its header and
/// its first `rows` cells: the row count comes last, so the state
/// before it is a prefix of the hash of any extension of the column.
fn finish_content_hash(hasher: &StableHasher, rows: usize) -> [u64; 2] {
    let mut h = hasher.clone();
    h.write_usize(rows);
    h.finish128()
}

/// Every column's content hash — its header, then each cell, then the
/// row count — each cell hashed exactly once.
pub(crate) fn column_content_hashes(table: &Table) -> Vec<[u64; 2]> {
    table
        .columns()
        .iter()
        .map(|col| ColumnHashState::of(col).content_hash())
        .collect()
}

/// Shared-base fingerprint derivation from precomputed per-column
/// content hashes (the common tail of [`column_fingerprints`] and
/// [`column_fingerprints_chained`]).
pub(crate) fn fingerprints_from_col_hashes(
    table: &Table,
    step_ids: &[StepId],
    config: &SigmaTyperConfig,
    epoch: u64,
    col_hashes: &[[u64; 2]],
) -> Vec<ColumnFingerprint> {
    // Shared base: everything that identifies the run as a whole. The
    // table name is included because a custom step may read it through
    // `ctx.table` (conservative: affects hit rate, never correctness).
    let mut base = StableHasher::new();
    base.write_str(&table.name);
    base.write_usize(table.n_rows());
    base.write_usize(step_ids.len());
    for id in step_ids {
        base.write_u64(u64::from(id.raw()));
    }
    config.fingerprint_into(&mut base);
    base.write_u64(epoch);
    base.write_usize(col_hashes.len());
    for ch in col_hashes {
        base.write_u64(ch[0]);
        base.write_u64(ch[1]);
    }

    col_hashes
        .iter()
        .enumerate()
        .map(|(ci, ch)| {
            let mut h = base.clone();
            h.write_usize(ci);
            h.write_u64(ch[0]);
            h.write_u64(ch[1]);
            ColumnFingerprint(h.finish128())
        })
        .collect()
}

/// Compute the per-column fingerprints for one annotation run of
/// `table` under a cascade executing `step_ids` in order, the given
/// config, and the customer's current cache `epoch`.
///
/// The whole table is hashed once (shared base) and each column adds
/// its own index and content hash on top, so the total cost is one
/// pass over the table's cells regardless of cascade depth.
#[must_use]
pub fn column_fingerprints(
    table: &Table,
    step_ids: &[StepId],
    config: &SigmaTyperConfig,
    epoch: u64,
) -> Vec<ColumnFingerprint> {
    let col_hashes = column_content_hashes(table);
    fingerprints_from_col_hashes(table, step_ids, config, epoch, &col_hashes)
}

/// [`column_fingerprints`] from retained [`ColumnHashState`]s instead
/// of rehashing every cell. No request path calls it: recrawls take
/// their fingerprints from `recrawl_fingerprints`. It stays public
/// only because the serving benchmark's in-process twin
/// (`perfbench/src/twin.rs`) still hashes through it, until that twin
/// reads its per-layer times from the server instead of re-running the
/// layers itself.
///
/// `states` must hold one state per column of `table`, already
/// advanced over the deltas that produced this crawl (see
/// [`ColumnHashState::apply_delta`]). Because a state's content hash
/// is bit-identical to a fresh rehash, the fingerprints returned here
/// equal [`column_fingerprints`] on the same inputs — so exact cache
/// hits keep working unchanged — while the per-crawl hashing cost
/// drops from O(cells) to O(changed cells).
///
/// # Panics
/// When `states` does not match the table shape (one state per
/// column, each state's absorbed row count equal to the table's).
#[must_use]
pub fn column_fingerprints_chained(
    table: &Table,
    step_ids: &[StepId],
    config: &SigmaTyperConfig,
    epoch: u64,
    states: &[ColumnHashState],
) -> Vec<ColumnFingerprint> {
    assert_eq!(
        states.len(),
        table.n_cols(),
        "one hash state per table column"
    );
    for s in states {
        assert_eq!(
            s.len(),
            table.n_rows(),
            "hash state rows must match the table"
        );
    }
    let col_hashes: Vec<[u64; 2]> = states.iter().map(ColumnHashState::content_hash).collect();
    fingerprints_from_col_hashes(table, step_ids, config, epoch, &col_hashes)
}

/// The fingerprints of a recrawl's `base`, equal to
/// [`column_fingerprints`] on it, and the column content hashes of the
/// new `table`, equal to [`column_content_hashes`] on it, with each new
/// column hashed once.
///
/// `delta` must be `TableDelta::between(base, table)`. Where it says a
/// base column is an unchanged or appended prefix of the new column
/// under the same header, the base column's content hash is the new
/// column's hash state at the base's row count, so its cells are not
/// hashed again. Every other base column is hashed in full, and so is
/// one whose shared prefix holds a float zero: the delta compares cells
/// with `==`, under which `0.0` equals `-0.0`, but the hash absorbs
/// float bits.
pub(crate) fn recrawl_fingerprints(
    base: &Table,
    table: &Table,
    delta: &TableDelta,
    step_ids: &[StepId],
    config: &SigmaTyperConfig,
    epoch: u64,
) -> (Vec<ColumnFingerprint>, Vec<[u64; 2]>) {
    let mut base_hashes = Vec::with_capacity(table.n_cols());
    let mut new_hashes = Vec::with_capacity(table.n_cols());
    for ((base_col, col), d) in base
        .columns()
        .iter()
        .zip(table.columns())
        .zip(&delta.columns)
    {
        let prefix = !d.header_changed
            && matches!(
                d.kind,
                ColumnDeltaKind::Unchanged | ColumnDeltaKind::Appended { .. }
            );
        let shared = if prefix { base_col.len() } else { 0 };
        let mut hasher = StableHasher::new();
        hasher.write_str(&col.name);
        let mut float_zero = false;
        for v in &col.values[..shared] {
            float_zero |= matches!(v, Value::Float(f) if *f == 0.0);
            hasher.write_value(v);
        }
        base_hashes.push(if prefix && !float_zero {
            finish_content_hash(&hasher, shared)
        } else {
            ColumnHashState::of(base_col).content_hash()
        });
        for v in &col.values[shared..] {
            hasher.write_value(v);
        }
        new_hashes.push(finish_content_hash(&hasher, col.len()));
    }
    (
        fingerprints_from_col_hashes(base, step_ids, config, epoch, &base_hashes),
        new_hashes,
    )
}

/// Domain tag absorbed first by every global-part key (see
/// [`GlobalPartKeys`]), renamed whenever the key's contents change.
const GLOBAL_PART_KEY_DOMAIN: &str = "sigmatyper/global-part";

/// The [`GlobalPartStore`] keys of one table's columns: exactly what a
/// global half reads — the global model, by its identity in the process
/// (see [Cache identity](GlobalModel#cache-identity)), the config,
/// the column's content hash (its header and cells) and, for a half that
/// reads them, the other columns' raw headers in table order. No epoch,
/// table name or customer: one part serves the column wherever it
/// appears with those inputs, for every customer of the model.
pub(crate) struct GlobalPartKeys<'a> {
    table: &'a Table,
    content_hashes: &'a [[u64; 2]],
    base: StableHasher,
}

impl<'a> GlobalPartKeys<'a> {
    /// The keys of `table`, whose columns' content hashes (as
    /// [`column_fingerprints`] absorbs them) are `content_hashes`.
    pub(crate) fn new(
        table: &'a Table,
        content_hashes: &'a [[u64; 2]],
        global: &GlobalModel,
        config: &SigmaTyperConfig,
    ) -> Self {
        let mut base = StableHasher::new();
        base.write_str(GLOBAL_PART_KEY_DOMAIN);
        base.write_u64(global.id());
        config.fingerprint_into(&mut base);
        GlobalPartKeys {
            table,
            content_hashes,
            base,
        }
    }

    /// The key of `step`'s global half on column `ci`, hashing the other
    /// columns' headers when `neighbor_headers` is set.
    pub(crate) fn key(&self, ci: usize, step: StepId, neighbor_headers: bool) -> CacheKey {
        let mut h = self.base.clone();
        h.write_u64(self.content_hashes[ci][0]);
        h.write_u64(self.content_hashes[ci][1]);
        if neighbor_headers {
            h.write_usize(self.table.n_cols() - 1);
            for (j, col) in self.table.columns().iter().enumerate() {
                if j != ci {
                    h.write_str(&col.name);
                }
            }
        }
        CacheKey::for_step(ColumnFingerprint(h.finish128()), step)
    }
}

/// Domain tag absorbed first by every header key, so a header key and
/// a [`ColumnFingerprint`] never hash the same byte stream. Renamed
/// whenever the key's contents change, so no record written under an
/// older scheme can match a new key.
const HEADER_KEY_DOMAIN: &str = "sigmatyper/header-scope/wg";

/// The cache identity, per column of `table`, of a
/// [`CacheScope::Header`](crate::step::CacheScope::Header) step: exactly
/// what such a step may read, hashed in a domain of its own — the
/// global model's [`header_fingerprint`](GlobalModel::header_fingerprint),
/// the `config`, the column's raw header text, and the `Wg` state of
/// its `normalized` header in `local`. No epoch: a column with the same
/// header shares the identity across tables, customers and adaptation,
/// until a feedback changes `Wg` under that header.
pub(crate) fn header_fingerprints(
    table: &Table,
    normalized: &[String],
    global: &GlobalModel,
    local: &LocalModel,
    config: &SigmaTyperConfig,
) -> Vec<ColumnFingerprint> {
    let mut base = StableHasher::new();
    base.write_str(HEADER_KEY_DOMAIN);
    for lane in global.header_fingerprint() {
        base.write_u64(lane);
    }
    config.fingerprint_into(&mut base);
    table
        .columns()
        .iter()
        .zip(normalized)
        .map(|(col, normalized)| {
            let mut h = base.clone();
            h.write_str(&col.name);
            local.wg_state_into(normalized, &mut h);
            ColumnFingerprint(h.finish128())
        })
        .collect()
}

/// A pluggable store of per-step annotation results.
///
/// Implementations must be safe to share across the
/// [`AnnotationService`](crate::service::AnnotationService) worker
/// threads (`Send + Sync`) and must return entries exactly as
/// inserted: the cascade pushes cached scores into the annotation
/// trace unmodified, and the golden-equivalence contract requires
/// bit-identical `StepScores`. A backend may evict anything at any
/// time (missing is always safe; wrong is never safe).
pub trait StepCache: std::fmt::Debug + Send + Sync {
    /// Look up the scores for `key`, refreshing its recency.
    fn get(&self, key: &CacheKey) -> Option<StepScores>;

    /// Store the scores for `key` (replacing any previous entry).
    /// `epoch` says which cache epoch retires the entry: `Some(e)` when
    /// the key hashes epoch `e` (a [`CacheScope::Column`] entry, dead
    /// once `e` is), `None` when it hashes no epoch (a
    /// [`CacheScope::Header`] entry, which no epoch move retires).
    /// Persistent backends record the tag so compaction drops only
    /// entries of dead epochs; in-memory backends may ignore it —
    /// unreachable entries age out of a bounded store on their own.
    ///
    /// [`CacheScope::Column`]: crate::step::CacheScope::Column
    /// [`CacheScope::Header`]: crate::step::CacheScope::Header
    fn insert(&self, key: CacheKey, scores: StepScores, epoch: Option<u64>);

    /// Number of entries currently stored.
    fn len(&self) -> usize;

    /// `true` when the cache holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry.
    fn clear(&self);

    /// Aggregate counters (see [`CacheStats`]). The default reports
    /// only the entry count — backends that track traffic (the
    /// built-in [`ShardedLruCache`] does) override this so operators
    /// can size capacity from hit rates via
    /// [`AnnotationService::cache_stats`](crate::service::AnnotationService::cache_stats).
    fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len(),
            ..CacheStats::default()
        }
    }

    /// Flush buffered state to durable storage. In-memory backends
    /// have nothing to do; persistent ones override this to make prior
    /// inserts visible to a later (or concurrent) process.
    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }

    /// The store of split steps' global halves this cache owns (see
    /// [`GlobalPartStore`]): [`ShardedLruCache`] owns one, and the
    /// tiered cache returns its L1's. Under a backend without one — the
    /// default — a split step runs both of its halves on every column it
    /// runs, as an uncached customer does.
    fn global_parts(&self) -> Option<&GlobalPartStore> {
        None
    }
}

/// A borrowed cache plus the epoch to fingerprint with — what
/// [`CascadeExecutor::run_budgeted`](crate::executor::CascadeExecutor::run_budgeted)
/// needs from the owning [`SigmaTyper`](crate::system::SigmaTyper).
#[derive(Debug, Clone, Copy)]
pub struct CacheContext<'a> {
    /// The step cache to consult and fill.
    pub cache: &'a dyn StepCache,
    /// The customer's current cache epoch (see the module docs).
    pub epoch: u64,
}

/// Aggregate counters of a [`ShardedLruCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries stored (including replacements).
    pub inserts: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction of all lookups so far (0 when none happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The traffic between `baseline` and `self`. **Mixed semantics,
    /// by design:** the four traffic counters (`hits`, `misses`,
    /// `inserts`, `evictions`) are deltas — saturating, so a cleared
    /// backend cannot underflow — while `entries` is **not** a delta:
    /// it is carried from `self`, i.e. it stays the *current absolute
    /// occupancy*. A delta of a gauge is rarely meaningful (entries
    /// fall on eviction and clear), and sizing decisions want the
    /// absolute count next to the per-batch traffic, so that is what
    /// this returns. Consumers must read `entries` as "occupancy now",
    /// never as "entries added this batch" (that is `inserts` minus
    /// replacements).
    ///
    /// Snapshot before a batch, diff after — per-batch totals without
    /// scraping per-table `StepTiming` records:
    ///
    /// ```
    /// use sigmatyper::{CacheKey, CacheStats, ShardedLruCache, StepCache};
    /// use sigmatyper::{Candidate, StepScores};
    /// use tu_ontology::TypeId;
    /// let cache = ShardedLruCache::new(64);
    /// let scores = StepScores::from_candidates(vec![Candidate { ty: TypeId(1), confidence: 0.9 }]);
    /// cache.insert(CacheKey::from_raw([1, 2]), scores, None);
    /// let before = cache.stats();
    /// // ... annotate a batch ...
    /// let batch = cache.stats().since(&before);
    /// // Traffic counters are per-batch deltas…
    /// assert_eq!(batch.hits + batch.misses + batch.inserts, 0);
    /// // …but `entries` is the current absolute occupancy, not a delta.
    /// assert_eq!(batch.entries, 1);
    /// ```
    #[must_use]
    pub fn since(&self, baseline: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(baseline.hits),
            misses: self.misses.saturating_sub(baseline.misses),
            inserts: self.inserts.saturating_sub(baseline.inserts),
            evictions: self.evictions.saturating_sub(baseline.evictions),
            entries: self.entries,
        }
    }
}

/// Slot index marking "no neighbor" in the intrusive LRU list.
const NIL: usize = usize::MAX;

struct LruEntry<V> {
    key: CacheKey,
    /// `None` once the entry is evicted, so an evicted value is freed
    /// at once, not when its slot is next taken.
    value: Option<V>,
    /// What the entry counts against the shard's capacity.
    weight: usize,
    prev: usize,
    next: usize,
}

/// One mutex-guarded shard: an LRU bounded in weight over an intrusive
/// doubly-linked list threaded through a slot vector — O(1) get and
/// insert, no per-entry allocation beyond the value. An evicted slot
/// goes on a free list and the next insert takes it. The step cache
/// weighs every entry 1, so its capacity is an entry count; the
/// global-part store weighs each entry in bytes.
struct LruShard<V> {
    map: HashMap<CacheKey, usize>,
    entries: Vec<LruEntry<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    used: usize,
}

impl<V: Clone> LruShard<V> {
    /// A shard of `capacity` weight units, with room reserved for
    /// `reserve` entries.
    fn new(capacity: usize, reserve: usize) -> Self {
        LruShard {
            map: HashMap::with_capacity(reserve),
            entries: Vec::with_capacity(reserve),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            used: 0,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.entries[i].prev, self.entries[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.entries[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.entries[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.entries[i].prev = NIL;
        self.entries[i].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<V> {
        let i = *self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        self.entries[i].value.clone()
    }

    /// Insert `value` weighing `weight`, evicting least-recently-used
    /// entries until it fits; returns how many were evicted. A value
    /// heavier than the whole shard is not stored.
    fn insert(&mut self, key: CacheKey, value: V, weight: usize) -> usize {
        if weight > self.capacity {
            return 0;
        }
        if let Some(i) = self.map.remove(&key) {
            self.release(i);
        }
        let mut evicted = 0;
        while self.used + weight > self.capacity {
            let i = self.tail;
            self.map.remove(&self.entries[i].key);
            self.release(i);
            evicted += 1;
        }
        let entry = LruEntry {
            key,
            value: Some(value),
            weight,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.entries[i] = entry;
                i
            }
            None => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
        };
        self.map.insert(key, i);
        self.used += weight;
        self.push_front(i);
        evicted
    }

    /// Unlink slot `i`, free its value and put it on the free list.
    fn release(&mut self, i: usize) {
        self.unlink(i);
        self.used -= self.entries[i].weight;
        self.entries[i].value = None;
        self.free.push(i);
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.entries.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.used = 0;
    }
}

impl<V> std::fmt::Debug for LruShard<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruShard")
            .field("entries", &self.map.len())
            .field("used", &self.used)
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// A key-sharded set of [`LruShard`]s, each behind its own mutex.
struct Shards<V>(Box<[Mutex<LruShard<V>>]>);

impl<V: Clone> Shards<V> {
    /// `shards` (rounded up to a power of two: shard choice is a mask)
    /// shards of `per_shard` weight units each, reserving room for
    /// `reserve` entries per shard.
    fn new(shards: usize, per_shard: usize, reserve: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        Shards(
            (0..shards)
                .map(|_| Mutex::new(LruShard::new(per_shard, reserve)))
                .collect(),
        )
    }

    /// Lock the shard `key` belongs to, tolerating poisoning: a shard
    /// holds plain data, so a panic in another thread mid-operation at
    /// worst loses recency ordering, never integrity of returned
    /// values. Keys are avalanche-mixed, so their low bits pick shards
    /// uniformly.
    fn lock(&self, key: &CacheKey) -> std::sync::MutexGuard<'_, LruShard<V>> {
        lock(&self.0[(key.raw()[0] as usize) & (self.0.len() - 1)])
    }

    fn len(&self) -> usize {
        self.0.iter().map(|s| lock(s).len()).sum()
    }

    fn used(&self) -> usize {
        self.0.iter().map(|s| lock(s).used).sum()
    }

    fn capacity(&self) -> usize {
        self.0.iter().map(|s| lock(s).capacity).sum()
    }

    fn clear(&self) {
        for s in self.0.iter() {
            lock(s).clear();
        }
    }
}

impl<V> std::fmt::Debug for Shards<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shards")
            .field("shards", &self.0.len())
            .finish()
    }
}

fn lock<V>(shard: &Mutex<LruShard<V>>) -> std::sync::MutexGuard<'_, LruShard<V>> {
    shard
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The default [`StepCache`] backend: a capacity-bounded, in-memory
/// LRU split into independently locked shards so the
/// [`AnnotationService`](crate::service::AnnotationService) worker
/// threads rarely contend.
///
/// ```
/// use sigmatyper::{ShardedLruCache, StepCache};
/// let cache = ShardedLruCache::new(1024);
/// assert!(cache.is_empty());
/// assert_eq!(cache.stats().hits, 0);
/// ```
#[derive(Debug)]
pub struct ShardedLruCache {
    shards: Shards<StepScores>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    parts: GlobalPartStore,
}

/// Default shard count (a power of two; shard choice masks low key
/// bits).
const DEFAULT_SHARDS: usize = 8;

impl ShardedLruCache {
    /// A cache holding at most ~`capacity` entries, divided evenly
    /// over eight shards; every shard holds at least one entry, so a
    /// capacity under eight rounds up to eight. The cache owns a
    /// [`GlobalPartStore`] of [`GLOBAL_PART_BYTES`].
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ShardedLruCache::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count, rounded up to a power of
    /// two (shard choice is a mask); `capacity` is divided as in
    /// [`new`](ShardedLruCache::new), so tiny capacities round up to
    /// `shards` total.
    #[must_use]
    fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = capacity.div_ceil(shards).max(1);
        ShardedLruCache {
            shards: Shards::new(shards, per_shard, per_shard),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            parts: GlobalPartStore::new(),
        }
    }

    /// Total entry capacity (sum over shards).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shards.capacity()
    }
}

impl StepCache for ShardedLruCache {
    fn get(&self, key: &CacheKey) -> Option<StepScores> {
        let found = self.shards.lock(key).get(key);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn insert(&self, key: CacheKey, scores: StepScores, _epoch: Option<u64>) {
        let evicted = self.shards.lock(&key).insert(key, scores, 1);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        }
    }

    fn len(&self) -> usize {
        self.shards.len()
    }

    /// Drops the global parts too.
    fn clear(&self) {
        self.shards.clear();
        self.parts.clear();
    }

    fn global_parts(&self) -> Option<&GlobalPartStore> {
        Some(&self.parts)
    }

    /// Real traffic counters (the trait default only knows the entry
    /// count).
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

/// The byte budget of every [`GlobalPartStore`]. An embedding half,
/// which holds a feature vector, counts about 0.8 KB with the default
/// extractor and a 16-wide embedder, a lookup half about 0.2 KB: room
/// for some 2,500 of the one or 10,000 of the other.
pub const GLOBAL_PART_BYTES: usize = 2 << 20;

/// What one stored part counts against its store besides
/// [`GlobalPart::bytes`]: the LRU slot, the index entry and the `Arc`
/// counts.
const PART_ENTRY_BYTES: usize = std::mem::size_of::<LruEntry<Arc<GlobalPart>>>()
    + std::mem::size_of::<(CacheKey, usize)>()
    + 16;

/// The global halves of split steps (see [`SplitStep`]), keyed by what
/// a global half reads: an in-memory LRU bounded in bytes, owned by a
/// [`StepCache`] backend, so every customer on that cache and one global
/// model shares it. Its keys hash no epoch, table name or customer, so
/// no adaptation retires a part; a part is dropped only by eviction or
/// [`clear`](GlobalPartStore::clear).
///
/// Its traffic is its own: [`CacheStats`] and the
/// [`StepTiming`](crate::prediction::StepTiming) cache counters never
/// count it.
///
/// [`SplitStep`]: crate::step::SplitStep
#[derive(Debug)]
pub struct GlobalPartStore {
    shards: Shards<Arc<GlobalPart>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Counters of a [`GlobalPartStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalPartStats {
    /// Lookups that found a part.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Parts currently stored.
    pub entries: usize,
    /// Bytes the stored parts count against the budget.
    pub bytes: usize,
}

impl Default for GlobalPartStore {
    fn default() -> Self {
        GlobalPartStore::new()
    }
}

impl GlobalPartStore {
    /// A store holding at most [`GLOBAL_PART_BYTES`] bytes of parts,
    /// split evenly over eight shards, as a [`ShardedLruCache`] splits
    /// its entries.
    #[must_use]
    pub fn new() -> Self {
        GlobalPartStore::with_bytes(GLOBAL_PART_BYTES)
    }

    /// A store holding at most `bytes` bytes of parts.
    fn with_bytes(bytes: usize) -> Self {
        GlobalPartStore {
            shards: Shards::new(DEFAULT_SHARDS, bytes.div_ceil(DEFAULT_SHARDS), 0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The part stored under `key`, refreshing its recency.
    #[must_use]
    pub(crate) fn get(&self, key: &CacheKey) -> Option<Arc<GlobalPart>> {
        let found = self.shards.lock(key).get(key);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store `part` under `key`, evicting the least recently used parts
    /// of its shard until it fits.
    pub(crate) fn insert(&self, key: CacheKey, part: Arc<GlobalPart>) {
        let bytes = part.bytes() + PART_ENTRY_BYTES;
        self.shards.lock(&key).insert(key, part, bytes);
    }

    /// Drop every part.
    pub fn clear(&self) {
        self.shards.clear();
    }

    /// Traffic so far and what the store holds now.
    #[must_use]
    pub fn stats(&self) -> GlobalPartStats {
        GlobalPartStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.shards.len(),
            bytes: self.shards.used(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prediction::Candidate;
    use tu_ontology::TypeId;
    use tu_table::Column;

    fn scores(conf: f64) -> StepScores {
        StepScores::from_candidates(vec![Candidate {
            ty: TypeId(1),
            confidence: conf,
        }])
    }

    fn key(n: u64) -> CacheKey {
        CacheKey([avalanche(n), avalanche(n ^ LANE_B_TWEAK)])
    }

    #[test]
    fn stable_hasher_is_deterministic_and_sensitive() {
        let mut a = StableHasher::new();
        a.write_str("hello");
        a.write_u64(7);
        let mut b = StableHasher::new();
        b.write_str("hello");
        b.write_u64(7);
        assert_eq!(a.finish128(), b.finish128());
        let mut c = StableHasher::new();
        c.write_str("hello");
        c.write_u64(8);
        assert_ne!(a.finish128(), c.finish128());
        // Length prefixing: ("ab","c") != ("a","bc").
        let mut d = StableHasher::new();
        d.write_str("ab");
        d.write_str("c");
        let mut e = StableHasher::new();
        e.write_str("a");
        e.write_str("bc");
        assert_ne!(d.finish128(), e.finish128());
        // Value type tags: Int(1) != Text("1").
        let mut f = StableHasher::new();
        f.write_value(&Value::Int(1));
        let mut g = StableHasher::new();
        g.write_value(&Value::Text("1".into()));
        assert_ne!(f.finish128(), g.finish128());
    }

    fn fp_table(name: &str, header: &str, vals: &[&str]) -> Table {
        Table::new(name, vec![Column::from_raw(header, vals)]).unwrap()
    }

    #[test]
    fn fingerprints_track_content_config_epoch_and_step_order() {
        let config = SigmaTyperConfig::default();
        let steps = [StepId::HEADER, StepId::LOOKUP];
        let t = fp_table("t", "city", &["Oslo", "Lima"]);
        let base = column_fingerprints(&t, &steps, &config, 0);
        assert_eq!(base.len(), 1);
        // Deterministic.
        assert_eq!(base, column_fingerprints(&t, &steps, &config, 0));
        // Value change, header change, epoch change, step order change,
        // and config change each move the fingerprint.
        let changed = fp_table("t", "city", &["Oslo", "Kyiv"]);
        assert_ne!(base, column_fingerprints(&changed, &steps, &config, 0));
        let renamed = fp_table("t", "town", &["Oslo", "Lima"]);
        assert_ne!(base, column_fingerprints(&renamed, &steps, &config, 0));
        assert_ne!(base, column_fingerprints(&t, &steps, &config, 1));
        let reordered = [StepId::LOOKUP, StepId::HEADER];
        assert_ne!(base, column_fingerprints(&t, &reordered, &config, 0));
        let tweaked = SigmaTyperConfig {
            cascade_threshold: 0.9,
            ..config
        };
        assert_ne!(base, column_fingerprints(&t, &steps, &tweaked, 0));
    }

    /// The recrawl's base fingerprints and new content hashes equal
    /// what a full pass computes on each crawl (`column_fingerprints`
    /// derives the new crawl's fingerprints from those hashes),
    /// whatever each column's delta: unchanged, appended, truncated,
    /// rewritten, renamed, empty, appended onto an empty base, and
    /// float zeros whose signs differ (equal under the delta's `==`,
    /// different to the hash).
    #[test]
    fn recrawl_fingerprints_equal_full_fingerprints_of_both_crawls() {
        let config = SigmaTyperConfig::default();
        let steps = [StepId::HEADER, StepId::LOOKUP, StepId::EMBEDDING];
        let col = |header: &str, vals: &[&str]| Column::from_raw(header, vals);
        let zeros = |vals: &[f64]| -> Column {
            Column::new("z", vals.iter().map(|&f| Value::Float(f)).collect())
        };
        let pairs: Vec<(&str, Vec<Column>, Vec<Column>)> = vec![
            (
                "every kind at once",
                vec![
                    col("same", &["a", "1", ""]),
                    col("grown", &["a", "b", "c"]),
                    col("cut", &["a", "b", "c"]),
                    col("edited", &["a", "b", "c"]),
                    col("renamed", &["a", "b", "c"]),
                ],
                vec![
                    col("same", &["a", "1", "", ""]),
                    col("grown", &["a", "b", "c", "d"]),
                    col("cut", &["a", "b", "", ""]),
                    col("edited", &["a", "X", "c", "d"]),
                    col("renamed2", &["a", "b", "c", "d"]),
                ],
            ),
            (
                "unchanged",
                vec![col("a", &["x", "2021-01-02", "TRUE"])],
                vec![col("a", &["x", "2021-01-02", "TRUE"])],
            ),
            (
                "truncated",
                vec![col("a", &["x", "y", "z"])],
                vec![col("a", &["x"])],
            ),
            ("empty", vec![col("a", &[])], vec![col("a", &[])]),
            (
                "appended onto an empty base",
                vec![col("a", &[])],
                vec![col("a", &["x", "y"])],
            ),
            (
                "renamed, unchanged values",
                vec![col("a", &["x", "y"])],
                vec![col("b", &["x", "y"])],
            ),
            (
                "float zeros of either sign",
                vec![zeros(&[-0.0, 1.5]), col("c", &["p", "q"])],
                vec![zeros(&[0.0, 1.5, 0.0]), col("c", &["p", "q", "r"])],
            ),
            ("no columns", vec![], vec![]),
        ];
        for (what, base_cols, new_cols) in pairs {
            let base = Table::new("t", base_cols).unwrap();
            let table = Table::new("t", new_cols).unwrap();
            let delta = TableDelta::between(&base, &table).unwrap();
            for epoch in [0, 7] {
                let (base_fps, new_hashes) =
                    recrawl_fingerprints(&base, &table, &delta, &steps, &config, epoch);
                assert_eq!(
                    base_fps,
                    column_fingerprints(&base, &steps, &config, epoch),
                    "{what}: base"
                );
                assert_eq!(new_hashes, column_content_hashes(&table), "{what}: new");
            }
        }
    }

    #[test]
    fn chained_hash_state_matches_fresh_rehash() {
        let base = Column::from_raw("city", &["Oslo", "Lima"]);
        let grown = Column::from_raw("city", &["Oslo", "Lima", "Kyiv"]);
        let delta = ColumnDelta::between(&base, &grown);
        let mut state = ColumnHashState::of(&base);
        assert_eq!(
            state.content_hash(),
            ColumnHashState::of(&base).content_hash()
        );
        assert!(state.apply_delta(&grown, &delta), "append must chain");
        assert_eq!(state.chain_len(), 1);
        assert_eq!(state.len(), 3);
        assert_eq!(
            state.content_hash(),
            ColumnHashState::of(&grown).content_hash()
        );
        // Empty deltas neither change the hash nor lengthen the chain.
        let noop = ColumnDelta::between(&grown, &grown.clone());
        assert!(state.apply_delta(&grown, &noop));
        assert_eq!(state.chain_len(), 1);
        // The chained fingerprints equal the fresh ones bit for bit.
        let t = Table::new("t", vec![grown.clone()]).unwrap();
        let config = SigmaTyperConfig::default();
        let steps = [StepId::HEADER, StepId::LOOKUP];
        assert_eq!(
            column_fingerprints_chained(&t, &steps, &config, 3, std::slice::from_ref(&state)),
            column_fingerprints(&t, &steps, &config, 3)
        );
    }

    #[test]
    fn non_append_deltas_collapse_the_chain() {
        let base = Column::from_raw("c", &["a", "b", "c"]);
        let mut state = ColumnHashState::of(&base);
        let grown = Column::from_raw("c", &["a", "b", "c", "d"]);
        assert!(state.apply_delta(&grown, &ColumnDelta::between(&base, &grown)));
        for (name, new) in [
            ("truncated", Column::from_raw("c", &["a", "b"])),
            ("rewritten", Column::from_raw("c", &["x", "b", "c"])),
            ("renamed", Column::from_raw("d", &["a", "b", "c"])),
        ] {
            let mut s = state.clone();
            let chained = s.apply_delta(&new, &ColumnDelta::between(&grown, &new));
            assert!(!chained, "{name} delta must collapse");
            assert_eq!(s.chain_len(), 0, "{name} resets the chain");
            assert_eq!(s.content_hash(), ColumnHashState::of(&new).content_hash());
        }
    }

    #[test]
    fn chain_cap_collapses_to_fresh_rehash() {
        let mut col = Column::from_raw("n", &["0"]);
        let mut state = ColumnHashState::of(&col);
        for i in 1..=MAX_FINGERPRINT_CHAIN {
            let mut grown = col.clone();
            grown.values.push(Value::Int(i as i64));
            let chained = state.apply_delta(&grown, &ColumnDelta::between(&col, &grown));
            assert!(chained, "delta {i} fits under the cap");
            assert_eq!(state.chain_len(), i);
            col = grown;
        }
        // One past the cap: full rehash, chain reset, hash still exact.
        let mut grown = col.clone();
        grown.values.push(Value::Int(-1));
        let chained = state.apply_delta(&grown, &ColumnDelta::between(&col, &grown));
        assert!(!chained, "delta past the cap must collapse");
        assert_eq!(state.chain_len(), 0);
        assert_eq!(
            state.content_hash(),
            ColumnHashState::of(&grown).content_hash()
        );
    }

    #[test]
    fn identical_columns_at_different_indices_differ() {
        let t = Table::new(
            "t",
            vec![
                Column::from_raw("a", &["1", "2"]),
                Column::from_raw("b", &["1", "2"]),
            ],
        )
        .unwrap();
        let fps = column_fingerprints(&t, &[StepId::HEADER], &SigmaTyperConfig::default(), 0);
        assert_ne!(fps[0], fps[1], "neighbor context differs by index");
    }

    #[test]
    fn cache_key_separates_steps() {
        let t = fp_table("t", "c", &["1"]);
        let fp = column_fingerprints(&t, &[StepId::HEADER], &SigmaTyperConfig::default(), 0)[0];
        assert_ne!(
            CacheKey::for_step(fp, StepId::HEADER),
            CacheKey::for_step(fp, StepId::LOOKUP)
        );
        assert_eq!(
            CacheKey::for_step(fp, StepId::HEADER),
            CacheKey::for_step(fp, StepId::HEADER)
        );
        assert_eq!(fp.raw(), fp.raw());
    }

    #[test]
    fn lru_basic_roundtrip_and_stats() {
        let cache = ShardedLruCache::new(64);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(1)), None);
        cache.insert(key(1), scores(0.5), None);
        assert_eq!(cache.get(&key(1)).unwrap().best_confidence(), 0.5);
        // Replacement keeps one entry.
        cache.insert(key(1), scores(0.7), None);
        assert_eq!(cache.get(&key(1)).unwrap().best_confidence(), 0.7);
        assert_eq!(cache.len(), 1);
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.inserts, 2);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.entries, 1);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(1)), None);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn lru_evicts_least_recently_used_within_capacity() {
        // One shard to make the recency order fully observable.
        let cache = ShardedLruCache::with_shards(3, 1);
        assert_eq!(cache.capacity(), 3);
        for n in 0..3 {
            cache.insert(key(n), scores(0.1), None);
        }
        // Touch 0 so 1 becomes the LRU entry.
        assert!(cache.get(&key(0)).is_some());
        cache.insert(key(3), scores(0.2), None);
        assert_eq!(cache.len(), 3);
        assert!(cache.get(&key(1)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&key(0)).is_some());
        assert!(cache.get(&key(2)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn tiny_capacities_round_up_to_one_per_shard() {
        let cache = ShardedLruCache::with_shards(0, 4);
        assert_eq!(cache.capacity(), 4);
        cache.insert(key(1), scores(0.5), None);
        assert_eq!(cache.get(&key(1)).unwrap().best_confidence(), 0.5);
        // Shard counts round up to a power of two.
        let cache = ShardedLruCache::with_shards(100, 3);
        assert_eq!(cache.capacity(), 100);
    }

    #[test]
    fn trait_defaults_for_epoch_insert_and_flush() {
        /// A minimal backend that accepts the trait defaults.
        #[derive(Debug)]
        struct NullCache;
        impl StepCache for NullCache {
            fn get(&self, _: &CacheKey) -> Option<StepScores> {
                None
            }
            fn insert(&self, _: CacheKey, _: StepScores, _: Option<u64>) {}
            fn len(&self) -> usize {
                0
            }
            fn clear(&self) {}
        }
        let c = NullCache;
        c.insert(key(1), scores(0.5), Some(7));
        assert!(c.flush().is_ok());
        assert_eq!(c.stats().entries, 0);
    }

    /// The store counts each part's bytes against its budget, evicts the
    /// least recently used parts of a shard to fit a new one, refuses a
    /// part larger than a shard, and counts its own traffic.
    #[test]
    fn global_part_store_stays_within_its_byte_budget() {
        let part = |floats: usize| {
            Arc::new(GlobalPart {
                scores: scores(0.5),
                features: vec![0.25; floats],
            })
        };
        let weight = part(100).bytes() + PART_ENTRY_BYTES;
        // Room for exactly three such parts per shard.
        let store = GlobalPartStore::with_bytes(3 * weight * DEFAULT_SHARDS);
        // Keys of one shard, so the recency order is fully observable.
        let keys: Vec<CacheKey> = (0..)
            .map(key)
            .filter(|k| (k.raw()[0] as usize).is_multiple_of(DEFAULT_SHARDS))
            .take(5)
            .collect();
        for k in &keys[..3] {
            store.insert(*k, part(100));
        }
        assert_eq!(store.stats().bytes, 3 * weight);
        assert!(store.get(&keys[0]).is_some());
        store.insert(keys[3], part(100));
        assert!(store.get(&keys[1]).is_none(), "the LRU part is evicted");
        assert_eq!(store.get(&keys[0]).as_deref(), Some(&*part(100)));
        // A part twice as large evicts two.
        store.insert(keys[4], part(100 + weight / 4));
        let stats = store.stats();
        assert!(stats.bytes <= 3 * weight, "{stats:?}");
        assert_eq!(stats.entries, 2);
        assert_eq!((stats.hits, stats.misses), (2, 1));
        // Larger than a whole shard: not stored.
        store.insert(keys[1], part(4 * weight));
        assert!(store.get(&keys[1]).is_none());
        store.clear();
        assert_eq!(store.stats().entries, 0);
        assert_eq!(store.stats().bytes, 0);
    }

    #[test]
    fn concurrent_readers_and_writers_stay_consistent() {
        // Capacity exceeds the total insert volume (4 × 200 = 800):
        // with a smaller cache, another thread's inserts could evict a
        // key between this thread's insert and its read-back, turning
        // the test flaky under unlucky scheduling.
        let cache = Arc::new(ShardedLruCache::new(2048));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let k = key(t * 1000 + i);
                        cache.insert(k, scores(0.25), None);
                        assert_eq!(cache.get(&k).map(|s| s.best_confidence()), Some(0.25));
                    }
                });
            }
        });
        assert!(cache.len() <= cache.capacity());
        assert!(cache.stats().hits >= 1);
    }
}
