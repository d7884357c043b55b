//! Persistent on-disk [`StepCache`] tier and durable epoch source.
//!
//! The in-memory [`ShardedLruCache`] dies with its process, but the
//! deployment the paper targets (§4) is a fleet repeatedly crawling
//! slowly changing warehouses: most of the value of memoization is
//! *across* crawler restarts, not within one. This module provides the
//! out-of-process tier:
//!
//! * [`DiskCache`] — one append-only segment file, `<dir>/cache.seg`,
//!   of `CacheKey → StepScores` records keyed by the cross-run-stable
//!   128-bit fingerprints of [`crate::cache`]. The segment carries a
//!   versioned header and a per-record checksum; a torn or corrupt
//!   tail is truncated at open (cold, never wrong), and a segment
//!   written by a different [`DISK_FORMAT_VERSION`] is discarded
//!   entirely.
//! * [`TieredStepCache`] — the sharded LRU as L1 in front of a
//!   [`DiskCache`] L2, promoting disk hits into memory.
//! * [`DurableEpochSource`] — a small epoch file naming the customer
//!   as built: a restarted [`SigmaTyper`] resumes its predecessor's
//!   starting epoch, so the disk tier comes up warm with the entries
//!   written before any adaptation. Adaptation moves the epoch in
//!   memory only; the file is written when it is created or reseeded.
//!
//! # Segment format (version 3)
//!
//! ```text
//! header  := b"SGTC" ‖ version:u32le ‖ reserved:[0u8; 8]      (16 bytes)
//! record  := payload_len:u32le ‖ payload ‖ checksum:[u8; 16]
//! payload := key0:u64le ‖ key1:u64le ‖ epoch:u64le ‖ n:u32le
//!            ‖ n × (ty:u16le ‖ confidence_bits:u64le)
//! ```
//!
//! `checksum` is [`StableHasher::finish128`] over the payload, both
//! lanes little-endian. Scores round-trip by bit pattern
//! (`f64::to_bits`/`from_bits`), preserving the golden-equivalence
//! contract: a disk hit is byte-identical to the insert. `epoch` is
//! the insert's tag (see [`StepCache::insert`]); an untagged record
//! stores `u64::MAX`.
//!
//! Records only append; a key overwritten later simply wins in the
//! in-memory index (rebuilt at open by scanning forward).
//!
//! # Compaction
//!
//! [`compact`](DiskCache::compact) rewrites the segment keeping the
//! latest record of each key that is untagged or tagged with a live
//! epoch. It writes `cache.seg.tmp`, syncs it, and renames it over
//! `cache.seg`, so a crash leaves the old segment or the merged one:
//! every key reads its last insert or nothing. Open ignores a leftover
//! temp file, and the next compaction truncates it. Open reads
//! `cache.seg` alone; a `cache-<seq>.seg` file rolled by an older build
//! holds only records older than every record in `cache.seg`, so
//! skipping it is cold, never stale, and it may be deleted.
//!
//! [`ShardedLruCache`]: crate::cache::ShardedLruCache
//! [`SigmaTyper`]: crate::system::SigmaTyper

use crate::cache::{
    CacheKey, CacheStats, GlobalPartStore, ShardedLruCache, StableHasher, StepCache,
};
use crate::prediction::{Candidate, StepScores};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tu_ontology::TypeId;

/// Version tag of the on-disk segment and epoch-file formats, checked
/// at open. This also pins the [`StableHasher`] field set: the hasher
/// is only promised stable for one code version, so any release that
/// changes the hashed fields (or this file layout) must bump the
/// version, and a mismatched artifact is discarded as cold instead of
/// being trusted.
///
/// History: v1 → v2 moved the column length to a trailing position in
/// the column content hash (enabling [`crate::cache::ColumnHashState`]
/// delta chains), changing every fingerprint bit pattern — v1 segments
/// hold keys no v2 process can ever look up, so they restart cold.
/// v2 → v3 changed what a numeric column of overflowing magnitudes
/// (about 1e154 and up) featurizes to: its mean and deviation read
/// finite where they were `+inf` or NaN, so the embedding step scores
/// such a column differently under the same key. v2 segments may hold
/// those stale scores, so they restart cold.
pub const DISK_FORMAT_VERSION: u32 = 3;

const SEGMENT_MAGIC: [u8; 4] = *b"SGTC";
const EPOCH_MAGIC: [u8; 4] = *b"SGTE";
/// Segment header: magic ‖ version ‖ 8 reserved bytes.
const HEADER_LEN: u64 = 16;
/// Fixed payload prefix: key (16) ‖ epoch (8) ‖ candidate count (4).
const PAYLOAD_PREFIX: usize = 28;
/// Bytes per candidate: type id (2) ‖ confidence bits (8).
const CANDIDATE_LEN: usize = 10;
/// Sanity bound rejecting absurd record lengths while scanning a
/// (possibly corrupt) segment.
const MAX_PAYLOAD: usize = 16 << 20;

/// Epoch field of an untagged record (an insert with `epoch: None`),
/// on disk and in the index. [`DiskCache::compact`] keeps such records
/// whatever epochs are live. A tag of `u64::MAX` itself reads back as
/// untagged; the epoch counter starts below 2⁶³, so no epoch reaches it.
const UNTAGGED: u64 = u64::MAX;

fn checksum(payload: &[u8]) -> [u8; 16] {
    let mut h = StableHasher::new();
    h.write(payload);
    let [a, b] = h.finish128();
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&a.to_le_bytes());
    out[8..].copy_from_slice(&b.to_le_bytes());
    out
}

fn encode_payload(key: CacheKey, epoch: u64, scores: &StepScores) -> Vec<u8> {
    let raw = key.raw();
    let mut buf = Vec::with_capacity(PAYLOAD_PREFIX + CANDIDATE_LEN * scores.candidates.len());
    buf.extend_from_slice(&raw[0].to_le_bytes());
    buf.extend_from_slice(&raw[1].to_le_bytes());
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&(scores.candidates.len() as u32).to_le_bytes());
    for c in &scores.candidates {
        buf.extend_from_slice(&c.ty.0.to_le_bytes());
        buf.extend_from_slice(&c.confidence.to_bits().to_le_bytes());
    }
    buf
}

/// Decode a verified payload. Scores are rebuilt field-by-field (not
/// re-normalized through `from_candidates`) so the round-trip is
/// bit-identical to the inserted value.
fn decode_payload(payload: &[u8]) -> Option<(CacheKey, u64, StepScores)> {
    if payload.len() < PAYLOAD_PREFIX {
        return None;
    }
    let key0 = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let key1 = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    let epoch = u64::from_le_bytes(payload[16..24].try_into().ok()?);
    let n = u32::from_le_bytes(payload[24..28].try_into().ok()?) as usize;
    if payload.len() != PAYLOAD_PREFIX + CANDIDATE_LEN * n {
        return None;
    }
    let mut candidates = Vec::with_capacity(n);
    for i in 0..n {
        let at = PAYLOAD_PREFIX + CANDIDATE_LEN * i;
        let ty = u16::from_le_bytes(payload[at..at + 2].try_into().ok()?);
        let bits = u64::from_le_bytes(payload[at + 2..at + 10].try_into().ok()?);
        candidates.push(Candidate {
            ty: TypeId(ty),
            confidence: f64::from_bits(bits),
        });
    }
    Some((
        CacheKey::from_raw([key0, key1]),
        epoch,
        StepScores { candidates },
    ))
}

fn write_header(file: &mut File) -> io::Result<()> {
    let mut header = [0u8; HEADER_LEN as usize];
    header[..4].copy_from_slice(&SEGMENT_MAGIC);
    header[4..8].copy_from_slice(&DISK_FORMAT_VERSION.to_le_bytes());
    file.write_all(&header)
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    /// Offset of the record's `payload_len` field in the segment.
    offset: u64,
    payload_len: u32,
    /// The record's epoch tag, or [`UNTAGGED`].
    epoch: u64,
}

impl IndexEntry {
    fn total_len(self) -> u64 {
        4 + u64::from(self.payload_len) + 16
    }
}

#[derive(Debug)]
struct DiskInner {
    file: File,
    index: HashMap<CacheKey, IndexEntry>,
    /// Append position: one past the last verified record.
    tail: u64,
}

/// Scan an open segment into a key index. Returns the index and the
/// verified tail; a tail of 0 means "header invalid — nothing
/// trusted". Scanning stops at the first torn or corrupt record:
/// everything before it is trusted (checksummed), everything after is
/// unreachable anyway since offsets only grow.
fn scan_segment(file: &mut File) -> io::Result<(HashMap<CacheKey, IndexEntry>, u64)> {
    let mut index = HashMap::new();
    let len = file.metadata()?.len();
    if len < HEADER_LEN {
        return Ok((index, 0));
    }
    file.seek(SeekFrom::Start(0))?;
    let mut reader = BufReader::new(&mut *file);
    let mut header = [0u8; HEADER_LEN as usize];
    reader.read_exact(&mut header)?;
    if header[..4] != SEGMENT_MAGIC || header[4..8] != DISK_FORMAT_VERSION.to_le_bytes() {
        return Ok((index, 0));
    }
    let mut offset = HEADER_LEN;
    while offset < len {
        let mut len4 = [0u8; 4];
        if reader.read_exact(&mut len4).is_err() {
            break;
        }
        let payload_len = u32::from_le_bytes(len4) as usize;
        let entry = IndexEntry {
            offset,
            payload_len: payload_len as u32,
            epoch: 0,
        };
        if !(PAYLOAD_PREFIX..=MAX_PAYLOAD).contains(&payload_len)
            || offset + entry.total_len() > len
        {
            break;
        }
        let mut payload = vec![0u8; payload_len];
        let mut sum = [0u8; 16];
        if reader.read_exact(&mut payload).is_err() || reader.read_exact(&mut sum).is_err() {
            break;
        }
        if sum != checksum(&payload) {
            break;
        }
        let Some((key, epoch, _)) = decode_payload(&payload) else {
            break;
        };
        index.insert(key, IndexEntry { epoch, ..entry });
        offset += entry.total_len();
    }
    Ok((index, offset))
}

/// Read and verify one record's scores at a known index entry.
fn read_record(file: &mut File, entry: IndexEntry) -> Option<(CacheKey, u64, StepScores)> {
    file.seek(SeekFrom::Start(entry.offset + 4)).ok()?;
    let mut payload = vec![0u8; entry.payload_len as usize];
    file.read_exact(&mut payload).ok()?;
    let mut sum = [0u8; 16];
    file.read_exact(&mut sum).ok()?;
    if sum != checksum(&payload) {
        return None;
    }
    decode_payload(&payload)
}

/// Take the exclusive advisory lock on `dir/cache.lock`, failing fast
/// (no blocking, no retry) when another [`DiskCache`] already writes
/// this directory. The error names the directory and the remedy so a
/// misconfigured fleet member diagnoses itself from the message alone.
fn acquire_writer_lock(dir: &Path) -> io::Result<File> {
    let lock_path = dir.join("cache.lock");
    let lock = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(&lock_path)?;
    match lock.try_lock() {
        Ok(()) => Ok(lock),
        Err(fs::TryLockError::WouldBlock) => Err(io::Error::new(
            io::ErrorKind::WouldBlock,
            format!(
                "disk cache directory {} is already owned by a live writer \
                 (advisory lock {} is held); point this instance at its own \
                 directory, or wait for the owner to exit — the lock is \
                 released automatically when the owning process dies",
                dir.display(),
                lock_path.display()
            ),
        )),
        Err(fs::TryLockError::Error(e)) => Err(e),
    }
}

/// An append-only persistent [`StepCache`] backend: one segment file,
/// `<dir>/cache.seg` (see the module docs for the format, compaction
/// and the correctness argument).
///
/// All file I/O happens under one mutex — the intended deployment puts
/// a [`ShardedLruCache`] in front (see [`TieredStepCache`]) so the
/// disk is only touched on L1 misses. Reads verify the per-record
/// checksum; any I/O error or corruption is reported as a miss, never
/// as data.
///
/// ```no_run
/// use sigmatyper::diskcache::DiskCache;
/// use sigmatyper::StepCache;
/// let cache = DiskCache::open("/var/cache/sigmatyper/customer-7").unwrap();
/// assert!(cache.is_empty());
/// cache.flush().unwrap();
/// ```
#[derive(Debug)]
pub struct DiskCache {
    /// Path of the segment (`<dir>/cache.seg`).
    path: PathBuf,
    inner: Mutex<DiskInner>,
    /// Held (never read) for the lifetime of the cache: the advisory
    /// writer lock on `cache.lock` in the segment directory. The OS
    /// releases it when this handle drops — including on a crash, so a
    /// dead writer never wedges the directory.
    _writer_lock: File,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    /// Entries dropped by compaction (the disk tier never evicts
    /// otherwise).
    dropped: AtomicU64,
}

impl DiskCache {
    /// Open (or create) the segment under directory `dir`, scanning it
    /// to rebuild the key index. A segment with a missing, foreign, or
    /// version-mismatched header is restarted empty; a torn tail is
    /// truncated at the last verified record. Only `cache.seg` is
    /// read: a leftover `cache.seg.tmp` or a `cache-<seq>.seg` rolled
    /// by an older build is ignored.
    ///
    /// The directory is guarded by an **advisory writer lock**
    /// (`cache.lock`): the segment is a single append stream, so two
    /// live writers would interleave appends and corrupt each other's
    /// records. A second open of the same directory — from another
    /// process of the fleet or another handle in this one — fails fast
    /// with [`io::ErrorKind::WouldBlock`] and a clear message instead.
    /// The lock dies with the handle (even on a crash), so recovery is
    /// automatic.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<DiskCache> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let writer_lock = acquire_writer_lock(dir)?;
        let path = dir.join("cache.seg");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let (index, tail) = scan_segment(&mut file)?;
        let tail = if tail == 0 {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            write_header(&mut file)?;
            HEADER_LEN
        } else {
            // Drop torn bytes so the next append starts clean.
            file.set_len(tail)?;
            tail
        };
        Ok(DiskCache {
            path,
            inner: Mutex::new(DiskInner { file, index, tail }),
            _writer_lock: writer_lock,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Path of the segment file.
    #[must_use]
    pub fn segment_path(&self) -> &Path {
        &self.path
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DiskInner> {
        // Like the LRU shards: plain data, so a poisoned lock at worst
        // loses entries, never integrity (reads re-verify checksums).
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Rewrite the segment keeping the latest record of each key that
    /// is untagged or tagged with an epoch in `live_epochs`, dropping
    /// superseded duplicates and adapted-away epochs. Returns how many
    /// index entries were dropped. The rewrite goes to
    /// `cache.seg.tmp`, which is synced and then renamed over
    /// `cache.seg`: a crash leaves the old segment or the merged one,
    /// and every key reads its last insert or nothing (cold, never
    /// stale).
    ///
    /// An untagged record (a header-scoped entry, whose key hashes no
    /// epoch) survives every compaction; once a feedback changes its
    /// header's `Wg` state it is unreachable and stays until
    /// [`clear`](StepCache::clear).
    pub fn compact(&self, live_epochs: &[u64]) -> io::Result<usize> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let mut entries: Vec<(CacheKey, IndexEntry)> =
            inner.index.iter().map(|(k, e)| (*k, *e)).collect();
        // Keep append order: the reads stay sequential and the merged
        // segment stays oldest-first.
        entries.sort_by_key(|(_, e)| e.offset);
        let tmp_path = self.path.with_extension("seg.tmp");
        let mut tmp = File::create(&tmp_path)?;
        write_header(&mut tmp)?;
        let mut index = HashMap::new();
        let mut tail = HEADER_LEN;
        let mut dropped = 0usize;
        for (key, entry) in entries {
            if entry.epoch != UNTAGGED && !live_epochs.contains(&entry.epoch) {
                dropped += 1;
                continue;
            }
            inner.file.seek(SeekFrom::Start(entry.offset))?;
            let mut rec = vec![0u8; entry.total_len() as usize];
            inner.file.read_exact(&mut rec)?;
            let payload = &rec[4..4 + entry.payload_len as usize];
            if rec[4 + entry.payload_len as usize..] != checksum(payload) {
                dropped += 1;
                continue;
            }
            tmp.write_all(&rec)?;
            index.insert(
                key,
                IndexEntry {
                    offset: tail,
                    ..entry
                },
            );
            tail += entry.total_len();
        }
        tmp.sync_data()?;
        fs::rename(&tmp_path, &self.path)?;
        inner.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        inner.index = index;
        inner.tail = tail;
        self.dropped.fetch_add(dropped as u64, Ordering::Relaxed);
        Ok(dropped)
    }
}

impl StepCache for DiskCache {
    fn get(&self, key: &CacheKey) -> Option<StepScores> {
        let mut inner = self.lock();
        let entry = inner.index.get(key).copied();
        let found = entry
            .and_then(|entry| read_record(&mut inner.file, entry))
            .and_then(|(k, _, scores)| (k == *key).then_some(scores));
        drop(inner);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn insert(&self, key: CacheKey, scores: StepScores, epoch: Option<u64>) {
        let epoch = epoch.unwrap_or(UNTAGGED);
        let payload = encode_payload(key, epoch, &scores);
        if payload.len() > MAX_PAYLOAD {
            return;
        }
        let mut rec = Vec::with_capacity(4 + payload.len() + 16);
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&payload);
        rec.extend_from_slice(&checksum(&payload));
        let mut inner = self.lock();
        let offset = inner.tail;
        let mut ok = inner.file.seek(SeekFrom::Start(offset)).is_ok();
        if ok {
            ok = inner.file.write_all(&rec).is_ok();
        }
        if ok {
            inner.index.insert(
                key,
                IndexEntry {
                    offset,
                    payload_len: payload.len() as u32,
                    epoch,
                },
            );
            inner.tail = offset + rec.len() as u64;
            drop(inner);
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
        // A failed append leaves `tail` unchanged: the next insert
        // overwrites the torn bytes, and a reopen-time scan truncates
        // them — cold, never wrong.
    }

    fn len(&self) -> usize {
        self.lock().index.len()
    }

    fn clear(&self) {
        let mut inner = self.lock();
        inner.index.clear();
        // Best-effort: on failure the orphaned records are unreachable
        // in this process and rescanned only after reopen.
        if inner.file.set_len(HEADER_LEN).is_ok() {
            inner.tail = HEADER_LEN;
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.dropped.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    fn flush(&self) -> io::Result<()> {
        self.lock().file.sync_data()
    }
}

/// A two-level [`StepCache`]: a [`ShardedLruCache`] L1 serving the hot
/// working set from memory, backed by a [`DiskCache`] L2 that survives
/// the process. Disk hits are promoted into L1; inserts write through
/// to both tiers.
///
/// [`stats`](StepCache::stats) reports the combined view: `hits` from
/// either tier, `misses` only where both tiers missed, `inserts` and
/// `entries` from the authoritative L2, `evictions` from the bounded
/// L1. Per-tier counters remain available through
/// [`l1`](TieredStepCache::l1)/[`l2`](TieredStepCache::l2).
#[derive(Debug)]
pub struct TieredStepCache {
    l1: ShardedLruCache,
    l2: DiskCache,
}

impl TieredStepCache {
    /// Tier an in-memory LRU of `l1_capacity` entries in front of an
    /// open [`DiskCache`].
    #[must_use]
    pub fn new(l1_capacity: usize, l2: DiskCache) -> Self {
        TieredStepCache {
            l1: ShardedLruCache::new(l1_capacity),
            l2,
        }
    }

    /// Open (or create) the disk tier under `dir` with an L1 of
    /// `l1_capacity` entries.
    pub fn open(dir: impl AsRef<Path>, l1_capacity: usize) -> io::Result<Self> {
        DiskCache::open(dir).map(|l2| TieredStepCache::new(l1_capacity, l2))
    }

    /// The in-memory tier.
    #[must_use]
    pub fn l1(&self) -> &ShardedLruCache {
        &self.l1
    }

    /// The persistent tier.
    #[must_use]
    pub fn l2(&self) -> &DiskCache {
        &self.l2
    }

    /// Compact the disk tier (see [`DiskCache::compact`]). The L1 is
    /// untouched — its stale entries are unreachable by fingerprint
    /// and age out on their own.
    pub fn compact(&self, live_epochs: &[u64]) -> io::Result<usize> {
        self.l2.compact(live_epochs)
    }
}

impl StepCache for TieredStepCache {
    fn get(&self, key: &CacheKey) -> Option<StepScores> {
        if let Some(scores) = self.l1.get(key) {
            return Some(scores);
        }
        let scores = self.l2.get(key)?;
        // L1 never reads the tag.
        self.l1.insert(*key, scores.clone(), None);
        Some(scores)
    }

    fn insert(&self, key: CacheKey, scores: StepScores, epoch: Option<u64>) {
        self.l1.insert(key, scores.clone(), epoch);
        self.l2.insert(key, scores, epoch);
    }

    fn len(&self) -> usize {
        self.l2.len()
    }

    fn clear(&self) {
        self.l1.clear();
        self.l2.clear();
    }

    fn stats(&self) -> CacheStats {
        let l1 = self.l1.stats();
        let l2 = self.l2.stats();
        CacheStats {
            hits: l1.hits + l2.hits,
            misses: l2.misses,
            inserts: l2.inserts,
            evictions: l1.evictions,
            entries: l2.entries,
        }
    }

    fn flush(&self) -> io::Result<()> {
        self.l2.flush()
    }

    /// The L1's: global halves live in memory only.
    fn global_parts(&self) -> Option<&GlobalPartStore> {
        self.l1.global_parts()
    }
}

/// Length of the epoch file: one record of magic ‖ version ‖ epoch ‖
/// checksum.
const EPOCH_FILE_LEN: u64 = 32;

fn read_epoch_file(path: &Path) -> Option<u64> {
    let bytes = fs::read(path).ok()?;
    if bytes.len() as u64 != EPOCH_FILE_LEN
        || bytes[..4] != EPOCH_MAGIC
        || bytes[4..8] != DISK_FORMAT_VERSION.to_le_bytes()
        || bytes[16..32] != checksum(&bytes[..16])
    {
        return None;
    }
    Some(u64::from_le_bytes(bytes[8..16].try_into().ok()?))
}

/// Write `epoch`'s record over the start of the epoch file at `path`,
/// in place, and sync the file's data. A file longer than one record is
/// cut to one, since [`read_epoch_file`] accepts nothing else. Creating
/// the file also syncs its directory, so that its name is durable;
/// reseeding a corrupt file in place never changes the name.
///
/// A crash mid-write can leave the new record's first bytes over the
/// corrupt record's last ones: the checksum then fails, and the next
/// open reseeds again.
fn write_epoch_file(path: &Path, epoch: u64) -> io::Result<()> {
    let mut record = Vec::with_capacity(EPOCH_FILE_LEN as usize);
    record.extend_from_slice(&EPOCH_MAGIC);
    record.extend_from_slice(&DISK_FORMAT_VERSION.to_le_bytes());
    record.extend_from_slice(&epoch.to_le_bytes());
    let sum = checksum(&record);
    record.extend_from_slice(&sum);
    let (mut file, created) = match OpenOptions::new().write(true).open(path) {
        Ok(file) => (file, false),
        Err(e) if e.kind() == io::ErrorKind::NotFound => (
            OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)?,
            true,
        ),
        Err(e) => return Err(e),
    };
    file.write_all(&record)?;
    if file.metadata()?.len() > EPOCH_FILE_LEN {
        file.set_len(EPOCH_FILE_LEN)?;
    }
    file.sync_data()?;
    if created {
        let dir = path
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// A durable per-customer starting epoch backed by a 32-byte file
/// (magic ‖ version ‖ epoch ‖ checksum). Installed with
/// [`SigmaTyperBuilder::epoch_source`], it replaces the fresh epoch
/// `build` would draw: a restarted process resumes its predecessor's
/// starting epoch, so a persistent cache tier stays warm.
///
/// The file names the customer *as built*, the one state a restart
/// can rebuild: the local model is not persisted, so adaptation moves
/// the epoch in memory only and never writes the file. Entries written
/// after a correction carry an epoch no restart resumes, so a restart
/// never reads them; [`DiskCache::compact`] with the stored epoch drops
/// them.
///
/// * A missing or corrupt file is seeded from the in-process epoch
///   counter and persisted before [`open`](DurableEpochSource::open)
///   returns: the record's data is synced, and so is the directory
///   when the file is created. A file longer than one record is cut
///   back to 32 bytes. A reseed is a cold cache, never a stale hit.
/// * Nothing writes the file after `open` returns, and
///   [`current`](DurableEpochSource::current) returns the epoch read
///   or seeded at open without touching the file again.
///
/// A crash that tears a reseed leaves the new record's first bytes
/// over the corrupt record's last ones. That fails the checksum unless
/// the whole new record landed, so the next open resumes the new epoch
/// or reseeds again.
///
/// [`SigmaTyperBuilder::epoch_source`]: crate::system::SigmaTyperBuilder::epoch_source
#[derive(Debug)]
pub struct DurableEpochSource {
    epoch: u64,
}

impl DurableEpochSource {
    /// Open (or create) the epoch file at `path`. An existing valid
    /// file resumes its stored epoch — the point of durability: a
    /// restarted process keeps reaching its predecessor's cached
    /// entries. A missing or corrupt file is seeded with a fresh epoch,
    /// persisted before returning.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let epoch = match read_epoch_file(path) {
            Some(stored) => stored,
            None => {
                let seed = crate::system::next_epoch();
                write_epoch_file(path, seed)?;
                seed
            }
        };
        Ok(DurableEpochSource { epoch })
    }

    /// The epoch read (or seeded) at open.
    #[must_use]
    pub fn current(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{SystemTime, UNIX_EPOCH};

    fn scores(conf: f64, n: usize) -> StepScores {
        StepScores {
            candidates: (0..n)
                .map(|i| Candidate {
                    ty: TypeId(i as u16),
                    confidence: conf / (i + 1) as f64,
                })
                .collect(),
        }
    }

    fn key(n: u64) -> CacheKey {
        CacheKey::from_raw([
            crate::cache::avalanche(n),
            crate::cache::avalanche(n ^ 0x5bd1_e995),
        ])
    }

    /// A fresh per-test scratch directory (no tempfile crate in the
    /// workspace); removed by `Scratch::drop`.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let nanos = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos());
            let dir = std::env::temp_dir().join(format!(
                "sigmatyper-diskcache-{tag}-{}-{nanos}",
                std::process::id()
            ));
            fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn roundtrip_is_bit_identical_and_survives_reopen() {
        let dir = Scratch::new("roundtrip");
        let written = scores(0.875, 3);
        {
            let cache = DiskCache::open(dir.path()).unwrap();
            assert!(cache.is_empty());
            assert_eq!(cache.get(&key(1)), None);
            cache.insert(key(1), written.clone(), Some(42));
            cache.insert(key(2), scores(0.5, 0), Some(42));
            assert_eq!(cache.len(), 2);
            assert_eq!(cache.get(&key(1)).unwrap(), written);
            cache.flush().unwrap();
            let s = cache.stats();
            assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 2, 2));
        }
        // A fresh handle (simulated restart) rescans the segment.
        let cache = DiskCache::open(dir.path()).unwrap();
        assert_eq!(cache.len(), 2);
        let read_back = cache.get(&key(1)).unwrap();
        assert_eq!(read_back, written);
        for (a, b) in read_back.candidates.iter().zip(&written.candidates) {
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
        assert_eq!(cache.get(&key(2)).unwrap().candidates.len(), 0);
    }

    #[test]
    fn second_writer_on_one_directory_fails_fast_until_the_first_drops() {
        let dir = Scratch::new("lock");
        let first = DiskCache::open(dir.path()).unwrap();
        // A second open of the same directory must refuse immediately —
        // two live writers would interleave appends into one segment.
        let second = DiskCache::open(dir.path());
        let err = second.expect_err("advisory lock must refuse a second writer");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        let msg = err.to_string();
        assert!(
            msg.contains("already owned by a live writer") && msg.contains("cache.lock"),
            "error must name the conflict and the lock file: {msg}"
        );
        // The tiered wrapper goes through the same guard.
        assert!(TieredStepCache::open(dir.path(), 64).is_err());
        // A *different* directory is unaffected.
        let other = Scratch::new("lock-other");
        drop(DiskCache::open(other.path()).unwrap());
        // Dropping the owner releases the lock; reopen succeeds and the
        // data written by the first owner is still served.
        first.insert(key(9), scores(0.5, 1), Some(3));
        drop(first);
        let reopened = DiskCache::open(dir.path()).unwrap();
        assert_eq!(reopened.get(&key(9)).unwrap(), scores(0.5, 1));
    }

    #[test]
    fn latest_insert_wins_within_and_across_opens() {
        let dir = Scratch::new("latest");
        {
            let cache = DiskCache::open(dir.path()).unwrap();
            cache.insert(key(1), scores(0.25, 1), Some(7));
            cache.insert(key(1), scores(0.75, 1), Some(7));
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.get(&key(1)).unwrap(), scores(0.75, 1));
        }
        let cache = DiskCache::open(dir.path()).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(1)).unwrap(), scores(0.75, 1));
    }

    #[test]
    fn truncated_tail_is_cold_never_garbage() {
        let dir = Scratch::new("torn");
        let seg = {
            let cache = DiskCache::open(dir.path()).unwrap();
            for n in 0..4 {
                cache.insert(key(n), scores(0.5, 2), Some(1));
            }
            cache.flush().unwrap();
            cache.segment_path().to_path_buf()
        };
        let intact = fs::read(&seg).unwrap();
        // Cut the intact file at every byte offset, as a crash mid-append
        // would leave it: reopen must never panic, and every surviving
        // hit must verify.
        for cut in (0..=intact.len()).rev() {
            fs::write(&seg, &intact[..cut]).unwrap();
            let cache = DiskCache::open(dir.path()).unwrap();
            assert!(cache.len() <= 4);
            for n in 0..4 {
                if let Some(s) = cache.get(&key(n)) {
                    assert_eq!(s, scores(0.5, 2), "a surviving entry must be exact");
                }
            }
        }
        // Fully truncated: reopened empty and writable again.
        let cache = DiskCache::open(dir.path()).unwrap();
        assert!(cache.is_empty());
        cache.insert(key(9), scores(0.9, 1), Some(2));
        assert_eq!(cache.get(&key(9)).unwrap(), scores(0.9, 1));
    }

    #[test]
    fn corrupt_interior_byte_invalidates_reachable_suffix_only() {
        let dir = Scratch::new("flip");
        let seg = {
            let cache = DiskCache::open(dir.path()).unwrap();
            for n in 0..3 {
                cache.insert(key(n), scores(0.5, 1), Some(1));
            }
            cache.flush().unwrap();
            cache.segment_path().to_path_buf()
        };
        // Flip one payload byte in the middle record.
        let mut bytes = fs::read(&seg).unwrap();
        let record_len = 4 + PAYLOAD_PREFIX + CANDIDATE_LEN + 16;
        let target = HEADER_LEN as usize + record_len + 8;
        bytes[target] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        let cache = DiskCache::open(dir.path()).unwrap();
        // Record 0 still verifies; 1 and 2 are behind the corruption.
        assert_eq!(cache.get(&key(0)).unwrap(), scores(0.5, 1));
        assert_eq!(cache.get(&key(1)), None);
        assert_eq!(cache.get(&key(2)), None);
    }

    #[test]
    fn version_or_magic_mismatch_restarts_segment() {
        let dir = Scratch::new("version");
        let seg = {
            let cache = DiskCache::open(dir.path()).unwrap();
            cache.insert(key(1), scores(0.5, 1), Some(1));
            cache.flush().unwrap();
            cache.segment_path().to_path_buf()
        };
        for patch in [4usize, 0] {
            let mut bytes = fs::read(&seg).unwrap();
            bytes[patch] = bytes[patch].wrapping_add(1);
            fs::write(&seg, &bytes).unwrap();
            let cache = DiskCache::open(dir.path()).unwrap();
            assert!(cache.is_empty(), "foreign segment must come up cold");
            // …and the segment was rewritten valid.
            cache.insert(key(1), scores(0.5, 1), Some(1));
            cache.flush().unwrap();
        }
    }

    #[test]
    fn compaction_drops_unreachable_epochs_and_duplicates() {
        let dir = Scratch::new("compact");
        let cache = DiskCache::open(dir.path()).unwrap();
        cache.insert(key(1), scores(0.1, 1), Some(1));
        cache.insert(key(2), scores(0.2, 1), Some(1));
        // Adaptation: epoch 2 supersedes key(1)'s column.
        cache.insert(key(3), scores(0.3, 1), Some(2));
        let before = fs::metadata(cache.segment_path()).unwrap().len();
        let dropped = cache.compact(&[2]).unwrap();
        assert_eq!(dropped, 2);
        assert_eq!(cache.len(), 1);
        assert!(fs::metadata(cache.segment_path()).unwrap().len() < before);
        assert_eq!(cache.get(&key(3)).unwrap(), scores(0.3, 1));
        assert_eq!(cache.get(&key(1)), None);
        assert_eq!(cache.stats().evictions, 2);
        // The compacted segment is append-consistent: more inserts and
        // a reopen both work.
        cache.insert(key(5), scores(0.5, 1), Some(2));
        cache.flush().unwrap();
        drop(cache);
        let cache = DiskCache::open(dir.path()).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(5)).unwrap(), scores(0.5, 1));
    }

    /// Untagged records — header-scoped entries, whose keys hash no
    /// epoch — survive every compaction: with no epoch live at all,
    /// the latest record of each untagged key stays and every tagged
    /// key goes.
    #[test]
    fn compaction_keeps_the_latest_record_of_every_untagged_key() {
        let dir = Scratch::new("compact-untagged");
        let cache = DiskCache::open(dir.path()).unwrap();
        cache.insert(key(1), scores(0.1, 1), None);
        cache.insert(key(2), scores(0.2, 1), Some(1));
        cache.insert(key(1), scores(0.9, 1), None);
        cache.insert(key(3), scores(0.3, 1), None);
        cache.insert(key(4), scores(0.4, 1), Some(2));
        assert_eq!(cache.compact(&[]).unwrap(), 2, "the two tagged keys");
        let record_len = (4 + PAYLOAD_PREFIX + CANDIDATE_LEN + 16) as u64;
        assert_eq!(
            fs::metadata(cache.segment_path()).unwrap().len(),
            HEADER_LEN + 2 * record_len,
            "one record per untagged key"
        );
        drop(cache);
        let cache = DiskCache::open(dir.path()).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(1)).unwrap(), scores(0.9, 1));
        assert_eq!(cache.get(&key(3)).unwrap(), scores(0.3, 1));
        assert_eq!(cache.get(&key(2)), None);
        assert_eq!(cache.get(&key(4)), None);
    }

    /// A `cache-<seq>.seg` rolled by an older build is never read:
    /// every record in it is older than every record in `cache.seg`,
    /// so skipping it is cold, never stale.
    #[test]
    fn open_reads_cache_seg_alone_beside_a_rolled_segment() {
        let dir = Scratch::new("rolled");
        {
            let cache = DiskCache::open(dir.path()).unwrap();
            cache.insert(key(1), scores(0.1, 1), Some(1));
            cache.insert(key(2), scores(0.2, 1), Some(1));
        }
        let rolled = dir.path().join("cache-000000.seg");
        fs::rename(dir.path().join("cache.seg"), &rolled).unwrap();
        let rolled_bytes = fs::read(&rolled).unwrap();
        {
            let cache = DiskCache::open(dir.path()).unwrap();
            cache.insert(key(2), scores(0.5, 1), Some(1));
            cache.insert(key(3), scores(0.3, 1), None);
        }
        let cache = DiskCache::open(dir.path()).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(1)), None);
        assert_eq!(cache.get(&key(2)).unwrap(), scores(0.5, 1));
        assert_eq!(cache.get(&key(3)).unwrap(), scores(0.3, 1));
        assert_eq!(fs::read(&rolled).unwrap(), rolled_bytes, "left untouched");
    }

    #[test]
    fn clear_empties_disk_and_reopen_sees_nothing() {
        let dir = Scratch::new("clear");
        let cache = DiskCache::open(dir.path()).unwrap();
        cache.insert(key(1), scores(0.5, 1), Some(1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(1)), None);
        cache.insert(key(2), scores(0.5, 1), Some(1));
        cache.flush().unwrap();
        drop(cache);
        let cache = DiskCache::open(dir.path()).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.get(&key(2)).is_some());
    }

    #[test]
    fn tiered_cache_promotes_and_reports_combined_stats() {
        let dir = Scratch::new("tiered");
        let tiered = TieredStepCache::open(dir.path(), 64).unwrap();
        tiered.insert(key(1), scores(0.5, 1), Some(1));
        // L1 hit.
        assert!(tiered.get(&key(1)).is_some());
        assert_eq!(tiered.l1().stats().hits, 1);
        assert_eq!(tiered.l2().stats().hits, 0);
        // Simulate a restart: L1 cold, L2 warm, hit promotes. (A real
        // drop, not a shadow — the dying handle must release the
        // directory's writer lock for the reopen to be admitted.)
        drop(tiered);
        let tiered = TieredStepCache::open(dir.path(), 64).unwrap();
        assert_eq!(tiered.len(), 1);
        assert!(tiered.get(&key(1)).is_some(), "disk hit");
        assert_eq!(tiered.l2().stats().hits, 1);
        assert!(tiered.get(&key(1)).is_some(), "promoted into L1");
        assert_eq!(tiered.l2().stats().hits, 1, "second hit served by L1");
        let s = tiered.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 0);
        assert_eq!(s.entries, 1);
        // A total miss counts once.
        assert!(tiered.get(&key(9)).is_none());
        assert_eq!(tiered.stats().misses, 1);
        // Flush reaches the L2.
        tiered.flush().unwrap();
        tiered.clear();
        assert!(tiered.is_empty());
    }

    /// Reopen the epoch file at `path`: `intact`, the record of
    /// `stored`, resumes it and leaves the bytes alone; anything else
    /// reseeds a fresh epoch, rewritten as one whole 32-byte record
    /// that the next open resumes. Returns the epoch.
    fn reopen_resumes_or_reseeds(path: &Path, stored: u64, intact: &[u8]) -> u64 {
        let before = fs::read(path).unwrap();
        let reopened = DurableEpochSource::open(path).unwrap().current();
        let after = fs::read(path).unwrap();
        if before == intact {
            assert_eq!(reopened, stored, "an intact record resumes");
            assert_eq!(after, intact, "a resume writes nothing");
        } else {
            assert_ne!(reopened, stored, "a damaged record reseeds");
            assert_eq!(after.len(), 32, "a reseed is one whole record");
            assert_eq!(read_epoch_file(path), Some(reopened));
            assert_eq!(DurableEpochSource::open(path).unwrap().current(), reopened);
        }
        reopened
    }

    #[test]
    fn durable_epoch_source_resumes_and_reseeds_a_corrupt_file() {
        let dir = Scratch::new("epoch");
        let path = dir.path().join("epoch");
        let first = DurableEpochSource::open(&path).unwrap();
        let e0 = first.current();
        let intact = fs::read(&path).unwrap();
        assert_eq!(intact.len(), 32);
        // Resuming reads the same epoch back (durable across restart)
        // and leaves the file as it was.
        assert_eq!(reopen_resumes_or_reseeds(&path, e0, &intact), e0);
        // Corrupt file ⇒ reopen reseeds fresh instead of trusting it.
        let mut bytes = intact.clone();
        bytes[20] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let reseeded = reopen_resumes_or_reseeds(&path, e0, &intact);
        let reseeded_record = fs::read(&path).unwrap();
        // A handle never reads the file again after open.
        fs::write(&path, b"junk").unwrap();
        assert_eq!(first.current(), e0);
        reopen_resumes_or_reseeds(&path, reseeded, &reseeded_record);
    }

    /// A crash can leave the 32-byte epoch file cut at any offset:
    /// every cut reopens to a freshly seeded epoch (a cold cache, never
    /// a stale one) that the next open resumes, and the intact file
    /// still resumes the stored one.
    #[test]
    fn truncated_epoch_file_reseeds_at_every_offset() {
        let dir = Scratch::new("epoch-torn");
        let path = dir.path().join("epoch");
        let stored = DurableEpochSource::open(&path).unwrap().current();
        let intact = fs::read(&path).unwrap();
        assert_eq!(intact.len(), 32);
        for cut in (0..intact.len()).rev() {
            fs::write(&path, &intact[..cut]).unwrap();
            reopen_resumes_or_reseeds(&path, stored, &intact);
        }
        fs::write(&path, &intact).unwrap();
        reopen_resumes_or_reseeds(&path, stored, &intact);
    }

    /// A reseed overwrites a corrupt record in place, so a crash can
    /// leave the reseed's first bytes over the corrupt record's last
    /// ones. At every split point a reopen resumes the reseed (only
    /// when all of it landed) or reseeds again, writing a fresh record
    /// that the next open resumes. A file longer than one record is
    /// cut back to 32 bytes.
    #[test]
    fn torn_reseed_over_a_corrupt_record_resumes_or_reseeds() {
        let dir = Scratch::new("epoch-reseed");
        let path = dir.path().join("epoch");
        let old_epoch = DurableEpochSource::open(&path).unwrap().current();
        let old = fs::read(&path).unwrap();
        let mut corrupt = old.clone();
        corrupt[31] ^= 0x01;
        fs::write(&path, &corrupt).unwrap();
        let new_epoch = reopen_resumes_or_reseeds(&path, old_epoch, &old);
        let new = fs::read(&path).unwrap();
        let mut resumed = 0;
        for split in 0..=new.len() {
            let torn: Vec<u8> = new[..split]
                .iter()
                .chain(&corrupt[split..])
                .copied()
                .collect();
            fs::write(&path, &torn).unwrap();
            let reopened = reopen_resumes_or_reseeds(&path, new_epoch, &new);
            assert_ne!(
                reopened, old_epoch,
                "split {split} resumed the corrupt epoch"
            );
            resumed += usize::from(reopened == new_epoch);
        }
        assert!(resumed >= 1, "the whole reseed resumes");

        let mut long = new.clone();
        long.extend_from_slice(b"trailing");
        fs::write(&path, &long).unwrap();
        reopen_resumes_or_reseeds(&path, new_epoch, &new);
    }

    /// Corruption at every offset: each byte of a flushed 4-record
    /// segment flipped in turn, from the intact file each time. Reopen
    /// never panics and never serves a wrong entry. A flip in a record
    /// stops the scan there, so exactly the records before it survive;
    /// one in the header's magic or version restarts the segment cold,
    /// and one in its reserved bytes changes nothing.
    #[test]
    fn flipped_byte_at_every_offset_is_cold_never_garbage() {
        let dir = Scratch::new("flip-every");
        let seg = {
            let cache = DiskCache::open(dir.path()).unwrap();
            for n in 0..4 {
                cache.insert(key(n), scores(0.5, 2), Some(1));
            }
            cache.flush().unwrap();
            cache.segment_path().to_path_buf()
        };
        let intact = fs::read(&seg).unwrap();
        let record_len = 4 + PAYLOAD_PREFIX + 2 * CANDIDATE_LEN + 16;
        assert_eq!(intact.len(), HEADER_LEN as usize + 4 * record_len);
        for at in 0..intact.len() {
            let mut bytes = intact.clone();
            bytes[at] ^= 0xFF;
            fs::write(&seg, &bytes).unwrap();
            let cache = DiskCache::open(dir.path()).unwrap();
            let kept = match at.checked_sub(HEADER_LEN as usize) {
                Some(offset) => offset / record_len,
                None if at < 8 => 0,
                None => 4,
            };
            assert_eq!(cache.len(), kept, "flip at {at}");
            for n in 0..4 {
                let want = (n < kept).then(|| scores(0.5, 2));
                assert_eq!(cache.get(&key(n as u64)), want, "flip at {at}, record {n}");
            }
        }
    }

    /// A compaction cut in progress. A real compaction runs over a
    /// segment with overwritten keys, an untagged key and a dropped
    /// epoch; then each state a crash could leave behind is rebuilt
    /// from the segment before it and the merged one after it: the temp
    /// file cut at every length beside the old segment, and the merged
    /// segment alone. Reopen never panics, and every key returns
    /// `None` or its last insert.
    #[test]
    fn compaction_cut_at_any_point_is_cold_never_stale() {
        let dir = Scratch::new("compact-crash");
        let inserts: [(u64, f64, Option<u64>); 7] = [
            (0, 0.10, Some(1)),
            (1, 0.11, Some(1)),
            (2, 0.12, None),
            (0, 0.20, Some(2)), // key 0 again, at the dropped epoch
            (3, 0.13, Some(1)),
            (2, 0.22, None),    // key 2 again, untagged
            (1, 0.21, Some(2)), // key 1 again, at the dropped epoch
        ];
        let mut last: HashMap<u64, StepScores> = HashMap::new();
        let (old, merged) = {
            let cache = DiskCache::open(dir.path()).unwrap();
            for &(n, conf, epoch) in &inserts {
                cache.insert(key(n), scores(conf, 1), epoch);
                last.insert(n, scores(conf, 1));
            }
            cache.flush().unwrap();
            let old = fs::read(cache.segment_path()).unwrap();
            assert_eq!(cache.compact(&[1]).unwrap(), 2);
            (old, fs::read(cache.segment_path()).unwrap())
        };
        let check = |state: &str| {
            let cache = DiskCache::open(dir.path()).unwrap();
            for (&n, want) in &last {
                if let Some(got) = cache.get(&key(n)) {
                    assert_eq!(&got, want, "{state}: key {n} is not its last insert");
                }
            }
        };
        let seg = dir.path().join("cache.seg");
        let tmp = dir.path().join("cache.seg.tmp");
        // A crash before the rename: the temp file, cut at every
        // length, beside the old segment.
        for cut in 0..=merged.len() {
            fs::write(&seg, &old).unwrap();
            fs::write(&tmp, &merged[..cut]).unwrap();
            check(&format!("temp file cut at {cut}"));
        }
        // After the rename: the merged segment alone.
        fs::remove_file(&tmp).unwrap();
        fs::write(&seg, &merged).unwrap();
        check("merged segment alone");
    }

    #[test]
    fn distinct_paths_seed_distinct_epochs() {
        let dir = Scratch::new("seeds");
        let a = DurableEpochSource::open(dir.path().join("a")).unwrap();
        let b = DurableEpochSource::open(dir.path().join("b")).unwrap();
        assert_ne!(a.current(), b.current());
    }
}
