//! Persistent on-disk [`StepCache`] tier and durable epoch source.
//!
//! The in-memory [`ShardedLruCache`] dies with its process, but the
//! deployment the paper targets (§4) is a fleet repeatedly crawling
//! slowly changing warehouses: most of the value of memoization is
//! *across* crawler restarts, not within one. This module provides the
//! out-of-process tier:
//!
//! * [`DiskCache`] — an append-only set of segment files of
//!   `CacheKey → StepScores` records keyed by the cross-run-stable
//!   128-bit fingerprints of [`crate::cache`]. Each segment carries a
//!   versioned header and a per-record checksum; a torn or corrupt
//!   tail is truncated at open (cold, never wrong), and a segment
//!   written by a different [`DISK_FORMAT_VERSION`] is discarded
//!   entirely.
//! * [`TieredStepCache`] — the sharded LRU as L1 in front of a
//!   [`DiskCache`] L2, promoting disk hits into memory.
//! * [`DurableEpochSource`] — a small write-ahead epoch file backing
//!   [`EpochSource`]: a restarted [`SigmaTyper`] resumes its
//!   predecessor's epoch (so the disk tier comes up warm), and an
//!   adaptation in one process durably advances the epoch *before*
//!   using it, invalidating the stale entries for every process
//!   sharing the file.
//!
//! # Segment format (version 2)
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
//! contract: a disk hit is byte-identical to the insert.
//!
//! Records only append; a key overwritten later simply wins in the
//! in-memory index (rebuilt at open by scanning forward).
//!
//! # Segment rotation
//!
//! Writes land in the **active** segment (`cache.seg`). When it grows
//! past the size limit it is sealed — synced, renamed to
//! `cache-<seq>.seg` — and a fresh active segment starts, so no single
//! file grows without bound and sealed segments become immutable (and
//! safely skippable by backup/rsync once copied). Open discovers the
//! rolled segments, scans them oldest-first, then scans the active
//! segment last, so "latest wins" holds across the whole set. The
//! [`compact`](DiskCache::compact) pass merges *all* segments into one
//! fresh active segment keeping only entries whose recorded epoch is
//! still reachable, reclaiming space from superseded keys and
//! adapted-away epochs; the rolled files are deleted before the merged
//! segment replaces the active one, so a crash midway is cold, never
//! stale.
//!
//! [`ShardedLruCache`]: crate::cache::ShardedLruCache
//! [`SigmaTyper`]: crate::system::SigmaTyper

use crate::cache::{CacheKey, CacheStats, EpochSource, ShardedLruCache, StableHasher, StepCache};
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
pub const DISK_FORMAT_VERSION: u32 = 2;

/// Default size limit of the active segment before it rolls (see the
/// module docs on segment rotation). Deployments with other churn
/// profiles pick their own limit through
/// [`DiskCache::open_with_segment_limit`].
pub const DEFAULT_MAX_SEGMENT_BYTES: u64 = 64 << 20;

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

/// Epoch recorded by epoch-less [`StepCache::insert`] calls: "written
/// outside any known epoch". [`DiskCache::compact`] keeps such entries
/// only when this sentinel is explicitly listed as live.
pub const UNKNOWN_EPOCH: u64 = u64::MAX;

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
    /// Which segment holds the record: an index into
    /// [`DiskInner::segments`] (the active segment is always last).
    segment: u32,
    /// Offset of the record's `payload_len` field in its segment.
    offset: u64,
    payload_len: u32,
    epoch: u64,
}

impl IndexEntry {
    fn total_len(self) -> u64 {
        4 + u64::from(self.payload_len) + 16
    }
}

/// One open segment file plus its current path (the path changes when
/// the active segment is sealed and renamed — the handle survives the
/// rename).
#[derive(Debug)]
struct Segment {
    file: File,
    path: PathBuf,
}

#[derive(Debug)]
struct DiskInner {
    /// Rolled segments oldest-first, then the active segment last.
    segments: Vec<Segment>,
    index: HashMap<CacheKey, IndexEntry>,
    /// Append position in the active segment: one past the last
    /// verified record.
    tail: u64,
    /// Sequence number the next sealed segment will be renamed to.
    next_seq: u64,
}

impl DiskInner {
    fn active(&mut self) -> &mut Segment {
        self.segments
            .last_mut()
            .expect("a DiskCache always holds an active segment")
    }
}

/// Scan an open segment, merging its records into the shared key
/// index under segment id `segment`. Returns the verified tail; a
/// tail of 0 means "header invalid — nothing trusted". Scanning stops
/// at the first torn or corrupt record: everything before it is
/// trusted (checksummed), everything after is unreachable anyway
/// since offsets only grow.
fn scan_segment_into(
    file: &mut File,
    segment: u32,
    index: &mut HashMap<CacheKey, IndexEntry>,
) -> io::Result<u64> {
    let len = file.metadata()?.len();
    if len < HEADER_LEN {
        return Ok(0);
    }
    file.seek(SeekFrom::Start(0))?;
    let mut reader = BufReader::new(&mut *file);
    let mut header = [0u8; HEADER_LEN as usize];
    reader.read_exact(&mut header)?;
    if header[..4] != SEGMENT_MAGIC || header[4..8] != DISK_FORMAT_VERSION.to_le_bytes() {
        return Ok(0);
    }
    let mut offset = HEADER_LEN;
    while offset < len {
        let mut len4 = [0u8; 4];
        if reader.read_exact(&mut len4).is_err() {
            break;
        }
        let payload_len = u32::from_le_bytes(len4) as usize;
        let entry = IndexEntry {
            segment,
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
    Ok(offset)
}

/// Parse the sequence number out of a rolled segment's file name
/// (`cache-<seq>.seg`); `None` for anything else in the directory.
fn rolled_segment_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("cache-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
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

/// An append-only persistent [`StepCache`] backend (see the module
/// docs for the segment format and correctness argument).
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
    /// Path of the active segment (`<dir>/cache.seg`).
    path: PathBuf,
    dir: PathBuf,
    /// Roll the active segment once its tail passes this size.
    max_segment_bytes: u64,
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
    /// truncated at the last verified record.
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
        Self::open_with_segment_limit(dir, DEFAULT_MAX_SEGMENT_BYTES)
    }

    /// [`open`](DiskCache::open) with an explicit active-segment size
    /// limit instead of [`DEFAULT_MAX_SEGMENT_BYTES`]. A record is
    /// never split: the segment rolls after the append that crosses
    /// the limit, so one oversized record still lands intact.
    pub fn open_with_segment_limit(
        dir: impl AsRef<Path>,
        max_segment_bytes: u64,
    ) -> io::Result<DiskCache> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let writer_lock = acquire_writer_lock(dir)?;
        // Rolled segments first, oldest-first, so later segments (and
        // finally the active one) win duplicate keys.
        let mut rolled: Vec<(u64, PathBuf)> = fs::read_dir(dir)?
            .filter_map(|entry| {
                let path = entry.ok()?.path();
                rolled_segment_seq(&path).map(|seq| (seq, path))
            })
            .collect();
        rolled.sort_unstable_by_key(|(seq, _)| *seq);
        let next_seq = rolled.last().map_or(0, |(seq, _)| seq + 1);
        let mut segments = Vec::with_capacity(rolled.len() + 1);
        let mut index = HashMap::new();
        for (_, path) in rolled {
            let mut file = OpenOptions::new().read(true).open(&path)?;
            // A rolled segment is immutable: a foreign or torn one
            // contributes nothing (cold, never wrong) but stays
            // tracked so compaction reclaims the file.
            scan_segment_into(&mut file, segments.len() as u32, &mut index)?;
            segments.push(Segment { file, path });
        }
        let path = dir.join("cache.seg");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let tail = scan_segment_into(&mut file, segments.len() as u32, &mut index)?;
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
        segments.push(Segment {
            file,
            path: path.clone(),
        });
        Ok(DiskCache {
            path,
            dir: dir.to_path_buf(),
            max_segment_bytes,
            inner: Mutex::new(DiskInner {
                segments,
                index,
                tail,
                next_seq,
            }),
            _writer_lock: writer_lock,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Path of the active segment file.
    #[must_use]
    pub fn segment_path(&self) -> &Path {
        &self.path
    }

    /// How many segment files currently back the cache (rolled plus
    /// the active one). 1 until the first roll.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.lock().segments.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DiskInner> {
        // Like the LRU shards: plain data, so a poisoned lock at worst
        // loses entries, never integrity (reads re-verify checksums).
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Rewrite all segments into one fresh active segment keeping only
    /// entries whose recorded epoch appears in `live_epochs`, dropping
    /// superseded duplicates and adapted-away epochs, then delete the
    /// rolled segment files. Returns how many index entries were
    /// dropped. The rewrite goes through a temp file; the rolled files
    /// are then deleted, oldest first, and an atomic rename puts the
    /// merged segment in place of the active one. A crash at any point
    /// leaves the old active segment beside the newest of the old
    /// rolled files, or the merged segment alone: every key reads its
    /// last insert or nothing (cold, never stale).
    ///
    /// Entries written through epoch-less [`StepCache::insert`] carry
    /// [`UNKNOWN_EPOCH`]; list it in `live_epochs` to keep them.
    pub fn compact(&self, live_epochs: &[u64]) -> io::Result<usize> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let mut entries: Vec<(CacheKey, IndexEntry)> =
            inner.index.iter().map(|(k, e)| (*k, *e)).collect();
        // Preserve append order — segment-major, then offset — so
        // "latest wins" stays true on rescan.
        entries.sort_by_key(|(_, e)| (e.segment, e.offset));
        let tmp_path = self.path.with_extension("seg.tmp");
        let mut tmp = File::create(&tmp_path)?;
        write_header(&mut tmp)?;
        let mut index = HashMap::new();
        let mut tail = HEADER_LEN;
        let mut dropped = 0usize;
        for (key, entry) in entries {
            if !live_epochs.contains(&entry.epoch) {
                dropped += 1;
                continue;
            }
            let file = &mut inner.segments[entry.segment as usize].file;
            file.seek(SeekFrom::Start(entry.offset))?;
            let mut rec = vec![0u8; entry.total_len() as usize];
            file.read_exact(&mut rec)?;
            let payload = &rec[4..4 + entry.payload_len as usize];
            if rec[4 + entry.payload_len as usize..] != checksum(payload) {
                dropped += 1;
                continue;
            }
            tmp.write_all(&rec)?;
            index.insert(
                key,
                IndexEntry {
                    segment: 0,
                    offset: tail,
                    ..entry
                },
            );
            tail += entry.total_len();
        }
        tmp.sync_data()?;
        // Rolled files go first, oldest first: a crash midway leaves
        // the old active segment beside the newest rolled ones, where
        // every key reads its last insert or nothing. (Renaming first
        // could leave the merged segment beside old rolled files that
        // bring back a superseded record of a key the merge dropped.)
        let (_, rolled) = inner.segments.split_last().expect("an active segment");
        for seg in rolled {
            match fs::remove_file(&seg.path) {
                Err(err) if err.kind() != io::ErrorKind::NotFound => return Err(err),
                _ => {}
            }
        }
        fs::rename(&tmp_path, &self.path)?;
        let file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        inner.segments = vec![Segment {
            file,
            path: self.path.clone(),
        }];
        inner.index = index;
        inner.tail = tail;
        self.dropped.fetch_add(dropped as u64, Ordering::Relaxed);
        Ok(dropped)
    }

    /// Seal the active segment — sync, rename to `cache-<seq>.seg` —
    /// and start a fresh one. Best-effort: on failure the oversized
    /// active segment keeps accepting appends (correctness never
    /// depends on rotation).
    fn roll_active(&self, inner: &mut DiskInner) -> io::Result<()> {
        let seq = inner.next_seq;
        let rolled_path = self.dir.join(format!("cache-{seq:06}.seg"));
        let active = inner.active();
        active.file.sync_data()?;
        fs::rename(&active.path, &rolled_path)?;
        // The open handle survives the rename and keeps serving reads.
        active.path = rolled_path;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&self.path)?;
        write_header(&mut file)?;
        inner.segments.push(Segment {
            file,
            path: self.path.clone(),
        });
        inner.tail = HEADER_LEN;
        inner.next_seq = seq + 1;
        Ok(())
    }
}

impl StepCache for DiskCache {
    fn get(&self, key: &CacheKey) -> Option<StepScores> {
        let mut inner = self.lock();
        let entry = inner.index.get(key).copied();
        let found = entry
            .and_then(|entry| read_record(&mut inner.segments[entry.segment as usize].file, entry))
            .and_then(|(k, _, scores)| (k == *key).then_some(scores));
        drop(inner);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn insert(&self, key: CacheKey, scores: StepScores) {
        self.insert_with_epoch(key, scores, UNKNOWN_EPOCH);
    }

    fn insert_with_epoch(&self, key: CacheKey, scores: StepScores, epoch: u64) {
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
        let segment = inner.segments.len() as u32 - 1;
        let active = &mut inner.active().file;
        let mut ok = active.seek(SeekFrom::Start(offset)).is_ok();
        if ok {
            ok = active.write_all(&rec).is_ok();
        }
        if ok {
            inner.index.insert(
                key,
                IndexEntry {
                    segment,
                    offset,
                    payload_len: payload.len() as u32,
                    epoch,
                },
            );
            inner.tail = offset + rec.len() as u64;
            if inner.tail >= self.max_segment_bytes {
                let _ = self.roll_active(&mut inner);
            }
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
        // Drop the rolled segments (truncating any file that refuses
        // deletion so its records can't be resurrected at reopen),
        // then truncate the active one. Best-effort throughout; on
        // failure the orphaned records are unreachable in this process
        // and rescanned only after reopen.
        let active_path = self.path.clone();
        inner.segments.retain_mut(|seg| {
            if seg.path == active_path {
                return true;
            }
            if fs::remove_file(&seg.path).is_err() {
                let _ = seg.file.set_len(0);
            }
            false
        });
        if inner.active().file.set_len(HEADER_LEN).is_ok() {
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
        self.lock().active().file.sync_data()
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
        self.l1.insert(*key, scores.clone());
        Some(scores)
    }

    fn insert(&self, key: CacheKey, scores: StepScores) {
        self.l1.insert(key, scores.clone());
        self.l2.insert(key, scores);
    }

    fn insert_with_epoch(&self, key: CacheKey, scores: StepScores, epoch: u64) {
        self.l1.insert(key, scores.clone());
        self.l2.insert_with_epoch(key, scores, epoch);
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
/// the file also syncs its directory, once, so that its name is
/// durable; overwriting in place never changes the name again.
///
/// A crash mid-write can leave the new record's first bytes over the
/// old record's last ones: the checksum then fails, and the file reads
/// as corrupt rather than as a third epoch.
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

/// A durable per-customer [`EpochSource`] backed by a 32-byte
/// write-ahead file (magic ‖ version ‖ epoch ‖ checksum).
///
/// * A fresh file seeds the epoch from process-unique entropy and
///   persists it before first use, so two customers pointed at
///   different files (or the same customer racing its own first
///   start) never collide with an in-memory counter epoch.
/// * [`current`](EpochSource::current) re-reads the file on every
///   call: an advance performed by *another process* sharing the file
///   is observed at the next annotation, invalidating that process's
///   view of the shared cache. The file is one sector, so this is one
///   cheap read compared to a cascade run.
/// * [`advance`](EpochSource::advance) persists the new epoch *before*
///   returning it — write-ahead, so no process can cache under an
///   epoch that a crash would resurrect. It overwrites the 32 bytes in
///   place and syncs the file's data; the directory is synced once,
///   when the file is created, since an in-place write never changes
///   the file's name.
///
/// A corrupt or unreadable file degrades safely: `current` falls back
/// to the last known value, and a corrupt file at open reseeds from
/// entropy (cold cache, never a stale hit), cutting a file longer than
/// one record back to 32 bytes. A crash that tears an overwrite leaves
/// the old record, the new one, or a mix of the two that fails the
/// checksum — so a reopen resumes the old epoch, resumes the new one,
/// or reseeds, and a live handle keeps its last known epoch.
#[derive(Debug)]
pub struct DurableEpochSource {
    path: PathBuf,
    last: AtomicU64,
}

impl DurableEpochSource {
    /// Open (or create) the epoch file at `path`. An existing valid
    /// file resumes its stored epoch — the point of durability: a
    /// restarted process keeps reaching its predecessor's cached
    /// entries. A missing or corrupt file seeds a fresh entropy epoch
    /// and persists it before returning.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let epoch = match read_epoch_file(&path) {
            Some(stored) => stored,
            None => {
                let seed = crate::system::entropy_epoch_seed();
                write_epoch_file(&path, seed)?;
                seed
            }
        };
        Ok(DurableEpochSource {
            path,
            last: AtomicU64::new(epoch),
        })
    }

    /// Path of the backing epoch file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl EpochSource for DurableEpochSource {
    fn current(&self) -> u64 {
        match read_epoch_file(&self.path) {
            Some(stored) => {
                self.last.store(stored, Ordering::Relaxed);
                stored
            }
            None => self.last.load(Ordering::Relaxed),
        }
    }

    fn advance(&self) -> u64 {
        let next = self.current().wrapping_add(1);
        // Write-ahead: durable before use. If the write fails the
        // advance still happens in memory, so local invalidation is
        // never lost — only cross-process visibility degrades.
        let _ = write_epoch_file(&self.path, next);
        self.last.store(next, Ordering::Relaxed);
        next
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
            cache.insert_with_epoch(key(1), written.clone(), 42);
            cache.insert_with_epoch(key(2), scores(0.5, 0), 42);
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
        first.insert_with_epoch(key(9), scores(0.5, 1), 3);
        drop(first);
        let reopened = DiskCache::open(dir.path()).unwrap();
        assert_eq!(reopened.get(&key(9)).unwrap(), scores(0.5, 1));
    }

    #[test]
    fn latest_insert_wins_within_and_across_opens() {
        let dir = Scratch::new("latest");
        {
            let cache = DiskCache::open(dir.path()).unwrap();
            cache.insert_with_epoch(key(1), scores(0.25, 1), 7);
            cache.insert_with_epoch(key(1), scores(0.75, 1), 7);
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
                cache.insert_with_epoch(key(n), scores(0.5, 2), 1);
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
        cache.insert_with_epoch(key(9), scores(0.9, 1), 2);
        assert_eq!(cache.get(&key(9)).unwrap(), scores(0.9, 1));
    }

    #[test]
    fn corrupt_interior_byte_invalidates_reachable_suffix_only() {
        let dir = Scratch::new("flip");
        let seg = {
            let cache = DiskCache::open(dir.path()).unwrap();
            for n in 0..3 {
                cache.insert_with_epoch(key(n), scores(0.5, 1), 1);
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
            cache.insert_with_epoch(key(1), scores(0.5, 1), 1);
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
            cache.insert_with_epoch(key(1), scores(0.5, 1), 1);
            cache.flush().unwrap();
        }
    }

    #[test]
    fn compaction_drops_unreachable_epochs_and_duplicates() {
        let dir = Scratch::new("compact");
        let cache = DiskCache::open(dir.path()).unwrap();
        cache.insert_with_epoch(key(1), scores(0.1, 1), 1);
        cache.insert_with_epoch(key(2), scores(0.2, 1), 1);
        // Adaptation: epoch 2 supersedes key(1)'s column.
        cache.insert_with_epoch(key(3), scores(0.3, 1), 2);
        cache.insert(key(4), scores(0.4, 1)); // UNKNOWN_EPOCH
        let before = fs::metadata(cache.segment_path()).unwrap().len();
        let dropped = cache.compact(&[2]).unwrap();
        assert_eq!(dropped, 3);
        assert_eq!(cache.len(), 1);
        assert!(fs::metadata(cache.segment_path()).unwrap().len() < before);
        assert_eq!(cache.get(&key(3)).unwrap(), scores(0.3, 1));
        assert_eq!(cache.get(&key(1)), None);
        assert_eq!(cache.stats().evictions, 3);
        // The compacted segment is append-consistent: more inserts and
        // a reopen both work.
        cache.insert_with_epoch(key(5), scores(0.5, 1), 2);
        cache.flush().unwrap();
        drop(cache);
        let cache = DiskCache::open(dir.path()).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(5)).unwrap(), scores(0.5, 1));
        // Keeping UNKNOWN_EPOCH explicitly retains epoch-less entries.
        cache.insert(key(6), scores(0.6, 1));
        assert_eq!(cache.compact(&[2, UNKNOWN_EPOCH]).unwrap(), 0);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn rotation_rolls_at_threshold_and_latest_wins_across_segments() {
        let dir = Scratch::new("rotate");
        {
            // Tiny limit: every record crosses it, so every insert
            // seals the active segment.
            let cache = DiskCache::open_with_segment_limit(dir.path(), 64).unwrap();
            assert_eq!(cache.segment_count(), 1);
            for n in 0..5 {
                cache.insert_with_epoch(key(n), scores(0.5, 2), 1);
            }
            assert!(cache.segment_count() > 1, "active segment must roll");
            // Records sealed into rolled segments stay readable.
            for n in 0..5 {
                assert_eq!(cache.get(&key(n)).unwrap(), scores(0.5, 2));
            }
            // Overwrite a key that lives in a rolled segment: the
            // fresher record in a later segment must win.
            cache.insert_with_epoch(key(0), scores(0.9, 1), 1);
            assert_eq!(cache.get(&key(0)).unwrap(), scores(0.9, 1));
            assert_eq!(cache.len(), 5);
            cache.flush().unwrap();
        }
        // Reopen (default limit) discovers the rolled segments and
        // merges them oldest-first — latest still wins.
        let cache = DiskCache::open(dir.path()).unwrap();
        assert!(cache.segment_count() > 1);
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.get(&key(0)).unwrap(), scores(0.9, 1));
        for n in 1..5 {
            assert_eq!(cache.get(&key(n)).unwrap(), scores(0.5, 2));
        }
    }

    #[test]
    fn compaction_merges_all_segments_into_one_and_deletes_rolled_files() {
        let dir = Scratch::new("rotate-compact");
        let cache = DiskCache::open_with_segment_limit(dir.path(), 64).unwrap();
        for n in 0..4 {
            cache.insert_with_epoch(key(n), scores(0.5, 1), 1);
        }
        cache.insert_with_epoch(key(9), scores(0.9, 1), 2);
        assert!(cache.segment_count() > 1);
        let dropped = cache.compact(&[1]).unwrap();
        assert_eq!(dropped, 1, "only the epoch-2 entry is unreachable");
        assert_eq!(cache.segment_count(), 1, "compaction merges to one segment");
        assert_eq!(cache.len(), 4);
        for n in 0..4 {
            assert_eq!(cache.get(&key(n)).unwrap(), scores(0.5, 1));
        }
        assert_eq!(cache.get(&key(9)), None);
        // The rolled files are gone from disk: only the active
        // segment, the lock, and the temp-free directory remain.
        let seg_files: Vec<_> = fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                name.ends_with(".seg").then_some(name)
            })
            .collect();
        assert_eq!(seg_files, vec!["cache.seg".to_string()]);
        // Post-compaction appends and a reopen both work; rotation
        // continues from a fresh sequence space without collisions.
        for n in 10..14 {
            cache.insert_with_epoch(key(n), scores(0.4, 1), 1);
        }
        assert!(cache.segment_count() > 1);
        cache.flush().unwrap();
        drop(cache);
        let cache = DiskCache::open(dir.path()).unwrap();
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.get(&key(12)).unwrap(), scores(0.4, 1));
    }

    #[test]
    fn clear_removes_rolled_segments_too() {
        let dir = Scratch::new("rotate-clear");
        let cache = DiskCache::open_with_segment_limit(dir.path(), 64).unwrap();
        for n in 0..4 {
            cache.insert_with_epoch(key(n), scores(0.5, 1), 1);
        }
        assert!(cache.segment_count() > 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.segment_count(), 1);
        cache.insert_with_epoch(key(7), scores(0.7, 1), 1);
        cache.flush().unwrap();
        drop(cache);
        let cache = DiskCache::open(dir.path()).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(0)).is_none(), "cleared entries stay gone");
        assert_eq!(cache.get(&key(7)).unwrap(), scores(0.7, 1));
    }

    #[test]
    fn clear_empties_disk_and_reopen_sees_nothing() {
        let dir = Scratch::new("clear");
        let cache = DiskCache::open(dir.path()).unwrap();
        cache.insert_with_epoch(key(1), scores(0.5, 1), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(1)), None);
        cache.insert_with_epoch(key(2), scores(0.5, 1), 1);
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
        tiered.insert_with_epoch(key(1), scores(0.5, 1), 1);
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

    #[test]
    fn durable_epoch_source_resumes_advances_and_survives_corruption() {
        let dir = Scratch::new("epoch");
        let path = dir.path().join("epoch");
        let first = DurableEpochSource::open(&path).unwrap();
        let e0 = first.current();
        // Resuming reads the same epoch back (durable across restart).
        let resumed = DurableEpochSource::open(&path).unwrap();
        assert_eq!(resumed.current(), e0);
        // Advance is write-ahead: a third handle sees it immediately.
        let e1 = resumed.advance();
        assert_eq!(e1, e0.wrapping_add(1));
        assert_eq!(first.current(), e1, "cross-handle visibility");
        assert_eq!(DurableEpochSource::open(&path).unwrap().current(), e1);
        // Corrupt file ⇒ reopen reseeds fresh instead of trusting it.
        let mut bytes = fs::read(&path).unwrap();
        bytes[20] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let reseeded = DurableEpochSource::open(&path).unwrap();
        assert_ne!(reseeded.current(), e1);
        // A live handle with a corrupt file falls back to last known.
        let held = DurableEpochSource::open(&path).unwrap();
        let known = held.current();
        fs::write(&path, b"junk").unwrap();
        assert_eq!(held.current(), known);
    }

    /// A crash can leave the 32-byte epoch file cut at any offset:
    /// every cut reopens to a freshly seeded epoch (a cold cache, never
    /// a stale one), a live handle keeps its last known epoch, and the
    /// intact file still resumes the stored one.
    #[test]
    fn truncated_epoch_file_reseeds_at_every_offset() {
        let dir = Scratch::new("epoch-torn");
        let path = dir.path().join("epoch");
        let held = DurableEpochSource::open(&path).unwrap();
        let stored = held.advance();
        let intact = fs::read(&path).unwrap();
        assert_eq!(intact.len(), 32);
        for cut in (0..intact.len()).rev() {
            fs::write(&path, &intact[..cut]).unwrap();
            assert_eq!(held.current(), stored, "cut at {cut}: last known epoch");
            let reopened = DurableEpochSource::open(&path).unwrap();
            let reseeded = reopened.current();
            assert_ne!(reseeded, stored, "cut at {cut} resumed a torn epoch");
            // The reseed is persisted whole, so the next open resumes it.
            assert_eq!(DurableEpochSource::open(&path).unwrap().current(), reseeded);
        }
        fs::write(&path, &intact).unwrap();
        assert_eq!(DurableEpochSource::open(&path).unwrap().current(), stored);
    }

    /// An advance overwrites the record in place, so a crash can leave
    /// the new record's first bytes over the old record's last ones.
    /// At every split point a reopen resumes the old epoch, resumes
    /// the new one, or reseeds — writing a fresh record that the next
    /// open resumes — and does nothing else. A reseed also cuts a file
    /// longer than one record back to 32 bytes.
    #[test]
    fn torn_overwrite_resumes_old_or_new_or_reseeds() {
        let dir = Scratch::new("epoch-overwrite");
        let path = dir.path().join("epoch");
        let held = DurableEpochSource::open(&path).unwrap();
        let (old_epoch, old) = (held.current(), fs::read(&path).unwrap());
        let new_epoch = held.advance();
        let new = fs::read(&path).unwrap();
        assert_eq!((old.len(), new.len()), (32, 32));
        let mut outcomes = [0usize; 3];
        for split in 0..=new.len() {
            let torn: Vec<u8> = new[..split].iter().chain(&old[split..]).copied().collect();
            fs::write(&path, &torn).unwrap();
            let reopened = DurableEpochSource::open(&path).unwrap().current();
            if reopened == old_epoch {
                outcomes[0] += 1;
                assert_eq!(fs::read(&path).unwrap(), old, "split {split}: resumed old");
            } else if reopened == new_epoch {
                outcomes[1] += 1;
                assert_eq!(fs::read(&path).unwrap(), new, "split {split}: resumed new");
            } else {
                outcomes[2] += 1;
                assert_ne!(
                    fs::read(&path).unwrap(),
                    torn,
                    "split {split}: not rewritten"
                );
                assert_eq!(
                    DurableEpochSource::open(&path).unwrap().current(),
                    reopened,
                    "split {split}: the reseed is persisted whole"
                );
            }
        }
        // The magic and version bytes are equal in both records, so
        // the first splits resume the old epoch; the epoch bytes differ
        // and only the last split's checksum matches the new one.
        assert!(outcomes[0] > 0 && outcomes[2] > 0, "{outcomes:?}");
        assert_eq!(outcomes[1], 1, "{outcomes:?}");

        let mut long = new.clone();
        long.extend_from_slice(b"trailing");
        fs::write(&path, &long).unwrap();
        let reseeded = DurableEpochSource::open(&path).unwrap().current();
        assert_ne!(reseeded, new_epoch, "a longer file is not a record");
        assert_eq!(fs::metadata(&path).unwrap().len(), 32);
        assert_eq!(DurableEpochSource::open(&path).unwrap().current(), reseeded);
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
                cache.insert_with_epoch(key(n), scores(0.5, 2), 1);
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

    /// The files of `dir` that hold segments, with their bytes.
    fn segment_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().unwrap().to_str().unwrap().contains(".seg"))
            .map(|p| {
                let bytes = fs::read(&p).unwrap();
                (p, bytes)
            })
            .collect();
        files.sort();
        files
    }

    /// Replace every segment file of `dir` with `files`.
    fn restore_segments(dir: &Path, files: &[(PathBuf, Vec<u8>)]) {
        for (path, _) in segment_files(dir) {
            fs::remove_file(path).unwrap();
        }
        for (path, bytes) in files {
            fs::write(path, bytes).unwrap();
        }
    }

    /// A compaction cut in progress. A real compaction runs over rolled
    /// segments and an active one, with overwritten keys and a dropped
    /// epoch; then each state a crash could leave behind is rebuilt
    /// from the files before and after it. Reopen never panics, and
    /// every key returns `None` or its last insert. (Key 1's last
    /// insert sits in the active segment at the dropped epoch, so the
    /// merged segment beside the old rolled files, which a rename
    /// before the deletes could leave, would serve its older record.)
    #[test]
    fn compaction_cut_at_any_point_is_cold_never_stale() {
        let dir = Scratch::new("compact-crash");
        // Two records per segment: the third append rolls.
        let record_len = (4 + PAYLOAD_PREFIX + CANDIDATE_LEN + 16) as u64;
        let limit = HEADER_LEN + 2 * record_len - 1;
        let inserts: [(u64, f64, u64); 7] = [
            (0, 0.10, 1),
            (1, 0.11, 1),
            (2, 0.12, 1),
            (0, 0.20, 2), // key 0 again, at the dropped epoch
            (3, 0.13, 1),
            (4, 0.14, 1),
            (1, 0.21, 2), // key 1 again, in the active segment
        ];
        let mut last: HashMap<u64, StepScores> = HashMap::new();
        let (before, merged) = {
            let cache = DiskCache::open_with_segment_limit(dir.path(), limit).unwrap();
            for &(n, conf, epoch) in &inserts {
                cache.insert_with_epoch(key(n), scores(conf, 1), epoch);
                last.insert(n, scores(conf, 1));
            }
            cache.flush().unwrap();
            assert!(
                cache.segment_count() > 2,
                "rolled segments and an active one"
            );
            let before = segment_files(dir.path());
            assert_eq!(cache.compact(&[1]).unwrap(), 2);
            (before, fs::read(cache.segment_path()).unwrap())
        };
        let check = |state: &str| {
            let cache = DiskCache::open(dir.path()).unwrap();
            for (&n, want) in &last {
                if let Some(got) = cache.get(&key(n)) {
                    assert_eq!(&got, want, "{state}: key {n} is not its last insert");
                }
            }
        };
        let active = dir.path().join("cache.seg");
        let tmp = dir.path().join("cache.seg.tmp");
        // A crash while the merged segment is being written: the
        // temp file, cut at every length, beside the old segments.
        for cut in 0..=merged.len() {
            let mut files = before.clone();
            files.push((tmp.clone(), merged[..cut].to_vec()));
            restore_segments(dir.path(), &files);
            check(&format!("temp file cut at {cut}"));
        }
        // A crash while the rolled files are deleted, oldest first,
        // before the rename: the whole temp file and the old active
        // segment beside each suffix of the old rolled files.
        let (rolled, old_active): (Vec<_>, Vec<_>) =
            before.iter().cloned().partition(|(p, _)| *p != active);
        for deleted in 0..=rolled.len() {
            let mut files = rolled[deleted..].to_vec();
            files.extend(old_active.iter().cloned());
            files.push((tmp.clone(), merged.clone()));
            restore_segments(dir.path(), &files);
            check(&format!("{deleted} rolled files deleted"));
        }
        // After the rename: the merged segment alone.
        restore_segments(dir.path(), &[(active.clone(), merged.clone())]);
        check("merged segment alone");
        // A rolled file that cannot be deleted (a directory in its
        // place) stops the compaction before the rename, so the file
        // that stays behind is never beside the merged segment.
        restore_segments(dir.path(), &before);
        let (oldest, oldest_bytes) = &before[0];
        {
            let cache = DiskCache::open_with_segment_limit(dir.path(), limit).unwrap();
            fs::remove_file(oldest).unwrap();
            fs::create_dir(oldest).unwrap();
            assert!(cache.compact(&[1]).is_err(), "a failed delete must fail");
        }
        fs::remove_dir(oldest).unwrap();
        fs::write(oldest, oldest_bytes).unwrap();
        check("a rolled file that could not be deleted");
    }

    #[test]
    fn distinct_paths_seed_distinct_epochs() {
        let dir = Scratch::new("seeds");
        let a = DurableEpochSource::open(dir.path().join("a")).unwrap();
        let b = DurableEpochSource::open(dir.path().join("b")).unwrap();
        assert_ne!(a.current(), b.current());
    }
}
