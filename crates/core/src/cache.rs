//! Persistent, content-addressed result cache.
//!
//! Records are a **pure function of (plan, seed)**: the determinism
//! rules in `clippy.toml` ban unordered hash containers and wall-clock
//! reads in every crate, and the cycle engine draws every random
//! number from one stream seeded with the run's seed
//! ([`sf_sim::ENGINE_EPOCH`]'s module). That guarantee makes results
//! *cacheable*: a [`Job`]'s records can be keyed by a stable hash over
//! everything the output provably depends on, stored once, and replayed
//! on any later run of the same job — byte-identical to a cold
//! simulation.
//!
//! # What the key covers
//!
//! [`job_key`] hashes a canonical rendering of:
//!
//! - the **topology instance**: spec string + normalized fault plan
//!   (kill fractions bit-exactly, sampler seed, mode; `None` for
//!   intact — expansion already folds no-op plans to `None`),
//! - the routing spec, traffic spec, and backend,
//! - a constant `warm_start false` line (every load runs cold; the
//!   line keeps every key where it was until the next
//!   `KEY_SCHEMA_VERSION` bump), then the load list (bit-exact `f64`),
//! - every [`SimConfig`](sf_sim::SimConfig) field (scheduler
//!   `--workers` never enters the key material, so runs at any worker
//!   count share one entry),
//! - the [`ENGINE_EPOCH`](sf_sim::ENGINE_EPOCH) salt: pinned-curve
//!   re-pins bump the epoch and thereby orphan every stale entry
//!   without touching cache directories.
//!
//! `Job::id` and `Job::sweep` are deliberately excluded too: they
//! encode *position* in one particular plan, and the whole point is
//! that re-submitting a figure with one new load point leaves the
//! unchanged jobs' keys — and therefore their entries — intact.
//!
//! # On-disk format
//!
//! One entry per file, `<key>.sfrec` under the cache root, written
//! atomically (temp file + rename). The format is versioned and
//! self-checking:
//!
//! ```text
//! sfcache v1 epoch 3 key <32 hex> records <n>
//! <n tab-separated record lines, floats as f64 bit patterns>
//! sum <16 hex FNV-1a checksum of everything above>
//! ```
//!
//! Floats travel as the hex of [`f64::to_bits`], so NaN latencies and
//! signed zeros round-trip bit-exactly — a warm run's CSV is
//! byte-identical to the cold run's. **Lookups never fail**: a
//! truncated, bit-flipped, stale-epoch, or wrong-version entry is
//! detected (checksum first, then header, then records) and degrades to
//! a miss; the scheduler re-simulates and overwrites it.
//!
//! `stats` and `gc` sort entry files three ways:
//!
//! - **valid**: the checksum holds, the header names the current
//!   format version, the current engine epoch and the file's own key,
//!   and every record decodes;
//! - **stale**: the checksum holds and the header is shaped
//!   `sfcache <version> epoch <u32> key <32 hex>`, but its version or
//!   epoch is not current. A format or epoch bump stranded it (a future
//!   header layout counts here too), and no lookup will read it again;
//! - **corrupt**: anything else — a torn write, bit rot, truncation, a
//!   record that does not decode, an entry filed under another key —
//!   and leftover temp files.
//!
//! ```no_run
//! use slimfly::cache::ResultCache;
//! use slimfly::plan::ExperimentPlan;
//! use slimfly::schedule::Scheduler;
//! use slimfly::sink::MemorySink;
//!
//! let cache = ResultCache::open("/tmp/sf-cache")?;
//! let mut set = ExperimentPlan::from_path("figures/fig8.toml".as_ref())?.expand()?;
//! let report = Scheduler::new(0)
//!     .with_cache(Some(cache))
//!     .run(&mut set, &mut MemorySink::new())?;
//! eprintln!("hits {} misses {}", report.cache_hits, report.cache_misses);
//! # Ok::<(), slimfly::SfError>(())
//! ```

use crate::error::SfError;
use crate::experiment::Record;
use crate::plan::{FaultPlan, Job};
use crate::spec::TopologySpec;
use std::fmt::{self, Write as _};
use std::fs;
use std::path::{Path, PathBuf};

/// On-disk entry format version; parsing any other version is a miss.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// Version of the *key material* layout. Bumping it (e.g. when a new
/// field joins the key) re-keys every job, which is equivalent to a
/// full cache invalidation — stale entries linger until `gc`.
const KEY_SCHEMA_VERSION: u32 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Basis perturbation for the second hash pass (an odd constant far
/// from the FNV offset), giving the key 128 independent-ish bits.
const SECOND_BASIS_XOR: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a over `bytes` from an explicit basis.
fn fnv1a(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A 128-bit content hash of one job's canonical key material; the
/// cache's address space. Displays as 32 lowercase hex chars (also the
/// entry's file stem).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    hi: u64,
    lo: u64,
}

impl CacheKey {
    /// Hashes canonical key material (two FNV-1a passes from distinct
    /// bases, the second chained on the first so the halves never
    /// collapse to one 64-bit hash).
    pub fn from_material(material: &str) -> CacheKey {
        let hi = fnv1a(FNV_OFFSET, material.as_bytes());
        let lo = fnv1a(hi ^ SECOND_BASIS_XOR, material.as_bytes());
        CacheKey { hi, lo }
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

impl fmt::Debug for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CacheKey({self})")
    }
}

/// The cache key of `job` on the topology instance `(topo, fault)` at
/// the current [`sf_sim::ENGINE_EPOCH`]. See the [module docs](self)
/// for exactly what the key covers (and what it deliberately
/// excludes).
pub fn job_key(topo: &TopologySpec, fault: &Option<FaultPlan>, job: &Job) -> CacheKey {
    job_key_at_epoch(topo, fault, job, sf_sim::ENGINE_EPOCH)
}

/// [`job_key`] with an explicit epoch — the testing seam proving that
/// an epoch bump re-keys (and therefore orphans) every entry.
pub fn job_key_at_epoch(
    topo: &TopologySpec,
    fault: &Option<FaultPlan>,
    job: &Job,
    epoch: u32,
) -> CacheKey {
    // Canonical key material: a line-oriented rendering over the
    // stable string grammars (TopologySpec/RoutingSpec/TrafficSpec
    // round-trip through Display) with floats as f64 bit patterns.
    // Infallible writes: fmt::Write on String never errors.
    let mut m = String::with_capacity(256);
    let _ = writeln!(m, "sfkey v{KEY_SCHEMA_VERSION}");
    let _ = writeln!(m, "epoch {epoch}");
    let _ = writeln!(m, "topo {topo}");
    match fault {
        None => m.push_str("faults none\n"),
        Some(f) => {
            let _ = writeln!(
                m,
                "faults links={:016x} routers={:016x} seed={} mode={}",
                f.links.to_bits(),
                f.routers.to_bits(),
                f.seed,
                f.mode
            );
        }
    }
    let _ = writeln!(m, "routing {}", job.routing);
    let _ = writeln!(m, "traffic {}", job.traffic);
    let _ = writeln!(m, "backend {}", job.backend);
    // Constant: every load runs cold (see the module docs).
    m.push_str("warm_start false\n");
    m.push_str("loads");
    for l in &job.loads {
        let _ = write!(m, " {:016x}", l.to_bits());
    }
    m.push('\n');
    // Every SimConfig field (scheduler workers never reach this
    // function, so they cannot split the address space).
    let s = &job.sim;
    let _ = writeln!(
        m,
        "sim num_vcs={} buf_per_port={} channel_latency={} router_delay={} credit_delay={} \
         output_speedup={} output_queue_cap={} warmup={} measure={} drain={} packet_size={} \
         seed={}",
        s.num_vcs,
        s.buf_per_port,
        s.channel_latency,
        s.router_delay,
        s.credit_delay,
        s.output_speedup,
        s.output_queue_cap,
        s.warmup,
        s.measure,
        s.drain,
        s.packet_size,
        s.seed
    );
    CacheKey::from_material(&m)
}

/// A persistent record cache rooted at one directory. Cheap to clone
/// (a path); safe to share across processes — entries are written via
/// temp-file + rename, and readers validate checksums, so a torn or
/// concurrent write is at worst a miss.
#[derive(Clone, Debug)]
pub struct ResultCache {
    root: PathBuf,
}

/// What `stats` found in a cache directory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries valid at the current format version and engine epoch.
    pub valid: usize,
    /// Checksum-valid entries stranded by an epoch or format bump.
    pub stale: usize,
    /// Entries failing checksum or structural validation (torn writes,
    /// bit rot, truncation, undecodable records) plus leftover temp
    /// files.
    pub corrupt: usize,
    /// Total bytes across all `.sfrec` entries (any state).
    pub bytes: u64,
}

impl CacheStats {
    /// All entries, regardless of state.
    pub fn entries(&self) -> usize {
        self.valid + self.stale + self.corrupt
    }
}

/// What `gc` removed and kept.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Stale-epoch/format entries removed.
    pub removed_stale: usize,
    /// Corrupt entries and orphaned temp files removed.
    pub removed_corrupt: usize,
    /// Valid entries kept.
    pub kept: usize,
}

/// What one entry file holds, from [`read_entry`].
enum Entry {
    /// Current format and epoch, every record decoded.
    Valid { key: String, records: Vec<Record> },
    /// Checksum-valid, with a header shaped `sfcache <version> epoch
    /// <u32> key <32 hex>` whose version or epoch is not current.
    Stale,
    /// Anything else.
    Corrupt,
}

/// How `stats` and `gc` count an entry file: [`Entry::Valid`] only
/// when its key is also the file stem.
enum EntryState {
    Valid,
    Stale,
    Corrupt,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ResultCache, SfError> {
        let root = dir.into();
        fs::create_dir_all(&root)?;
        Ok(ResultCache { root })
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.root.join(format!("{key}.sfrec"))
    }

    /// The stored records under `key`, or `None` on a miss. *Any*
    /// anomaly — absent file, failed checksum, stale epoch, wrong
    /// format version, key mismatch, malformed record — is a miss,
    /// never an error: the caller re-simulates and overwrites.
    pub fn lookup(&self, key: &CacheKey) -> Option<Vec<Record>> {
        let text = fs::read_to_string(self.entry_path(key)).ok()?;
        match read_entry(&text) {
            Entry::Valid {
                key: stored,
                records,
            } if stored == key.to_string() => Some(records),
            _ => None,
        }
    }

    /// Stores `records` under `key`, atomically (temp file + rename,
    /// so a concurrent reader sees the old entry or the new one, never
    /// a torn one). Overwrites any existing entry.
    pub fn store(&self, key: &CacheKey, records: &[Record]) -> Result<(), SfError> {
        let tmp = self.root.join(format!("{key}.tmp.{}", std::process::id()));
        fs::write(&tmp, render_entry(key, records))?;
        match fs::rename(&tmp, self.entry_path(key)) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e.into())
            }
        }
    }

    /// Classifies every entry in the cache directory. Non-entry files
    /// are ignored except orphaned `*.tmp.*` files, which count as
    /// corrupt (gc removes them).
    pub fn stats(&self) -> Result<CacheStats, SfError> {
        let mut st = CacheStats::default();
        for (path, kind) in self.scan()? {
            match kind {
                EntryState::Valid => st.valid += 1,
                EntryState::Stale => st.stale += 1,
                EntryState::Corrupt => st.corrupt += 1,
            }
            st.bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        }
        Ok(st)
    }

    /// Removes stale-epoch/format and corrupt entries (and orphaned
    /// temp files), keeping everything valid at the current epoch.
    pub fn gc(&self) -> Result<GcReport, SfError> {
        let mut rep = GcReport::default();
        for (path, kind) in self.scan()? {
            match kind {
                EntryState::Valid => rep.kept += 1,
                EntryState::Stale => {
                    fs::remove_file(&path)?;
                    rep.removed_stale += 1;
                }
                EntryState::Corrupt => {
                    fs::remove_file(&path)?;
                    rep.removed_corrupt += 1;
                }
            }
        }
        Ok(rep)
    }

    /// Removes every entry (valid or not); returns how many files went.
    pub fn clear(&self) -> Result<usize, SfError> {
        let mut n = 0;
        for (path, _) in self.scan()? {
            fs::remove_file(&path)?;
            n += 1;
        }
        Ok(n)
    }

    /// Entry files (and orphaned temp files) with their state, in
    /// deterministic path order.
    fn scan(&self) -> Result<Vec<(PathBuf, EntryState)>, SfError> {
        let mut out = Vec::new();
        for dent in fs::read_dir(&self.root)? {
            let path = dent?.path();
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(n) => n,
                None => continue,
            };
            if let Some(stem) = name.strip_suffix(".sfrec") {
                let state = match fs::read_to_string(&path).map(|text| read_entry(&text)) {
                    Ok(Entry::Valid { key, .. }) if key == stem => EntryState::Valid,
                    Ok(Entry::Stale) => EntryState::Stale,
                    _ => EntryState::Corrupt,
                };
                out.push((path, state));
            } else if name.contains(".tmp.") {
                out.push((path, EntryState::Corrupt));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }
}

/// Renders one entry: header line, record lines, checksum trailer.
fn render_entry(key: &CacheKey, records: &[Record]) -> String {
    let mut body = format!(
        "sfcache v{CACHE_FORMAT_VERSION} epoch {} key {key} records {}\n",
        sf_sim::ENGINE_EPOCH,
        records.len()
    );
    for r in records {
        encode_record(r, &mut body);
        body.push('\n');
    }
    let sum = fnv1a(FNV_OFFSET, body.as_bytes());
    let _ = writeln!(body, "sum {sum:016x}");
    body
}

/// Reads one entry: the checksum first, then the header, then the
/// records.
fn read_entry(text: &str) -> Entry {
    (|| {
        let (payload, sum_line) = text.strip_suffix('\n')?.rsplit_once('\n')?;
        let sum = u64::from_str_radix(sum_line.strip_prefix("sum ")?, 16).ok()?;
        // The checksum covers the payload *including* its trailing
        // newline (everything before the `sum` line).
        if fnv1a(fnv1a(FNV_OFFSET, payload.as_bytes()), b"\n") != sum {
            return None;
        }
        let mut lines = payload.lines();
        let header: Vec<&str> = lines.next()?.split(' ').collect();
        let ["sfcache", version, "epoch", epoch, "key", key, ref rest @ ..] = header[..] else {
            return None;
        };
        let epoch: u32 = epoch.parse().ok()?;
        if key.len() != 32 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let version = version
            .strip_prefix('v')
            .and_then(|v| v.parse::<u32>().ok());
        if version != Some(CACHE_FORMAT_VERSION) || epoch != sf_sim::ENGINE_EPOCH {
            return Some(Entry::Stale);
        }
        let ["records", n] = rest else {
            return None;
        };
        let n: usize = n.parse().ok()?;
        let records: Vec<Record> = lines.map(decode_record).collect::<Option<_>>()?;
        (records.len() == n).then(|| Entry::Valid {
            key: key.to_string(),
            records,
        })
    })()
    .unwrap_or(Entry::Corrupt)
}

/// Encodes one record as a tab-separated line: 5 escaped strings, the
/// packet size, 6 floats as `f64::to_bits` hex (bit-exact, NaN-safe),
/// and the saturated flag as 0/1. Field order matches [`Record`]'s
/// declaration (and its CSV column order).
fn encode_record(r: &Record, out: &mut String) {
    for s in [&r.topology, &r.spec, &r.routing, &r.traffic, &r.backend] {
        escape_into(s, out);
        out.push('\t');
    }
    let _ = write!(
        out,
        "{}\t{:016x}\t{:016x}\t{:016x}\t{:016x}\t{:016x}\t{}\t{:016x}",
        r.packet_size,
        r.offered.to_bits(),
        r.latency.to_bits(),
        r.p99.to_bits(),
        r.accepted.to_bits(),
        r.avg_hops.to_bits(),
        u8::from(r.saturated),
        r.max_link_util.to_bits()
    );
}

/// Decodes one [`encode_record`] line; `None` on any malformation.
fn decode_record(line: &str) -> Option<Record> {
    let mut f = line.split('\t');
    let topology = unescape(f.next()?)?;
    let spec = unescape(f.next()?)?;
    let routing = unescape(f.next()?)?;
    let traffic = unescape(f.next()?)?;
    let backend = unescape(f.next()?)?;
    let packet_size: usize = f.next()?.parse().ok()?;
    let mut float =
        || -> Option<f64> { Some(f64::from_bits(u64::from_str_radix(f.next()?, 16).ok()?)) };
    let offered = float()?;
    let latency = float()?;
    let p99 = float()?;
    let accepted = float()?;
    let avg_hops = float()?;
    let saturated = match f.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let max_link_util = f64::from_bits(u64::from_str_radix(f.next()?, 16).ok()?);
    if f.next().is_some() {
        return None;
    }
    Some(Record {
        topology,
        spec,
        routing,
        traffic,
        backend,
        packet_size,
        offered,
        latency,
        p99,
        accepted,
        avg_hops,
        saturated,
        max_link_util,
    })
}

/// Escapes tab/newline/backslash so any string survives the
/// line-and-tab-delimited codec.
fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
}

/// Inverse of [`escape_into`]; `None` on a dangling or unknown escape.
fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExperimentPlan;

    fn sample_record(latency: f64) -> Record {
        Record {
            topology: "SF(q=5,p=3)".into(),
            spec: "sf:q=5".into(),
            routing: "UGAL-L (c=4)".into(),
            traffic: "uniform, with\ttab \\ and\nnewline".into(),
            backend: "cycle".into(),
            packet_size: 4,
            offered: 0.30000000000000004,
            latency,
            p99: 41.0,
            accepted: 0.299,
            avg_hops: 2.017,
            saturated: false,
            max_link_util: 0.73,
        }
    }

    #[test]
    fn record_codec_round_trips_bit_exactly() {
        for latency in [17.25, f64::NAN, f64::INFINITY, -0.0] {
            let r = sample_record(latency);
            let mut line = String::new();
            encode_record(&r, &mut line);
            let back = decode_record(&line).unwrap();
            assert_eq!(back.to_csv(), r.to_csv());
            assert_eq!(back.latency.to_bits(), r.latency.to_bits());
            assert_eq!(back.traffic, r.traffic);
        }
    }

    #[test]
    fn entry_round_trips_and_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("sfcache-test-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let key = CacheKey::from_material("round-trip");
        let records = vec![sample_record(17.25), sample_record(f64::NAN)];
        cache.store(&key, &records).unwrap();
        let back = ResultCache::open(&dir).unwrap().lookup(&key).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].to_csv(), records[0].to_csv());
        assert_eq!(back[1].latency.to_bits(), records[1].latency.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn any_single_byte_flip_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("sfcache-test-flip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let key = CacheKey::from_material("flip");
        cache.store(&key, &[sample_record(17.25)]).unwrap();
        let path = cache.entry_path(&key);
        let pristine = std::fs::read(&path).unwrap();
        // Flip one bit at a handful of positions spanning header,
        // record body, and trailer; every one must degrade to a miss.
        for pos in [0, 9, pristine.len() / 2, pristine.len() - 2] {
            let mut bad = pristine.clone();
            bad[pos] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            assert!(cache.lookup(&key).is_none(), "flip at {pos} must miss");
        }
        // Truncation too.
        std::fs::write(&path, &pristine[..pristine.len() - 5]).unwrap();
        assert!(cache.lookup(&key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_epoch_and_corrupt_entries_classify_and_gc() {
        let dir = std::env::temp_dir().join(format!("sfcache-test-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let k1 = CacheKey::from_material("valid");
        cache.store(&k1, &[sample_record(1.0)]).unwrap();
        // Stores `key`'s entry with one edit, checksum recomputed.
        let store_edited = |key: &CacheKey, from: &str, to: &str| {
            let body = render_entry(key, &[sample_record(2.0)]).replace(from, to);
            let (payload, _) = body.trim_end_matches('\n').rsplit_once('\n').unwrap();
            let mut with_sum = format!("{payload}\n");
            let sum = fnv1a(FNV_OFFSET, with_sum.as_bytes());
            with_sum.push_str(&format!("sum {sum:016x}\n"));
            std::fs::write(dir.join(format!("{key}.sfrec")), &with_sum).unwrap();
        };
        // A stale-epoch entry.
        let k2 = CacheKey::from_material("stale");
        store_edited(
            &k2,
            &format!("epoch {}", sf_sim::ENGINE_EPOCH),
            &format!("epoch {}", sf_sim::ENGINE_EPOCH - 1),
        );
        assert!(cache.lookup(&k2).is_none(), "stale epoch is a miss");
        // A current-epoch entry whose record does not decode is corrupt,
        // not stale: no epoch or format bump stranded it.
        let k4 = CacheKey::from_material("undecodable");
        store_edited(&k4, "\tcycle\t", "\tcycle\tx\t");
        assert!(cache.lookup(&k4).is_none(), "undecodable record is a miss");
        // A corrupt entry and an orphaned temp file.
        let k3 = CacheKey::from_material("corrupt");
        std::fs::write(dir.join(format!("{k3}.sfrec")), "garbage").unwrap();
        std::fs::write(dir.join(format!("{k3}.tmp.999")), "partial").unwrap();
        let st = cache.stats().unwrap();
        assert_eq!((st.valid, st.stale, st.corrupt), (1, 1, 3));
        assert!(st.bytes > 0);
        let gc = cache.gc().unwrap();
        assert_eq!((gc.kept, gc.removed_stale, gc.removed_corrupt), (1, 1, 3));
        assert!(cache.lookup(&k1).is_some(), "gc keeps valid entries");
        assert_eq!(cache.clear().unwrap(), 1);
        assert_eq!(cache.stats().unwrap().entries(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn expand_toml(toml: &str) -> (crate::plan::JobSet, ExperimentPlan) {
        let plan = ExperimentPlan::from_toml_str(toml).unwrap();
        (plan.expand().unwrap(), plan)
    }

    const KEY_PLAN: &str = r#"
        [figure]
        name = "keys"
        [[sweep]]
        topo = "sf:q=5"
        routing = ["min", "ugal-l:c=4"]
        loads = [0.1, 0.3]
        [sweep.sim]
        warmup = 100
        measure = 200
        drain = 400
        seed = 42
    "#;

    #[test]
    fn keys_ignore_job_position() {
        let (set, _) = expand_toml(KEY_PLAN);
        // Position independence: the same (topo, routing, load) cell
        // keys identically when the plan gains an unrelated sweep
        // before it (ids and sweep indices shift, keys must not).
        let (moved, _) = expand_toml(&format!(
            r#"
            [figure]
            name = "keys-shifted"
            [[sweep]]
            topo = "sf:q=5"
            routing = ["val"]
            loads = [0.2]
            [sweep.sim]
            warmup = 100
            measure = 200
            drain = 400
            seed = 42
            {}
            "#,
            KEY_PLAN
                .split_once("[[sweep]]")
                .map(|(_, s)| format!("[[sweep]]{s}"))
                .unwrap()
        ));
        let orig_keys: Vec<CacheKey> = set.jobs().iter().map(|j| set.job_key(j)).collect();
        let moved_keys: Vec<CacheKey> = moved
            .jobs()
            .iter()
            .skip(1) // the padding sweep's single job
            .map(|j| moved.job_key(j))
            .collect();
        assert_eq!(orig_keys, moved_keys, "job id/sweep index must not re-key");
    }

    /// The content address of every `figures/smoke.toml` job, pinned
    /// as hex. A change here orphans every cached entry of the figure:
    /// it must coincide with a deliberate key-schema or epoch bump,
    /// never with a refactor of the sim configuration.
    #[test]
    fn smoke_figure_keys_are_pinned() {
        let (set, _) = expand_toml(include_str!("../../../figures/smoke.toml"));
        let keys: Vec<String> = set
            .jobs()
            .iter()
            .map(|j| set.job_key(j).to_string())
            .collect();
        let pinned = [
            "dd3dc3815dc997a59f4c1a5e44909c3c",
            "75e31a3d74172059ca94497113f221f8",
            "14e2181470cb5dd0e7de58a4a2d151b0",
            "54f6f916b8366bc2cd1a4a4aa1e7a614",
            "1c5bb586aaa327b272f94d4b60b42ec4",
            "b37db53b1221a8d391d993a682bc12c8",
            "4392145446f8fbc9a2fc511db06a15b6",
            "605fb5c0d65b67d58bc426f8636bb062",
            "d2322f7956f2525c6606e54bd9f9cf90",
            "4f9349d130460d0180d8c89b63ae92cc",
            "7ac8e308375949598e7fffb01b07fae0",
            "6264d764525012b55bbde076077b40aa",
            "2eb1fd891dfb3bbdd9739e114bd5a196",
        ];
        assert_eq!(keys, pinned);
    }

    #[test]
    fn seed_packet_size_faults_and_epoch_all_re_key() {
        let (base, _) = expand_toml(KEY_PLAN);
        let job0 = &base.jobs()[0];
        let k0 = base.job_key(job0);

        let (seeded, _) = expand_toml(&KEY_PLAN.replace("seed = 42", "seed = 43"));
        assert_ne!(k0, seeded.job_key(&seeded.jobs()[0]), "seed");

        let (pkt, _) =
            expand_toml(&KEY_PLAN.replace("seed = 42", "seed = 42\n        packet_size = 4"));
        assert_ne!(k0, pkt.job_key(&pkt.jobs()[0]), "packet_size");

        let (faulted, _) = expand_toml(&KEY_PLAN.replace(
            "loads = [0.1, 0.3]",
            "loads = [0.1, 0.3]\n        faults = { links = 0.02, seed = 7 }",
        ));
        assert_ne!(k0, faulted.job_key(&faulted.jobs()[0]), "faults");

        let topo = &base.topos()[job0.topo];
        let fault = &base.topo_faults()[job0.topo];
        assert_ne!(
            job_key_at_epoch(topo, fault, job0, sf_sim::ENGINE_EPOCH + 1),
            k0,
            "epoch"
        );
        // And the real-epoch helper agrees with the JobSet wrapper.
        assert_eq!(job_key(topo, fault, job0), k0);
    }
}
