//! Output checks: per-job record digests, the pinned digest files, and
//! record equality.

use slimfly::{JobSet, Record};

/// FNV-1a 64 over named fields of every record of one job. Floats go in
/// as `f64` bit patterns. Fields are hashed by name, so columns added to
/// `Record` later leave existing digests unchanged.
pub fn job_digest(records: &[Record]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for r in records {
        h.field("spec", r.spec.as_bytes());
        h.field("routing", r.routing.as_bytes());
        h.field("backend", r.backend.as_bytes());
        h.field("packet_size", &(r.packet_size as u64).to_le_bytes());
        for (name, v) in [
            ("offered", r.offered),
            ("latency", r.latency),
            ("p99", r.p99),
            ("accepted", r.accepted),
            ("avg_hops", r.avg_hops),
        ] {
            h.field(name, &v.to_bits().to_le_bytes());
        }
        h.field("saturated", &[r.saturated as u8]);
        h.field("max_link_util", &r.max_link_util.to_bits().to_le_bytes());
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn field(&mut self, name: &str, value: &[u8]) {
        self.bytes(name.as_bytes());
        self.bytes(&[0]);
        self.bytes(&(value.len() as u64).to_le_bytes());
        self.bytes(value);
    }
}

/// True when a record's throughput columns are numbers; NaN or infinite
/// accepted/avg_hops/max_link_util mean the job measured nothing.
pub fn finite(r: &Record) -> bool {
    r.accepted.is_finite() && r.avg_hops.is_finite() && r.max_link_util.is_finite()
}

/// The record columns the benchmark compares. The traced replica builds
/// rows rather than `Record`s, so columns added to `Record` later do
/// not break it.
#[derive(Debug)]
pub struct Row {
    pub topology: String,
    pub spec: String,
    pub routing: String,
    pub traffic: String,
    pub backend: String,
    pub packet_size: usize,
    pub offered: f64,
    pub latency: f64,
    pub p99: f64,
    pub accepted: f64,
    pub avg_hops: f64,
    pub saturated: bool,
    pub max_link_util: f64,
}

impl Row {
    pub fn of(r: &Record) -> Row {
        Row {
            topology: r.topology.clone(),
            spec: r.spec.clone(),
            routing: r.routing.clone(),
            traffic: r.traffic.clone(),
            backend: r.backend.clone(),
            packet_size: r.packet_size,
            offered: r.offered,
            latency: r.latency,
            p99: r.p99,
            accepted: r.accepted,
            avg_hops: r.avg_hops,
            saturated: r.saturated,
            max_link_util: r.max_link_util,
        }
    }

    /// Field-by-field equality, floats compared bit for bit.
    /// `with_latency = false` skips the latency and p99 columns.
    pub fn same(&self, b: &Row, with_latency: bool) -> bool {
        let bits = |x: f64, y: f64| x.to_bits() == y.to_bits();
        self.topology == b.topology
            && self.spec == b.spec
            && self.routing == b.routing
            && self.traffic == b.traffic
            && self.backend == b.backend
            && self.packet_size == b.packet_size
            && bits(self.offered, b.offered)
            && (!with_latency || (bits(self.latency, b.latency) && bits(self.p99, b.p99)))
            && bits(self.accepted, b.accepted)
            && bits(self.avg_hops, b.avg_hops)
            && self.saturated == b.saturated
            && bits(self.max_link_util, b.max_link_util)
    }
}

/// Whether two record lists are equal in every column.
pub fn same_records(a: &[Record], b: &[Record]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| Row::of(x).same(&Row::of(y), true))
}

/// Splits a job-ordered record stream into per-job slices. Jobs beyond
/// a short (failed) stream get `None`.
pub fn per_job<'r>(set: &JobSet, records: &'r [Record]) -> Vec<Option<&'r [Record]>> {
    let mut at = 0;
    set.jobs()
        .iter()
        .map(|j| {
            let end = at + j.loads.len();
            let slice = records.get(at..end);
            at = end;
            slice
        })
        .collect()
}

/// A workload's pinned digests: the engine epoch and seed they were
/// captured at, and one digest per job in job-id order.
pub struct Pins {
    pub epoch: u32,
    pub seed: u64,
    pub digests: Vec<u64>,
}

impl Pins {
    /// Parses a `.digests` file: `#` comments, `epoch N`, `seed S`, then
    /// one `<job id> <16 hex digits>` line per job.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut epoch = None;
        let mut seed = None;
        let mut digests = Vec::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            let mut words = line.split_whitespace();
            match (words.next(), words.next()) {
                (None, _) => {}
                (Some("epoch"), Some(v)) => epoch = v.parse().ok(),
                (Some("seed"), Some(v)) => seed = v.parse().ok(),
                (Some(id), Some(hex)) => {
                    let id: usize = id.parse().map_err(|_| format!("bad job id {id:?}"))?;
                    if id != digests.len() {
                        return Err(format!("digest for job {id} out of order"));
                    }
                    digests.push(
                        u64::from_str_radix(hex, 16).map_err(|_| format!("bad digest {hex:?}"))?,
                    );
                }
                _ => return Err(format!("unreadable digest line {line:?}")),
            }
        }
        Ok(Pins {
            epoch: epoch.ok_or("digest file has no epoch line")?,
            seed: seed.ok_or("digest file has no seed line")?,
            digests,
        })
    }

    /// Renders a `.digests` file with a readable label per job.
    pub fn render(&self, workload: &str, set: &JobSet) -> String {
        let mut out = format!(
            "# Record digests of {workload} (sf_benchmark), rewritten by `bless`.\n\
             epoch {}\nseed {}\n",
            self.epoch, self.seed
        );
        for (job, d) in set.jobs().iter().zip(&self.digests) {
            let faults = match &set.topo_faults()[job.topo] {
                Some(f) => f.suffix(),
                None => String::new(),
            };
            out.push_str(&format!(
                "{} {d:016x}  # {}{faults} {} {} {} ps={} loads={:?}\n",
                job.id,
                set.topos()[job.topo],
                job.routing,
                job.traffic,
                job.backend,
                job.sim.packet_size,
                job.loads
            ));
        }
        out
    }
}
