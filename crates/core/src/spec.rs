//! Declarative topology specs.
//!
//! A [`TopologySpec`] is a serializable description of one concrete
//! network from any family `sf-topo` implements. Specs parse from and
//! print to a compact string grammar, so the same value can come from a
//! CLI flag, a config file, or code:
//!
//! | Family | Example | Construction |
//! |--------|---------|--------------|
//! | Slim Fly MMS | `sf:q=19`, `sf:q=19,p=18` | [`sf_topo::SlimFly`] |
//! | Dragonfly | `df:p=7`, `df:a=22,h=11,p=11,g=45` | [`sf_topo::dragonfly::Dragonfly`] |
//! | 3-level fat tree | `ft3:p=22`, `ft3:p=22,full` | [`sf_topo::fattree::FatTree3`] |
//! | Flattened butterfly | `fbf:c=12,dims=3` | [`sf_topo::flatbutterfly::FlattenedButterfly`] |
//! | Torus | `torus3:k=10`, `torus:dims=4x6x8` | [`sf_topo::torus::Torus`] |
//! | Hypercube | `hc:d=13` | [`sf_topo::hypercube::Hypercube`] |
//! | Long Hop | `lh:d=13,l=3` | [`sf_topo::longhop::LongHop`] |
//! | Random DLN | `dln:nr=64,y=4`, `…,seed=7` | [`sf_topo::random_dln::RandomDln`] |
//! | BDF projective plane | `bdf:u=5`, `bdf:u=5,p=2` | [`sf_topo::bdf::ProjectivePlaneGraph`] |
//!
//! The grammar is `family:key=value,key=value,…`; [`TopologySpec`]
//! round-trips through [`std::fmt::Display`] / [`std::str::FromStr`] for
//! every family. [`TopologySpec::build`] is the single registry that
//! turns a spec into a [`Network`], replacing the per-binary constructor
//! calls the bench suite used to carry, and [`roster`] reproduces the
//! paper's Table II comparison roster as specs.

use crate::error::SfError;
use crate::zoo::SlimFlyConfig;
use sf_topo::bdf::ProjectivePlaneGraph;
use sf_topo::dragonfly::Dragonfly;
use sf_topo::fattree::FatTree3;
use sf_topo::flatbutterfly::FlattenedButterfly;
use sf_topo::hypercube::Hypercube;
use sf_topo::longhop::LongHop;
use sf_topo::random_dln::RandomDln;
use sf_topo::torus::Torus;
use sf_topo::{Network, SlimFly};
use std::fmt;
use std::str::FromStr;

/// Default RNG seed for random constructions (DLN shortcut matchings).
pub const DEFAULT_SEED: u64 = 0x5F1A_2014;

/// A declarative description of one concrete network.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TopologySpec {
    /// Slim Fly MMS graph for prime power `q`; `p = None` uses the
    /// balanced concentration ⌈k'/2⌉ (§II-B2).
    SlimFly {
        /// Prime power with q mod 4 ∈ {0, 1, 3}.
        q: u32,
        /// Endpoints per router (balanced when `None`).
        p: Option<u32>,
    },
    /// Dragonfly `(a, h, p)`; `groups = None` is the canonical
    /// `g = a·h + 1`. The balanced shape `a = 2p, h = p` prints as
    /// `df:p=…`.
    Dragonfly {
        /// Routers per group.
        a: u32,
        /// Global channels per router.
        h: u32,
        /// Endpoints per router.
        p: u32,
        /// Group-count override (§VI-B4 reduced Dragonflies).
        groups: Option<u32>,
    },
    /// Three-level folded Clos; `full` selects the classic 2p-pod tree.
    FatTree3 {
        /// Half the switch radix.
        p: u32,
        /// 2p-pod cost variant vs the §V p-pod variant.
        full: bool,
    },
    /// k-ary n-flat flattened butterfly; `p = None` is the balanced
    /// `p = c`.
    FlattenedButterfly {
        /// Extent per router dimension.
        c: u32,
        /// Router dimensions (3 for the paper's FBF-3).
        dims: u32,
        /// Endpoints per router (balanced when `None`).
        p: Option<u32>,
    },
    /// k-ary n-cube torus with per-dimension extents.
    Torus {
        /// Extent of each dimension (all ≥ 1).
        dims: Vec<u32>,
    },
    /// Binary hypercube of dimension `d`.
    Hypercube {
        /// Address bits.
        d: u32,
    },
    /// Long Hop augmented hypercube.
    LongHop {
        /// Base hypercube dimension.
        d: u32,
        /// Long-hop masks per router.
        l: u32,
    },
    /// DLN-2-y random shortcut network.
    RandomDln {
        /// Router count (even, ≥ 4).
        nr: usize,
        /// Shortcut rounds.
        y: u32,
        /// Matching RNG seed.
        seed: u64,
    },
    /// Bermond–Delorme–Fahri projective-plane polarity graph `P_u`.
    Bdf {
        /// Odd prime power (plane order).
        u: u32,
        /// Endpoints per router.
        p: u32,
    },
}

impl TopologySpec {
    /// Balanced Slim Fly for prime power `q`.
    pub fn slimfly(q: u32) -> Self {
        TopologySpec::SlimFly { q, p: None }
    }

    /// Balanced Dragonfly (`a = 2p`, `h = p`, canonical group count).
    pub fn dragonfly_balanced(p: u32) -> Self {
        TopologySpec::Dragonfly {
            a: 2 * p,
            h: p,
            p,
            groups: None,
        }
    }

    /// The §V performance fat tree (p pods).
    pub fn fattree3(p: u32) -> Self {
        TopologySpec::FatTree3 { p, full: false }
    }

    /// Balanced 3-dimensional flattened butterfly.
    pub fn fbf3(c: u32) -> Self {
        TopologySpec::FlattenedButterfly {
            c,
            dims: 3,
            p: None,
        }
    }

    /// The family tag (`"sf"`, `"df"`, …) this spec belongs to.
    pub fn family(&self) -> &'static str {
        match self {
            TopologySpec::SlimFly { .. } => "sf",
            TopologySpec::Dragonfly { .. } => "df",
            TopologySpec::FatTree3 { .. } => "ft3",
            TopologySpec::FlattenedButterfly { .. } => "fbf",
            TopologySpec::Torus { .. } => "torus",
            TopologySpec::Hypercube { .. } => "hc",
            TopologySpec::LongHop { .. } => "lh",
            TopologySpec::RandomDln { .. } => "dln",
            TopologySpec::Bdf { .. } => "bdf",
        }
    }

    /// Every family tag the registry accepts, with an example spec.
    pub const FAMILIES: &'static [(&'static str, &'static str)] = &[
        ("sf", "sf:q=19"),
        ("df", "df:p=7"),
        ("ft3", "ft3:p=22"),
        ("fbf", "fbf:c=12,dims=3"),
        ("torus", "torus3:k=10"),
        ("hc", "hc:d=13"),
        ("lh", "lh:d=13,l=3"),
        ("dln", "dln:nr=64,y=4"),
        ("bdf", "bdf:u=5"),
    ];

    fn invalid(&self, reason: impl Into<String>) -> SfError {
        SfError::InvalidParam {
            spec: self.to_string(),
            reason: reason.into(),
        }
    }

    /// Sanity cap on router counts (64M): beyond this the in-memory
    /// adjacency representation is unrealistic, and user-supplied specs
    /// (config files, CLI flags) must error instead of aborting on
    /// overflow or an absurd allocation.
    pub const MAX_ROUTERS: u64 = 1 << 26;

    fn check_routers(&self, routers: u64) -> Result<(), SfError> {
        if routers > Self::MAX_ROUTERS {
            Err(self.invalid(format!(
                "{routers} routers exceeds the in-memory limit of {}",
                Self::MAX_ROUTERS
            )))
        } else {
            Ok(())
        }
    }

    /// Builds the concrete [`Network`] — the single constructor registry
    /// for every topology family in `sf-topo`.
    pub fn build(&self) -> Result<Network, SfError> {
        match self {
            TopologySpec::SlimFly { q, p } => {
                // 2q² routers; GF(q) tables are q² entries.
                self.check_routers(2u64.saturating_mul(*q as u64).saturating_mul(*q as u64))?;
                let sf = SlimFly::new(*q)?;
                Ok(match p {
                    Some(p) => {
                        if *p == 0 {
                            return Err(self.invalid("concentration p must be ≥ 1"));
                        }
                        sf.network_with_concentration(*p)
                    }
                    None => sf.network(),
                })
            }
            TopologySpec::Dragonfly { a, h, p, groups } => {
                if *a == 0 || *h == 0 || *p == 0 {
                    return Err(self.invalid("a, h and p must all be ≥ 1"));
                }
                let gmax_wide = *a as u64 * *h as u64 + 1;
                if let Some(g) = groups {
                    if (*g as u64) < 2 || *g as u64 > gmax_wide {
                        return Err(self
                            .invalid(format!("group count must be in 2..={gmax_wide}, got {g}")));
                    }
                }
                let g = groups.map(|g| g as u64).unwrap_or(gmax_wide);
                self.check_routers((*a as u64).saturating_mul(g))?;
                Ok(Dragonfly {
                    a: *a,
                    h: *h,
                    p: *p,
                    groups: *groups,
                }
                .network())
            }
            TopologySpec::FatTree3 { p, full } => {
                if *p < 2 {
                    return Err(self.invalid("fat trees need p ≥ 2"));
                }
                // Nr ≤ 5p².
                self.check_routers(5u64.saturating_mul(*p as u64).saturating_mul(*p as u64))?;
                Ok(FatTree3 { p: *p, full: *full }.network())
            }
            TopologySpec::FlattenedButterfly { c, dims, p } => {
                if *c < 2 || *dims < 1 {
                    return Err(self.invalid("flattened butterflies need c ≥ 2 and dims ≥ 1"));
                }
                let p = p.unwrap_or(*c);
                if p == 0 {
                    return Err(self.invalid("concentration p must be ≥ 1"));
                }
                let routers = (0..*dims).try_fold(1u64, |acc, _| {
                    acc.checked_mul(*c as u64)
                        .filter(|&r| r <= Self::MAX_ROUTERS)
                });
                match routers {
                    Some(_) => Ok(FlattenedButterfly {
                        c: *c,
                        dims: *dims,
                        p,
                    }
                    .network()),
                    None => Err(self.invalid(format!(
                        "c^dims exceeds the in-memory limit of {} routers",
                        Self::MAX_ROUTERS
                    ))),
                }
            }
            TopologySpec::Torus { dims } => {
                if dims.is_empty() || dims.contains(&0) {
                    return Err(self.invalid("torus extents must be non-empty and all ≥ 1"));
                }
                let routers = dims.iter().try_fold(1u64, |acc, &d| {
                    acc.checked_mul(d as u64)
                        .filter(|&r| r <= Self::MAX_ROUTERS)
                });
                if routers.is_none() {
                    return Err(self.invalid(format!(
                        "extent product exceeds the in-memory limit of {} routers",
                        Self::MAX_ROUTERS
                    )));
                }
                Ok(Torus::new(dims.clone()).network())
            }
            TopologySpec::Hypercube { d } => {
                if !(1..=26).contains(d) {
                    return Err(self.invalid("hypercube dimension must be in 1..=26"));
                }
                Ok(Hypercube::new(*d).network())
            }
            TopologySpec::LongHop { d, l } => {
                if !(3..=26).contains(d) {
                    return Err(self.invalid("Long Hop base dimension must be in 3..=26"));
                }
                Ok(LongHop::new(*d, *l).network())
            }
            TopologySpec::RandomDln { nr, y, seed } => {
                if *nr < 4 || *nr % 2 != 0 {
                    return Err(self.invalid("DLN needs an even router count ≥ 4"));
                }
                self.check_routers(*nr as u64)?;
                Ok(RandomDln::new(*nr, *y, *seed).network())
            }
            TopologySpec::Bdf { u, p } => {
                if *p == 0 {
                    return Err(self.invalid("concentration p must be ≥ 1"));
                }
                // u² + u + 1 plane points (and q×q field tables).
                let u64w = *u as u64;
                self.check_routers(u64w.saturating_mul(u64w).saturating_add(u64w + 1))?;
                let plane = ProjectivePlaneGraph::new(*u)
                    .ok_or_else(|| self.invalid(format!("u = {u} is not an odd prime power")))?;
                Ok(plane.network(*p))
            }
        }
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySpec::SlimFly { q, p } => {
                write!(f, "sf:q={q}")?;
                if let Some(p) = p {
                    write!(f, ",p={p}")?;
                }
                Ok(())
            }
            TopologySpec::Dragonfly { a, h, p, groups } => {
                if *a as u64 == 2 * *p as u64 && h == p && groups.is_none() {
                    write!(f, "df:p={p}")
                } else {
                    write!(f, "df:a={a},h={h},p={p}")?;
                    if let Some(g) = groups {
                        write!(f, ",g={g}")?;
                    }
                    Ok(())
                }
            }
            TopologySpec::FatTree3 { p, full } => {
                write!(f, "ft3:p={p}")?;
                if *full {
                    write!(f, ",full")?;
                }
                Ok(())
            }
            TopologySpec::FlattenedButterfly { c, dims, p } => {
                write!(f, "fbf:c={c},dims={dims}")?;
                if let Some(p) = p {
                    write!(f, ",p={p}")?;
                }
                Ok(())
            }
            TopologySpec::Torus { dims } => {
                let uniform = dims.windows(2).all(|w| w[0] == w[1]);
                if uniform && !dims.is_empty() && dims.len() <= 9 {
                    write!(f, "torus{}:k={}", dims.len(), dims[0])
                } else {
                    let parts: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
                    write!(f, "torus:dims={}", parts.join("x"))
                }
            }
            TopologySpec::Hypercube { d } => write!(f, "hc:d={d}"),
            TopologySpec::LongHop { d, l } => write!(f, "lh:d={d},l={l}"),
            TopologySpec::RandomDln { nr, y, seed } => {
                write!(f, "dln:nr={nr},y={y}")?;
                if *seed != DEFAULT_SEED {
                    write!(f, ",seed={seed}")?;
                }
                Ok(())
            }
            TopologySpec::Bdf { u, p } => {
                write!(f, "bdf:u={u}")?;
                if *p != 1 {
                    write!(f, ",p={p}")?;
                }
                Ok(())
            }
        }
    }
}

/// Key-value parameter list parsed from the text after `family:`.
struct Params<'a> {
    input: &'a str,
    pairs: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Params<'a> {
    fn parse(input: &'a str, body: &'a str) -> Result<Self, SfError> {
        let mut pairs = Vec::new();
        for part in body.split(',') {
            if part.is_empty() {
                return Err(parse_err(input, "empty parameter"));
            }
            match part.split_once('=') {
                Some((k, v)) => pairs.push((k, Some(v))),
                None => pairs.push((part, None)),
            }
        }
        Ok(Params { input, pairs })
    }

    /// Consumes parameter `key` parsed as `T`.
    fn take<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, SfError> {
        match self.pairs.iter().position(|&(k, _)| k == key) {
            None => Ok(None),
            Some(i) => {
                let (_, v) = self.pairs.remove(i);
                let v = v.ok_or_else(|| {
                    parse_err(self.input, format!("parameter {key} needs a value"))
                })?;
                v.parse::<T>()
                    .map(Some)
                    .map_err(|_| parse_err(self.input, format!("cannot parse {key}={v}")))
            }
        }
    }

    /// Consumes required parameter `key`.
    fn require<T: FromStr>(&mut self, key: &str) -> Result<T, SfError> {
        self.take(key)?
            .ok_or_else(|| parse_err(self.input, format!("missing required parameter {key}")))
    }

    /// Consumes a boolean flag: absent = false, bare or `=true/false`.
    fn flag(&mut self, key: &str) -> Result<bool, SfError> {
        match self.pairs.iter().position(|&(k, _)| k == key) {
            None => Ok(false),
            Some(i) => {
                let (_, v) = self.pairs.remove(i);
                match v {
                    None | Some("true") => Ok(true),
                    Some("false") => Ok(false),
                    Some(other) => Err(parse_err(
                        self.input,
                        format!("flag {key} must be true or false, got {other}"),
                    )),
                }
            }
        }
    }

    /// Errors if any parameter was not consumed.
    fn finish(self) -> Result<(), SfError> {
        match self.pairs.first() {
            None => Ok(()),
            Some((k, _)) => Err(parse_err(self.input, format!("unknown parameter {k}"))),
        }
    }
}

fn parse_err(input: &str, reason: impl Into<String>) -> SfError {
    SfError::ParseSpec {
        input: input.to_string(),
        reason: reason.into(),
    }
}

impl FromStr for TopologySpec {
    type Err = SfError;

    fn from_str(s: &str) -> Result<Self, SfError> {
        let (family, body) = s
            .split_once(':')
            .ok_or_else(|| parse_err(s, "expected family:key=value,… (e.g. sf:q=19)"))?;

        // `torusN:k=E` sugar for an N-dimensional extent-E torus.
        if let Some(ndims) = family.strip_prefix("torus").and_then(|n| {
            if n.is_empty() {
                None
            } else {
                n.parse::<usize>().ok()
            }
        }) {
            if ndims == 0 {
                return Err(parse_err(s, "torus dimension count must be ≥ 1"));
            }
            let mut p = Params::parse(s, body)?;
            let k: u32 = p.require("k")?;
            p.finish()?;
            return Ok(TopologySpec::Torus {
                dims: vec![k; ndims],
            });
        }

        let mut p = Params::parse(s, body)?;
        let spec = match family {
            "sf" => TopologySpec::SlimFly {
                q: p.require("q")?,
                p: p.take("p")?,
            },
            "df" => {
                let a = p.take::<u32>("a")?;
                let h = p.take::<u32>("h")?;
                let pp = p.require::<u32>("p")?;
                let groups = p.take::<u32>("g")?;
                match (a, h) {
                    (Some(a), Some(h)) => TopologySpec::Dragonfly {
                        a,
                        h,
                        p: pp,
                        groups,
                    },
                    (None, None) => TopologySpec::Dragonfly {
                        a: pp.checked_mul(2).ok_or_else(|| {
                            parse_err(s, format!("p = {pp} too large for a balanced Dragonfly"))
                        })?,
                        h: pp,
                        p: pp,
                        groups,
                    },
                    _ => return Err(parse_err(s, "df needs either p alone or a,h,p")),
                }
            }
            "ft3" => TopologySpec::FatTree3 {
                p: p.require("p")?,
                full: p.flag("full")?,
            },
            "fbf" => TopologySpec::FlattenedButterfly {
                c: p.require("c")?,
                dims: p.take("dims")?.unwrap_or(3),
                p: p.take("p")?,
            },
            "torus" => {
                let dims_str: String = p.require("dims")?;
                let dims = dims_str
                    .split('x')
                    .map(|d| d.parse::<u32>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| parse_err(s, format!("cannot parse dims={dims_str}")))?;
                TopologySpec::Torus { dims }
            }
            "hc" => TopologySpec::Hypercube { d: p.require("d")? },
            "lh" => TopologySpec::LongHop {
                d: p.require("d")?,
                l: p.take("l")?.unwrap_or(3),
            },
            "dln" => TopologySpec::RandomDln {
                nr: p.require("nr")?,
                y: p.require("y")?,
                seed: p.take("seed")?.unwrap_or(DEFAULT_SEED),
            },
            "bdf" => TopologySpec::Bdf {
                u: p.require("u")?,
                p: p.take("p")?.unwrap_or(1),
            },
            other => {
                let families: Vec<&str> = TopologySpec::FAMILIES.iter().map(|&(f, _)| f).collect();
                return Err(parse_err(
                    s,
                    format!(
                        "unknown topology family {other:?} (expected one of {})",
                        families.join(", ")
                    ),
                ));
            }
        };
        p.finish()?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------
// The Table II comparison roster, as specs.
// ---------------------------------------------------------------------

/// The paper's comparison roster (Table II) sized as close as possible
/// to `target_n` endpoints, as declarative specs in the figure order:
/// SF, DF, FT-3, FBF-3, T3D, T5D, HC, LH-HC, DLN.
pub fn roster(target_n: usize) -> Vec<TopologySpec> {
    let mut specs = Vec::new();
    if let Some(q) = slimfly_q_near(target_n) {
        specs.push(TopologySpec::slimfly(q));
    }
    specs.push(TopologySpec::dragonfly_balanced(dragonfly_p_near(target_n)));
    specs.push(TopologySpec::fattree3(fattree_p_near(target_n)));
    specs.push(TopologySpec::fbf3(fbf3_c_near(target_n)));
    specs.push(TopologySpec::Torus {
        dims: Torus::cubic_3d(target_n).dims,
    });
    specs.push(TopologySpec::Torus {
        dims: Torus::cubic_5d(target_n).dims,
    });
    specs.push(TopologySpec::Hypercube {
        d: Hypercube::at_least(target_n).d,
    });
    specs.push(TopologySpec::LongHop {
        d: LongHop::at_least(target_n).d,
        l: 3,
    });
    // DLN radix matched to the Slim Fly's network radix.
    let k_prime = specs
        .first()
        .and_then(|s| match s {
            TopologySpec::SlimFly { q, .. } => SlimFlyConfig::for_q(*q).map(|c| c.k_prime),
            _ => None,
        })
        .unwrap_or(11);
    let (nr, y) = dln_shape_near(target_n, k_prime);
    specs.push(TopologySpec::RandomDln {
        nr,
        y,
        seed: DEFAULT_SEED,
    });
    specs
}

/// The balanced Slim Fly q whose endpoint count is closest to `target`.
pub fn slimfly_q_near(target_n: usize) -> Option<u32> {
    let qmax = ((target_n as f64).sqrt() as u32 + 8) * 2;
    SlimFly::admissible_q_up_to(qmax)
        .into_iter()
        .filter_map(SlimFlyConfig::for_q)
        .min_by_key(|c| (c.n as usize).abs_diff(target_n))
        .map(|c| c.q)
}

/// The balanced Dragonfly p whose endpoint count is closest to `target`.
pub fn dragonfly_p_near(target_n: usize) -> u32 {
    (1..200u32)
        .min_by_key(|&p| Dragonfly::balanced(p).num_endpoints().abs_diff(target_n))
        .unwrap_or(1)
}

/// The §V fat-tree p whose endpoint count is closest to `target`.
pub fn fattree_p_near(target_n: usize) -> u32 {
    (2..200u32)
        .min_by_key(|&p| {
            FatTree3 { p, full: false }
                .num_endpoints()
                .abs_diff(target_n)
        })
        .unwrap_or(2)
}

/// The balanced FBF-3 extent whose endpoint count is closest to `target`.
pub fn fbf3_c_near(target_n: usize) -> u32 {
    (2..60u32)
        .min_by_key(|&c| {
            FlattenedButterfly { c, dims: 3, p: c }
                .num_endpoints()
                .abs_diff(target_n)
        })
        .unwrap_or(2)
}

/// DLN shape `(nr, y)` with network radix matching `k_prime` and at
/// least `target_n` endpoints.
pub fn dln_shape_near(target_n: usize, k_prime: u32) -> (usize, u32) {
    let y = k_prime.saturating_sub(2).max(1);
    let mut nr = 64usize;
    loop {
        let dln = RandomDln::new(nr, y, DEFAULT_SEED);
        if dln.p as usize * nr >= target_n || nr > 4 * target_n {
            return (nr, y);
        }
        nr = (nr + nr / 2 + 2) & !1; // grow ~1.5×, keep even
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(s: &str) -> TopologySpec {
        s.parse::<TopologySpec>().unwrap()
    }

    #[test]
    fn parse_paper_examples() {
        assert_eq!(rt("sf:q=19"), TopologySpec::SlimFly { q: 19, p: None });
        assert_eq!(rt("df:p=7"), TopologySpec::dragonfly_balanced(7));
        assert_eq!(
            rt("ft3:p=22"),
            TopologySpec::FatTree3 { p: 22, full: false }
        );
        assert_eq!(
            rt("torus3:k=10"),
            TopologySpec::Torus {
                dims: vec![10, 10, 10]
            }
        );
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "sf:q=19",
            "sf:q=19,p=18",
            "df:p=7",
            "df:a=22,h=11,p=11,g=45",
            "ft3:p=22",
            "ft3:p=22,full",
            "fbf:c=12,dims=3",
            "fbf:c=12,dims=2,p=4",
            "torus3:k=10",
            "torus:dims=4x6x8",
            "hc:d=13",
            "lh:d=13,l=3",
            "dln:nr=64,y=4",
            "dln:nr=64,y=4,seed=7",
            "bdf:u=5",
            "bdf:u=5,p=2",
        ] {
            let spec = rt(s);
            assert_eq!(spec.to_string(), s, "canonical form of {s}");
            assert_eq!(rt(&spec.to_string()), spec, "round trip of {s}");
        }
    }

    #[test]
    fn registry_builds_expected_sizes() {
        assert_eq!(rt("sf:q=19").build().unwrap().num_endpoints(), 10_830);
        assert_eq!(rt("df:p=7").build().unwrap().num_endpoints(), 9_702);
        assert_eq!(rt("ft3:p=22").build().unwrap().num_endpoints(), 10_648);
        assert_eq!(rt("torus3:k=4").build().unwrap().num_routers(), 64);
        assert_eq!(rt("hc:d=8").build().unwrap().num_routers(), 256);
        assert_eq!(rt("fbf:c=4,dims=2").build().unwrap().num_routers(), 16);
        assert_eq!(rt("bdf:u=3").build().unwrap().num_routers(), 13);
        let dln = rt("dln:nr=64,y=4").build().unwrap();
        assert_eq!(dln.num_routers(), 64);
    }

    #[test]
    fn parse_errors_are_typed() {
        for bad in [
            "nonsense",
            "zz:q=5",
            "sf:q=",
            "sf:q=banana",
            "sf:",
            "sf:p=5",
            "sf:q=5,bogus=1",
            "df:a=4,p=2",
            "torus:dims=4xx8",
            "torus0:k=4",
            "ft3:p=22,full=maybe",
        ] {
            let err = bad.parse::<TopologySpec>().unwrap_err();
            assert!(matches!(err, SfError::ParseSpec { .. }), "{bad}: {err:?}");
        }
    }

    #[test]
    fn build_errors_are_typed() {
        assert!(matches!(
            rt("sf:q=6").build().unwrap_err(),
            SfError::Topology(_)
        ));
        for bad in [
            "sf:q=5,p=0",
            "dln:nr=33,y=2",
            "hc:d=0",
            "df:a=2,h=3,p=1,g=99",
        ] {
            assert!(matches!(
                rt(bad).build().unwrap_err(),
                SfError::InvalidParam { .. }
            ));
        }
    }

    #[test]
    fn roster_covers_table_ii() {
        let specs = roster(10_000);
        assert_eq!(specs.len(), 9, "{specs:?}");
        assert_eq!(specs[0], TopologySpec::slimfly(19));
        assert_eq!(specs[1], TopologySpec::dragonfly_balanced(7));
        assert_eq!(specs[2], TopologySpec::fattree3(22));
        for spec in &specs {
            let net = spec.build().unwrap();
            assert!(net.num_endpoints() > 0, "{spec}");
        }
    }

    #[test]
    fn absurd_sizes_are_errors_not_panics() {
        // Overflow-prone parameters must come back as typed errors.
        assert!(matches!(
            "df:p=3000000000".parse::<TopologySpec>().unwrap_err(),
            SfError::ParseSpec { .. }
        ));
        for bad in [
            "df:a=70000,h=70000,p=1",
            "sf:q=4000000000",
            "torus3:k=4000000000",
            "torus:dims=100000x100000x100000",
            "fbf:c=60000,dims=9",
            "ft3:p=4000000",
            "dln:nr=4000000000,y=2",
            "hc:d=30",
            "lh:d=30,l=3",
            "bdf:u=65521",
        ] {
            let err = rt(bad).build().unwrap_err();
            assert!(
                matches!(err, SfError::InvalidParam { .. } | SfError::Topology(_)),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn near_helpers_match_paper_sizes() {
        assert_eq!(slimfly_q_near(10_000), Some(19));
        assert_eq!(dragonfly_p_near(9_702), 7); // the paper's k = 27 DF
        assert_eq!(fattree_p_near(10_648), 22);
        let (nr, y) = dln_shape_near(500, 11);
        let dln = RandomDln::new(nr, y, DEFAULT_SEED);
        assert!(dln.p as usize * nr >= 500);
    }

    #[test]
    fn family_examples_all_parse_and_build() {
        for &(family, example) in TopologySpec::FAMILIES {
            let spec = rt(example);
            assert_eq!(spec.family(), family);
            spec.build().unwrap_or_else(|e| panic!("{example}: {e}"));
        }
    }
}
