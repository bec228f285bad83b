//! Campaign specifications: the declarative description of an experiment
//! (axis points × task-set replicas) that expands into a flat list of
//! deterministic work units.
//!
//! A campaign's identity is its [fingerprint](CampaignSpec::fingerprint) —
//! a hash of the canonical spec JSON. The fingerprint is stamped into the
//! result store's header, so resuming with changed flags, merging stores
//! of different campaigns, or sharding with inconsistent specs all fail
//! fast instead of silently mixing incompatible results.

use chebymc_core::pipeline::derive_set_seed;
use serde::{Deserialize, Serialize};

/// One named scalar parameter of an axis point (`u = 0.8`,
/// `policy = 2`, …). Kept as named pairs rather than positional values so
/// the JSONL store is self-describing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter value.
    pub value: f64,
}

impl Param {
    /// Builds a parameter.
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        Param {
            name: name.into(),
            value,
        }
    }
}

/// One point of the campaign axis: a stable label (used in tables and
/// diagnostics) plus the parameters the unit runner consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointSpec {
    /// Stable, unique label, e.g. `chebyshev-ga/u0.80`.
    pub label: String,
    /// Named parameters of the point.
    pub params: Vec<Param>,
}

impl PointSpec {
    /// Builds a point.
    pub fn new(label: impl Into<String>, params: Vec<Param>) -> Self {
        PointSpec {
            label: label.into(),
            params,
        }
    }

    /// Looks up a parameter by name.
    #[must_use]
    pub fn param(&self, name: &str) -> Option<f64> {
        self.params.iter().find(|p| p.name == name).map(|p| p.value)
    }
}

/// A declarative experiment campaign: `points × replicas` work units, each
/// seeded deterministically from the campaign seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name (a catalog name for built-ins, e.g. `fig5`).
    pub name: String,
    /// Base seed; every unit derives its own seed from it.
    pub seed: u64,
    /// Campaign-level parameters that change unit results but are not
    /// part of the axis (e.g. `table2`'s sample count). They must be
    /// recorded here so they enter the fingerprint: a store produced at
    /// one scale must refuse to resume at another.
    #[serde(default)]
    pub params: Vec<Param>,
    /// The experiment axis.
    pub points: Vec<PointSpec>,
    /// Task-set replicas per point (the paper uses 1000).
    pub replicas: usize,
}

/// One work unit of a campaign: the `replica`-th task set of the
/// `point`-th axis point.
///
/// `seed = hash(campaign_seed, point, replica)` (the workspace's SplitMix
/// mixing, [`derive_set_seed`]), so any shard subset — or a resumed run —
/// reproduces bit-identical results without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkUnit {
    /// Flat unit index: `point * replicas + replica`.
    pub index: usize,
    /// Axis-point index.
    pub point: usize,
    /// Replica index within the point.
    pub replica: usize,
    /// The unit's derived seed.
    pub seed: u64,
}

/// Derives a work unit's seed from the campaign seed: SplitMix-style
/// mixing of `(point, replica)`, the workspace seed contract (see
/// [`derive_set_seed`]).
#[must_use]
pub fn unit_seed(campaign_seed: u64, point: usize, replica: usize) -> u64 {
    derive_set_seed(campaign_seed, point, replica)
}

impl CampaignSpec {
    /// Total number of work units (`points × replicas`).
    #[must_use]
    pub fn total_units(&self) -> usize {
        self.points.len() * self.replicas
    }

    /// Expands flat unit index `index` into a [`WorkUnit`].
    ///
    /// # Panics
    ///
    /// Panics when `index ≥ total_units()` or `replicas == 0`.
    #[must_use]
    pub fn unit(&self, index: usize) -> WorkUnit {
        assert!(index < self.total_units(), "unit index out of range");
        let point = index / self.replicas;
        let replica = index % self.replicas;
        WorkUnit {
            index,
            point,
            replica,
            seed: unit_seed(self.seed, point, replica),
        }
    }

    /// The canonical JSON form the fingerprint hashes: compact, field
    /// order fixed by the struct definition.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures (none occur in practice).
    pub fn canonical_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// The campaign fingerprint: FNV-1a 64 over the canonical spec JSON,
    /// rendered as 16 hex digits. Two specs agree on their fingerprint
    /// iff they agree on name, seed, axis, and replication — the
    /// compatibility contract for resume, sharding, and merge.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let json = self
            .canonical_json()
            .expect("spec serialization cannot fail");
        format!("{:016x}", fnv1a64(json.as_bytes()))
    }

    /// Builds the `E0xx` lint view of this spec for a given run
    /// configuration (see [`mc_lint::lint_campaign`]).
    #[must_use]
    pub fn check(
        &self,
        shard_index: usize,
        shard_count: usize,
        store_path: Option<&str>,
        export_path: Option<&str>,
    ) -> mc_lint::CampaignCheck {
        mc_lint::CampaignCheck {
            name: self.name.clone(),
            point_labels: self.points.iter().map(|p| p.label.clone()).collect(),
            replicas: self.replicas,
            shard_index,
            shard_count,
            store_path: store_path.map(str::to_string),
            export_path: export_path.map(str::to_string),
        }
    }
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            name: "demo".into(),
            seed: 5,
            params: vec![],
            points: vec![
                PointSpec::new("a", vec![Param::new("u", 0.5)]),
                PointSpec::new("b", vec![Param::new("u", 0.8)]),
            ],
            replicas: 3,
        }
    }

    #[test]
    fn units_enumerate_point_major() {
        let s = spec();
        assert_eq!(s.total_units(), 6);
        let u = s.unit(4);
        assert_eq!((u.point, u.replica), (1, 1));
        assert_eq!(u.seed, unit_seed(5, 1, 1));
        let u0 = s.unit(0);
        assert_eq!((u0.point, u0.replica), (0, 0));
    }

    #[test]
    fn unit_seeds_match_the_core_contract() {
        assert_eq!(unit_seed(5, 3, 17), derive_set_seed(5, 3, 17));
        assert_ne!(unit_seed(5, 0, 1), unit_seed(5, 1, 0));
    }

    #[test]
    fn fingerprint_is_stable_and_discriminates() {
        let a = spec();
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_eq!(a.fingerprint().len(), 16);
        let mut b = spec();
        b.replicas = 4;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = spec();
        c.seed = 6;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = spec();
        d.points[1].params[0].value = 0.9;
        assert_ne!(a.fingerprint(), d.fingerprint());
        let mut e = spec();
        e.params.push(Param::new("samples", 20_000.0));
        assert_ne!(a.fingerprint(), e.fingerprint());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let s = spec();
        let json = s.canonical_json().unwrap();
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.fingerprint(), s.fingerprint());
    }

    #[test]
    fn param_lookup() {
        let p = PointSpec::new("x", vec![Param::new("u", 0.5), Param::new("k", 2.0)]);
        assert_eq!(p.param("k"), Some(2.0));
        assert_eq!(p.param("missing"), None);
    }

    #[test]
    fn check_carries_run_configuration() {
        let c = spec().check(1, 4, Some("s.jsonl"), None);
        assert_eq!(c.shard_index, 1);
        assert_eq!(c.shard_count, 4);
        assert_eq!(c.point_labels, vec!["a", "b"]);
        assert!(mc_lint::lint_campaign(&c).is_clean());
    }
}
