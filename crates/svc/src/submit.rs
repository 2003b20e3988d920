//! Submissions: what tenants send to the service, how they hash to
//! shards, and the line-oriented submission-file format.

use cloud::ReplicationPolicy;
use wfcommon::{Error, Result};
use workflow::Workflow;

/// What workflow a submission asks the service to plan.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum WorkflowSpec {
    /// Generate from one of the named families
    /// (`montage`/`cybershake`/`epigenomics`/`inspiral`/`sipht`/
    /// `layered`) at roughly `size` activations.
    Generated { family: String, size: usize, seed: u64 },
    /// Parse a DAX XML file.
    Dax { path: String },
}

impl WorkflowSpec {
    /// The family label used for shard hashing and Q-cache keying.
    /// DAX submissions use the path: same file ⇒ same cache line.
    pub fn family_label(&self) -> &str {
        match self {
            WorkflowSpec::Generated { family, .. } => family,
            WorkflowSpec::Dax { path } => path,
        }
    }

    /// The requested size (0 for DAX — unknown until parsed).
    pub fn requested_size(&self) -> u32 {
        match self {
            WorkflowSpec::Generated { size, .. } => *size as u32,
            WorkflowSpec::Dax { .. } => 0,
        }
    }

    /// Materialize the workflow. Deterministic: the same spec always
    /// builds the same workflow.
    pub fn build(&self) -> Result<Workflow> {
        use workflow::generators::*;
        match self {
            WorkflowSpec::Generated { family, size, seed } => match family.as_str() {
                "montage" => montage::generate(&montage::MontageParams::with_total_activations(
                    *size, *seed,
                )?),
                "cybershake" => cybershake::generate(
                    &cybershake::CyberShakeParams::with_total_activations(*size, *seed)?,
                ),
                "epigenomics" => epigenomics::generate(
                    &epigenomics::EpigenomicsParams::with_total_activations(*size, *seed)?,
                ),
                "inspiral" => inspiral::generate(
                    &inspiral::InspiralParams::with_total_activations(*size, *seed)?,
                ),
                "sipht" => {
                    sipht::generate(&sipht::SiphtParams::with_total_activations(*size, *seed)?)
                }
                "layered" => layered::generate(&layered::LayeredParams {
                    layers: (*size / 10).max(2),
                    width: 10.min(*size).max(1),
                    seed: *seed,
                    ..layered::LayeredParams::default()
                }),
                other => Err(Error::Config(format!("unknown family '{other}'"))),
            },
            WorkflowSpec::Dax { path } => {
                let xml = std::fs::read_to_string(path)
                    .map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
                workflow::dax::parse(&xml)
            }
        }
    }
}

/// One workflow submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Submission {
    /// Tenant the results and provenance are filed under.
    pub tenant: String,
    /// The workflow to plan.
    pub spec: WorkflowSpec,
    /// Per-submission master seed: drives learning exploration and the
    /// final plan-simulation streams. Outcomes depend on this seed and
    /// the shard's cache state only — never on wall clock.
    pub seed: u64,
    /// Speculative-replication policy applied when the winning plan is
    /// replayed under the service fault regime (schema v1.6).
    pub replicate: ReplicationPolicy,
}

/// The shard a `(tenant, family)` pair hashes to. FNV-1a over the two
/// strings (NUL-separated) — deliberately *not* `std`'s `RandomState`,
/// which is salted per process and would break cross-run determinism.
pub fn shard_for(tenant: &str, family: &str, shards: u32) -> u32 {
    debug_assert!(shards > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.bytes().chain(std::iter::once(0u8)).chain(family.bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as u32
}

/// Parse a submission file: one submission per line,
///
/// ```text
/// <tenant> <family> <size> [seed] [replicate]   # generated workflow
/// <tenant> dax <path> [seed] [replicate]        # DAX file
/// ```
///
/// Blank lines and `#` comments are skipped. A missing seed defaults
/// to the line number (stable, distinct per line). The optional
/// trailing `replicate` token is `off` | `static:K` | `learned`
/// (default `off`); because seeds are integers and replicate spellings
/// are not, the token may also stand alone in the seed column.
pub fn parse_submissions(text: &str) -> Result<Vec<Submission>> {
    let mut subs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let bad =
            |msg: &str| Error::Parse(format!("submissions line {}: {msg}: {raw:?}", lineno + 1));
        if fields.len() < 3 {
            return Err(bad("expected '<tenant> <family> <size> [seed] [replicate]'"));
        }
        let tenant = fields[0].to_string();
        let mut idx = 3;
        let seed = match fields.get(idx).and_then(|s| s.parse::<u64>().ok()) {
            Some(s) => {
                idx += 1;
                s
            }
            None => lineno as u64,
        };
        let replicate = match fields.get(idx) {
            Some(tok) => {
                idx += 1;
                let p = ReplicationPolicy::parse(tok)
                    .ok_or_else(|| bad("replicate must be off, static:K or learned"))?;
                p.validate().map_err(|e| bad(&e))?;
                p
            }
            None => ReplicationPolicy::Off,
        };
        if fields.len() > idx {
            return Err(bad("unexpected trailing fields"));
        }
        let spec = if fields[1] == "dax" {
            WorkflowSpec::Dax { path: fields[2].to_string() }
        } else {
            let size = fields[2].parse::<usize>().map_err(|_| bad("size must be an integer"))?;
            WorkflowSpec::Generated { family: fields[1].to_string(), size, seed }
        };
        subs.push(Submission { tenant, spec, seed, replicate });
    }
    Ok(subs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_hash_is_stable_and_spread() {
        // Pinned values: changing the hash reshuffles every cache and
        // breaks cross-run comparability of committed benchmarks.
        let a = shard_for("acme", "montage", 8);
        assert_eq!(a, shard_for("acme", "montage", 8));
        assert!(a < 8);
        // tenant/family must both matter, and the NUL separator keeps
        // ("ab","c") distinct from ("a","bc").
        assert_ne!(
            (shard_for("ab", "c", 1 << 30), shard_for("a", "bc", 1 << 30)),
            (shard_for("a", "bc", 1 << 30), shard_for("ab", "c", 1 << 30))
        );
        let distinct: std::collections::BTreeSet<u32> = ["montage", "cybershake", "sipht"]
            .iter()
            .flat_map(|f| (0..8).map(move |t| shard_for(&format!("t{t}"), f, 64)))
            .collect();
        assert!(distinct.len() > 8, "hash barely spreads: {distinct:?}");
    }

    #[test]
    fn specs_build_deterministic_workflows() {
        let spec = WorkflowSpec::Generated { family: "montage".into(), size: 20, seed: 7 };
        let a = spec.build().unwrap();
        let b = spec.build().unwrap();
        assert_eq!(a.name, b.name);
        assert_eq!(a.len(), b.len());
        assert!(WorkflowSpec::Generated { family: "nope".into(), size: 20, seed: 7 }
            .build()
            .is_err());
    }

    #[test]
    fn submission_file_round_trips() {
        let text = "\
# comment
acme montage 20 5
beta cybershake 30       # inline comment
gamma dax /tmp/wf.dax 9
delta montage 20 5 static:2
eps inspiral 30 learned  # replicate token without an explicit seed
";
        let subs = parse_submissions(text).unwrap();
        assert_eq!(subs.len(), 5);
        assert_eq!(subs[0].tenant, "acme");
        assert_eq!(
            subs[0].spec,
            WorkflowSpec::Generated { family: "montage".into(), size: 20, seed: 5 }
        );
        assert_eq!(subs[0].replicate, ReplicationPolicy::Off);
        assert_eq!(subs[1].seed, 2, "missing seed defaults to the line number");
        assert_eq!(subs[2].spec, WorkflowSpec::Dax { path: "/tmp/wf.dax".into() });
        assert_eq!(subs[3].replicate, ReplicationPolicy::Static { k: 2 });
        assert_eq!(subs[4].seed, 5, "missing seed defaults to the line number");
        assert_eq!(subs[4].replicate, ReplicationPolicy::learned_heuristic());
        assert!(parse_submissions("acme montage").is_err());
        assert!(parse_submissions("acme montage twenty").is_err());
        assert!(parse_submissions("acme montage 20 5 static:9").is_err(), "k out of range");
        assert!(parse_submissions("acme montage 20 5 hedge").is_err(), "unknown token");
        assert!(parse_submissions("acme montage 20 5 learned extra").is_err(), "trailing");
    }
}
