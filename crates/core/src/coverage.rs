//! Deployment coverage analysis.
//!
//! One of the paper's motivating uses beyond bug isolation (§1): "we may
//! be interested in discovering whether code not covered by in-house
//! testing is ever executed in practice."  Given a campaign's reports,
//! this module answers which instrumentation sites were ever reached by
//! the user community, and which predicates were never once observed
//! true — dead configuration space or genuinely unreachable behaviour.

use cbi_instrument::{Site, SiteId};
use cbi_workloads::CampaignResult;

/// Coverage summary over a campaign.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Total sites in the instrumented program.
    pub total_sites: usize,
    /// Sites where at least one counter fired in some run.
    pub covered_sites: usize,
    /// Ids of sites never reached by any run in the community.
    pub unreached_sites: Vec<SiteId>,
    /// Names of individual predicates never observed true, at sites that
    /// *were* reached (behaviour the deployment never exhibited).
    pub never_true_predicates: Vec<String>,
}

impl CoverageReport {
    /// Fraction of sites reached, in `[0, 1]`.
    pub fn site_coverage(&self) -> f64 {
        if self.total_sites == 0 {
            0.0
        } else {
            self.covered_sites as f64 / self.total_sites as f64
        }
    }
}

/// Computes deployment coverage from a campaign's reports.
pub fn coverage(result: &CampaignResult) -> CoverageReport {
    let stats = result.collector.stats();
    let sites: Vec<&Site> = result.instrumented.sites.iter().collect();

    let mut covered = 0;
    let mut unreached = Vec::new();
    let mut never_true = Vec::new();
    for site in sites {
        let arity = site.kind.arity();
        let reached = (0..arity).any(|w| stats.ever_observed(site.counter_base + w));
        if reached {
            covered += 1;
            for w in 0..arity {
                if !stats.ever_observed(site.counter_base + w) {
                    never_true.push(site.predicate_name(w));
                }
            }
        } else {
            unreached.push(site.id);
        }
    }

    CoverageReport {
        total_sites: result.instrumented.sites.len(),
        covered_sites: covered,
        unreached_sites: unreached,
        never_true_predicates: never_true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_instrument::Scheme;
    use cbi_sampler::SamplingDensity;
    use cbi_workloads::{run_campaign, CampaignConfig};

    #[test]
    fn coverage_distinguishes_reached_and_dead_code() {
        // `never()` is dead code; its return site can never be covered.
        let program = cbi_minic::parse(
            "fn used() -> int { return 1; }\n\
             fn never() -> int { return 2; }\n\
             fn main() -> int {\n\
                 int x = used();\n\
                 if (x > 100) { int y = never(); print(y); }\n\
                 return 0;\n\
             }",
        )
        .unwrap();
        let trials: Vec<Vec<i64>> = (0..50).map(|_| vec![]).collect();
        let result = run_campaign(
            &program,
            &trials,
            &CampaignConfig::sampled(Scheme::Returns, SamplingDensity::always()),
        )
        .unwrap();
        let report = coverage(&result);
        assert_eq!(report.total_sites, 2);
        assert_eq!(report.covered_sites, 1);
        assert_eq!(report.unreached_sites.len(), 1);
        assert!((report.site_coverage() - 0.5).abs() < 1e-9);
        // used() always returns 1 (positive): the negative and zero
        // predicates are never observed true.
        assert!(report
            .never_true_predicates
            .iter()
            .any(|p| p.contains("used() < 0")));
        assert!(report
            .never_true_predicates
            .iter()
            .any(|p| p.contains("used() == 0")));
    }

    #[test]
    fn empty_campaign_reports_zero_coverage() {
        let program = cbi_minic::parse(
            "fn f() -> int { return 1; } fn main() -> int { int x = f(); return x; }",
        )
        .unwrap();
        let result = run_campaign(
            &program,
            &[],
            &CampaignConfig::sampled(Scheme::Returns, SamplingDensity::always()),
        )
        .unwrap();
        let report = coverage(&result);
        assert_eq!(report.covered_sites, 0);
        assert_eq!(report.site_coverage(), 0.0);
    }
}
