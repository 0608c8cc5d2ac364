//! Scaled builders for the paper's experimental workloads.

use dcd_cfd::{Cfd, SimpleCfd};
use dcd_datagen::cust::{cust_main_cfd, cust_overlapping_pair, CustConfig};
use dcd_datagen::inject_errors;
use dcd_datagen::xref::{xref_main_cfd, xref_mining_fd, xref_second_cfd, XrefConfig};
use dcd_dist::HorizontalPartition;
use dcd_relation::Relation;

/// The scale factor the `experiments` binary applies to the paper's
/// dataset sizes, from the value of `DCD_SCALE`: unset → `0.1` (80K
/// instead of 800K tuples; `1.0` is paper scale); set → a finite number
/// above zero. Anything else is refused with the message to print, not
/// defaulted: a typo must not start an 80K-tuple run, and `nan` / `inf` /
/// `0` must not reach the builders' size cast and 1 000-tuple floor. The
/// builders below take the factor as an argument — only the binary reads
/// the environment.
pub fn parse_scale(var: Option<&str>) -> Result<f64, String> {
    let Some(text) = var else { return Ok(0.1) };
    match text.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!("DCD_SCALE must be a positive number, got {text:?}")),
    }
}

/// `n` scaled, floored at 1 000 tuples.
fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(1000)
}

/// Error rate injected into otherwise-clean generated data.
pub const ERROR_RATE: f64 = 0.02;

/// A prepared workload: data plus the CFDs the experiment uses.
pub struct CustWorkload {
    /// The (dirtied) relation.
    pub relation: Relation,
    /// Generator config (needed to derive tableaux).
    pub config: CustConfig,
}

/// `cust8`: 800K tuples (scaled), errors on `street` and `city`.
pub fn cust8(scale: f64) -> CustWorkload {
    cust_sized(scaled(800_000, scale))
}

/// `cust16`: 1.6M tuples (scaled).
pub fn cust16(scale: f64) -> CustWorkload {
    cust_sized(scaled(1_600_000, scale))
}

fn cust_sized(n: usize) -> CustWorkload {
    let config = CustConfig { n_tuples: n, ..CustConfig::default() };
    let clean = config.generate();
    let (dirty, _) = inject_errors(&clean, "street", ERROR_RATE, 1);
    let (dirty, _) = inject_errors(&dirty, "city", ERROR_RATE, 2);
    CustWorkload { relation: dirty, config }
}

impl CustWorkload {
    /// The Exp-1/2 single CFD: 4 attributes, 255 patterns.
    pub fn main_cfd(&self) -> SimpleCfd {
        self.main_cfd_with(255)
    }

    /// The Exp-3 variant with a chosen tableau size.
    pub fn main_cfd_with(&self, n_patterns: usize) -> SimpleCfd {
        cust_main_cfd(self.relation.schema(), &self.config, n_patterns)
    }

    /// The Exp-5/6 overlapping pair.
    pub fn overlapping_pair(&self) -> Vec<Cfd> {
        cust_overlapping_pair(self.relation.schema(), &self.config, 100)
    }

    /// Uniform distribution over `n` sites (the paper's Exp-1/2 setup).
    pub fn partition(&self, n_sites: usize) -> HorizontalPartition {
        HorizontalPartition::round_robin(&self.relation, n_sites)
            .expect("round robin always succeeds")
    }

    /// A prefix of the relation (Exp-2/6 vary |D| as a percentage).
    pub fn prefix(&self, fraction: f64) -> Relation {
        let keep = ((self.relation.len() as f64) * fraction) as usize;
        self.relation.copy_rows(&(0..keep).collect::<Vec<_>>())
    }
}

/// A prepared XREF workload.
pub struct XrefWorkload {
    /// The (dirtied) relation.
    pub relation: Relation,
    /// Generator config.
    pub config: XrefConfig,
}

/// `xref8`: 800K tuples (scaled), cow/dog/zebrafish.
pub fn xref8(scale: f64) -> XrefWorkload {
    let config = XrefConfig { n_tuples: scaled(800_000, scale), ..XrefConfig::default() };
    build_xref(config)
}

/// `xrefH`: 2.7M tuples (scaled), human only.
pub fn xref_h(scale: f64) -> XrefWorkload {
    build_xref(XrefConfig::human(scaled(2_700_000, scale)))
}

fn build_xref(config: XrefConfig) -> XrefWorkload {
    let clean = config.generate();
    let (dirty, _) = inject_errors(&clean, "source", ERROR_RATE, 3);
    let (dirty, _) = inject_errors(&dirty, "db_release", ERROR_RATE, 4);
    XrefWorkload { relation: dirty, config }
}

impl XrefWorkload {
    /// The Exp-1 single CFD: 5 attributes, 11 patterns.
    pub fn main_cfd(&self) -> SimpleCfd {
        xref_main_cfd(self.relation.schema(), &self.config.organisms)
    }

    /// The Exp-5 pair: main CFD + the 3-attribute 26-pattern CFD whose
    /// LHS is contained in the main CFD's.
    pub fn overlapping_pair(&self) -> Vec<Cfd> {
        vec![
            self.main_cfd().to_cfd(),
            xref_second_cfd(self.relation.schema(), &self.config.organisms),
        ]
    }

    /// The Exp-4 FD input for mining.
    pub fn mining_fd(&self) -> SimpleCfd {
        xref_mining_fd(self.relation.schema())
    }

    /// Uniform distribution over `n` sites.
    pub fn partition(&self, n_sites: usize) -> HorizontalPartition {
        HorizontalPartition::round_robin(&self.relation, n_sites)
            .expect("round robin always succeeds")
    }

    /// The xrefH fragmentation: 7 fragments by reference type.
    pub fn partition_by_info_type(&self) -> HorizontalPartition {
        HorizontalPartition::by_attribute(&self.relation, "info_type", 7).expect("info_type exists")
    }
}

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn dcd_scale_is_answered_or_rejected() {
        assert_eq!(parse_scale(None), Ok(0.1));
        assert_eq!(parse_scale(Some("0.0125")), Ok(0.0125));
        assert_eq!(parse_scale(Some("1")), Ok(1.0));
        for bad in ["", "abc", "-1", "0", "nan", "inf"] {
            assert_eq!(
                parse_scale(Some(bad)),
                Err(format!("DCD_SCALE must be a positive number, got \"{bad}\"")),
            );
        }
    }
}
