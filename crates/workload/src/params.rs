//! The paper's experimental parameter space (Tables 1 and 2, §5.1).

/// Parameter values from Table 2 of the paper, with the derived workload
/// shape of §5.1 ("the 'average' subscription or event includes `n_t/2`
/// attributes, with 40% (60%) being arithmetic (strings); the average
/// size of a subscription/event is 50 bytes").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperParams {
    /// Number of brokers (the C&W overlay has 24).
    pub brokers: usize,
    /// `S`: average outstanding subscriptions per broker.
    pub outstanding: usize,
    /// `n_t`: total number of attribute names in the schema.
    pub nt: usize,
    /// `n_sr`: sub-range rows per arithmetic attribute.
    pub nsr: usize,
    /// `s_st` = `s_id`: arithmetic value and subscription id width.
    pub sst: usize,
    /// `s_sv`: average string value size in bytes.
    pub ssv: usize,
    /// Average raw subscription/event size in bytes.
    pub sub_size: usize,
    /// Fraction of subscription attributes that are arithmetic (0.4).
    pub arith_fraction: f64,
}

impl Default for PaperParams {
    fn default() -> Self {
        PaperParams {
            brokers: 24,
            outstanding: 1000,
            nt: 10,
            nsr: 2,
            sst: 4,
            ssv: 10,
            sub_size: 50,
            arith_fraction: 0.4,
        }
    }
}

impl PaperParams {
    /// Attributes per average subscription/event (`n_t / 2`).
    pub fn attrs_per_sub(&self) -> usize {
        self.nt / 2
    }

    /// Arithmetic attributes per average subscription (40% of `n_t/2`).
    pub fn arith_per_sub(&self) -> usize {
        (self.attrs_per_sub() as f64 * self.arith_fraction).round() as usize
    }

    /// String attributes per average subscription (the remainder).
    pub fn strings_per_sub(&self) -> usize {
        self.attrs_per_sub() - self.arith_per_sub()
    }

    /// The σ sweep of Fig. 8 and Fig. 11 (10 … 1000).
    pub fn sigma_sweep() -> [usize; 6] {
        [10, 50, 100, 250, 500, 1000]
    }

    /// The subsumption-probability sweep of Fig. 9/10 (10% … 90%).
    pub fn subsumption_sweep() -> [f64; 5] {
        [0.10, 0.25, 0.50, 0.75, 0.90]
    }

    /// The event popularity sweep of Fig. 10 (fraction of brokers each
    /// event matches).
    pub fn popularity_sweep() -> [f64; 5] {
        [0.10, 0.25, 0.50, 0.75, 0.90]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let p = PaperParams::default();
        assert_eq!(p.brokers, 24);
        assert_eq!(p.outstanding, 1000);
        assert_eq!(p.nt, 10);
        assert_eq!(p.nsr, 2);
        assert_eq!(p.sst, 4);
        assert_eq!(p.ssv, 10);
        assert_eq!(p.sub_size, 50);
    }

    #[test]
    fn derived_attribute_mix() {
        let p = PaperParams::default();
        assert_eq!(p.attrs_per_sub(), 5);
        assert_eq!(p.arith_per_sub(), 2);
        assert_eq!(p.strings_per_sub(), 3);
    }

    #[test]
    fn sweeps_cover_paper_axes() {
        assert_eq!(PaperParams::sigma_sweep()[0], 10);
        assert_eq!(*PaperParams::sigma_sweep().last().unwrap(), 1000);
        assert_eq!(PaperParams::subsumption_sweep().len(), 5);
        assert_eq!(PaperParams::popularity_sweep().len(), 5);
    }
}
