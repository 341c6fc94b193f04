//! Summary size accounting — the paper's equations (1) and (2) (§5.1).
//!
//! The paper measures the network bandwidth of summary propagation as the
//! byte size of the two data structures:
//!
//! * Eq. (1): `AACS = Σᵢ (2·n_srᵢ + n_eᵢ)·s_st  +  Σᵢ L_aᵢ·s_id`
//! * Eq. (2): `SACS = Σᵢ n_rᵢ·s_svᵢ  +  Σᵢ L_sᵢ·s_id`
//!
//! where `n_sr`/`n_e` are the sub-range/equality row counts per arithmetic
//! attribute, `n_r` the row count per string attribute, `L_a`/`L_s` the id
//! list lengths, `s_st` the arithmetic storage width, `s_sv` the string
//! value size and `s_id` the subscription id width. [`SummaryStats`]
//! extracts the counts from a [`BrokerSummary`] and [`SizeParams`] supplies
//! the widths (Table 2 defaults: `s_st = s_id = 4`).

use crate::summary::BrokerSummary;

/// Storage widths used by the size model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeParams {
    /// `s_st`: bytes per arithmetic value (Table 2: 4).
    pub arith_width: usize,
    /// `s_id`: bytes per subscription id (Table 2: 4).
    pub id_width: usize,
}

impl Default for SizeParams {
    fn default() -> Self {
        // Table 2 of the paper.
        SizeParams {
            arith_width: 4,
            id_width: 4,
        }
    }
}

/// Aggregated structural counts of one summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SummaryStats {
    /// Σ n_sr: sub-range rows across arithmetic attributes.
    pub range_rows: usize,
    /// Σ n_e: equality rows across arithmetic attributes.
    pub point_rows: usize,
    /// Σ L_a: id-list entries across arithmetic attributes.
    pub arith_ids: usize,
    /// Σ n_r: rows across string attributes.
    pub pattern_rows: usize,
    /// Σ L_s: id-list entries across string attributes.
    pub string_ids: usize,
    /// Σ of the rendered byte lengths of all row patterns (the exact
    /// realization of `n_r · s_sv` for the actual strings stored).
    pub pattern_bytes: usize,
}

impl SummaryStats {
    /// Collects the counts from a summary.
    pub fn of(summary: &BrokerSummary) -> Self {
        let mut stats = SummaryStats::default();
        for (attr, spec) in summary.schema().iter() {
            if spec.kind.is_arithmetic() {
                if let Some(s) = summary.arith_summary(attr) {
                    stats.range_rows += s.range_rows();
                    stats.point_rows += s.point_rows();
                    stats.arith_ids += s.id_list_len();
                }
            } else if let Some(s) = summary.string_summary(attr) {
                stats.pattern_rows += s.row_count();
                stats.string_ids += s.id_list_len();
                stats.pattern_bytes += s.pattern_bytes();
            }
        }
        stats
    }

    /// Eq. (1): the AACS byte size.
    pub fn aacs_size(&self, p: SizeParams) -> usize {
        (2 * self.range_rows + self.point_rows) * p.arith_width + self.arith_ids * p.id_width
    }

    /// Eq. (2): the SACS byte size, using the actual stored pattern bytes
    /// for `Σ n_r·s_sv`.
    pub fn sacs_size(&self, p: SizeParams) -> usize {
        self.pattern_bytes + self.string_ids * p.id_width
    }

    /// `TB`: the total summary size, Eq. (1) + Eq. (2) — the bandwidth a
    /// broker pays to ship this summary.
    pub fn total_size(&self, p: SizeParams) -> usize {
        self.aacs_size(p) + self.sacs_size(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsum_types::{stock_schema, BrokerId, LocalSubId, NumOp, StrOp, Subscription};

    #[test]
    fn fig4_fig5_counts() {
        let schema = stock_schema();
        let mut summary = BrokerSummary::new(schema.clone());
        // S1 of Fig. 3 (restricted to the attributes of Figs. 4–5).
        let s1 = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Eq, "OTE")
            .unwrap()
            .num("price", NumOp::Lt, 8.70)
            .unwrap()
            .num("price", NumOp::Gt, 8.30)
            .unwrap()
            .build()
            .unwrap();
        // S2 of Fig. 3 (symbol prefix + price equality).
        let s2 = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Prefix, "OT")
            .unwrap()
            .num("price", NumOp::Eq, 8.20)
            .unwrap()
            .build()
            .unwrap();
        summary.insert(BrokerId(0), LocalSubId(1), &s1);
        summary.insert(BrokerId(0), LocalSubId(2), &s2);
        let stats = SummaryStats::of(&summary);
        // AACS for price: one sub-range (8.30, 8.70) and one equality 8.20.
        assert_eq!(stats.range_rows, 1);
        assert_eq!(stats.point_rows, 1);
        assert_eq!(stats.arith_ids, 2);
        // SACS for symbol: single generalized row `OT*` with both ids.
        assert_eq!(stats.pattern_rows, 1);
        assert_eq!(stats.string_ids, 2);
        assert_eq!(stats.pattern_bytes, 3); // "OT*"
    }

    #[test]
    fn equation_arithmetic() {
        let stats = SummaryStats {
            range_rows: 2,
            point_rows: 3,
            arith_ids: 10,
            pattern_rows: 4,
            string_ids: 7,
            pattern_bytes: 40,
        };
        let p = SizeParams::default();
        // (2·2 + 3)·4 + 10·4 = 28 + 40 = 68.
        assert_eq!(stats.aacs_size(p), 68);
        // 40 + 7·4 = 68.
        assert_eq!(stats.sacs_size(p), 68);
        assert_eq!(stats.total_size(p), 136);
    }

    #[test]
    fn empty_summary_is_zero_bytes() {
        let summary = BrokerSummary::new(stock_schema());
        let stats = SummaryStats::of(&summary);
        assert_eq!(stats.total_size(SizeParams::default()), 0);
    }
}
