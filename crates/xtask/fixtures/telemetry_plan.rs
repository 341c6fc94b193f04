//! Fixture call sites for the match-plan counter family: the
//! registered `match.plan_*` / `summary.*` names pass, exactly one
//! unregistered one is seeded.

static REBUILDS: Count = Count::new("match.plan_rebuilds"); // registered literal: fine
static PROBE_ROWS: Count = Count::new(names::APP_PLAN_PROBE_ROWS); // constant: fine
static SWAPS: Count = Count::new("summary.plan_swaps"); // registered literal: fine
static ROGUE: Count = Count::new("summary.plan_unregistered"); // violation

pub fn record() {
    let c = counter("summary.plan_retired"); // registered literal: fine
    let _ = (c, &REBUILDS, &PROBE_ROWS, &SWAPS, &ROGUE);
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_region_literals_are_exempt() {
        let _ = Count::new("match.plan_test_only");
    }
}
