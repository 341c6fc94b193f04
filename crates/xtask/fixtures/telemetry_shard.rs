//! Fixture call sites for the sharded-matching counter family: the
//! registered `match.shard_*` / `summary.*` names pass, exactly one
//! unregistered one is seeded.

static FANOUT: Count = Count::new("match.shard_fanout"); // registered literal: fine
static MERGE_NS: Count = Count::new(names::APP_SHARD_MERGE_NS); // constant: fine
static SWAPS: Count = Count::new("summary.shard_swaps"); // registered literal: fine
static ROGUE: Count = Count::new("summary.shard_unregistered"); // violation

pub fn record() {
    let c = counter("summary.shard_retired"); // registered literal: fine
    let _ = (c, &FANOUT, &MERGE_NS, &SWAPS, &ROGUE);
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_region_literals_are_exempt() {
        let _ = Count::new("match.shard_test_only");
    }
}
