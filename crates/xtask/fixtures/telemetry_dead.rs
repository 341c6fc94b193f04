//! Fixture call sites for the dead-name half of the telemetry-names
//! lint (registry: `names_dead.rs`).

static BY_CONST: Count = Count::new(names::APP_BY_CONST); // constant: alive
static BY_LITERAL: Count = Count::new("app.by_literal"); // registered literal: alive

pub fn record() {
    let _ = (&BY_CONST, &BY_LITERAL);
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_region_references_do_not_count() {
        let _ = Count::new(names::APP_TEST_ONLY);
    }
}
