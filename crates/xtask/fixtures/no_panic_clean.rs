//! Fixture for the no-panic pass: a hot-path root with zero findings.
//! `assert!`/`debug_assert!` are contract checks and stay allowed.

pub fn publish_with_scratch(input: Option<u32>) -> Result<u32, &'static str> {
    let value = input.ok_or("missing input")?;
    debug_assert!(value < 1_000_000, "caller bounds the domain");
    assert!(value != u32::MAX);
    Ok(value.saturating_add(1))
}

#[cfg(test)]
mod tests {
    #[test]
    fn still_fine_to_unwrap_here() {
        assert_eq!(super::publish_with_scratch(Some(1)).unwrap(), 2);
    }
}
