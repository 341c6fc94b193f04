//! Fixture registry for the dead-name half of the telemetry-names lint:
//! scanned together with `telemetry_dead.rs`, exactly two rows are dead.

pub const APP_BY_CONST: &str = "app.by_const";
pub const APP_BY_LITERAL: &str = "app.by_literal";
pub const APP_TEST_ONLY: &str = "app.test_only"; // violation: only a test uses it
pub const APP_UNUSED: &str = "app.unused"; // violation: only this file names it

#[cfg(test)]
mod tests {
    #[test]
    fn registry_self_references_do_not_count() {
        let _ = [super::APP_BY_CONST, super::APP_UNUSED];
    }
}
