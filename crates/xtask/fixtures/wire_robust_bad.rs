//! Fixture for the wire-robust pass: every non-test token of a wire
//! file is scanned. Two unguarded slice indexes and one unchecked
//! length multiply fire; the BOUND-commented index and the test module
//! pass.

pub fn decode(input: &[u8]) -> Option<(u8, usize)> {
    let first = input[0]; // violation: unguarded index
    let count = usize::from(first);
    let total = count * 4; // violation: unchecked length arithmetic
    // BOUND: decode callers hand in at least a two-byte header.
    let second = input[1];
    read_rest(input, total).map(|len| (second, len))
}

fn read_rest(input: &[u8], total: usize) -> Option<usize> {
    input.get(total).map(|_| total)
}

pub fn encode_scratch(buf: &[u8]) -> u8 {
    buf[7] // violation: unguarded index, though no decode path reaches it
}

#[cfg(test)]
mod tests {
    fn slice_len(buf: &[u8]) -> usize {
        buf[0] as usize * buf.len()
    }
}
