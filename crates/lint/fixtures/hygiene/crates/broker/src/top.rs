// Fixture for `scan_source_hygiene`: a clean top-level source file.
fn top(x: Option<u8>) -> u8 {
    x.expect("fixture invariant") // lint: allow-unwrap
}
