// Fixture for `scan_source_hygiene`: a handler module one directory down,
// carrying the one unwaived call the scan must find.
fn handle(x: Option<u8>) -> u8 {
    x.unwrap()
}
