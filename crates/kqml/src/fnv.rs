//! FNV-1a, the one string hash whose values may outlive a process.

/// FNV-1a 64 over the texts it is fed, in order. Unlike the standard
/// library's seeded hasher it gives the same value in every process and
/// on every run, so it can key what is built at compile time, fixes a
/// layout or crosses the wire: the protocol vocabulary's index, a
/// matchmaking term's symbol (the routing digest's wire hash) and an
/// ontology fragment's shard.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The hash of no text: FNV-1a 64's offset basis.
    pub const EMPTY: Fnv = Fnv(0xcbf2_9ce4_8422_2325);

    /// Feeds the bytes of `text`.
    pub const fn eat(self, text: &str) -> Fnv {
        let (bytes, mut hash, mut i) = (text.as_bytes(), self.0, 0);
        while i < bytes.len() {
            hash = (hash ^ bytes[i] as u64).wrapping_mul(0x0000_0100_0000_01b3);
            i += 1;
        }
        Fnv(hash)
    }

    /// The hash of everything fed so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::Fnv;

    #[test]
    fn known_values_and_feeding_in_parts() {
        // The published FNV-1a 64 test vectors.
        assert_eq!(Fnv::EMPTY.finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::EMPTY.eat("a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::EMPTY.eat("foobar").finish(), 0x8594_4171_f739_67e8);
        assert_eq!(Fnv::EMPTY.eat("foo").eat("").eat("bar").finish(), 0x8594_4171_f739_67e8);
    }
}
