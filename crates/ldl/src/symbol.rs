//! The process-wide symbol table: every name the reasoning engine keys a
//! fact on, interned once to a `u32`.
//!
//! The table is append-only — an id, once handed out, names the same
//! string for the life of the process — so a [`Sym`] is `Copy`, compares
//! and hashes as an integer, and resolves back to a `&'static str`
//! without holding a lock. It grows by one entry per *distinct* string
//! ever interned (agent names included) and never shrinks; an entry costs
//! the string's bytes plus 36 (a `&'static str` in the id → name vector
//! and a `(&'static str, u32)` bucket in the name → id map, before the
//! map's load factor).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[derive(Default)]
struct Table {
    ids: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

static TABLE: OnceLock<RwLock<Table>> = OnceLock::new();

// A poisoned lock is recovered, not propagated: `Sym::new` is the only
// writer, and a panic at any point inside it leaves the table either as it
// was or with an id no caller was handed.
fn read() -> RwLockReadGuard<'static, Table> {
    TABLE.get_or_init(RwLock::default).read().unwrap_or_else(|e| e.into_inner())
}

fn write() -> RwLockWriteGuard<'static, Table> {
    TABLE.get_or_init(RwLock::default).write().unwrap_or_else(|e| e.into_inner())
}

/// An interned string. `Eq` and `Hash` go by id; `Ord` goes through the
/// string it names, so anything sorted by `Sym` renders in the same order
/// whatever order the process happened to intern its names in.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// Interns `text`, returning the id every earlier and later call with
    /// an equal string returns.
    pub fn new(text: &str) -> Sym {
        if let Some(sym) = Sym::lookup(text) {
            return sym;
        }
        let mut table = write();
        if let Some(&id) = table.ids.get(text) {
            return Sym(id);
        }
        let id = u32::try_from(table.names.len()).expect("fewer than 2^32 distinct symbols");
        let name: &'static str = Box::leak(text.into());
        table.names.push(name);
        table.ids.insert(name, id);
        Sym(id)
    }

    /// The symbol for `text` if some caller has interned it, without
    /// growing the table: what a *probe* uses, since a name nobody
    /// interned cannot appear in any stored fact or bucket.
    pub fn lookup(text: &str) -> Option<Sym> {
        read().ids.get(text).map(|&id| Sym(id))
    }

    /// The table index: stable for the life of the process, meaningless
    /// across processes. For storage that orders or packs symbols.
    pub fn id(self) -> u32 {
        self.0
    }

    pub fn as_str(self) -> &'static str {
        read().names[self.0 as usize]
    }

    /// How many distinct strings the process has interned so far.
    pub fn table_len() -> usize {
        read().names.len()
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        let table = read();
        table.names[self.0 as usize].cmp(table.names[other.0 as usize])
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Renders as the quoted string, so a `Const::Sym(..)` debug-prints as it
/// did when it held a `String`.
impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_resolves_back() {
        let a = Sym::new("symbol-test-alpha");
        assert_eq!(a, Sym::new("symbol-test-alpha"));
        assert_eq!(a.as_str(), "symbol-test-alpha");
        assert_ne!(a, Sym::new("symbol-test-beta"));
        assert_eq!(Sym::lookup("symbol-test-alpha"), Some(a));
    }

    #[test]
    fn lookup_never_grows_the_table() {
        assert_eq!(Sym::lookup("symbol-test-never-interned"), None);
        assert_eq!(Sym::lookup("symbol-test-never-interned"), None);
    }

    #[test]
    fn order_is_the_strings_order_not_the_ids() {
        // Interned in descending order: id order is the reverse.
        let z = Sym::new("symbol-test-z");
        let m = Sym::new("symbol-test-m");
        let a = Sym::new("symbol-test-a");
        let mut sorted = vec![z, m, a];
        sorted.sort();
        assert_eq!(sorted, vec![a, m, z]);
        assert_eq!(z.cmp(&z), Ordering::Equal);
    }

    #[test]
    fn renders_like_the_string() {
        let s = Sym::new("symbol-test \"quoted\"");
        assert_eq!(s.to_string(), "symbol-test \"quoted\"");
        assert_eq!(format!("{s:?}"), format!("{:?}", "symbol-test \"quoted\""));
    }
}
