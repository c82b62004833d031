//! Bad fixture: std hash containers, whose iteration order is seeded per
//! process. They are banned by type in every target; the one hash map the
//! workspace allows is the lookup-only `FastHashMap`.

use std::collections::{HashMap, HashSet}; //~ clippy::disallowed_types

pub struct Directory {
    pub by_pc: HashMap<u64, u32>, //~ clippy::disallowed_types
}

pub fn build() -> Directory {
    let mut by_pc = HashMap::new(); //~ clippy::disallowed_types
    by_pc.insert(0u64, 1u32);
    let mut seen: HashSet<u64> = HashSet::with_capacity(16); //~ clippy::disallowed_types
    seen.insert(7);
    let _typed = HashMap::<String, u64>::new(); //~ clippy::disallowed_types
    Directory { by_pc }
}

pub fn first_lines(lines: std::collections::HashSet<u64>) -> Vec<u64> { //~ clippy::disallowed_types
    lines.into_iter().collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_are_not_exempt() {
        let mut m = std::collections::HashMap::new(); //~ clippy::disallowed_types
        m.insert(1u64, 2u64);
        assert_eq!(m.len(), 1);
    }
}
