//! Shared-surface symmetry fixture: the generic unit index both substrates
//! instantiate carries the logical-unit primitives once. Only the inherent
//! `impl` of `UnitIndex` is shared; trait impls, other types' methods and
//! free functions in the same file are not.

pub struct UnitIndex<C> {
    starts: [Vec<C>; 5],
}

impl<C> Default for UnitIndex<C> {
    fn default() -> Self {}
}

impl<C: Copy + Ord> UnitIndex<C> {
    pub fn with_level(self, level: LogicalLevel, starts: Vec<C>) -> Self {}
    pub fn available_levels(&self) -> Vec<LogicalLevel> {}
    pub fn next_start_after(&self, level: LogicalLevel, at: C) -> Option<C> {}
    pub fn prev_start_before(&self, level: LogicalLevel, at: C) -> Option<C> {}
    pub fn count(&self, level: LogicalLevel) -> usize {}
}

impl LogicalTree {
    pub fn page_count(&self) -> usize {}
}

pub fn find_all(pattern: &str) -> Vec<CharSpan> {}
