//! The multi-core cache hierarchy: private L1/L2 per core, shared L3.

use std::fmt;

use crate::{Cache, CacheHierarchyConfig};

/// Which level served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Served by the core's private L1.
    L1,
    /// Served by the core's private L2.
    L2,
    /// Served by the shared L3.
    L3,
    /// Served by main memory.
    Memory,
}

/// Aggregate access statistics of a [`CacheHierarchy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Accesses served by a private L1.
    pub l1_hits: u64,
    /// Accesses served by a private L2.
    pub l2_hits: u64,
    /// Accesses served by the shared L3.
    pub l3_hits: u64,
    /// Accesses served by main memory.
    pub memory_accesses: u64,
    /// Total latency accumulated over all accesses, in nanoseconds.
    pub total_latency_ns: u64,
}

/// A simulated multi-core cache hierarchy with inclusive-by-construction
/// private L1/L2 caches per core and one shared L3.
///
/// The model is deliberately simple — demand accesses only, LRU everywhere,
/// no coherence traffic — because the paper's cache argument only depends on
/// *where a task's lines survive after it is preempted or migrated*, not on
/// protocol details.
///
/// # Example
///
/// ```
/// use spms_cache::{CacheHierarchy, CacheHierarchyConfig, HitLevel};
///
/// let mut h = CacheHierarchy::new(CacheHierarchyConfig::tiny_for_tests());
/// let (level, _latency) = h.access(0, 0x1000);
/// assert_eq!(level, HitLevel::Memory);       // cold miss
/// let (level, _latency) = h.access(0, 0x1000);
/// assert_eq!(level, HitLevel::L1);           // now resident
/// ```
#[derive(Clone)]
pub struct CacheHierarchy {
    config: CacheHierarchyConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
    stats: HierarchyStats,
}

impl CacheHierarchy {
    /// Creates a cold hierarchy.
    pub fn new(config: CacheHierarchyConfig) -> Self {
        let l1 = (0..config.cores).map(|_| Cache::new(config.l1)).collect();
        let l2 = (0..config.cores).map(|_| Cache::new(config.l2)).collect();
        let l3 = Cache::new(config.l3);
        CacheHierarchy {
            config,
            l1,
            l2,
            l3,
            stats: HierarchyStats::default(),
        }
    }

    /// The configuration used to build the hierarchy.
    pub fn config(&self) -> &CacheHierarchyConfig {
        &self.config
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.config.cores
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Resets the statistics (contents stay warm).
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
    }

    /// Flushes every cache level.
    pub fn flush(&mut self) {
        for c in &mut self.l1 {
            c.flush();
        }
        for c in &mut self.l2 {
            c.flush();
        }
        self.l3.flush();
    }

    /// Performs one demand access from `core` to byte address `addr`.
    ///
    /// Returns the level that served the access and the latency charged for
    /// it in nanoseconds. On a miss the line is installed in every level on
    /// the core's path (L3, L2, L1).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, addr: u64) -> (HitLevel, u64) {
        assert!(core < self.config.cores, "core {core} out of range");
        let (level, latency) = if self.l1[core].access(addr).is_hit() {
            (HitLevel::L1, self.config.l1.hit_latency_ns)
        } else if self.l2[core].access(addr).is_hit() {
            (HitLevel::L2, self.config.l2.hit_latency_ns)
        } else if self.l3.access(addr).is_hit() {
            (HitLevel::L3, self.config.l3.hit_latency_ns)
        } else {
            (HitLevel::Memory, self.config.memory_latency_ns)
        };
        match level {
            HitLevel::L1 => self.stats.l1_hits += 1,
            HitLevel::L2 => self.stats.l2_hits += 1,
            HitLevel::L3 => self.stats.l3_hits += 1,
            HitLevel::Memory => self.stats.memory_accesses += 1,
        }
        self.stats.total_latency_ns += latency;
        (level, latency)
    }

    /// Touches every line of a working set from `core`, returning the total
    /// latency in nanoseconds. This is the primitive used to model "the task
    /// reloads its working space after resuming".
    pub fn touch_working_set(&mut self, core: usize, ws: &crate::WorkingSet) -> u64 {
        let line = self.config.l1.line_bytes;
        ws.line_addresses(line)
            .map(|addr| self.access(core, addr).1)
            .sum()
    }
}

impl fmt::Debug for CacheHierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheHierarchy")
            .field("cores", &self.config.cores)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkingSet;

    #[test]
    fn cold_then_warm_access() {
        let mut h = CacheHierarchy::new(CacheHierarchyConfig::tiny_for_tests());
        assert_eq!(h.access(0, 0).0, HitLevel::Memory);
        assert_eq!(h.access(0, 0).0, HitLevel::L1);
        assert_eq!(h.stats().l1_hits, 1);
        assert_eq!(h.stats().l2_hits + h.stats().l3_hits, 0);
        assert_eq!(h.stats().memory_accesses, 1);
    }

    #[test]
    fn other_core_finds_line_in_shared_l3() {
        let mut h = CacheHierarchy::new(CacheHierarchyConfig::tiny_for_tests());
        h.access(0, 0x40);
        // Core 1's private caches are cold, but the shared L3 holds the line.
        assert_eq!(h.access(1, 0x40).0, HitLevel::L3);
    }

    #[test]
    fn latency_matches_level() {
        let cfg = CacheHierarchyConfig::tiny_for_tests();
        let mut h = CacheHierarchy::new(cfg.clone());
        assert_eq!(h.access(0, 0).1, cfg.memory_latency_ns);
        assert_eq!(h.access(0, 0).1, cfg.l1.hit_latency_ns);
    }

    #[test]
    fn eviction_from_l1_falls_back_to_l2() {
        let cfg = CacheHierarchyConfig::tiny_for_tests(); // L1 = 1 KiB = 16 lines
        let mut h = CacheHierarchy::new(cfg);
        let ws = WorkingSet::from_bytes(2 * 1024); // 32 lines > L1, < L2
        h.touch_working_set(0, &ws);
        h.reset_stats();
        h.touch_working_set(0, &ws);
        let stats = h.stats();
        assert!(
            stats.memory_accesses == 0,
            "second pass should stay on chip"
        );
        assert!(stats.l2_hits > 0, "some lines must have been evicted to L2");
    }

    #[test]
    fn flush_makes_everything_cold_again() {
        let mut h = CacheHierarchy::new(CacheHierarchyConfig::tiny_for_tests());
        h.access(0, 0);
        h.flush();
        assert_eq!(h.access(0, 0).0, HitLevel::Memory);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_panics() {
        let mut h = CacheHierarchy::new(CacheHierarchyConfig::tiny_for_tests());
        h.access(99, 0);
    }

    #[test]
    fn touch_working_set_returns_total_latency() {
        let cfg = CacheHierarchyConfig::tiny_for_tests();
        let mut h = CacheHierarchy::new(cfg.clone());
        let ws = WorkingSet::from_bytes(4 * 64);
        let cold = h.touch_working_set(0, &ws);
        assert_eq!(cold, 4 * cfg.memory_latency_ns);
        let warm = h.touch_working_set(0, &ws);
        assert_eq!(warm, 4 * cfg.l1.hit_latency_ns);
    }
}
