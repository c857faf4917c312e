//! A single set-associative cache with LRU replacement.

use std::fmt;

use crate::CacheLevelConfig;

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was already resident.
    Hit,
    /// The line was not resident and has been installed (possibly evicting
    /// the least-recently-used line of its set).
    Miss {
        /// The line address that was evicted to make room, if the set was full.
        evicted: Option<u64>,
    },
}

impl AccessResult {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit)
    }
}

/// A set-associative, LRU-replacement cache level.
///
/// Addresses are byte addresses; the cache operates on line granularity
/// internally. The structure only tracks residency (tags), not data, which is
/// all the CRPD model needs.
///
/// # Example
///
/// ```
/// use spms_cache::{Cache, CacheLevelConfig};
///
/// let mut l1 = Cache::new(CacheLevelConfig {
///     size_bytes: 1024,
///     associativity: 2,
///     line_bytes: 64,
///     hit_latency_ns: 1,
/// });
/// assert!(!l1.access(0x40).is_hit());
/// assert!(l1.access(0x40).is_hit());
/// ```
#[derive(Clone)]
pub struct Cache {
    config: CacheLevelConfig,
    /// One vector of resident line addresses per set, most recently used last.
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheLevelConfig) -> Self {
        let sets = vec![Vec::with_capacity(config.associativity as usize); config.sets() as usize];
        Cache {
            config,
            sets,
            hits: 0,
            misses: 0,
        }
    }

    /// The geometry this cache was created with.
    pub fn config(&self) -> &CacheLevelConfig {
        &self.config
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Total hits since creation or the last [`Cache::reset_stats`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses since creation or the last [`Cache::reset_stats`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Clears the hit/miss counters (but not the contents).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Flushes all contents.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Whether the line containing `addr` is resident.
    pub fn contains(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        self.sets[self.set_of(line)].contains(&line)
    }

    /// Accesses the byte address `addr`, updating LRU state and returning
    /// whether it hit and what was evicted on a miss.
    pub fn access(&mut self, addr: u64) -> AccessResult {
        let line = self.line_of(addr);
        let set_idx = self.set_of(line);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            // Move to MRU position.
            let l = set.remove(pos);
            set.push(l);
            self.hits += 1;
            return AccessResult::Hit;
        }
        self.misses += 1;
        let evicted = if set.len() == self.config.associativity as usize {
            Some(set.remove(0))
        } else {
            None
        };
        set.push(line);
        AccessResult::Miss { evicted }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / self.config.line_bytes
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("size_bytes", &self.config.size_bytes)
            .field("resident_lines", &self.resident_lines())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheLevelConfig {
            size_bytes: 512,
            associativity: 2,
            line_bytes: 64,
            hit_latency_ns: 1,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small();
        assert!(!c.access(0).is_hit());
        assert!(c.access(0).is_hit());
        assert!(c.access(63).is_hit(), "same line as address 0");
        assert!(!c.access(64).is_hit(), "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small(); // 4 sets x 2 ways; lines mapping to set 0: 0, 4, 8, ...
        let line = |i: u64| i * 64;
        assert!(!c.access(line(0)).is_hit());
        assert!(!c.access(line(4)).is_hit());
        // Touch line 0 so line 4 becomes LRU.
        assert!(c.access(line(0)).is_hit());
        // Installing line 8 evicts line 4 (the LRU way).
        match c.access(line(8)) {
            AccessResult::Miss { evicted: Some(e) } => assert_eq!(e, 4),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(line(0)));
        assert!(!c.contains(line(4)));
    }

    #[test]
    fn capacity_matches_geometry() {
        let mut c = small();
        for i in 0..8u64 {
            c.access(i * 64);
        }
        assert_eq!(c.resident_lines(), 8);
        // Ninth distinct line forces an eviction somewhere.
        c.access(8 * 64);
        assert_eq!(c.resident_lines(), 8);
    }

    #[test]
    fn flush_and_invalidate() {
        let mut c = small();
        c.access(0);
        c.access(64);
        assert!(c.contains(0));
        c.flush();
        assert!(!c.contains(0));
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn reset_stats_clears_counters_only() {
        let mut c = small();
        c.access(0);
        c.access(0);
        c.reset_stats();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert!(c.contains(0));
    }

    #[test]
    fn debug_output() {
        let c = small();
        assert!(format!("{c:?}").contains("Cache"));
    }
}
