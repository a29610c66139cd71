//! Buffer pool: an LRU page cache over a [`Pager`] with exact IO accounting.
//!
//! Two modes matter for the reproduction:
//!
//! * **capacity = 0** — every page request is a physical access. This is the
//!   paper's measurement mode ("we turn off buffering and caching effects in
//!   all the experiments", §5) and makes the physical-read counter equal the
//!   paper's "number of random disk accesses".
//! * **capacity > 0** — normal operation with LRU eviction, used during index
//!   construction (where the paper, too, builds with bounded memory: HD-Index
//!   builds in ~100 MB, Fig. 8d/i/n).
//!
//! Pages are handed out as `Arc<[u8]>` snapshots: readers never block each
//! other, and a writer simply replaces the cached entry (write-through).
//!
//! The cache is an exact LRU: an intrusive doubly-linked recency list over a
//! slab of at most `capacity` slots, indexed by a `PageId → slot` map with an
//! integer hasher. A hit is one lookup and an O(1) relink; a miss at
//! capacity reuses the tail slot for the incoming page. Nothing grows with
//! the number of requests.
//!
//! A miss is one positioned read straight into the `Arc<[u8]>` that is then
//! cached and returned. The buffer comes from a short list of evicted pages
//! that no caller holds any more (`Arc::get_mut` succeeds); only when none is
//! free is a new one allocated. A page some caller still holds is never
//! reused, and a buffer whose read failed is dropped, never installed.

use crate::budget::CacheBudget;
use crate::page::PageId;
use crate::pager::Pager;
use crate::stats::{IoSnapshot, IoStats};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
use std::sync::Arc;

/// Evicted page buffers kept per pool for reuse by later misses.
const SPARE_BUFFERS: usize = 8;

/// Sentinel link: no slot.
const NIL: usize = usize::MAX;

/// Multiplicative hash for page ids: ids are dense integers, so one multiply
/// spreads them over the table without SipHash's cost.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only `PageId`s are hashed, through `write_u64`")
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// One cached page and its links in the recency list.
struct Slot {
    id: PageId,
    page: Arc<[u8]>,
    /// Towards the most recently used end.
    prev: usize,
    /// Towards the least recently used end.
    next: usize,
}

struct Inner {
    index: HashMap<PageId, usize, BuildHasherDefault<PageIdHasher>>,
    slots: Vec<Slot>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the next eviction victim.
    tail: usize,
    /// Evicted pages, possibly still held by callers.
    spare: Vec<Arc<[u8]>>,
}

impl Inner {
    fn unlink(&mut self, s: usize) {
        let (prev, next) = (self.slots[s].prev, self.slots[s].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, s: usize) {
        self.slots[s].prev = NIL;
        self.slots[s].next = self.head;
        match self.head {
            NIL => self.tail = s,
            h => self.slots[h].prev = s,
        }
        self.head = s;
    }

    /// Marks slot `s` most recently used.
    fn touch(&mut self, s: usize) {
        if self.head != s {
            self.unlink(s);
            self.push_front(s);
        }
    }

    /// Keeps an evicted page for reuse if there is room.
    fn recycle(&mut self, page: Arc<[u8]>) {
        if self.spare.len() < SPARE_BUFFERS {
            self.spare.push(page);
        }
    }

    /// A spare page no caller holds any more, if there is one.
    fn take_spare(&mut self) -> Option<Arc<[u8]>> {
        // Only `spare` can reach these pages, so a count of one stays one.
        let free = self.spare.iter().position(|p| Arc::strong_count(p) == 1)?;
        Some(self.spare.swap_remove(free))
    }

    fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.spare.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// An LRU-cached, statistics-counting view over a [`Pager`].
pub struct BufferPool {
    pager: Pager,
    capacity: usize,
    /// Optional global quota shared with other pools; every cached page
    /// holds one charge (invariant: charges == cached pages).
    budget: Option<CacheBudget>,
    inner: Mutex<Inner>,
    stats: IoStats,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("pages", &self.pager.num_pages())
            .finish()
    }
}

impl BufferPool {
    /// Wraps `pager` with an LRU cache of `capacity` pages (0 disables
    /// caching entirely — the paper's measurement mode).
    pub fn new(pager: Pager, capacity: usize) -> Self {
        Self::with_budget(pager, capacity, None)
    }

    /// Like [`Self::new`], but every cached page also charges the shared
    /// `budget`; when the global quota is exhausted this pool evicts one of
    /// its own pages (charge transfer) or forgoes caching, so the sum of
    /// cached pages across all pools sharing the budget never exceeds it.
    pub fn with_budget(pager: Pager, capacity: usize, budget: Option<CacheBudget>) -> Self {
        let reserve = capacity.min(1 << 20);
        Self {
            pager,
            capacity,
            budget,
            inner: Mutex::new(Inner {
                index: HashMap::with_capacity_and_hasher(reserve, Default::default()),
                slots: Vec::with_capacity(reserve),
                head: NIL,
                tail: NIL,
                spare: Vec::new(),
            }),
            stats: IoStats::new(),
        }
    }

    /// The shared budget this pool charges, if any.
    pub fn budget(&self) -> Option<&CacheBudget> {
        self.budget.as_ref()
    }

    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    pub fn page_size(&self) -> usize {
        self.pager.page_size()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// IO counters for this pool.
    pub fn stats(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    pub fn reset_stats(&self) {
        self.stats.reset()
    }

    /// Heap bytes currently held by cached pages (the pool's RAM footprint).
    pub fn memory_bytes(&self) -> usize {
        self.inner.lock().slots.len() * self.pager.page_size()
    }

    /// Bytes on disk behind this pool.
    pub fn disk_bytes(&self) -> u64 {
        self.pager.disk_bytes()
    }

    /// Allocates a fresh page (see [`Pager::allocate_page`]).
    pub fn allocate_page(&self) -> io::Result<PageId> {
        self.pager.allocate_page()
    }

    /// Allocates `count` consecutive pages, returning the first id.
    pub fn allocate_pages(&self, count: u64) -> io::Result<PageId> {
        self.pager.allocate_pages(count)
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u64 {
        self.pager.num_pages()
    }

    /// Reads page `id`, from cache when possible.
    pub fn read(&self, id: PageId) -> io::Result<Arc<[u8]>> {
        self.stats.record_logical_read();
        let mut page = if self.capacity > 0 {
            let mut inner = self.inner.lock();
            if let Some(&s) = inner.index.get(&id) {
                inner.touch(s);
                return Ok(Arc::clone(&inner.slots[s].page));
            }
            inner.take_spare()
        } else {
            None
        }
        .unwrap_or_else(|| self.fresh_page());
        // Miss: one physical read into a buffer only this call can reach.
        let buf = Arc::get_mut(&mut page).expect("spare and fresh pages are unshared");
        self.pager.read_page(id, buf)?;
        self.stats.record_physical_read();
        if self.capacity > 0 {
            self.install(id, Arc::clone(&page));
        }
        Ok(page)
    }

    /// Write-through: persists the page and refreshes the cached copy.
    ///
    /// # Panics
    /// Panics if `data` is not exactly one page.
    pub fn write(&self, id: PageId, data: &[u8]) -> io::Result<()> {
        self.pager.write_page(id, data)?;
        self.stats.record_physical_write();
        if self.capacity > 0 {
            self.install(id, Arc::from(data));
        }
        Ok(())
    }

    /// Drops all cached pages (the working set survives on disk).
    pub fn clear_cache(&self) {
        let mut inner = self.inner.lock();
        if let Some(budget) = &self.budget {
            budget.release(inner.slots.len());
        }
        inner.clear();
    }

    /// Flushes OS buffers to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        self.pager.sync()
    }

    /// A new zeroed page buffer, allocated once in its `Arc`.
    fn fresh_page(&self) -> Arc<[u8]> {
        std::iter::repeat_n(0u8, self.pager.page_size()).collect()
    }

    /// Caches `page` as the most recently used copy of `id`. A new page
    /// takes a free slot and a fresh budget charge while both last;
    /// otherwise it replaces the least recently used page, inheriting its
    /// slot and its charge. With the budget exhausted and nothing of its own
    /// to evict, the pool does not cache the page.
    fn install(&self, id: PageId, page: Arc<[u8]>) {
        let mut inner = self.inner.lock();
        if let Some(&s) = inner.index.get(&id) {
            let old = std::mem::replace(&mut inner.slots[s].page, page);
            inner.recycle(old);
            inner.touch(s);
            return;
        }
        let grow = inner.slots.len() < self.capacity
            && self.budget.as_ref().is_none_or(CacheBudget::try_charge);
        let s = if grow {
            inner.slots.push(Slot {
                id,
                page,
                prev: NIL,
                next: NIL,
            });
            inner.slots.len() - 1
        } else {
            let s = inner.tail;
            if s == NIL {
                return;
            }
            inner.unlink(s);
            let victim = inner.slots[s].id;
            inner.index.remove(&victim);
            inner.slots[s].id = id;
            let old = std::mem::replace(&mut inner.slots[s].page, page);
            inner.recycle(old);
            s
        };
        inner.index.insert(id, s);
        inner.push_front(s);
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        if let Some(budget) = &self.budget {
            budget.release(self.inner.lock().slots.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn pool(name: &str, page_size: usize, capacity: usize, pages: u64) -> (BufferPool, PathBuf) {
        let dir = std::env::temp_dir().join("hd_storage_buffer_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}_{}", std::process::id()));
        let pager = Pager::create_with_page_size(&path, page_size).unwrap();
        pager.allocate_pages(pages).unwrap();
        (BufferPool::new(pager, capacity), path)
    }

    #[test]
    fn cache_hit_avoids_physical_read() {
        let (pool, path) = pool("hit", 32, 4, 2);
        pool.write(0, &[1u8; 32]).unwrap();
        pool.reset_stats();
        pool.read(0).unwrap();
        pool.read(0).unwrap();
        let s = pool.stats();
        assert_eq!(s.logical_reads, 2);
        assert_eq!(s.physical_reads, 0, "page was cached by the write");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn zero_capacity_counts_every_read_as_physical() {
        let (pool, path) = pool("nocache", 32, 0, 1);
        pool.write(0, &[9u8; 32]).unwrap();
        pool.reset_stats();
        for _ in 0..5 {
            let page = pool.read(0).unwrap();
            assert_eq!(page[0], 9);
        }
        let s = pool.stats();
        assert_eq!(s.logical_reads, 5);
        assert_eq!(s.physical_reads, 5);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn lru_evicts_oldest() {
        let (pool, path) = pool("lru", 32, 2, 3);
        for id in 0..3u64 {
            pool.write(id, &[id as u8; 32]).unwrap();
        }
        // Cache now holds {1, 2} (capacity 2, page 0 evicted).
        pool.reset_stats();
        pool.read(1).unwrap();
        pool.read(2).unwrap();
        assert_eq!(pool.stats().physical_reads, 0);
        pool.read(0).unwrap();
        assert_eq!(pool.stats().physical_reads, 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn touching_a_page_protects_it_from_eviction() {
        let (pool, path) = pool("touch", 32, 2, 3);
        pool.write(0, &[0u8; 32]).unwrap();
        pool.write(1, &[1u8; 32]).unwrap();
        pool.read(0).unwrap(); // 0 is now most recent
        pool.write(2, &[2u8; 32]).unwrap(); // evicts 1
        pool.reset_stats();
        pool.read(0).unwrap();
        assert_eq!(pool.stats().physical_reads, 0, "page 0 must still be cached");
        pool.read(1).unwrap();
        assert_eq!(pool.stats().physical_reads, 1, "page 1 must have been evicted");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_through_is_visible_after_cache_clear() {
        let (pool, path) = pool("wt", 32, 4, 1);
        pool.write(0, &[0x5Au8; 32]).unwrap();
        pool.clear_cache();
        let page = pool.read(0).unwrap();
        assert!(page.iter().all(|&b| b == 0x5A));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn memory_accounting_tracks_cache() {
        let (pool, path) = pool("mem", 64, 2, 4);
        assert_eq!(pool.memory_bytes(), 0);
        pool.read(0).unwrap();
        assert_eq!(pool.memory_bytes(), 64);
        pool.read(1).unwrap();
        pool.read(2).unwrap(); // eviction keeps it at capacity
        assert_eq!(pool.memory_bytes(), 128);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn shared_budget_caps_total_cached_pages() {
        let budget = crate::budget::CacheBudget::new(4);
        let dir = std::env::temp_dir().join("hd_storage_buffer_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let mk = |name: &str| {
            let path = dir.join(format!("{name}_{}", std::process::id()));
            let pager = Pager::create_with_page_size(&path, 32).unwrap();
            pager.allocate_pages(8).unwrap();
            (BufferPool::with_budget(pager, 8, Some(budget.clone())), path)
        };
        let (a, pa) = mk("budget_a");
        let (b, pb) = mk("budget_b");
        for id in 0..8u64 {
            a.read(id).unwrap();
            b.read(id).unwrap();
        }
        // Local capacity would allow 8 + 8; the shared budget holds at 4.
        assert!(budget.used() <= 4, "budget over-committed: {}", budget.used());
        assert_eq!(
            a.memory_bytes() + b.memory_bytes(),
            budget.used() * 32,
            "cached pages must equal charged pages"
        );
        // Cached reads still hit under pressure.
        a.reset_stats();
        for _ in 0..3 {
            a.read(7).unwrap();
        }
        assert!(a.stats().physical_reads <= 1, "most-recent page should stay cached");
        std::fs::remove_file(pa).ok();
        std::fs::remove_file(pb).ok();
    }

    #[test]
    fn clearing_and_dropping_release_the_budget() {
        let budget = crate::budget::CacheBudget::new(4);
        let dir = std::env::temp_dir().join("hd_storage_buffer_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("budget_rel_{}", std::process::id()));
        let pager = Pager::create_with_page_size(&path, 32).unwrap();
        pager.allocate_pages(4).unwrap();
        let pool = BufferPool::with_budget(pager, 8, Some(budget.clone()));
        for id in 0..4u64 {
            pool.read(id).unwrap();
        }
        assert_eq!(budget.used(), 4);
        pool.clear_cache();
        assert_eq!(budget.used(), 0, "clear_cache must refund every charge");
        for id in 0..2u64 {
            pool.read(id).unwrap();
        }
        assert_eq!(budget.used(), 2);
        drop(pool);
        assert_eq!(budget.used(), 0, "drop must refund every charge");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn exhausted_budget_transfers_charges_locally() {
        // One pool, budget 2 < local capacity 8: the pool must keep serving
        // reads and keep at most 2 pages cached, recycling its own charges.
        let budget = crate::budget::CacheBudget::new(2);
        let dir = std::env::temp_dir().join("hd_storage_buffer_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("budget_xfer_{}", std::process::id()));
        let pager = Pager::create_with_page_size(&path, 32).unwrap();
        pager.allocate_pages(8).unwrap();
        let pool = BufferPool::with_budget(pager, 8, Some(budget.clone()));
        for round in 0..3 {
            for id in 0..8u64 {
                let _ = round;
                pool.read(id).unwrap();
            }
        }
        assert_eq!(budget.used(), 2);
        assert_eq!(pool.memory_bytes(), 2 * 32);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn concurrent_readers() {
        let (pool, path) = pool("conc", 32, 8, 8);
        for id in 0..8u64 {
            pool.write(id, &[id as u8; 32]).unwrap();
        }
        let pool = std::sync::Arc::new(pool);
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = std::sync::Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let id = (i + t) % 8;
                        let page = pool.read(id).unwrap();
                        assert_eq!(page[0], id as u8);
                    }
                });
            }
        });
        std::fs::remove_file(path).ok();
    }

    /// Reference LRU with the pool's budget rules, written as plainly as
    /// possible: recency order in a `Vec` (front = most recent), charge
    /// first, then evict down to capacity.
    struct ModelPool {
        capacity: usize,
        lru: Vec<PageId>,
    }

    impl ModelPool {
        /// Returns whether `id` was cached, and makes it most recent.
        fn touch(&mut self, id: PageId) -> bool {
            match self.lru.iter().position(|&p| p == id) {
                Some(i) => {
                    self.lru.remove(i);
                    self.lru.insert(0, id);
                    true
                }
                None => false,
            }
        }

        fn install(&mut self, id: PageId, used: &mut usize, quota: usize) {
            if self.capacity == 0 || self.touch(id) {
                return;
            }
            if *used < quota {
                *used += 1;
            } else if self.lru.pop().is_none() {
                return;
            }
            self.lru.insert(0, id);
            while self.lru.len() > self.capacity {
                self.lru.pop();
                *used -= 1;
            }
        }
    }

    /// xorshift64*: a deterministic op stream without a dependency.
    fn next_rand(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[test]
    fn hit_miss_decisions_match_a_reference_lru_under_a_shared_budget() {
        const PAGE: usize = 16;
        const PAGES: u64 = 12;
        let dir = std::env::temp_dir().join("hd_storage_buffer_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let mut rng = 0x5EED_u64;
        for case in 0..200 {
            let quota = 1 + (next_rand(&mut rng) % 8) as usize;
            let budget = crate::budget::CacheBudget::new(quota);
            let mut pools = Vec::new();
            let mut models = Vec::new();
            let mut paths = Vec::new();
            for p in 0..2 {
                let capacity = (next_rand(&mut rng) % 7) as usize;
                let path = dir.join(format!("model_{case}_{p}_{}", std::process::id()));
                let pager = Pager::create_with_page_size(&path, PAGE).unwrap();
                pager.allocate_pages(PAGES).unwrap();
                pools.push(BufferPool::with_budget(pager, capacity, Some(budget.clone())));
                models.push(ModelPool {
                    capacity,
                    lru: Vec::new(),
                });
                paths.push(path);
            }
            let mut contents = [[0u8; PAGES as usize]; 2];
            let mut used = 0usize;
            for step in 0..300 {
                let p = (next_rand(&mut rng) % 2) as usize;
                let id = next_rand(&mut rng) % PAGES;
                let (pool, model) = (&pools[p], &mut models[p]);
                match next_rand(&mut rng) % 20 {
                    0 => {
                        pool.clear_cache();
                        used -= model.lru.len();
                        model.lru.clear();
                    }
                    1..=5 => {
                        let fill = next_rand(&mut rng) as u8;
                        pool.write(id, &[fill; PAGE]).unwrap();
                        contents[p][id as usize] = fill;
                        model.install(id, &mut used, quota);
                    }
                    _ => {
                        let before = pool.stats().physical_reads;
                        let page = pool.read(id).unwrap();
                        let hit = pool.stats().physical_reads == before;
                        assert!(page.iter().all(|&b| b == contents[p][id as usize]));
                        let want_hit = model.touch(id);
                        assert_eq!(hit, want_hit, "case {case} step {step}: pool {p} page {id}");
                        if !want_hit {
                            model.install(id, &mut used, quota);
                        }
                    }
                }
                let cached: usize = pools.iter().map(|q| q.memory_bytes() / PAGE).sum();
                assert_eq!(budget.used(), cached, "case {case} step {step}: charges != pages");
                assert_eq!(budget.used(), used, "case {case} step {step}: budget drifted");
            }
            drop(pools);
            assert_eq!(budget.used(), 0);
            for path in paths {
                std::fs::remove_file(path).ok();
            }
        }
    }

    #[test]
    fn hits_do_not_grow_the_pool() {
        let (pool, path) = pool("hits_bounded", 32, 64, 8);
        for i in 0..1_000_000u64 {
            pool.read(i % 8).unwrap();
        }
        assert_eq!(pool.stats().physical_reads, 8);
        let inner = pool.inner.lock();
        assert!(inner.slots.len() <= pool.capacity());
        assert_eq!(inner.index.len(), 8);
        assert!(inner.spare.len() <= SPARE_BUFFERS);
        drop(inner);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_held_page_survives_eviction_unchanged() {
        let (pool, path) = pool("held", 32, 2, 16);
        for id in 0..16u64 {
            pool.write(id, &[id as u8 + 1; 32]).unwrap();
        }
        pool.clear_cache();
        let held = pool.read(0).unwrap();
        // Churn the cache many times over so evicted buffers get recycled.
        for round in 0..8 {
            for id in 1..16u64 {
                let page = pool.read(id).unwrap();
                assert!(page.iter().all(|&b| b == id as u8 + 1), "round {round} page {id}");
            }
        }
        assert!(held.iter().all(|&b| b == 1), "a held page was overwritten");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn failed_read_installs_nothing() {
        let (pool, path) = pool("truncated", 32, 2, 4);
        // The writes leave pages 2 and 3 cached and the evicted buffers of
        // pages 0 and 1 on the spare list, ready for the next misses.
        for id in 0..4u64 {
            pool.write(id, &[id as u8 + 1; 32]).unwrap();
        }
        // Cut the file in the middle of page 1: page 1 comes back short
        // although the pager still counts it.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(32 + 10)
            .unwrap();
        pool.reset_stats();
        for _ in 0..2 {
            let err = pool.read(1).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
        assert_eq!(pool.stats().physical_reads, 0);
        assert_eq!(pool.memory_bytes(), 2 * 32, "the failed page must not be cached");
        for id in [2u64, 3] {
            let page = pool.read(id).unwrap();
            assert!(page.iter().all(|&b| b == id as u8 + 1), "cached page {id}");
        }
        let page = pool.read(0).unwrap();
        assert!(page.iter().all(|&b| b == 1));
        assert_eq!(pool.stats().physical_reads, 1);
        std::fs::remove_file(path).ok();
    }
}
