//! The Enclave Page Cache residency model.
//!
//! Tracks which virtual pages are resident in the (limited) EPC, how each
//! got there (demand fault, DFP preload, SIP request), CLOCK access bits,
//! and the preload-accuracy accounting that feeds DFP's abort mechanism
//! (paper §4.2: `PreloadCounter` / `AccPreloadCounter`).
//!
//! # Layout
//!
//! The residency table is struct-of-arrays: each resident page occupies a
//! dense *slot*, and per-page metadata (page number, load origin, touch
//! bit, owning tenant) lives in parallel arrays indexed by slot. A flat
//! hash index maps page number → slot; the default CLOCK engine runs
//! directly over slot indices (see [`crate::ClockQueue`]'s ring), so the
//! hot fault path does one hash probe and a few array writes instead of
//! the `HashMap`-per-structure design this replaced. Non-default victim
//! policies still plug in through the boxed [`ReplacementPolicy`] trait.

use std::error::Error;
use std::fmt;

use sgx_sim::FastMap;

use crate::clock::ClockRing;
use crate::{ReplacementPolicy, VictimPolicy, VirtPage};

/// Sentinel page number marking a dead slot.
const NO_PAGE: u64 = u64::MAX;

/// Sentinel tenant index for pages outside every registered extent.
const NO_OWNER: u16 = u16::MAX;

/// How a page came to be loaded into EPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOrigin {
    /// Loaded by the kernel servicing a demand page fault.
    Demand,
    /// Loaded speculatively by the DFP preload worker.
    Preload,
    /// Loaded on an explicit SIP notification from instrumented code.
    Sip,
}

/// Returned by [`Epc::insert`] when no free slot exists; the caller must
/// evict first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpcFullError {
    /// The capacity that was exhausted.
    pub capacity: u64,
}

impl fmt::Display for EpcFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EPC full: all {} slots resident", self.capacity)
    }
}

impl Error for EpcFullError {}

/// Outcome of [`Epc::touch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TouchOutcome {
    /// Whether the page was resident (an EPC hit).
    pub resident: bool,
    /// `true` exactly once per preloaded page: on its first touch. Drives
    /// the `AccPreloadCounter` of the DFP abort mechanism.
    pub first_touch_of_preload: bool,
    /// The slot holding the page while it stays resident (`None` on a
    /// miss). Callers can key side tables off this instead of re-hashing
    /// the page.
    pub slot: Option<u32>,
}

/// Outcome of [`Epc::evict_victim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The page chosen by the CLOCK sweep.
    pub page: VirtPage,
    /// `true` if the page was preloaded and never touched — a confirmed
    /// wasted preload.
    pub wasted_preload: bool,
    /// Entries the replacement policy inspected to find this victim (CLOCK
    /// sweep length; 1 for direct-pick policies).
    pub scanned: u64,
    /// The slot the page occupied; freed by this eviction, so side tables
    /// keyed on it must be cleared before the slot is reused.
    pub slot: u32,
}

/// An EPC residency quota for one registered tenant extent.
///
/// The *soft* quota, in pages, marks the tenant's fair share: the
/// reclaimer preferentially evicts from tenants above it. `0` means
/// "unlimited" (the unpartitioned driver default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantQuota {
    /// Fair-share residency target; reclaim prefers tenants above it.
    pub soft_pages: u64,
}

impl TenantQuota {
    /// The unpartitioned default: no share.
    pub const NONE: TenantQuota = TenantQuota { soft_pages: 0 };

    /// Whether this quota constrains anything.
    pub fn is_none(&self) -> bool {
        self.soft_pages == 0
    }
}

/// Per-tenant residency accounting for one registered virtual extent.
#[derive(Debug, Clone)]
struct TenantExtent {
    base: VirtPage,
    pages: u64,
    quota: TenantQuota,
    resident: u64,
    preloads_touched: u64,
    preloads_evicted_untouched: u64,
    /// Dense page → slot table over the extent's local page numbers
    /// (`slot + 1`; `0` = not resident). One array load replaces the hash
    /// probe for every page inside a registered extent — the entire hot
    /// path once the kernel has registered its enclaves.
    slots: Vec<u32>,
}

impl TenantExtent {
    /// Extents above this page count keep their residency in the shared
    /// hash index instead of a dense table (bounds worst-case memory).
    const DENSE_LIMIT: u64 = 1 << 26;

    fn contains(&self, page: VirtPage) -> bool {
        page >= self.base && page.raw() < self.base.raw() + self.pages
    }

    fn over_soft(&self) -> bool {
        self.quota.soft_pages > 0 && self.resident > self.quota.soft_pages
    }
}

/// Victim-selection engine: the default CLOCK scheme runs natively over
/// slot indices; everything else goes through the boxed trait object.
#[derive(Debug)]
enum Engine {
    /// Word-at-a-time CLOCK ring whose tokens are EPC slot indices.
    Clock(ClockRing),
    /// Pluggable page-keyed policies (FIFO, LRU, random).
    Boxed(Box<dyn ReplacementPolicy>),
}

/// The EPC: a fixed number of page slots plus residency metadata.
///
/// Victim selection is pluggable (see [`VictimPolicy`]); the default is
/// the driver's CLOCK scheme.
///
/// # Examples
///
/// ```
/// use sgx_epc::{Epc, LoadOrigin, VirtPage};
///
/// let mut epc = Epc::new(2);
/// epc.insert(VirtPage::new(10), LoadOrigin::Demand)?;
/// epc.insert(VirtPage::new(11), LoadOrigin::Preload)?;
/// assert_eq!(epc.free_slots(), 0);
/// assert!(epc.insert(VirtPage::new(12), LoadOrigin::Demand).is_err());
/// let evicted = epc.evict_victim().unwrap();
/// // The untouched preload is the colder page.
/// assert_eq!(evicted.page, VirtPage::new(11));
/// assert!(evicted.wasted_preload);
/// # Ok::<(), sgx_epc::EpcFullError>(())
/// ```
#[derive(Debug)]
pub struct Epc {
    capacity: u64,
    /// Page number per slot; `NO_PAGE` marks a free slot.
    slot_page: Vec<u64>,
    /// Load origin per slot (stale in free slots).
    slot_origin: Vec<LoadOrigin>,
    /// Whether the application has touched the page in this slot.
    slot_touched: Vec<bool>,
    /// Owning tenant per slot (`NO_OWNER` outside every extent).
    slot_owner: Vec<u16>,
    /// Free slots, recycled LIFO.
    free: Vec<u32>,
    /// page number → slot for pages outside every dense extent table.
    index: FastMap,
    /// Resident page count (dense tables plus `index`).
    resident: u64,
    engine: Engine,
    preloads_completed: u64,
    preloads_touched: u64,
    preloads_evicted_untouched: u64,
    /// Cumulative replacement-policy scan steps across every eviction
    /// (the gauge behind time-series sampling).
    scanned_total: u64,
    /// Registered tenant extents, in registration order. Empty for the
    /// single-tenant/unpartitioned configurations, where every tenant path
    /// below is a no-op.
    extents: Vec<TenantExtent>,
}

impl Epc {
    /// Creates an empty EPC with `capacity` page slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u64) -> Self {
        Self::with_policy(capacity, VictimPolicy::Clock)
    }

    /// Creates an empty EPC with an explicit victim-selection policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_policy(capacity: u64, policy: VictimPolicy) -> Self {
        assert!(capacity > 0, "EPC must have at least one slot");
        let engine = match policy {
            VictimPolicy::Clock => Engine::Clock(ClockRing::new()),
            other => Engine::Boxed(other.build()),
        };
        Epc {
            capacity,
            slot_page: Vec::new(),
            slot_origin: Vec::new(),
            slot_touched: Vec::new(),
            slot_owner: Vec::new(),
            free: Vec::new(),
            index: FastMap::new(),
            resident: 0,
            engine,
            preloads_completed: 0,
            preloads_touched: 0,
            preloads_evicted_untouched: 0,
            scanned_total: 0,
            extents: Vec::new(),
        }
    }

    /// The victim-selection policy's name (e.g. `"clock"`).
    pub fn policy_name(&self) -> &'static str {
        match &self.engine {
            Engine::Clock(_) => "clock",
            Engine::Boxed(p) => p.name(),
        }
    }

    /// Total page slots.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Resident page count.
    pub fn resident_count(&self) -> u64 {
        self.resident
    }

    /// Free page slots.
    pub fn free_slots(&self) -> u64 {
        self.capacity - self.resident_count()
    }

    /// The slot holding page number `g`, via the owning extent's dense
    /// table when one exists, the hash index otherwise.
    #[inline]
    fn lookup(&self, g: u64) -> Option<u32> {
        for e in &self.extents {
            if g.wrapping_sub(e.base.raw()) < e.pages && !e.slots.is_empty() {
                let s = e.slots[(g - e.base.raw()) as usize];
                return if s == 0 { None } else { Some(s - 1) };
            }
        }
        self.index.get(g).map(|s| s as u32)
    }

    /// Records (or clears, with `None`) the slot holding page number `g`.
    #[inline]
    fn store(&mut self, g: u64, slot: Option<u32>) {
        for e in &mut self.extents {
            if g.wrapping_sub(e.base.raw()) < e.pages && !e.slots.is_empty() {
                e.slots[(g - e.base.raw()) as usize] = match slot {
                    Some(s) => s + 1,
                    None => 0,
                };
                return;
            }
        }
        match slot {
            Some(s) => {
                self.index.insert(g, u64::from(s));
            }
            None => {
                self.index.remove(g);
            }
        }
    }

    /// Whether `page` is resident.
    #[inline]
    pub fn is_resident(&self, page: VirtPage) -> bool {
        self.lookup(page.raw()).is_some()
    }

    /// The slot currently holding `page`, if resident. Slot indices are
    /// stable while the page stays resident and recycle after eviction.
    #[inline]
    pub fn slot_of(&self, page: VirtPage) -> Option<u32> {
        self.lookup(page.raw())
    }

    /// The resident page in `slot`, if any.
    #[inline]
    pub fn page_in_slot(&self, slot: u32) -> Option<VirtPage> {
        match self.slot_page.get(slot as usize) {
            Some(&raw) if raw != NO_PAGE => Some(VirtPage::new(raw)),
            _ => None,
        }
    }

    /// Loads `page` into a free slot, returning the slot it occupies.
    ///
    /// Demand/SIP loads enter the CLOCK queue hot (they are about to be
    /// accessed); preloads enter cold so mispredictions are evicted first.
    ///
    /// # Errors
    ///
    /// Returns [`EpcFullError`] when no slot is free; the caller must evict
    /// first. (The kernel model keeps free slots available via its
    /// watermark reclaimer, so this error is exceptional.)
    ///
    /// # Panics
    ///
    /// Panics if the page is already resident — a double load indicates a
    /// kernel-model bug.
    pub fn insert(&mut self, page: VirtPage, origin: LoadOrigin) -> Result<u32, EpcFullError> {
        if self.free_slots() == 0 {
            return Err(EpcFullError {
                capacity: self.capacity,
            });
        }
        assert!(!self.is_resident(page), "double load of {page}");
        let hot = !matches!(origin, LoadOrigin::Preload);
        let owner = self
            .owner_of(page)
            .map_or(NO_OWNER, |t| u16::try_from(t).expect("too many tenants"));
        let slot = match self.free.pop() {
            Some(s) => {
                let i = s as usize;
                self.slot_page[i] = page.raw();
                self.slot_origin[i] = origin;
                self.slot_touched[i] = hot;
                self.slot_owner[i] = owner;
                s
            }
            None => {
                let s = u32::try_from(self.slot_page.len()).expect("EPC exceeds u32 slots");
                self.slot_page.push(page.raw());
                self.slot_origin.push(origin);
                self.slot_touched.push(hot);
                self.slot_owner.push(owner);
                s
            }
        };
        self.store(page.raw(), Some(slot));
        self.resident += 1;
        match &mut self.engine {
            Engine::Clock(r) => r.insert(slot, hot),
            Engine::Boxed(p) => p.insert(page, hot),
        }
        if matches!(origin, LoadOrigin::Preload) {
            self.preloads_completed += 1;
        }
        if owner != NO_OWNER {
            self.extents[owner as usize].resident += 1;
        }
        Ok(slot)
    }

    /// Records an application access to `page`: sets its CLOCK access bit
    /// and reports whether this was the first touch of a preloaded page.
    #[inline]
    pub fn touch(&mut self, page: VirtPage) -> TouchOutcome {
        let Some(slot) = self.lookup(page.raw()) else {
            return TouchOutcome {
                resident: false,
                first_touch_of_preload: false,
                slot: None,
            };
        };
        let i = slot as usize;
        let first_preload_touch =
            matches!(self.slot_origin[i], LoadOrigin::Preload) && !self.slot_touched[i];
        if first_preload_touch {
            self.preloads_touched += 1;
            let owner = self.slot_owner[i];
            if owner != NO_OWNER {
                self.extents[owner as usize].preloads_touched += 1;
            }
        }
        self.slot_touched[i] = true;
        match &mut self.engine {
            Engine::Clock(r) => {
                r.touch(slot);
            }
            Engine::Boxed(p) => {
                p.touch(page);
            }
        }
        TouchOutcome {
            resident: true,
            first_touch_of_preload: first_preload_touch,
            slot: Some(slot),
        }
    }

    /// Pops the engine's next victim, returning its slot (already removed
    /// from the engine but still in the residency table).
    fn engine_evict(&mut self) -> Option<u32> {
        let page = match &mut self.engine {
            Engine::Clock(r) => return r.evict(),
            Engine::Boxed(p) => p.evict()?,
        };
        let slot = self
            .lookup(page.raw())
            .expect("policy and residency map diverged");
        Some(slot)
    }

    /// Visit count of the most recent engine eviction.
    fn engine_last_scan(&self) -> u64 {
        match &self.engine {
            Engine::Clock(r) => r.last_sweep(),
            Engine::Boxed(p) => p.last_evict_scan(),
        }
    }

    /// Re-enters a still-resident slot into the engine (cold).
    fn engine_insert_cold(&mut self, slot: u32) {
        let page = VirtPage::new(self.slot_page[slot as usize]);
        match &mut self.engine {
            Engine::Clock(r) => r.insert(slot, false),
            Engine::Boxed(p) => p.insert(page, false),
        }
    }

    /// Drops a slot from the engine without evicting it through a sweep.
    fn engine_remove(&mut self, slot: u32) -> bool {
        let page = VirtPage::new(self.slot_page[slot as usize]);
        match &mut self.engine {
            Engine::Clock(r) => r.remove(slot),
            Engine::Boxed(p) => p.remove(page),
        }
    }

    /// Entries currently tracked by the engine.
    fn engine_len(&self) -> usize {
        match &self.engine {
            Engine::Clock(r) => r.len(),
            Engine::Boxed(p) => p.len(),
        }
    }

    /// Removes an already-chosen victim (by slot) from the residency table
    /// and settles the accounting shared by every eviction path. The
    /// engine must already have dropped the slot.
    fn finish_eviction(&mut self, slot: u32, scanned: u64) -> Eviction {
        self.scanned_total += scanned;
        let i = slot as usize;
        let raw = self.slot_page[i];
        debug_assert_ne!(raw, NO_PAGE, "evicting a free slot");
        let page = VirtPage::new(raw);
        let wasted = matches!(self.slot_origin[i], LoadOrigin::Preload) && !self.slot_touched[i];
        if wasted {
            self.preloads_evicted_untouched += 1;
        }
        let owner = self.slot_owner[i];
        if owner != NO_OWNER {
            let ext = &mut self.extents[owner as usize];
            ext.resident -= 1;
            ext.preloads_evicted_untouched += u64::from(wasted);
        }
        debug_assert!(
            self.lookup(raw).is_some(),
            "policy and residency map diverged"
        );
        self.store(raw, None);
        self.resident -= 1;
        self.slot_page[i] = NO_PAGE;
        self.free.push(slot);
        Eviction {
            page,
            wasted_preload: wasted,
            scanned,
            slot,
        }
    }

    /// Registers a tenant's virtual extent for per-enclave residency
    /// accounting, returning its tenant index (registration order).
    ///
    /// Extents must not overlap; pages outside every extent are simply
    /// unaccounted (the unpartitioned behaviour).
    pub fn register_extent(&mut self, base: VirtPage, pages: u64) -> usize {
        debug_assert!(
            !self
                .extents
                .iter()
                .any(|e| base.raw() < e.base.raw() + e.pages && e.base.raw() < base.raw() + pages),
            "tenant extents must not overlap"
        );
        let tenant = self.extents.len();
        let owner = u16::try_from(tenant).expect("too many tenants");
        let mut slots = if pages <= TenantExtent::DENSE_LIMIT {
            vec![0u32; pages as usize]
        } else {
            Vec::new()
        };
        // Adopt already-resident pages in range: count them, stamp the
        // per-slot owner cache (they had no owner, extents don't overlap)
        // and migrate their index entries into the dense table.
        let mut resident = 0u64;
        for i in 0..self.slot_page.len() {
            let raw = self.slot_page[i];
            if raw != NO_PAGE && raw >= base.raw() && raw < base.raw() + pages {
                self.slot_owner[i] = owner;
                resident += 1;
                if !slots.is_empty() {
                    self.index.remove(raw);
                    slots[(raw - base.raw()) as usize] =
                        u32::try_from(i).expect("EPC exceeds u32 slots") + 1;
                }
            }
        }
        self.extents.push(TenantExtent {
            base,
            pages,
            quota: TenantQuota::NONE,
            resident,
            preloads_touched: 0,
            preloads_evicted_untouched: 0,
            slots,
        });
        tenant
    }

    /// Sets (or clears) the residency quota for a registered extent.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` was never registered.
    pub fn set_quota(&mut self, tenant: usize, quota: TenantQuota) {
        self.extents[tenant].quota = quota;
    }

    /// Number of registered tenant extents.
    pub fn tenant_count(&self) -> usize {
        self.extents.len()
    }

    /// The tenant index owning `page`, if it falls inside a registered
    /// extent.
    pub fn owner_of(&self, page: VirtPage) -> Option<usize> {
        self.extents.iter().position(|e| e.contains(page))
    }

    /// Resident pages currently charged to `tenant`.
    pub fn tenant_resident(&self, tenant: usize) -> u64 {
        self.extents[tenant].resident
    }

    /// Preloaded pages of `tenant` later touched (its slice of
    /// `AccPreloadCounter`).
    pub fn tenant_preloads_touched(&self, tenant: usize) -> u64 {
        self.extents[tenant].preloads_touched
    }

    /// Preloaded pages of `tenant` evicted or released without ever being
    /// touched (its slice of [`Epc::preloads_evicted_untouched`]).
    pub fn tenant_preloads_evicted_untouched(&self, tenant: usize) -> u64 {
        self.extents[tenant].preloads_evicted_untouched
    }

    /// Whether `tenant` is above its soft share (always `false` without a
    /// quota).
    pub fn over_soft_quota(&self, tenant: usize) -> bool {
        self.extents[tenant].over_soft()
    }

    /// `true` when at least one tenant is above its soft quota — the
    /// precondition for quota-aware victim selection.
    pub fn any_over_soft_quota(&self) -> bool {
        self.extents.iter().any(|e| e.over_soft())
    }

    /// Evicts the policy's victim, returning it, or `None` if the EPC is
    /// empty.
    ///
    /// While some tenant is above its soft quota, the victim is the first
    /// one (in policy order) owned by such a tenant, falling back to the
    /// plain policy victim when no such page is found within one full
    /// sweep. Victims skipped during the search re-enter the policy cold,
    /// so the search itself acts like a CLOCK sweep over them. Without a
    /// tenant over quota — always, when no quota is set — this is the
    /// plain policy victim.
    pub fn evict_victim(&mut self) -> Option<Eviction> {
        if !self.any_over_soft_quota() {
            let slot = self.engine_evict()?;
            return Some(self.finish_eviction(slot, self.engine_last_scan()));
        }
        // Pop policy victims until one belongs to an over-quota tenant,
        // bounded by one pass over the resident set.
        let mut skipped: Vec<u32> = Vec::new();
        let mut scanned = 0u64;
        let mut chosen: Option<u32> = None;
        let budget = self.engine_len();
        for _ in 0..budget {
            let Some(slot) = self.engine_evict() else {
                break;
            };
            scanned += self.engine_last_scan();
            let owner = self.slot_owner[slot as usize];
            if owner != NO_OWNER && self.extents[owner as usize].over_soft() {
                chosen = Some(slot);
                break;
            }
            skipped.push(slot);
        }
        // Skipped victims re-enter cold, preserving their relative order.
        for &slot in &skipped {
            self.engine_insert_cold(slot);
        }
        let slot = match chosen {
            Some(s) => s,
            // Nothing matched: fall back to the overall coldest page, which
            // was the first one the sweep produced.
            None => {
                let first = *skipped.first()?;
                let removed = self.engine_remove(first);
                debug_assert!(removed, "fallback victim vanished from the policy");
                first
            }
        };
        Some(self.finish_eviction(slot, scanned))
    }

    /// Total preloads that completed (the paper's `PreloadCounter`).
    pub fn preloads_completed(&self) -> u64 {
        self.preloads_completed
    }

    /// Preloaded pages later touched by the application (the paper's
    /// `AccPreloadCounter`).
    pub fn preloads_touched(&self) -> u64 {
        self.preloads_touched
    }

    /// Preloaded pages evicted without ever being touched — confirmed
    /// mispredictions.
    pub fn preloads_evicted_untouched(&self) -> u64 {
        self.preloads_evicted_untouched
    }

    /// Cumulative replacement-policy scan steps across every eviction so
    /// far (a monotone gauge for time-series sampling).
    pub fn scan_steps_total(&self) -> u64 {
        self.scanned_total
    }

    /// Resident page counts per registered tenant extent, in registration
    /// order (empty when no extents are registered).
    pub fn residency_snapshot(&self) -> Vec<u64> {
        self.extents.iter().map(|e| e.resident).collect()
    }

    /// All resident pages, ascending (the service thread's page-table view).
    pub fn resident_pages(&self) -> Vec<VirtPage> {
        let mut pages: Vec<VirtPage> = self
            .slot_page
            .iter()
            .filter(|&&raw| raw != NO_PAGE)
            .map(|&raw| VirtPage::new(raw))
            .collect();
        pages.sort_unstable();
        pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> VirtPage {
        VirtPage::new(n)
    }

    #[test]
    fn insert_until_full_then_error() {
        let mut epc = Epc::new(3);
        for n in 0..3 {
            epc.insert(p(n), LoadOrigin::Demand).unwrap();
        }
        let err = epc.insert(p(99), LoadOrigin::Demand).unwrap_err();
        assert_eq!(err.capacity, 3);
        assert_eq!(err.to_string(), "EPC full: all 3 slots resident");
        assert_eq!(epc.free_slots(), 0);
    }

    #[test]
    #[should_panic(expected = "double load")]
    fn double_insert_panics() {
        let mut epc = Epc::new(2);
        epc.insert(p(1), LoadOrigin::Demand).unwrap();
        epc.insert(p(1), LoadOrigin::Demand).unwrap();
    }

    #[test]
    fn touch_tracks_preload_accuracy_once() {
        let mut epc = Epc::new(4);
        epc.insert(p(1), LoadOrigin::Preload).unwrap();
        assert_eq!(epc.preloads_completed(), 1);
        assert_eq!(epc.preloads_touched(), 0);
        let t1 = epc.touch(p(1));
        assert!(t1.resident);
        assert!(t1.first_touch_of_preload);
        let t2 = epc.touch(p(1));
        assert!(t2.resident);
        assert!(!t2.first_touch_of_preload);
        assert_eq!(epc.preloads_touched(), 1);
    }

    #[test]
    fn demand_loads_do_not_count_as_preloads() {
        let mut epc = Epc::new(4);
        epc.insert(p(1), LoadOrigin::Demand).unwrap();
        epc.insert(p(2), LoadOrigin::Sip).unwrap();
        epc.touch(p(1));
        epc.touch(p(2));
        assert_eq!(epc.preloads_completed(), 0);
        assert_eq!(epc.preloads_touched(), 0);
    }

    #[test]
    fn touch_absent_page_reports_miss() {
        let mut epc = Epc::new(2);
        let t = epc.touch(p(5));
        assert!(!t.resident);
        assert!(!t.first_touch_of_preload);
        assert_eq!(t.slot, None);
    }

    #[test]
    fn slots_are_stable_and_recycle_after_eviction() {
        let mut epc = Epc::new(2);
        let s1 = epc.insert(p(1), LoadOrigin::Demand).unwrap();
        let s2 = epc.insert(p(2), LoadOrigin::Preload).unwrap();
        assert_ne!(s1, s2);
        assert_eq!(epc.slot_of(p(1)), Some(s1));
        assert_eq!(epc.page_in_slot(s2), Some(p(2)));
        assert_eq!(epc.touch(p(1)).slot, Some(s1));
        let ev = epc.evict_victim().unwrap();
        assert_eq!(ev.slot, s2, "cold preload evicted from its slot");
        assert_eq!(epc.page_in_slot(s2), None);
        assert_eq!(epc.slot_of(p(2)), None);
        // The freed slot is recycled for the next load.
        let s3 = epc.insert(p(3), LoadOrigin::Demand).unwrap();
        assert_eq!(s3, s2);
    }

    #[test]
    fn untouched_preload_eviction_is_wasted() {
        let mut epc = Epc::new(2);
        epc.insert(p(1), LoadOrigin::Demand).unwrap();
        epc.insert(p(2), LoadOrigin::Preload).unwrap();
        // Preload enters cold, demand enters hot: preload evicted first.
        let ev = epc.evict_victim().unwrap();
        assert_eq!(ev.page, p(2));
        assert!(ev.wasted_preload);
        assert_eq!(epc.preloads_evicted_untouched(), 1);
    }

    #[test]
    fn touched_preload_eviction_is_not_wasted() {
        let mut epc = Epc::new(2);
        epc.insert(p(2), LoadOrigin::Preload).unwrap();
        epc.touch(p(2));
        // Touch sets the access bit; one sweep clears it, then it is evicted.
        let ev = epc.evict_victim().unwrap();
        assert_eq!(ev.page, p(2));
        assert!(!ev.wasted_preload);
        assert_eq!(epc.preloads_evicted_untouched(), 0);
    }

    #[test]
    fn evict_empty_returns_none() {
        let mut epc = Epc::new(1);
        assert_eq!(epc.evict_victim(), None);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _ = Epc::new(0);
    }

    #[test]
    fn extents_account_residency_per_tenant() {
        let mut epc = Epc::new(8);
        let a = epc.register_extent(p(0), 100);
        let b = epc.register_extent(p(1000), 100);
        epc.insert(p(1), LoadOrigin::Demand).unwrap();
        epc.insert(p(2), LoadOrigin::Preload).unwrap();
        epc.insert(p(1001), LoadOrigin::Demand).unwrap();
        epc.insert(p(1002), LoadOrigin::Preload).unwrap();
        assert_eq!(epc.tenant_resident(a), 2);
        assert_eq!(epc.tenant_resident(b), 2);
        epc.touch(p(2));
        assert_eq!(epc.tenant_preloads_touched(a), 1);
        assert_eq!(epc.tenant_preloads_touched(b), 0);
        assert_eq!(epc.owner_of(p(1001)), Some(b));
        assert_eq!(epc.owner_of(p(500)), None);
        // Evictions give the slot back to the owner's account, and only
        // the owner of an untouched preload is billed its waste.
        while let Some(ev) = epc.evict_victim() {
            assert!(!epc.is_resident(ev.page));
        }
        assert_eq!(epc.tenant_resident(a), 0);
        assert_eq!(epc.tenant_resident(b), 0);
        assert_eq!(epc.tenant_preloads_evicted_untouched(a), 0);
        assert_eq!(epc.tenant_preloads_evicted_untouched(b), 1);
        assert_eq!(epc.preloads_evicted_untouched(), 1);
    }

    #[test]
    fn late_extent_registration_adopts_resident_pages() {
        let mut epc = Epc::new(8);
        epc.insert(p(1), LoadOrigin::Demand).unwrap();
        epc.insert(p(2), LoadOrigin::Demand).unwrap();
        epc.insert(p(1000), LoadOrigin::Demand).unwrap();
        let a = epc.register_extent(p(0), 100);
        assert_eq!(epc.tenant_resident(a), 2);
        // Adopted pages are charged back on eviction.
        while epc.evict_victim().is_some() {}
        assert_eq!(epc.tenant_resident(a), 0);
    }

    #[test]
    fn quota_aware_eviction_prefers_over_quota_tenant() {
        let mut epc = Epc::new(8);
        let a = epc.register_extent(p(0), 100);
        let b = epc.register_extent(p(1000), 100);
        epc.set_quota(a, TenantQuota { soft_pages: 1 });
        // Tenant B's page is the coldest (inserted first), but tenant A is
        // over its soft share, so the quota-aware sweep skips B.
        epc.insert(p(1000), LoadOrigin::Demand).unwrap();
        epc.insert(p(1), LoadOrigin::Demand).unwrap();
        epc.insert(p(2), LoadOrigin::Demand).unwrap();
        assert!(epc.over_soft_quota(a));
        assert!(!epc.over_soft_quota(b));
        let ev = epc.evict_victim().unwrap();
        assert_eq!(epc.owner_of(ev.page), Some(a));
        assert_eq!(epc.tenant_resident(a), 1);
        assert_eq!(epc.tenant_resident(b), 1);
        // Nobody over quota any more: falls through to the plain victim.
        assert!(!epc.any_over_soft_quota());
        assert!(epc.evict_victim().is_some());
    }

    #[test]
    fn quota_aware_eviction_without_quotas_matches_plain_eviction() {
        let mut a = Epc::new(4);
        let mut b = Epc::new(4);
        let _ = b.register_extent(p(0), 100);
        for n in 0..4 {
            a.insert(p(n), LoadOrigin::Demand).unwrap();
            b.insert(p(n), LoadOrigin::Demand).unwrap();
        }
        a.touch(p(2));
        b.touch(p(2));
        for _ in 0..4 {
            let va = a.evict_victim().unwrap();
            let vb = b.evict_victim().unwrap();
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn residency_and_counts_stay_consistent_under_churn() {
        let mut epc = Epc::new(8);
        for n in 0..8 {
            epc.insert(p(n), LoadOrigin::Demand).unwrap();
        }
        for n in 100..150 {
            let ev = epc.evict_victim().unwrap();
            assert!(!epc.is_resident(ev.page));
            epc.insert(p(n), LoadOrigin::Demand).unwrap();
            assert_eq!(epc.resident_count(), 8);
            assert_eq!(epc.resident_pages().len(), 8);
        }
    }

    #[test]
    fn boxed_policy_engine_matches_old_behavior() {
        // FIFO is the simplest boxed engine: pure insertion order.
        let mut epc = Epc::with_policy(3, VictimPolicy::Fifo);
        assert_eq!(epc.policy_name(), "fifo");
        epc.insert(p(1), LoadOrigin::Demand).unwrap();
        epc.insert(p(2), LoadOrigin::Demand).unwrap();
        epc.insert(p(3), LoadOrigin::Demand).unwrap();
        epc.touch(p(1)); // FIFO ignores touches
        assert_eq!(epc.evict_victim().unwrap().page, p(1));
        assert_eq!(epc.evict_victim().unwrap().page, p(2));
        assert_eq!(epc.evict_victim().unwrap().page, p(3));
    }
}
