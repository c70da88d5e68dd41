//! The benchmark registry: every program the paper evaluates, as a
//! synthetic page-level workload model.
//!
//! The paper runs SPEC CPU2017 binaries (plus `mcf` from CPU2006, the
//! SD-VBS SIFT/MSER vision kernels, a 1 GiB sequential microbenchmark and
//! the *mixed-blood* synthetic) under Graphene-SGX. Those binaries are not
//! reproducible here, but DFP and SIP only ever observe *page-level*
//! behaviour: faulted page numbers, and profiled per-site page traces. Each
//! [`Benchmark`] therefore reconstructs the published page-level shape —
//! footprint, stream structure, irregular-access ratio, per-site class
//! mixture (paper Table 1, Fig. 3, Table 2) — from the generator library in
//! this crate. Parameters were calibrated so the evaluation benches
//! reproduce the paper's *shapes*; EXPERIMENTS.md records the
//! paper-vs-measured comparison.

use std::fmt;

use sgx_sim::{Cycles, DetRng};

use crate::{
    AccessIter, BatchScan, BurstyScan, FrontierSweep, HotColdSites, InterleavedStreams, Mix,
    PageRange, PhaseChain, PhasedStream, SequentialScan, SiteRange, UniformRandom, ZipfKv,
    ZipfRandom,
};

/// Source language of the original benchmark. The paper's SIP prototype
/// only instruments C/C++ (§5.2), so Fortran programs are excluded from the
/// SIP and hybrid figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Language {
    /// C.
    C,
    /// C++.
    Cpp,
    /// Fortran — unsupported by the paper's instrumentation tool.
    Fortran,
}

impl Language {
    /// Whether the paper's SIP prototype can instrument this language.
    pub fn sip_supported(self) -> bool {
        !matches!(self, Language::Fortran)
    }
}

/// The paper's Table-1 classification, extended with the real-world and
/// synthetic programs of §5.3–5.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Working set fits in the EPC; paging is not the bottleneck.
    SmallWorkingSet,
    /// Large working set, mostly irregular page accesses.
    LargeIrregular,
    /// Large working set, mostly regular (streaming) page accesses.
    LargeRegular,
    /// SD-VBS vision applications (SIFT, MSER).
    RealWorld,
    /// Synthesized programs (microbenchmark, mixed-blood).
    Synthetic,
    /// Workload-diversity scenarios beyond the paper's evaluation (KV
    /// store, phase-shift, graph frontier, ML inference) — the enclave
    /// workload classes the SGX benchmarking literature adds.
    Diverse,
}

/// Which input set drives a run: the paper profiles on *train* and measures
/// on *ref* (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSet {
    /// Profiling input: a shorter run with a different seed.
    Train,
    /// Measurement input.
    Ref,
}

/// A uniform down-scaling of footprints and access counts, so the full
/// paper-scale models (hundreds of MB, ~10⁶ events) can also run quickly in
/// unit tests. Scale the EPC by the same factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    divisor: u64,
}

impl Scale {
    /// Paper scale: 96 MiB usable EPC, full footprints.
    pub const FULL: Scale = Scale { divisor: 1 };
    /// 1/4 scale, used by the heavier integration tests.
    pub const QUARTER: Scale = Scale { divisor: 4 };
    /// 1/16 scale, used by unit tests.
    pub const DEV: Scale = Scale { divisor: 16 };

    /// A custom divisor.
    ///
    /// # Panics
    ///
    /// Panics if `divisor == 0`; [`Scale::try_new`] is the fallible form
    /// for divisors read from input.
    pub fn new(divisor: u64) -> Self {
        Self::try_new(divisor).expect("scale divisor must be positive")
    }

    /// A custom divisor, or `None` if `divisor == 0`.
    ///
    /// ```
    /// use sgx_workloads::Scale;
    ///
    /// assert_eq!(Scale::try_new(4), Some(Scale::QUARTER));
    /// assert_eq!(Scale::try_new(0), None);
    /// ```
    pub fn try_new(divisor: u64) -> Option<Self> {
        (divisor > 0).then_some(Scale { divisor })
    }

    /// The divisor.
    pub fn divisor(&self) -> u64 {
        self.divisor
    }

    /// Scales a page count (never below 16 pages).
    pub fn pages(&self, full: u64) -> u64 {
        (full / self.divisor).max(16)
    }

    /// Scales an access count (never below 64 events).
    pub fn count(&self, full: u64) -> u64 {
        (full / self.divisor).max(64)
    }

    /// The usable EPC size at this scale (paper: 24,576 pages ≈ 96 MiB).
    pub fn epc_pages(&self) -> u64 {
        self.pages(sgx_epc::usable_epc_pages())
    }
}

/// Every program in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are the benchmark names
pub enum Benchmark {
    Microbenchmark,
    Bwaves,
    Lbm,
    Wrf,
    Roms,
    Mcf,
    Deepsjeng,
    Omnetpp,
    Xz,
    CactuBssn,
    Imagick,
    Leela,
    Nab,
    Exchange2,
    Mcf2006,
    Sift,
    Mser,
    MixedBlood,
    // Workload-diversity scenarios (appended so the discriminants of the
    // paper benchmarks — which salt each model's RNG fork — never move).
    KvStore,
    PhaseShift,
    GraphFrontier,
    MlInference,
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Pages for a megabyte count at paper scale.
const fn mb(m: u64) -> u64 {
    m * 256
}

/// A region boundary at `part/total` of the scaled footprint, clamped so
/// that both sides of the split stay non-empty at any scale divisor.
fn boundary(fp: u64, part: u64, total: u64) -> u64 {
    (fp * part / total).clamp(1, fp - 1)
}

/// Interleaved-stream layout that never exceeds the footprint: at most
/// `want` streams, each at least one page.
fn stream_regions(fp: u64, want: u64) -> Vec<PageRange> {
    let n = want.min(fp).max(1);
    let len = (fp / n).max(1);
    (0..n)
        .map(|i| PageRange::new(i * len, (i + 1) * len))
        .collect()
}

impl Benchmark {
    /// All benchmarks: the paper's, in presentation order, then the
    /// workload-diversity scenarios.
    pub const ALL: [Benchmark; 22] = [
        Benchmark::Microbenchmark,
        Benchmark::Bwaves,
        Benchmark::Lbm,
        Benchmark::Wrf,
        Benchmark::Roms,
        Benchmark::Mcf,
        Benchmark::Deepsjeng,
        Benchmark::Omnetpp,
        Benchmark::Xz,
        Benchmark::CactuBssn,
        Benchmark::Imagick,
        Benchmark::Leela,
        Benchmark::Nab,
        Benchmark::Exchange2,
        Benchmark::Mcf2006,
        Benchmark::Sift,
        Benchmark::Mser,
        Benchmark::MixedBlood,
        Benchmark::KvStore,
        Benchmark::PhaseShift,
        Benchmark::GraphFrontier,
        Benchmark::MlInference,
    ];

    /// The paper's evaluation set (Table 1 plus §5.3–5.4) — [`ALL`]
    /// without the workload-diversity scenarios.
    ///
    /// [`ALL`]: Benchmark::ALL
    pub const PAPER: [Benchmark; 18] = [
        Benchmark::Microbenchmark,
        Benchmark::Bwaves,
        Benchmark::Lbm,
        Benchmark::Wrf,
        Benchmark::Roms,
        Benchmark::Mcf,
        Benchmark::Deepsjeng,
        Benchmark::Omnetpp,
        Benchmark::Xz,
        Benchmark::CactuBssn,
        Benchmark::Imagick,
        Benchmark::Leela,
        Benchmark::Nab,
        Benchmark::Exchange2,
        Benchmark::Mcf2006,
        Benchmark::Sift,
        Benchmark::Mser,
        Benchmark::MixedBlood,
    ];

    /// The workload-diversity scenarios — [`ALL`] minus [`PAPER`].
    ///
    /// [`ALL`]: Benchmark::ALL
    /// [`PAPER`]: Benchmark::PAPER
    pub const DIVERSE: [Benchmark; 4] = [
        Benchmark::KvStore,
        Benchmark::PhaseShift,
        Benchmark::GraphFrontier,
        Benchmark::MlInference,
    ];

    /// The paper's name for the benchmark.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Microbenchmark => "microbenchmark",
            Benchmark::Bwaves => "bwaves",
            Benchmark::Lbm => "lbm",
            Benchmark::Wrf => "wrf",
            Benchmark::Roms => "roms",
            Benchmark::Mcf => "mcf",
            Benchmark::Deepsjeng => "deepsjeng",
            Benchmark::Omnetpp => "omnetpp",
            Benchmark::Xz => "xz",
            Benchmark::CactuBssn => "cactuBSSN",
            Benchmark::Imagick => "imagick",
            Benchmark::Leela => "leela",
            Benchmark::Nab => "nab",
            Benchmark::Exchange2 => "exchange2",
            Benchmark::Mcf2006 => "mcf.2006",
            Benchmark::Sift => "SIFT",
            Benchmark::Mser => "MSER",
            Benchmark::MixedBlood => "mixed-blood",
            Benchmark::KvStore => "kvstore",
            Benchmark::PhaseShift => "phase-shift",
            Benchmark::GraphFrontier => "graph-frontier",
            Benchmark::MlInference => "ml-inference",
        }
    }

    /// Looks a benchmark up by its paper name.
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL.iter().copied().find(|b| b.name() == name)
    }

    /// Source language (paper §5.2 excludes Fortran from SIP).
    pub fn language(self) -> Language {
        match self {
            Benchmark::Bwaves | Benchmark::Wrf | Benchmark::Roms => Language::Fortran,
            Benchmark::Deepsjeng
            | Benchmark::Omnetpp
            | Benchmark::Leela
            | Benchmark::MixedBlood
            | Benchmark::GraphFrontier => Language::Cpp,
            _ => Language::C,
        }
    }

    /// The paper's Table-1 class (extended for §5.3–5.4 programs).
    pub fn category(self) -> Category {
        match self {
            Benchmark::CactuBssn
            | Benchmark::Imagick
            | Benchmark::Leela
            | Benchmark::Nab
            | Benchmark::Exchange2 => Category::SmallWorkingSet,
            Benchmark::Roms
            | Benchmark::Mcf
            | Benchmark::Deepsjeng
            | Benchmark::Omnetpp
            | Benchmark::Xz
            | Benchmark::Mcf2006 => Category::LargeIrregular,
            Benchmark::Bwaves | Benchmark::Lbm | Benchmark::Wrf => Category::LargeRegular,
            Benchmark::Sift | Benchmark::Mser => Category::RealWorld,
            Benchmark::Microbenchmark | Benchmark::MixedBlood => Category::Synthetic,
            Benchmark::KvStore
            | Benchmark::PhaseShift
            | Benchmark::GraphFrontier
            | Benchmark::MlInference => Category::Diverse,
        }
    }

    /// The paper's SIP prototype additionally fails on omnetpp
    /// ("our instrument tool cannot fully support it", §5.2).
    pub fn sip_supported(self) -> bool {
        self.language().sip_supported() && self != Benchmark::Omnetpp
    }

    /// Memory footprint in pages at paper scale (before [`Scale`]).
    pub fn footprint_pages(self) -> u64 {
        match self {
            Benchmark::Microbenchmark => mb(1024),
            Benchmark::Bwaves => mb(700),
            Benchmark::Lbm => mb(410),
            Benchmark::Wrf => mb(200),
            Benchmark::Roms => mb(250),
            Benchmark::Mcf => mb(860),
            Benchmark::Deepsjeng => mb(700),
            Benchmark::Omnetpp => mb(240),
            Benchmark::Xz => mb(700),
            Benchmark::CactuBssn => mb(60),
            Benchmark::Imagick => mb(30),
            Benchmark::Leela => mb(10),
            Benchmark::Nab => mb(40),
            Benchmark::Exchange2 => mb(2),
            Benchmark::Mcf2006 => mb(680),
            Benchmark::Sift => mb(300),
            Benchmark::Mser => mb(250),
            Benchmark::MixedBlood => mb(300),
            Benchmark::KvStore => mb(512),
            Benchmark::PhaseShift => mb(384),
            Benchmark::GraphFrontier => mb(320),
            Benchmark::MlInference => mb(256),
        }
    }

    /// ELRANGE to register for the enclave, at the given scale.
    pub fn elrange_pages(self, scale: Scale) -> u64 {
        scale.pages(self.footprint_pages())
    }

    /// Total distinct source sites the model uses (an upper bound on
    /// SIP instrumentation points).
    pub fn site_count(self) -> u32 {
        match self {
            Benchmark::Microbenchmark => 1,
            Benchmark::Bwaves => 6,
            Benchmark::Lbm => 4,
            Benchmark::Wrf => 5,
            Benchmark::Roms => 6,
            Benchmark::Mcf => 118,
            Benchmark::Deepsjeng => 64,
            Benchmark::Omnetpp => 31,
            Benchmark::Xz => 50,
            Benchmark::CactuBssn => 5,
            Benchmark::Imagick => 4,
            Benchmark::Leela => 6,
            Benchmark::Nab => 4,
            Benchmark::Exchange2 => 3,
            Benchmark::Mcf2006 => 114,
            Benchmark::Sift => 10,
            Benchmark::Mser => 57,
            Benchmark::MixedBlood => 59,
            Benchmark::KvStore => 40,
            Benchmark::PhaseShift => 8,
            Benchmark::GraphFrontier => 24,
            Benchmark::MlInference => 6,
        }
    }

    /// Builds the access stream for one run.
    ///
    /// `input` selects the paper's train/ref distinction (train runs are
    /// ~40% as long and use a different seed, so SIP's profile-then-measure
    /// pipeline is exercised realistically); `scale` shrinks everything for
    /// tests; `seed` controls all randomness.
    pub fn build(self, input: InputSet, scale: Scale, seed: u64) -> AccessIter {
        let salt = match input {
            InputSet::Train => 1,
            InputSet::Ref => 2,
        };
        let rng = DetRng::seed_from(seed).fork(self as u64 + 1).fork(salt);
        let count = |full: u64| -> u64 {
            let base = scale.count(full);
            match input {
                InputSet::Train => (base * 2 / 5).max(64),
                InputSet::Ref => base,
            }
        };
        let pages = |full: u64| scale.pages(full);
        build_model(self, rng, &count, &pages)
    }
}

/// Cycle cost of touching one page's worth of data for a "streaming" code
/// (≈1,400 cycles calibrates the paper's 46× in-enclave slowdown for the
/// microbenchmark; see the motivation bench).
const STREAM_COMPUTE: u64 = 1_400;

#[allow(clippy::too_many_lines)]
fn build_model(
    bench: Benchmark,
    rng: DetRng,
    count: &dyn Fn(u64) -> u64,
    pages: &dyn Fn(u64) -> u64,
) -> AccessIter {
    let fp = pages(bench.footprint_pages());
    match bench {
        Benchmark::Microbenchmark => Box::new(SequentialScan::new(
            PageRange::first(fp),
            3,
            Cycles::new(STREAM_COMPUTE),
            SiteRange::single(0),
        )),

        Benchmark::Bwaves => {
            // Six solver arrays swept in lockstep, with a thin layer of
            // bursty noise charged to the same sites (boundary updates).
            let regions = stream_regions(fp, 24);
            let sites = SiteRange::new(0, 6);
            let main = InterleavedStreams::new(regions, count(720_000), Cycles::new(1_600), sites);
            let noise = BurstyScan::new(
                PageRange::first(fp),
                count(36_000),
                2.5,
                Cycles::new(1_600),
                sites,
                rng.fork(1),
            );
            Box::new(Mix::new(
                vec![(Box::new(main), 0.95), (Box::new(noise), 0.05)],
                rng.fork(2),
            ))
        }

        Benchmark::Lbm => {
            // Source and destination lattices (two big streams each swept
            // by two site groups).
            let regions = stream_regions(fp, 12);
            let sites = SiteRange::new(0, 4);
            let main = InterleavedStreams::new(regions, count(520_000), Cycles::new(1_200), sites);
            let noise = BurstyScan::new(
                PageRange::first(fp),
                count(18_000),
                2.5,
                Cycles::new(1_200),
                sites,
                rng.fork(1),
            );
            Box::new(Mix::new(
                vec![(Box::new(main), 0.96), (Box::new(noise), 0.04)],
                rng.fork(2),
            ))
        }

        Benchmark::Wrf => {
            let grid = boundary(fp, 9, 10);
            let sites = SiteRange::new(0, 5);
            let sweep = InterleavedStreams::new(
                stream_regions(grid, 3),
                count(160_000),
                Cycles::new(1_800),
                sites,
            );
            let hot = SequentialScan::new(PageRange::new(grid, fp), 4, Cycles::new(1_000), sites);
            Box::new(PhaseChain::new(vec![Box::new(sweep), Box::new(hot)]))
        }

        Benchmark::Roms => {
            // Short bursts with jumps, most of them striding over every
            // other page (cell updates touching alternating field planes):
            // each fault stays inside the stream detector's window, so DFP
            // keeps preloading pages that are never touched — the shape
            // behind roms' 42% plain-DFP regression (Fig. 8).
            let sites = SiteRange::new(0, 6);
            let strided = BurstyScan::new(
                PageRange::first(fp),
                count(340_000),
                12.0,
                Cycles::new(900),
                sites,
                rng.fork(1),
            )
            .with_stride(3);
            let plain = BurstyScan::new(
                PageRange::first(fp),
                count(60_000),
                4.0,
                Cycles::new(900),
                sites,
                rng.fork(2),
            );
            Box::new(Mix::new(
                vec![
                    (Box::new(strided) as AccessIter, 0.85),
                    (Box::new(plain), 0.15),
                ],
                rng.fork(3),
            ))
        }

        Benchmark::Mcf => {
            // The SIP dilemma (§5.2): sites mixing resident hot-arc hits
            // (Class 1, re-executed in hot loops) with cold uniform jumps
            // (Class 3), plus a locality-bearing pointer chase whose short
            // runs bait the stream detector.
            let hot = PageRange::first(boundary(fp, 58, 860));
            let cold = PageRange::new(hot.end, fp);
            let dilemma = HotColdSites::new(
                hot,
                cold,
                count(400_000),
                0.02,
                0.18,
                Cycles::new(2_200),
                SiteRange::new(0, 110),
                rng.fork(1),
            )
            .with_hot_repeats(42);
            let chase = crate::PointerChase::new(
                cold,
                count(80_000),
                0.72,
                3,
                Cycles::new(2_200),
                SiteRange::new(110, 8),
                rng.fork(2),
            );
            Box::new(Mix::new(
                vec![(Box::new(dilemma), 0.84), (Box::new(chase), 0.16)],
                rng.fork(3),
            ))
        }

        Benchmark::Deepsjeng => {
            // Transposition-table probes with a bimodal per-site irregular
            // ratio (so the Fig. 9 threshold sweep has structure), plus a
            // resident search-stack loop.
            let ws = PageRange::first(boundary(fp, 12, 700));
            let table = PageRange::new(boundary(fp, 16, 700).max(ws.end), fp);
            let low_ratio = HotColdSites::new(
                ws,
                table,
                count(90_000),
                0.010,
                0.045,
                Cycles::new(2_500),
                SiteRange::new(0, 22),
                rng.fork(1),
            )
            .with_hot_repeats(24);
            let high_ratio = HotColdSites::new(
                ws,
                table,
                count(260_000),
                0.07,
                0.80,
                Cycles::new(2_500),
                SiteRange::new(22, 35),
                rng.fork(2),
            )
            .with_hot_repeats(44);
            let stack = SequentialScan::new(ws, 30, Cycles::new(900), SiteRange::new(60, 4));
            // Hash-bucket probe runs: strided bursts whose faults bait the
            // stream detector into preloading untouched pages — the source
            // of deepsjeng's plain-DFP regression (Fig. 8). They share the
            // stack's sites, whose traffic stays Class-1 dominated.
            let probe_runs = BurstyScan::new(
                table,
                count(40_000),
                4.0,
                Cycles::new(2_500),
                SiteRange::new(22, 35),
                rng.fork(4),
            )
            .with_stride(2);
            Box::new(Mix::new(
                vec![
                    (Box::new(low_ratio) as AccessIter, 0.20),
                    (Box::new(high_ratio), 0.45),
                    (Box::new(stack), 0.20),
                    (Box::new(probe_runs), 0.15),
                ],
                rng.fork(3),
            ))
        }

        Benchmark::Omnetpp => {
            let sites = SiteRange::new(0, 25);
            let graph = ZipfRandom::new(
                PageRange::first(fp),
                count(320_000),
                0.9,
                Cycles::new(2_000),
                sites,
                rng.fork(1),
            );
            let queue = BurstyScan::new(
                PageRange::first(fp),
                count(70_000),
                6.0,
                Cycles::new(2_000),
                SiteRange::new(25, 6),
                rng.fork(2),
            )
            .with_stride(2);
            Box::new(Mix::new(
                vec![(Box::new(graph) as AccessIter, 0.8), (Box::new(queue), 0.2)],
                rng.fork(3),
            ))
        }

        Benchmark::Xz => {
            let input_buf = PageRange::first(boundary(fp, 100, 700));
            let hot_end = boundary(fp, 124, 700).max(input_buf.end + 1).min(fp - 1);
            let dict_hot = PageRange::new(input_buf.end, hot_end);
            let dict_cold = PageRange::new(dict_hot.end, fp);
            let scan = SequentialScan::new(input_buf, 3, Cycles::new(1_800), SiteRange::new(0, 4));
            let probes = HotColdSites::new(
                dict_hot,
                dict_cold,
                count(260_000),
                0.30,
                0.90,
                Cycles::new(2_200),
                SiteRange::new(4, 46),
                rng.fork(1),
            )
            .with_hot_repeats(4);
            Box::new(Mix::new(
                vec![
                    (Box::new(scan) as AccessIter, 0.35),
                    (Box::new(probes), 0.65),
                ],
                rng.fork(2),
            ))
        }

        Benchmark::CactuBssn => small_ws(fp, 200, 1_500, 5),
        Benchmark::Imagick => small_ws(fp, 300, 1_200, 4),
        Benchmark::Leela => Box::new(UniformRandom::new(
            PageRange::first(fp),
            count(450_000),
            Cycles::new(2_000),
            SiteRange::new(0, 6),
            rng.fork(1),
        )),
        Benchmark::Nab => small_ws(fp, 250, 1_600, 4),
        Benchmark::Exchange2 => small_ws(fp, 400, 2_500, 3),

        Benchmark::Mcf2006 => {
            // Same program family as mcf, but its hot structures re-execute
            // far less per touch, so instrumentation pays off (Fig. 10).
            let hot = PageRange::first(boundary(fp, 31, 680));
            let cold = PageRange::new(boundary(fp, 39, 680).max(hot.end), fp);
            Box::new(
                HotColdSites::new(
                    hot,
                    cold,
                    count(350_000),
                    0.10,
                    0.45,
                    Cycles::new(2_200),
                    SiteRange::new(0, 114),
                    rng.fork(1),
                )
                .with_hot_repeats(44),
            )
        }

        Benchmark::Sift => {
            // Convolution pyramid: sequential sweeps over the image at
            // several octaves, plus a resident keypoint table.
            let sites = SiteRange::new(0, 6);
            let full = SequentialScan::new(PageRange::first(fp), 2, Cycles::new(1_500), sites);
            let octave =
                SequentialScan::new(PageRange::first(fp / 2), 2, Cycles::new(1_500), sites);
            let keys = UniformRandom::new(
                PageRange::first(boundary(fp, 9, 300)),
                count(140_000),
                Cycles::new(1_200),
                SiteRange::new(6, 4),
                rng.fork(1),
            );
            Box::new(PhaseChain::new(vec![
                Box::new(full),
                Box::new(octave),
                Box::new(keys),
            ]))
        }

        Benchmark::Mser => Box::new(mser_phase(fp, rng, count)),

        Benchmark::MixedBlood => {
            // §5.4: sequentially scan an image, then run MSER on it.
            let scan = SequentialScan::new(
                PageRange::first(fp),
                3,
                Cycles::new(STREAM_COMPUTE),
                SiteRange::new(57, 2),
            );
            let mser = mser_phase(fp, rng, count);
            Box::new(PhaseChain::new(vec![Box::new(scan), Box::new(mser)]))
        }

        Benchmark::KvStore => {
            // Skewed KV store: Zipf-popular keys on a resident hot prefix
            // (read in tight server loops), the long tail scattered over
            // the cold remainder, plus a sequentially-swept append log.
            let store = PageRange::first(boundary(fp, 15, 16));
            let log = PageRange::new(store.end, fp);
            let hot = boundary(store.end, 16, 512);
            let lookups = ZipfKv::new(
                store,
                count(420_000),
                hot,
                1.1,
                Cycles::new(2_000),
                SiteRange::new(0, 36),
                rng.fork(1),
            )
            .with_hot_repeats(12);
            let append = SequentialScan::new(log, 2, Cycles::new(1_400), SiteRange::new(36, 4));
            Box::new(Mix::new(
                vec![
                    (Box::new(lookups) as AccessIter, 0.9),
                    (Box::new(append), 0.1),
                ],
                rng.fork(2),
            ))
        }

        Benchmark::PhaseShift => {
            // Stream → random → stream at fixed boundaries: the preloader
            // must unlearn and re-learn its model mid-run.
            Box::new(PhasedStream::new(
                PageRange::first(fp),
                vec![count(150_000), count(120_000), count(150_000)],
                Cycles::new(1_600),
                SiteRange::new(0, 8),
                rng.fork(1),
            ))
        }

        Benchmark::GraphFrontier => Box::new(FrontierSweep::new(
            PageRange::first(fp),
            count(380_000),
            2,
            6,
            Cycles::new(2_400),
            SiteRange::new(0, 24),
            rng.fork(1),
        )),

        Benchmark::MlInference => {
            // Batched inference: one stride-regular sweep over the weight
            // region per batch, over a small hot activation scratchpad.
            let act = PageRange::first(boundary(fp, 1, 32));
            let weights = PageRange::new(act.end, fp);
            let per_batch = weights.len().div_ceil(2);
            let batches = (count(500_000) / per_batch).max(1);
            let scan = BatchScan::new(
                weights,
                batches,
                2,
                Cycles::new(1_500),
                SiteRange::new(0, 4),
            );
            let scratch = UniformRandom::new(
                act,
                count(80_000),
                Cycles::new(1_200),
                SiteRange::new(4, 2),
                rng.fork(1),
            );
            Box::new(Mix::new(
                vec![
                    (Box::new(scan) as AccessIter, 0.85),
                    (Box::new(scratch), 0.15),
                ],
                rng.fork(2),
            ))
        }
    }
}

/// MSER's union-find shape: irregular probes over the component forest with
/// a moderate resident hot set, plus a sequential pixel scan.
fn mser_phase(fp: u64, rng: DetRng, count: &dyn Fn(u64) -> u64) -> Mix {
    let hot = PageRange::first((fp / 25).max(16).min(fp / 2).max(1));
    let cold_start = (fp / 16).max(hot.end).min(fp - 1);
    let cold = PageRange::new(cold_start, fp);
    let forest = HotColdSites::new(
        hot,
        cold,
        count(300_000),
        0.10,
        0.55,
        Cycles::new(2_200),
        SiteRange::new(0, 54),
        rng.fork(11),
    )
    .with_hot_repeats(22);
    let scan = SequentialScan::new(
        PageRange::new(cold_start, fp),
        1,
        Cycles::new(1_500),
        SiteRange::new(54, 3),
    );
    Mix::new(
        vec![(Box::new(forest) as AccessIter, 0.8), (Box::new(scan), 0.2)],
        rng.fork(12),
    )
}

fn small_ws(fp: u64, passes: u64, compute: u64, sites: u32) -> AccessIter {
    Box::new(SequentialScan::new(
        PageRange::first(fp),
        passes,
        Cycles::new(compute),
        SiteRange::new(0, sites),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_roundtrip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(Benchmark::from_name("nonexistent"), None);
    }

    #[test]
    fn table1_classification_matches_paper() {
        use Category::*;
        for (b, want) in [
            (Benchmark::CactuBssn, SmallWorkingSet),
            (Benchmark::Imagick, SmallWorkingSet),
            (Benchmark::Leela, SmallWorkingSet),
            (Benchmark::Nab, SmallWorkingSet),
            (Benchmark::Exchange2, SmallWorkingSet),
            (Benchmark::Roms, LargeIrregular),
            (Benchmark::Mcf, LargeIrregular),
            (Benchmark::Deepsjeng, LargeIrregular),
            (Benchmark::Omnetpp, LargeIrregular),
            (Benchmark::Xz, LargeIrregular),
            (Benchmark::Bwaves, LargeRegular),
            (Benchmark::Lbm, LargeRegular),
            (Benchmark::Wrf, LargeRegular),
        ] {
            assert_eq!(b.category(), want, "{b}");
        }
    }

    #[test]
    fn paper_and_diverse_partition_all() {
        assert_eq!(
            Benchmark::PAPER.len() + Benchmark::DIVERSE.len(),
            Benchmark::ALL.len()
        );
        assert_eq!(&Benchmark::ALL[..18], &Benchmark::PAPER[..]);
        assert_eq!(&Benchmark::ALL[18..], &Benchmark::DIVERSE[..]);
        for b in Benchmark::DIVERSE {
            assert_eq!(b.category(), Category::Diverse, "{b}");
            assert!(b.sip_supported(), "{b} models a C/C++ program");
            assert!(
                b.footprint_pages() > sgx_epc::usable_epc_pages(),
                "{b} must be paging-bound"
            );
        }
        for b in Benchmark::PAPER {
            assert_ne!(b.category(), Category::Diverse, "{b}");
        }
    }

    #[test]
    fn sip_support_matches_paper_exclusions() {
        // Fortran + omnetpp are excluded (§5.2).
        for b in [
            Benchmark::Bwaves,
            Benchmark::Roms,
            Benchmark::Wrf,
            Benchmark::Omnetpp,
        ] {
            assert!(!b.sip_supported(), "{b} should be excluded");
        }
        for b in [
            Benchmark::Mcf,
            Benchmark::Deepsjeng,
            Benchmark::Xz,
            Benchmark::Lbm,
            Benchmark::Mser,
            Benchmark::Sift,
            Benchmark::Microbenchmark,
            Benchmark::Mcf2006,
        ] {
            assert!(b.sip_supported(), "{b} should be supported");
        }
    }

    #[test]
    fn small_working_sets_fit_in_epc() {
        for b in Benchmark::ALL {
            let fits = b.footprint_pages() < sgx_epc::usable_epc_pages();
            assert_eq!(
                fits,
                b.category() == Category::SmallWorkingSet,
                "{b}: footprint {} vs EPC {}",
                b.footprint_pages(),
                sgx_epc::usable_epc_pages()
            );
        }
    }

    #[test]
    fn streams_stay_inside_elrange() {
        for b in Benchmark::ALL {
            let range = b.elrange_pages(Scale::DEV);
            let mut n = 0u64;
            for a in b.build(InputSet::Ref, Scale::DEV, 7) {
                assert!(
                    a.page.raw() < range,
                    "{b}: page {} outside ELRANGE {range}",
                    a.page.raw()
                );
                assert!(a.repeats >= 1);
                n += 1;
            }
            assert!(n > 100, "{b} produced only {n} accesses");
        }
    }

    #[test]
    fn builds_are_deterministic_and_input_sensitive() {
        let collect = |input, seed| -> Vec<u64> {
            Benchmark::Deepsjeng
                .build(input, Scale::DEV, seed)
                .take(500)
                .map(|a| a.page.raw())
                .collect()
        };
        assert_eq!(collect(InputSet::Ref, 1), collect(InputSet::Ref, 1));
        assert_ne!(collect(InputSet::Ref, 1), collect(InputSet::Ref, 2));
        assert_ne!(collect(InputSet::Ref, 1), collect(InputSet::Train, 1));
    }

    #[test]
    fn train_runs_are_shorter() {
        for b in [Benchmark::Deepsjeng, Benchmark::Mser, Benchmark::Roms] {
            let train = b.build(InputSet::Train, Scale::DEV, 3).count();
            let reference = b.build(InputSet::Ref, Scale::DEV, 3).count();
            assert!(train < reference, "{b}: train {train} !< ref {reference}");
        }
    }

    #[test]
    fn site_ids_stay_below_declared_count() {
        for b in Benchmark::ALL {
            let declared = b.site_count();
            let seen: HashSet<u32> = b
                .build(InputSet::Ref, Scale::DEV, 5)
                .map(|a| a.site.0)
                .collect();
            let max = seen.iter().max().copied().unwrap_or(0);
            assert!(
                max < declared,
                "{b}: site {max} >= declared count {declared}"
            );
        }
    }

    #[test]
    fn regular_benchmarks_are_mostly_sequential() {
        for b in [Benchmark::Microbenchmark, Benchmark::Sift] {
            let pages: Vec<u64> = b
                .build(InputSet::Ref, Scale::DEV, 1)
                .take(20_000)
                .map(|a| a.page.raw())
                .collect();
            let seq = pages.windows(2).filter(|w| w[1] == w[0] + 1).count();
            assert!(
                seq * 10 > pages.len() * 7,
                "{b}: only {seq}/{} sequential steps",
                pages.len()
            );
        }
    }

    #[test]
    fn irregular_benchmarks_are_mostly_non_sequential() {
        for b in [Benchmark::Deepsjeng, Benchmark::Mcf, Benchmark::Omnetpp] {
            let pages: Vec<u64> = b
                .build(InputSet::Ref, Scale::DEV, 1)
                .take(20_000)
                .map(|a| a.page.raw())
                .collect();
            let seq = pages.windows(2).filter(|w| w[1] == w[0] + 1).count();
            assert!(
                seq * 10 < pages.len() * 3,
                "{b}: {seq}/{} sequential steps is too regular",
                pages.len()
            );
        }
    }

    #[test]
    fn scale_helpers() {
        assert_eq!(Scale::FULL.pages(1000), 1000);
        assert_eq!(Scale::DEV.pages(1600), 100);
        assert_eq!(Scale::DEV.pages(17), 16, "floor at 16 pages");
        assert_eq!(Scale::new(4).count(400), 100);
        assert_eq!(Scale::FULL.epc_pages(), 24_576);
        assert_eq!(Scale::DEV.epc_pages(), 1_536);
    }

    #[test]
    #[should_panic(expected = "divisor must be positive")]
    fn zero_scale_rejected() {
        let _ = Scale::new(0);
    }

    #[test]
    fn extreme_scale_divisors_never_panic() {
        // Sub-region layouts must survive footprints collapsed to the
        // 16-page floor (regression: empty/inverted PageRange at coarse
        // scales).
        for divisor in [4_096, 16_384, 1 << 20] {
            let scale = Scale::new(divisor);
            for b in Benchmark::ALL {
                let range = b.elrange_pages(scale);
                let n = b
                    .build(InputSet::Ref, scale, 1)
                    .inspect(|a| assert!(a.page.raw() < range, "{b} out of range"))
                    .count();
                assert!(n >= 16, "{b} at 1/{divisor} produced {n} accesses");
            }
        }
    }
}
