//! The three workloads and their deterministic request streams.
//!
//! Everything a run sends is a pure function of the workload and the
//! run's `--seed`: request `i` of a stream always carries the same
//! dataset, so a run can be replayed body for body. Each stream uses one
//! generator at one instance size, so percentiles never straddle size
//! classes.

use mc3_workload::{generate_dataset, Dataset, DatasetFile, GeneratorKind};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process `Mc3Solver` (default configuration, `general`) on
    /// distinct synthetic 4000-query instances: the offline planner's job
    /// and the paper's Fig. 3 runtime axis.
    SolveSynthetic,
    /// `mc3 serve` with its defaults, fresh private-like 2000-query bodies:
    /// large components the component cache pays for and never reuses.
    ServePrivate,
    /// `mc3 serve` with its defaults, fresh duplicate-heavy 2000-query
    /// bodies plus one exact re-send in four: the cache hit paths.
    ServeShapes,
}

/// Every workload, in the order the benchmark documents them.
pub const ALL: [Workload; 3] = [
    Workload::SolveSynthetic,
    Workload::ServePrivate,
    Workload::ServeShapes,
];

/// Instances in the fixed verification set of every workload.
const VERIFICATION_SET: u64 = 4;

/// In `serve-shapes`, every `SHAPES_REPEAT_EVERY`-th request re-sends an
/// earlier body of the run (a client retry).
pub const SHAPES_REPEAT_EVERY: usize = 4;

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Result<Workload, String> {
        ALL.into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload '{name}'"))
    }

    /// The name `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveSynthetic => "solve-synthetic",
            Workload::ServePrivate => "serve-private",
            Workload::ServeShapes => "serve-shapes",
        }
    }

    /// Whether the workload drives a live `mc3 serve`.
    pub fn served(self) -> bool {
        self != Workload::SolveSynthetic
    }

    /// The generator every instance of the workload comes from.
    pub fn kind(self) -> GeneratorKind {
        match self {
            Workload::SolveSynthetic => GeneratorKind::Synthetic,
            Workload::ServePrivate => GeneratorKind::Private,
            Workload::ServeShapes => GeneratorKind::DuplicateHeavy,
        }
    }

    /// Queries per instance.
    pub fn queries(self) -> usize {
        match self {
            Workload::SolveSynthetic => 4000,
            Workload::ServePrivate | Workload::ServeShapes => 2000,
        }
    }

    /// The latency limit `slo_attainment` counts against, in
    /// milliseconds: about three times the median measured when the
    /// benchmark was defined, so the share tracks tail growth, not
    /// run-to-run drift.
    pub fn latency_limit_ms(self) -> f64 {
        match self {
            Workload::SolveSynthetic => 600.0,
            Workload::ServePrivate => 1500.0,
            Workload::ServeShapes => 400.0,
        }
    }

    /// Total cost of the verification set, as recorded when the benchmark
    /// was defined. Any solver change that moves it is a quality change
    /// and must re-record it deliberately.
    pub fn expected_solution_cost(self) -> u64 {
        match self {
            Workload::SolveSynthetic => 26_976,
            Workload::ServePrivate => 118_941,
            Workload::ServeShapes => 16_000,
        }
    }

    /// The generator seed of each verification-set instance. Fixed, so
    /// `solution_cost` reads the same on every run whatever `--seed` is.
    pub fn verification_set(self) -> Vec<Dataset> {
        (1..=VERIFICATION_SET)
            .map(|seed| generate_dataset(self.kind(), self.queries(), seed))
            .collect()
    }
}

/// What request `i` of a stream sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Position in the stream.
    pub index: usize,
    /// Generator seed of the dataset it carries.
    pub seed: u64,
    /// For a re-send, the index of the earlier request whose body it
    /// repeats.
    pub repeat_of: Option<usize>,
}

/// The deterministic request stream of one workload and run seed.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    workload: Workload,
    run_seed: u64,
}

/// SplitMix64 finalizer: a bijection on `u64`, so distinct inputs give
/// distinct outputs.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Stream {
    /// The stream `--workload` and `--seed` select.
    pub fn new(workload: Workload, run_seed: u64) -> Stream {
        Stream { workload, run_seed }
    }

    /// The workload this stream belongs to.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Request `index` of the stream.
    pub fn request(&self, index: usize) -> Request {
        let repeat_of = (self.workload == Workload::ServeShapes
            && index % SHAPES_REPEAT_EVERY == SHAPES_REPEAT_EVERY - 1)
            .then(|| self.repeat_target(index));
        let source = repeat_of.unwrap_or(index);
        // Fresh requests draw generator seeds far above the verification
        // set's 1..=VERIFICATION_SET, so no timed request ever replays a
        // warm-up body; the mix keeps seeds distinct within the run.
        let seed = mix64(self.run_seed.rotate_left(32) ^ source as u64) | (1 << 63);
        Request {
            index,
            seed,
            repeat_of,
        }
    }

    /// Picks the earlier fresh request a re-send repeats, uniformly among
    /// the fresh requests before `index`.
    fn repeat_target(&self, index: usize) -> usize {
        let fresh_before = index - index / SHAPES_REPEAT_EVERY;
        let pick = (mix64(self.run_seed ^ mix64(index as u64)) % fresh_before as u64) as usize;
        // The `pick`-th fresh request sits at this position: every group
        // of SHAPES_REPEAT_EVERY positions holds SHAPES_REPEAT_EVERY - 1
        // fresh ones.
        pick + pick / (SHAPES_REPEAT_EVERY - 1)
    }

    /// The dataset request `index` carries.
    pub fn dataset(&self, index: usize) -> Dataset {
        let req = self.request(index);
        generate_dataset(self.workload.kind(), self.workload.queries(), req.seed)
    }
}

/// The wire body for one dataset: the `mc3` dataset document, compact.
pub fn body(ds: &Dataset) -> Vec<u8> {
    DatasetFile::from_dataset(ds)
        .to_json()
        .to_string()
        .into_bytes()
}

/// The `POST /solve` target every served request uses.
pub const SOLVE_TARGET: &str = "/solve?algorithm=general";
