//! Command-line option parsing for the `iolb` front-end (batch analysis
//! plus the `fuzz` subcommand). Every analysis flag `--KEY [VALUE]` goes
//! straight through the service switchboard ([`AnalysisOptions::set_flag`]),
//! so the CLI, the `iolbd` defaults and the typed request body share one
//! vocabulary and one set of diagnostics. Only the output paths, the file
//! list and the usage text are the CLI's own.

use iolb_service::AnalysisOptions;
use std::path::PathBuf;

/// CLI usage text.
pub const USAGE: &str = "\
iolb — I/O lower bounds for affine kernels (hourglass-tightened)

USAGE:
    iolb [OPTIONS] <FILE.iolb>...
    iolb fuzz --seed <N> --cases <N> [--max-dims <D>] [--json PATH] [--corpus DIR]
                                 generate random kernels and run the differential
                                 soundness oracle on each (seed is required: runs are
                                 reproducible from it alone, never from wall-clock)
    iolb fuzz --inject <SPEC>    fault-injection smoke: SPEC is `panic`, `oom`,
                                 `deadline` (one class across every governed seam),
                                 `all` (the full matrix), or `CLASS@SEAM` for one
                                 cell; exits 0 iff every fault surfaced as its
                                 typed error class and left clean state behind

OPTIONS:
    --params M=64,N=32    override the file's `default` parameter values
    --stmt NAME           override the file's `analyze` statement
    --s-grid 0,4,16,...   offsets added to the minimum feasible S, or a preset:
                          `dense` (~32 log-spaced points, the default — one
                          stack-distance pass prices the whole grid) or
                          `coarse` (the legacy 0,4,16,64,256)
    --json PATH           write the validation matrix as JSON
    --tightness-json PATH write the tightness report (lower vs measured upper bounds) as JSON
    --no-tightness        skip the upper-bound schedule measurement
    --derive-only         skip the pebble-game validation (bounds only)
    --engines SPEC        graph-level bound engines for the sweep report:
                          `all` (default), `none`, or a comma list drawn
                          from input-floor, visit, spectral
    --curve-strategy MODE curve engine of the validation sweep:
                          `streaming` (default — traces up to 2^22
                          accesses are materialized and priced once on the
                          single-pass engine, longer ones stream through
                          the sharded engine) or `materialized` (every
                          trace on the single-pass engine)
    -h, --help            this text

RESOURCE GOVERNANCE (admission control refuses or down-scopes a kernel
before materializing anything; all ceilings default to unlimited):
    --max-instances N     ceiling on dynamic statement instances
    --max-cdag-nodes N    ceiling on CDAG vertices
    --max-cdag-edges N    ceiling on CDAG edges
    --max-trace N         ceiling on the packed trace length (accesses)
    --max-arena-bytes N   ceiling on peak transient arena bytes
    --max-work N          ceiling on curve work (trace × S-grid points);
                          over-work kernels degrade: dense grid → coarse
                          grid (tightness skipped) → symbolic bounds only,
                          recorded per kernel in the report `degradation`
    --deadline-ms N       wall-clock deadline, polled at every governed seam
    --no-degrade          refuse (exit 4) instead of degrading
    --inject CLASS@SEAM   testing: arm a one-shot fault on the first file

EXIT CODES:
    0 sound   1 unsound cell   2 parse/usage   3 refused
    4 budget exceeded   5 deadline   6 cancelled   7 internal
";

/// Parsed command-line options.
#[derive(Debug)]
pub struct Options {
    /// `.iolb` files to process.
    pub files: Vec<PathBuf>,
    /// `--json` output path.
    pub json: Option<PathBuf>,
    /// `--tightness-json` output path.
    pub tightness_json: Option<PathBuf>,
    /// Every analysis flag, parsed by the service switchboard. Its
    /// `inject` fault is armed on the batch's first file only (see
    /// [`crate::run_with_code`]).
    pub analysis: AnalysisOptions,
}

/// Parses command-line arguments (everything after the binary name).
///
/// # Errors
/// Returns usage/diagnostic text to print.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        files: Vec::new(),
        json: None,
        tightness_json: None,
        analysis: AnalysisOptions::default(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                o.json = Some(PathBuf::from(it.next().ok_or("--json needs a path")?));
            }
            "--tightness-json" => {
                o.tightness_json = Some(PathBuf::from(
                    it.next().ok_or("--tightness-json needs a path")?,
                ));
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            flag if flag.starts_with("--") => o
                .analysis
                .set_flag(&flag[2..], &mut it)
                .map_err(|e| format!("{e}\n\n{USAGE}"))?,
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`\n\n{USAGE}"))
            }
            file => o.files.push(PathBuf::from(file)),
        }
    }
    if o.files.is_empty() {
        return Err(USAGE.to_string());
    }
    if o.analysis.derive_only && o.json.is_some() {
        return Err(
            "--derive-only skips validation, so --json would write an empty report; \
             drop one of the two flags"
                .to_string(),
        );
    }
    if o.analysis.derive_only && o.tightness_json.is_some() {
        return Err(
            "--derive-only skips validation, so --tightness-json would write an empty report; \
             drop one of the two flags"
                .to_string(),
        );
    }
    if o.analysis.no_tightness && o.tightness_json.is_some() {
        return Err("--no-tightness contradicts --tightness-json".to_string());
    }
    Ok(o)
}

/// Options of the `iolb fuzz` subcommand.
#[derive(Debug)]
pub struct FuzzOptions {
    /// Required run seed (reproducibility flows from it alone).
    pub seed: u64,
    /// Number of generated cases.
    pub cases: u64,
    /// Maximum loop-nest depth.
    pub max_dims: u32,
    /// Optional JSON report path.
    pub json: Option<PathBuf>,
    /// Optional directory for minimized reproducers.
    pub corpus: Option<PathBuf>,
    /// `--inject` spec: run the fault-injection matrix instead of the
    /// random-kernel oracle.
    pub inject: Option<String>,
}

/// Parses `iolb fuzz` arguments. `--seed` is mandatory for the random
/// oracle (there is no ambient-entropy fallback, so every run is
/// replayable by construction); `--inject` mode is deterministic by
/// itself and needs no seed.
///
/// # Errors
/// Returns usage/diagnostic text to print.
pub fn parse_fuzz_args(args: &[String]) -> Result<FuzzOptions, String> {
    let mut seed: Option<u64> = None;
    let mut cases: u64 = 200;
    let mut max_dims: u32 = 4;
    let mut json: Option<PathBuf> = None;
    let mut corpus: Option<PathBuf> = None;
    let mut inject: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = Some(
                    it.next()
                        .ok_or("--seed needs a value")?
                        .parse()
                        .map_err(|_| "bad --seed value (want u64)".to_string())?,
                );
            }
            "--cases" => {
                cases = it
                    .next()
                    .ok_or("--cases needs a value")?
                    .parse()
                    .map_err(|_| "bad --cases value".to_string())?;
            }
            "--max-dims" => {
                max_dims = it
                    .next()
                    .ok_or("--max-dims needs a value")?
                    .parse()
                    .map_err(|_| "bad --max-dims value".to_string())?;
                // The generator's clamp: deeper nests enumerate too many
                // instances for one fuzz case (`GenConfig::max_dims`).
                if !(1..=8).contains(&max_dims) {
                    return Err("--max-dims must be in 1..=8".to_string());
                }
            }
            "--json" => json = Some(PathBuf::from(it.next().ok_or("--json needs a path")?)),
            "--corpus" => corpus = Some(PathBuf::from(it.next().ok_or("--corpus needs a dir")?)),
            "--inject" => {
                inject = Some(it.next().ok_or("--inject needs a fault spec")?.clone());
            }
            other => return Err(format!("unknown fuzz option `{other}`\n\n{USAGE}")),
        }
    }
    if inject.is_none() && seed.is_none() {
        return Err(
            "fuzz needs --seed <N>: runs are reproducible from the seed alone \
             (there is deliberately no wall-clock default)"
                .to_string(),
        );
    }
    Ok(FuzzOptions {
        seed: seed.unwrap_or(0),
        cases,
        max_dims,
        json,
        corpus,
        inject,
    })
}
