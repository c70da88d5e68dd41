//! Regenerates the paper's tables and figures plus the ablations: every
//! entry of `sgx_bench::figures::FIGURES`, or those named as arguments
//! (`cargo bench -p sgx-bench --bench figures -- fig8_dfp`). Each figure
//! prints a verdict line per paper claim it carries; a failing claim is
//! reported, not an error. An unknown figure id exits 1 and lists the
//! valid ones. See the crate docs for `SGX_BENCH_SCALE` and
//! `SGX_BENCH_OUT`.

use std::process::ExitCode;

use sgx_bench::figures;

fn main() -> ExitCode {
    // `cargo bench` passes `--bench` to every harness-less target.
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    match figures::select(&ids) {
        Ok(selected) => {
            let dir = sgx_bench::out_dir();
            let outputs = figures::run(&selected, sgx_bench::scale_from_env());
            for output in &outputs {
                output.write(&dir);
            }
            let verdicts: Vec<_> = outputs.iter().flat_map(|o| &o.verdicts).collect();
            let held = verdicts.iter().filter(|v| v.holds).count();
            println!("\nclaims: {held} of {} hold", verdicts.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
