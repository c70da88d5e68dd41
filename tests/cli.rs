//! End-to-end tests of the `sgx-preload` command-line tool.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sgx-preload"))
}

/// A directory under the system temp dir for one test, suffixed with this
/// process's id so that overlapping test runs never share it.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("{name}_{}", std::process::id()))
}

fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("spawn sgx-preload");
    assert!(
        out.status.success(),
        "sgx-preload {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// Runs a command that must fail with a structured error: exit code 1,
/// never a panic's 101.
fn run_err(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("spawn sgx-preload");
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert_eq!(
        out.status.code(),
        Some(1),
        "sgx-preload {args:?} should exit 1: {stderr}"
    );
    stderr
}

/// The number that follows `"key":` in a flat JSON document.
fn json_number(json: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {pat} in:\n{json}"))
        + pat.len();
    let end = json[at..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .map_or(json.len(), |n| at + n);
    json[at..end]
        .parse()
        .unwrap_or_else(|e| panic!("{pat} is not a number ({e})"))
}

#[test]
fn list_names_all_benchmarks_and_schemes() {
    let out = run_ok(&["list"]);
    for name in ["microbenchmark", "lbm", "mcf.2006", "mixed-blood", "SIFT"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
    assert!(out.contains("dfp-stop"));
    assert!(out.contains("(no SIP)"), "Fortran exclusions flagged");
}

#[test]
fn run_reports_improvement() {
    let dir = scratch_dir("sgx_preload_cli_run_test");
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("lbm.jsonl");
    let out = run_ok(&[
        "run",
        "--bench",
        "lbm",
        "--scheme",
        "dfp",
        "--scale",
        "dev",
        "--jsonl",
        jsonl.to_str().unwrap(),
        "--hist",
    ]);
    assert!(out.contains("lbm [DFP]"));
    assert!(out.contains("improvement over baseline: +"));
    assert!(out.contains("streamed paging events"), "{out}");
    for hist in [
        "fault service cycles:",
        "preload lead cycles:",
        "predicted stream length:",
        "eviction scan length:",
    ] {
        assert!(out.contains(hist), "missing {hist} in:\n{out}");
    }
    let events = std::fs::read_to_string(&jsonl).expect("JSONL written");
    assert!(events.lines().count() > 1000 && events.lines().all(|l| l.starts_with('{')));
    let err = run_err(&["run", "--bench", "lbm", "--scheme", "user-level", "--hist"]);
    assert!(err.contains("needs a kernel scheme"), "{err}");
    // A path that cannot be created, or a stream that cannot be written,
    // fails naming the flag and the path.
    let bad = dir.join("no_such_dir").join("e.jsonl");
    for path in [bad.to_str().unwrap(), "/dev/full"] {
        let err = run_err(&[
            "run", "--bench", "lbm", "--scheme", "dfp", "--scale", "dev", "--jsonl", path,
        ]);
        assert!(err.contains(&format!("--jsonl {path}: ")), "{err}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn run_respects_parameter_overrides() {
    // LOADLENGTH 1 must differ from LOADLENGTH 4 on lbm.
    let a = run_ok(&[
        "run",
        "--bench",
        "lbm",
        "--scheme",
        "dfp",
        "--scale",
        "dev",
        "--load-length",
        "1",
    ]);
    let b = run_ok(&[
        "run",
        "--bench",
        "lbm",
        "--scheme",
        "dfp",
        "--scale",
        "dev",
        "--load-length",
        "4",
    ]);
    assert_ne!(a, b);
}

#[test]
fn profile_shows_plan_and_sites() {
    let out = run_ok(&["profile", "--bench", "deepsjeng", "--scale", "dev"]);
    assert!(out.contains("instrumentation plan"));
    assert!(out.contains("top sites by irregular ratio"));
}

#[test]
fn trace_then_replay_roundtrip() {
    let dir = scratch_dir("sgx_preload_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lbm.csv");
    let out = run_ok(&[
        "trace",
        "record",
        "--bench",
        "lbm",
        "--scale",
        "dev",
        "-n",
        "800",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.contains("recorded 800 accesses"));
    let out = run_ok(&[
        "trace",
        "replay",
        "--trace",
        path.to_str().unwrap(),
        "--scheme",
        "dfp",
        "--scale",
        "dev",
    ]);
    assert!(out.contains("[DFP]"), "{out}");
    // `trace` without a subcommand names the three it has.
    let err = run_err(&["trace", "--bench", "lbm", "--out", path.to_str().unwrap()]);
    assert!(err.contains("record | convert | replay"), "{err}");
    assert!(run_err(&["trace"]).contains("record | convert | replay"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn trace_record_convert_replay_roundtrip() {
    let dir = scratch_dir("sgx_preload_cli_sgxt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let sgxt = dir.join("kv.sgxt");
    let csv = dir.join("kv.csv");
    let sgxt2 = dir.join("kv2.sgxt");

    // Record the full kvstore stream in the binary format.
    let out = run_ok(&[
        "trace",
        "record",
        "--bench",
        "kvstore",
        "--scale",
        "24",
        "--out",
        sgxt.to_str().unwrap(),
    ]);
    let accesses: u64 = out
        .split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no access count in {out:?}"));

    // Convert .sgxt -> CSV -> .sgxt; the binary files must be identical.
    run_ok(&[
        "trace",
        "convert",
        "--in",
        sgxt.to_str().unwrap(),
        "--out",
        csv.to_str().unwrap(),
    ]);
    run_ok(&[
        "trace",
        "convert",
        "--in",
        csv.to_str().unwrap(),
        "--out",
        sgxt2.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read(&sgxt).unwrap(),
        std::fs::read(&sgxt2).unwrap(),
        ".sgxt -> CSV -> .sgxt must be byte-identical"
    );
    // The binary format earns its keep against the text format.
    let bin_len = std::fs::metadata(&sgxt).unwrap().len();
    let csv_len = std::fs::metadata(&csv).unwrap().len();
    assert!(
        bin_len * 2 < csv_len,
        ".sgxt ({bin_len} B) should be well under half the CSV ({csv_len} B)"
    );
    assert!(
        bin_len < 8 * accesses,
        ".sgxt should stay under 8 B/access: {bin_len} B for {accesses} accesses"
    );

    // Replay with the source declared and --diff: the replayed report
    // must match the generator run exactly.
    let out = run_ok(&[
        "trace",
        "replay",
        "--trace",
        sgxt.to_str().unwrap(),
        "--scale",
        "24",
        "--scheme",
        "dfp",
        "--source-bench",
        "kvstore",
        "--diff",
    ]);
    assert!(
        out.contains("replay matches the kvstore/DFP generator run exactly"),
        "{out}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn trace_replay_rejects_corrupt_inputs_with_structured_errors() {
    let dir = scratch_dir("sgx_preload_cli_corrupt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, bytes: &[u8]| {
        let p = dir.join(name);
        std::fs::write(&p, bytes).unwrap();
        p
    };

    // A valid .sgxt to corrupt: record a tiny benchmark first.
    let good = dir.join("good.sgxt");
    run_ok(&[
        "trace",
        "record",
        "--bench",
        "microbenchmark",
        "--scale",
        "24",
        "-n",
        "500",
        "--out",
        good.to_str().unwrap(),
    ]);
    let good_bytes = std::fs::read(&good).unwrap();

    let replay =
        |p: &std::path::Path| run_err(&["trace", "replay", "--trace", p.to_str().unwrap()]);

    // Truncated header.
    let p = write("trunc.sgxt", &good_bytes[..6]);
    assert!(
        replay(&p).contains("truncated .sgxt trace"),
        "truncated header"
    );
    // Truncated mid-stream.
    let p = write("cut.sgxt", &good_bytes[..good_bytes.len() - 3]);
    assert!(
        replay(&p).contains("truncated .sgxt trace"),
        "truncated body"
    );
    // Wrong version.
    let mut v = good_bytes.clone();
    v[4] = 9;
    let p = write("badver.sgxt", &v);
    assert!(
        replay(&p).contains("unsupported .sgxt version 9"),
        "bad version"
    );
    // A varint that never terminates (0xff forever) overruns.
    let mut o = good_bytes[..10].to_vec();
    o.extend([0xff; 12]);
    let p = write("overrun.sgxt", &o);
    assert!(replay(&p).contains("varint"), "varint overrun");
    // Trailing garbage after the last section.
    let mut t = good_bytes.clone();
    t.extend(b"junk");
    let p = write("trailing.sgxt", &t);
    assert!(replay(&p).contains("trailing garbage"), "trailing garbage");
    // A bad magic demotes the file to the CSV parser, which rejects it.
    let p = write("badmagic.sgxt", b"SGXU not a trace at all");
    assert!(replay(&p).contains("line 1"), "bad magic falls back to CSV");
    // Missing file.
    let err = run_err(&[
        "trace",
        "replay",
        "--trace",
        dir.join("absent.sgxt").to_str().unwrap(),
    ]);
    assert!(err.contains("cannot read"), "missing file: {err}");
    // Empty trace.
    let p = write("empty.csv", b"page,compute,site,repeats\n");
    assert!(replay(&p).contains("is empty"), "empty trace");
    // --diff without --source-bench cannot reproduce the generator.
    let err = run_err(&[
        "trace",
        "replay",
        "--trace",
        good.to_str().unwrap(),
        "--diff",
    ]);
    assert!(err.contains("--source-bench"), "{err}");
    let _ = std::fs::remove_dir_all(dir);
}

/// A trace that declares its source benchmark must fit that benchmark's
/// ELRANGE: one page past mcf's 13,760 dev-scale pages is an error naming
/// the page, the benchmark and the range, not a panic in the kernel.
#[test]
fn trace_replay_rejects_a_page_outside_the_source_elrange() {
    let dir = scratch_dir("sgx_preload_cli_elrange_test");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("mcf.csv");
    run_ok(&[
        "trace",
        "record",
        "--bench",
        "mcf",
        "-n",
        "500",
        "--out",
        csv.to_str().unwrap(),
    ]);
    let mut text = std::fs::read_to_string(&csv).unwrap();
    text.push_str("20000,2200,0,1\n");
    std::fs::write(&csv, text).unwrap();
    let path = csv.to_str().unwrap();
    for scheme in ["baseline", "sip", "user-level"] {
        let err = run_err(&[
            "trace",
            "replay",
            "--trace",
            path,
            "--source-bench",
            "mcf",
            "--scheme",
            scheme,
        ]);
        assert!(
            err.contains("trace page 20000 lies outside mcf's 13760-page ELRANGE"),
            "{scheme}: {err}"
        );
    }
    // Anonymous, the same trace sizes its ELRANGE to fit.
    run_ok(&["trace", "replay", "--trace", path]);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn timeline_streams_kernel_events() {
    let dir = scratch_dir("sgx_preload_cli_timeline_test");
    std::fs::create_dir_all(&dir).unwrap();
    let summary = dir.join("timeline.json");
    let chrome = dir.join("timeline.chrome.json");
    let out = run_ok(&[
        "timeline",
        "--bench",
        "microbenchmark",
        "--scheme",
        "dfp",
        "--scale",
        "dev",
        "-n",
        "20",
        "--json-out",
        summary.to_str().unwrap(),
        "--chrome-out",
        chrome.to_str().unwrap(),
    ]);
    assert!(out.contains("fault"));
    assert!(out.contains("demand-loaded"));
    assert!(out.contains("preload-start"), "DFP should preload:\n{out}");

    // The summary reports a reconciled attribution and clean lineage.
    let json = std::fs::read_to_string(&summary).expect("timeline summary written");
    assert!(json.contains("\"reconciles\":true"), "{json}");
    assert!(json.contains("\"violations\":[]"), "{json}");
    assert_eq!(json_number(&json, "run_ends"), 1.0);
    let attribution = json
        .split("\"attribution\":{")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .expect("attribution object");
    let buckets: u64 = attribution
        .split(',')
        .map(|kv| kv.rsplit(':').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(buckets as f64, json_number(&json, "total_cycles"));
    let trace = std::fs::read_to_string(&chrome).expect("chrome trace written");
    assert!(trace.contains("\"traceEvents\":[\n{"), "empty chrome trace");
    assert!(trace.ends_with("\n]}\n"), "truncated chrome trace");
    let count = format!("{} events across", json_number(&json, "events"));
    assert!(out.contains(&count), "{out}");

    // A path that cannot be created, or an output that cannot be written,
    // fails naming the flag and the path.
    let timeline_err = |flags: &[&str]| {
        let dev = [
            "timeline",
            "--bench",
            "microbenchmark",
            "--scale",
            "dev",
            "-n",
            "0",
        ];
        run_err(&[&dev[..], flags].concat())
    };
    let bad = dir.join("no_such_dir").join("t.out");
    for flag in ["--chrome-out", "--series-out"] {
        for path in [bad.to_str().unwrap(), "/dev/full"] {
            let err = timeline_err(&[flag, path]);
            assert!(err.contains(&format!("{flag} {path}: ")), "{err}");
        }
    }
    // The sampling interval means nothing without a series to sample.
    let err = timeline_err(&["--series-every", "5000"]);
    assert!(err.contains("--series-every needs --series-out"), "{err}");
    let _ = std::fs::remove_dir_all(dir);
}

/// A cell file that cannot be written, or a directory that cannot be
/// created, fails `campaign` and `leakage` with exit 1 and names the path,
/// as `run --jsonl` does.
#[test]
fn campaign_and_leakage_fail_naming_an_unwritable_cell_file() {
    let dir = scratch_dir("sgx_preload_cli_cell_file_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let campaign = "campaign --benches lbm --schemes dfp --scale dev --jobs 1";
    for (flag, file) in [
        ("--trace-out", "000_lbm-DFP.jsonl"),
        ("--timeline-out", "000_lbm-DFP.chrome.json"),
        ("--timeline-out", "000_lbm-DFP.series.csv"),
    ] {
        let out = dir.join(file.replace('.', "_"));
        std::fs::create_dir_all(&out).unwrap();
        let full = out.join(file);
        std::os::unix::fs::symlink("/dev/full", &full).unwrap();
        let args: Vec<&str> = campaign.split(' ').collect();
        let err = run_err(&[&args[..], &[flag, out.to_str().unwrap()]].concat());
        assert!(
            err.contains(&format!("cannot write {}: ", full.display())),
            "{err}"
        );
    }
    // A directory under a regular file cannot be created.
    let plain = dir.join("plain");
    std::fs::write(&plain, "").unwrap();
    let under = plain.join("cells");
    let leakage = "leakage --pairs dfp-echo --schemes baseline --scale 64 --jobs 1";
    for cmd in [campaign, leakage] {
        for flag in ["--trace-out", "--timeline-out"] {
            let args: Vec<&str> = cmd.split(' ').collect();
            let err = run_err(&[&args[..], &[flag, under.to_str().unwrap()]].concat());
            assert!(
                err.contains(&format!("cannot write {}: ", under.display())),
                "{err}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn campaign_runs_the_diverse_families_and_honours_predictor() {
    let dir = scratch_dir("sgx_preload_cli_campaign_test");
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("diverse.json");
    let diverse = "kvstore,phase-shift,graph-frontier,ml-inference";
    run_ok(&[
        "campaign",
        "--scale",
        "32",
        "--benches",
        diverse,
        "--json-out",
        json_path.to_str().unwrap(),
    ]);
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert_eq!(
        json.matches("{\"index\":").count(),
        20,
        "4 families x 5 kernel schemes"
    );
    for family in diverse.split(',') {
        assert!(json.contains(&format!("\"label\":\"{family}/")), "{family}");
    }

    // The cell table (everything after the timed header line) must move
    // when the predictor does.
    let cells = |predictor: &str| {
        let out = run_ok(&[
            "campaign",
            "--scale",
            "32",
            "--benches",
            "kvstore,phase-shift",
            "--schemes",
            "dfp-stop",
            "--predictor",
            predictor,
        ]);
        out.lines().skip(1).collect::<Vec<_>>().join("\n")
    };
    assert_ne!(cells("multi-stream"), cells("markov"));
    let err = run_err(&["campaign", "--scale", "32", "--predictor", "bogus"]);
    assert!(err.contains("bogus"), "{err}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn leakage_gate_trips_on_exactly_the_sip_and_dfp_rows() {
    let panel = [
        "leakage", "--scale", "64", "--seed", "2020", "--window", "64",
    ];
    let err = run_err(&panel);
    let tripped: Vec<&str> = err
        .trim()
        .strip_prefix("error: leakage gate failed: ")
        .unwrap_or_else(|| panic!("not a gate failure: {err}"))
        .split("; ")
        .map(|v| v.split(':').next().unwrap())
        .collect();
    assert_eq!(tripped, ["branch-halves/SIP", "dfp-echo/DFP"], "{err}");
    let mut lenient = panel.to_vec();
    lenient.extend(["--tolerance", "0.2"]);
    assert!(run_ok(&lenient).contains("leakage gate holds"));
}

#[test]
fn contend_reports_per_tenant_slowdown() {
    let dir = scratch_dir("sgx_preload_cli_contend_test");
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("contend.json");
    let out = run_ok(&[
        "contend",
        "--scale",
        "32",
        "--scheme",
        "dfp",
        "--json-out",
        json_path.to_str().unwrap(),
    ]);
    assert!(out.contains("victim slowdown"), "{out}");
    let json = std::fs::read_to_string(&json_path).expect("contend JSON written");
    for key in [
        "\"victim_solo\":{",
        "\"victim\":{",
        "\"aggressor\":{",
        "\"policy_active\":true",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    let slowdown = json_number(&json, "victim_slowdown");
    assert!(slowdown >= 1.0, "co-running sped the victim up: {slowdown}");
    // Each app reports its own enclave's ledger.
    let app = |key: &str| &json[json.find(&format!("\"{key}\":{{")).expect(key)..];
    let (victim, aggressor) = (app("victim"), app("aggressor"));
    assert_ne!(
        json_number(victim, "preloads_started"),
        json_number(aggressor, "preloads_started"),
        "per-enclave preload starts"
    );
    assert_eq!(
        json_number(aggressor, "aex_eresume"),
        json_number(aggressor, "faults") * 20_000.0,
        "the aggressor's world switches are its own faults'"
    );
    let err = run_err(&["contend", "--scale", "32", "--policy", "bogus"]);
    assert!(err.contains("unknown --policy"), "{err}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn helpful_errors() {
    assert!(run_err(&["run", "--scheme", "dfp"]).contains("missing --bench"));
    assert!(run_err(&["run", "--bench", "nope"]).contains("unknown benchmark"));
    assert!(run_err(&["run", "--bench", "lbm", "--scheme", "warp"]).contains("unknown scheme"));
    assert!(run_err(&["frobnicate"]).contains("unknown command"));
    for removed in ["throughput", "replay", "fleet", "chaos", "suite"] {
        assert!(run_err(&[removed]).contains("unknown command"), "{removed}");
    }
    let help = run_ok(&["help"]);
    for gone in ["fleet", "chaos", "suite", "campaign-seed"] {
        assert!(!help.contains(gone), "help names {gone}: {help}");
    }
    let err = run_err(&["campaign", "--campaign-seed", "7"]);
    assert!(
        err.contains("unknown flag --campaign-seed for `campaign`"),
        "{err}"
    );
    assert!(run_err(&[]).contains("USAGE"));
    assert!(run_err(&["run", "--bench", "lbm", "--threshold", "7"]).contains("must be in [0, 1]"));
    for cmd in [&["run", "--bench", "lbm"][..], &["contend"]] {
        for bad in ["0", "-1", "x"] {
            let args = [cmd, &["--scale", bad]].concat();
            let err = run_err(&args);
            assert!(err.contains(&format!("invalid --scale {bad:?}")), "{err}");
        }
    }
    // A flag the command does not read is an error, not a silent default.
    let err = run_err(&[
        "run",
        "--bench",
        "lbm",
        "--scheme",
        "dfp",
        "--stream-list",
        "0",
    ]);
    assert!(
        err.contains("unknown flag --stream-list for `run`"),
        "{err}"
    );
    let err = run_err(&["campaign", "--bench", "lbm"]);
    assert!(err.contains("unknown flag --bench for `campaign`"), "{err}");
    // Stream knobs must be positive and fit the run's EPC, under every
    // command that builds a DFP kernel.
    let one_past = (sgx_preloading::Scale::DEV.epc_pages() + 1).to_string();
    for cmd in [
        &["run", "--bench", "lbm", "--scheme", "dfp"][..],
        &["campaign"],
        &["contend"],
        &["leakage"],
    ] {
        for knob in ["--load-length", "--list-len"] {
            for bad in ["0", &one_past] {
                let err = run_err(&[cmd, &[knob, bad]].concat());
                assert!(
                    err.contains(&format!("{knob} must be between 1 and")),
                    "{err}"
                );
            }
        }
    }
}

/// `json` without the keys and values of its `"key":<number>` fields.
fn strip_number(json: &str, key: &str) -> String {
    json.split(&format!("\"{key}\":"))
        .map(|part| part.trim_start_matches(|c: char| c.is_ascii_digit()))
        .collect()
}

/// Every flag `campaign` and `leakage` read moves what they report: each
/// flag that feeds the simulator's config or picks cells changes the
/// `--json-out` report (its wall-clock and worker count aside) at some
/// non-default value, and `--tolerance` changes the exit status. The
/// values are ones that reach the flag's mechanism: the early-notify
/// distance needs an instrumented program, and the EPC ceiling needs an
/// EDMM scheme.
#[test]
fn every_campaign_and_leakage_flag_moves_the_report() {
    let dir = scratch_dir("sgx_preload_cli_flag_effect_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("report.json");
    // The exit code and the report, its wall-clock and worker count aside.
    let report = |args: &str| {
        let out = cli()
            .args(args.split(' '))
            .arg("--json-out")
            .arg(&path)
            .output()
            .expect("spawn sgx-preload");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(matches!(out.status.code(), Some(0 | 1)), "{args}: {stderr}");
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{args}: {e}"));
        std::fs::remove_file(&path).unwrap();
        let json = strip_number(&strip_number(&json, "wall_nanos"), "jobs");
        (out.status.code(), json)
    };
    let config = "--seed 7|--scale 32|--epc-pages 600|--load-length 1|--list-len 1|\
                  --threshold 0.0|--early 2|--predictor next-line|--epc-ceiling 50";
    let campaign =
        "campaign --scale 64 --jobs 1 --benches deepsjeng --schemes baseline,dfp,sip,edmm";
    let leakage = "leakage --scale 64 --seed 2020 --jobs 1 --pairs branch-halves \
                   --schemes baseline,dfp,sip,edmm --window 64 --tolerance 1";
    for (base, picks) in [
        (campaign, "--benches mcf|--schemes dfp"),
        (
            leakage,
            "--pairs dfp-echo|--schemes baseline,dfp|--window 16",
        ),
    ] {
        let (_, want) = report(base);
        // The later of two equal flags wins.
        for flag in config.split('|').chain(picks.split('|')) {
            let (_, got) = report(&format!("{base} {flag}"));
            assert!(got != want, "`{base} {flag}` changed nothing");
        }
    }
    let codes = (
        report(leakage).0,
        report(&format!("{leakage} --tolerance 0")).0,
    );
    assert_eq!(codes, (Some(0), Some(1)), "--tolerance");
    let _ = std::fs::remove_dir_all(dir);
}

/// What `args` shows, run with `{dir}` standing for `dir`, which starts
/// empty: the exit code, stdout and every file written into `dir`, by name
/// (wall-clock fields aside; a binary file by its bytes).
fn outcome_in(dir: &std::path::Path, args: &str) -> (Option<i32>, String, Vec<(String, String)>) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let args = args.replace("{dir}", dir.to_str().unwrap());
    let out = cli()
        .args(args.split(' '))
        .output()
        .expect("spawn sgx-preload");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(matches!(out.status.code(), Some(0 | 1)), "{args}: {stderr}");
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|f| {
            let f = f.unwrap();
            let text = match String::from_utf8(std::fs::read(f.path()).unwrap()) {
                Ok(text) => strip_number(&text, "wall_nanos"),
                Err(binary) => format!("{:?}", binary.into_bytes()),
            };
            (f.file_name().into_string().unwrap(), text)
        })
        .collect();
    files.sort();
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    (out.status.code(), stdout, files)
}

/// Every flag `run` and `timeline` read moves what they show: at some
/// non-default value, each one changes the exit status, stdout, or a file
/// the command writes (the `--json-out` report among them, its wall-clock
/// aside). The base runs use schemes that reach each flag's mechanism:
/// hybrid runs SIP (`--threshold`, `--early`) and DFP (the stream knobs
/// and `--predictor`), and the EPC ceiling needs an EDMM scheme.
#[test]
fn every_run_and_timeline_flag_moves_the_output() {
    let dir = scratch_dir("sgx_preload_cli_run_flag_effect_test");
    let outcome = |args: &str| outcome_in(&dir, args);
    let config = "--seed 7|--scale 32|--epc-pages 600|--load-length 1|--list-len 1|\
                  --threshold 0.0|--early 2|--predictor next-line";
    let run = "run --bench deepsjeng --scale 64 --scheme hybrid";
    let timeline =
        "timeline --bench deepsjeng --scale 64 --scheme hybrid -n 0 --series-out {dir}/s.csv";
    let cases = [
        (run, "--bench mcf|--scheme dfp|--jsonl {dir}/e.jsonl|--hist"),
        (
            timeline,
            "--bench mcf|--scheme dfp|-n 5|--chrome-out {dir}/t.json|\
             --series-out {dir}/s.json|--series-every 5000|--attr|--json-out {dir}/r.json",
        ),
    ];
    for (base, picks) in cases {
        let want = outcome(base);
        assert_eq!(want.0, Some(0), "{base}");
        // The later of two equal flags wins.
        for flag in config.split('|').chain(picks.split('|')) {
            let got = outcome(&format!("{base} {flag}"));
            assert!(got != want, "`{base} {flag}` changed nothing");
        }
        let edmm = base.replace("hybrid", "edmm");
        let want = outcome(&edmm);
        assert!(
            outcome(&format!("{edmm} --epc-ceiling 50")) != want,
            "`{edmm} --epc-ceiling 50` changed nothing"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Every flag `profile` and `contend` read moves what they show, as for
/// `run` and `timeline`. The contend base runs hybrid, so the SIP knobs
/// reach each enclave's plan and the stream knobs its DFP. `profile`'s
/// classifier runs the paper's default stream settings, so it rejects the
/// stream, predictor and EDMM knobs.
#[test]
fn every_profile_and_contend_flag_moves_the_output() {
    let dir = scratch_dir("sgx_preload_cli_profile_flag_effect_test");
    let outcome = |args: &str| outcome_in(&dir, args);
    let profile = "profile --bench deepsjeng --scale 64";
    let contend = "contend --victim deepsjeng --aggressor mcf --scale 64 --scheme hybrid";
    let cases = [
        (
            profile,
            "--seed 7|--scale 32|--epc-pages 600|--threshold 0.0|--bench mcf",
        ),
        (
            contend,
            "--seed 7|--scale 32|--epc-pages 600|--load-length 1|--list-len 1|\
             --threshold 0.0|--early 2|--predictor next-line|--victim lbm|\
             --aggressor roms|--scheme dfp|--policy none|--weights 3:1|--json-out {dir}/c.json",
        ),
    ];
    for (base, flags) in cases {
        let want = outcome(base);
        assert_eq!(want.0, Some(0), "{base}");
        for flag in flags.split('|') {
            let got = outcome(&format!("{base} {flag}"));
            assert!(got != want, "`{base} {flag}` changed nothing");
        }
    }
    let edmm = contend.replace("hybrid", "edmm");
    assert!(
        outcome(&format!("{edmm} --epc-ceiling 50")) != outcome(&edmm),
        "`{edmm} --epc-ceiling 50` changed nothing"
    );
    for flag in [
        "--load-length 1",
        "--list-len 1",
        "--early 2",
        "--predictor next-line",
        "--epc-ceiling 50",
    ] {
        let args: Vec<&str> = profile.split(' ').chain(flag.split(' ')).collect();
        let name = flag.split(' ').next().unwrap();
        let err = run_err(&args);
        assert!(
            err.contains(&format!("unknown flag {name} for `profile`")),
            "{err}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Every flag `trace record`, `trace convert` and `trace replay` read
/// moves what they show, as for `run`. The replay base runs hybrid on a
/// trace with its source declared, so the SIP knobs reach its plan and the
/// stream knobs its DFP. A recording runs the generator alone, so `trace
/// record` rejects the simulator's knobs.
#[test]
fn every_trace_flag_moves_the_output() {
    let dir = scratch_dir("sgx_preload_cli_trace_flag_effect_test");
    let inputs = scratch_dir("sgx_preload_cli_trace_flag_effect_inputs");
    std::fs::create_dir_all(&inputs).unwrap();
    let record = |bench: &str, name: &str| {
        let path = inputs.join(name).to_str().unwrap().to_string();
        run_ok(&[
            "trace", "record", "--bench", bench, "--scale", "64", "--out", &path,
        ]);
        path
    };
    let (deepsjeng, mcf) = (record("deepsjeng", "d.sgxt"), record("mcf", "m.csv"));
    let outcome = |args: &str| outcome_in(&dir, args);
    let replay = format!(
        "trace replay --trace {deepsjeng} --scale 64 --scheme hybrid --source-bench deepsjeng"
    );
    let cases = [
        (
            "trace record --bench lbm -n 500 --out {dir}/t.sgxt".to_string(),
            "--seed 7|--scale 32|--bench mcf|-n 400|--out {dir}/t.csv".to_string(),
        ),
        (
            format!("trace convert --in {deepsjeng} --out {{dir}}/c.csv"),
            format!("--in {mcf}|--out {{dir}}/c.sgxt"),
        ),
        (
            replay.clone(),
            format!(
                "--seed 7|--scale 32|--epc-pages 600|--load-length 1|--list-len 1|\
                 --threshold 0.0|--early 2|--predictor next-line|--trace {mcf}|--scheme dfp|\
                 --source-bench mcf|--diff"
            ),
        ),
    ];
    for (base, flags) in &cases {
        let want = outcome(base);
        assert_eq!(want.0, Some(0), "{base}");
        for flag in flags.split('|') {
            let got = outcome(&format!("{base} {flag}"));
            assert!(got != want, "`{base} {flag}` changed nothing");
        }
    }
    let edmm = replay.replace("hybrid", "edmm");
    assert!(
        outcome(&format!("{edmm} --epc-ceiling 50")) != outcome(&edmm),
        "`{edmm} --epc-ceiling 50` changed nothing"
    );
    for flag in [
        "--epc-pages 99",
        "--load-length 2",
        "--list-len 3",
        "--threshold 0.5",
        "--early 4",
        "--predictor stride",
        "--epc-ceiling 50",
    ] {
        let args: Vec<&str> = ["trace", "record", "--bench", "lbm", "-n", "500"]
            .into_iter()
            .chain(flag.split(' '))
            .collect();
        let name = flag.split(' ').next().unwrap();
        let err = run_err(&args);
        assert!(
            err.contains(&format!("unknown flag {name} for `trace record`")),
            "{err}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(inputs);
}
