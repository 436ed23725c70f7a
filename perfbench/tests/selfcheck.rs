//! Self-check of the benchmark at tiny sizes: every named metric prints
//! with its unit, and a corrupted reference is caught as a failure.

use arc_core::json::{parse, Json};
use arc_perfbench::{run, Options, Report, END_TO_END, PER_LAYER};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["interactive", "analytic", "recursive"];

fn tiny(workload: &str, trace: bool, extra: &[&str]) -> Report {
    let args: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.05",
        "--trace",
        if trace { "1" } else { "0" },
        "--scale",
        "tiny",
    ]
    .iter()
    .chain(extra)
    .map(|s| s.to_string())
    .collect();
    run(&Options::parse(&args).expect("valid arguments"))
}

/// The fields of a printed JSON object.
fn fields(line: &str) -> std::collections::BTreeMap<String, Json> {
    match parse(line) {
        Ok(Json::Obj(map)) => map,
        other => panic!("not a JSON object: {line}: {other:?}"),
    }
}

/// `correct`, `attempted`, `failed` and the metric names of a result line.
fn result(line: &str) -> (bool, i64, i64, Vec<(String, String)>) {
    let f = fields(line);
    let keys: Vec<&str> = f.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{line}"
    );
    let (Json::Bool(correct), Json::Int(attempted), Json::Int(failed), Json::Obj(metrics)) =
        (&f["correct"], &f["attempted"], &f["failed"], &f["metrics"])
    else {
        panic!("badly typed result line: {line}");
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| match m {
            Json::Obj(m) => {
                assert!(matches!(m["value"], Json::Float(_)), "{line}");
                match &m["unit"] {
                    Json::Str(unit) => (name.clone(), unit.clone()),
                    _ => panic!("unit of {name} is not a string"),
                }
            }
            _ => panic!("metric {name} is not an object"),
        })
        .collect();
    (*correct, *attempted, *failed, metrics)
}

#[test]
fn untraced_mode_prints_every_end_to_end_metric_with_its_unit() {
    for w in WORKLOADS {
        let r = tiny(w, false, &[]);
        assert_eq!(r.failed, 0, "{w}: {:#?}", r.lines);
        assert!(r.attempted >= 100, "{w}: {} queries", r.attempted);
        let (correct, attempted, failed, printed) = result(&r.result_line());
        assert!(correct && failed == 0 && attempted == r.attempted as i64);
        for (name, unit) in END_TO_END {
            let m = r.metric(name).unwrap_or_else(|| panic!("{w}: no {name}"));
            assert_eq!(m.unit, unit);
            assert!(m.value > 0.0, "{w}: {name} = {}", m.value);
            assert!(printed.contains(&(name.to_string(), unit.to_string())));
        }
        assert_eq!(printed.len(), END_TO_END.len());
        assert_eq!(r.metrics.len(), END_TO_END.len());
        assert!(
            r.lines
                .iter()
                .any(|l| l.starts_with("# metric failed_ratio = 0 ratio")),
            "{w}: failed_ratio is printed by name"
        );
        let record = r
            .lines
            .iter()
            .find(|l| l.starts_with("{\"record\""))
            .unwrap();
        let Json::Obj(record) = &fields(record)["record"] else {
            panic!("{w}: the record is not an object");
        };
        for key in [
            "commit",
            "nproc",
            "toolchain",
            "workload",
            "seed",
            "queries",
        ] {
            assert!(record.contains_key(key), "{w}: record lacks {key}");
        }
        assert!(record["metrics"].to_string().contains("\"samples\""));
    }
}

#[test]
fn traced_mode_prints_every_per_layer_metric_with_its_unit() {
    for w in WORKLOADS {
        let r = tiny(w, true, &[]);
        assert_eq!(r.failed, 0, "{w}: {:#?}", r.lines);
        for (name, unit) in PER_LAYER {
            let m = r.metric(name).unwrap_or_else(|| panic!("{w}: no {name}"));
            assert_eq!(m.unit, unit);
        }
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        let samples = |name: &str| r.metric(name).unwrap().samples;
        // Layers every workload runs.
        for name in [
            "parser.parse_us",
            "datalog.lower_us",
            "engine.new_us",
            "plan.explain_us",
            "engine.rows_per_result",
            "exec.speedup_t2",
            "stats.analyze_ms",
            "bench.unattributed_share",
            "bench.trace_overhead_ratio",
        ] {
            assert!(samples(name) > 0, "{w}: {name} has no samples");
        }
        let share = r.metric("bench.unattributed_share").unwrap().value;
        assert!((0.0..1.0).contains(&share), "{w}: unattributed {share}");
        assert_eq!(r.metric("guard.degradations").unwrap().value, 0.0);
        match w {
            "recursive" => assert!(samples("fixpoint.eval_ms") > 0),
            "interactive" => {
                assert!(samples("sql.to_arc_us") > 0);
                assert!(samples("engine.eval_ms") > 0);
                assert!(samples("engine.rebuilds_per_write") > 0);
            }
            _ => {
                assert!(samples("sql.to_arc_us") > 0);
                assert!(samples("engine.eval_ms") > 0);
            }
        }
    }
}

#[test]
fn a_corrupted_reference_drives_failed_ratio_above_zero() {
    for w in WORKLOADS {
        let r = tiny(w, false, &["--corrupt-reference"]);
        assert!(r.failed_ratio() > 0.0, "{w}: corruption went unnoticed");
        assert!(!result(&r.result_line()).0, "{w}: reported as correct");
        assert!(r
            .lines
            .iter()
            .any(|l| l.starts_with("# failure") && l.contains("wrong result")));
    }
}

#[test]
fn the_binary_ends_with_the_result_line_and_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_arc-perfbench");
    let out = Command::new(bin)
        .args(["--workload", "recursive", "--seed", "3", "--seconds", "1"])
        .args(["--trace", "0", "--scale", "tiny"])
        .output()
        .expect("run the benchmark");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let (correct, attempted, failed, metrics) = result(stdout.lines().last().unwrap());
    assert!(correct && attempted >= 100 && failed == 0);
    assert_eq!(metrics.len(), END_TO_END.len());

    let bad = Command::new(bin)
        .args(["--workload", "nonesuch", "--seed", "1"])
        .output()
        .expect("run the benchmark");
    assert!(!bad.status.success());
    assert!(bad.stdout.is_empty());
}
