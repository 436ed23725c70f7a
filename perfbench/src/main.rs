//! `perfbench --workload <interactive|analytic|recursive> --seed <n>
//! --seconds <s> --trace <0|1>`: run one workload and print its metrics;
//! the last line is the JSON result.

use arc_perfbench::{run, Options};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if opts.trace {
        opts.trace_out = Some(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace_{}_{}.json", opts.workload.name(), opts.seed)),
        );
    }
    let report = run(&opts);
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.result_line());
}
