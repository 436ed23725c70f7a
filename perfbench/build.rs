//! Stamp the commit and the compiler version into the binary, so every
//! record names the code and toolchain it measured.

use std::path::Path;
use std::process::Command;

fn main() {
    let dir = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&dir).parent().expect("package sits in the repo");
    let ceiling = root.parent().unwrap_or(root);
    let commit = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let toolchain = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_RUSTC={toolchain}");
    println!("cargo:rerun-if-changed=build.rs");
    let head = root.join(".git").join("HEAD");
    if head.exists() {
        println!("cargo:rerun-if-changed={}", head.display());
        let git_ref = root.join(".git").join("refs").join("heads");
        if git_ref.exists() {
            println!("cargo:rerun-if-changed={}", git_ref.display());
        }
    }
}
