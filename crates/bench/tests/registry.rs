//! The experiment registry contract and the `--list` and `--help`
//! flags: 20 entries in run order, unique ids, one-line descriptions,
//! and a binary that lists them or prints its usage and exits 0
//! without running anything.

use noisy_radio_bench::experiments::{render_registry, EXPERIMENTS};

#[test]
fn registry_has_twenty_described_entries() {
    assert_eq!(EXPERIMENTS.len(), 20, "E1–E16, F1, A1–A3");
    let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(
        ids[..16],
        [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13",
            "E14", "E15", "E16"
        ]
    );
    assert_eq!(ids[16..], ["F1", "A1", "A2", "A3"]);
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 20, "ids must be unique");
    for e in EXPERIMENTS {
        assert!(
            !e.description.trim().is_empty() && !e.description.contains('\n'),
            "{}: description must be one non-empty line",
            e.id
        );
    }
}

#[test]
fn render_registry_lists_every_entry() {
    let listing = render_registry();
    assert_eq!(listing.lines().count(), 20);
    for e in EXPERIMENTS {
        let line = listing
            .lines()
            .find(|l| l.starts_with(e.id) && l[e.id.len()..].starts_with(' '))
            .unwrap_or_else(|| panic!("{} missing from listing", e.id));
        assert!(line.contains(e.description));
    }
}

#[test]
fn list_flag_prints_registry_and_exits_zero() {
    let bin = env!("CARGO_BIN_EXE_experiments");
    let out = std::process::Command::new(bin)
        .arg("--list")
        .output()
        .expect("run experiments --list");
    assert!(out.status.success(), "--list must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout, render_registry());
    // Listing must not run any experiment (no report separator lines).
    assert!(!stdout.contains("=="));
}

#[test]
fn help_flags_print_usage_and_exit_zero() {
    let bin = env!("CARGO_BIN_EXE_experiments");
    for flag in ["--help", "-h"] {
        let out = std::process::Command::new(bin)
            .arg(flag)
            .output()
            .expect("run experiments --help");
        assert!(out.status.success(), "{flag} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: experiments"), "{flag}: {stdout}");
        assert!(
            stdout.contains("--diff OLD.json NEW.json"),
            "{flag}: {stdout}"
        );
        assert!(!stdout.contains("=="), "{flag} must not run an experiment");
    }
}
