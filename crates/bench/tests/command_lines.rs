//! The harness binaries reject a bad command line before they run
//! anything: the reason on stderr after the binary's name, and exit
//! status 2.

use std::process::Command;

const BINARIES: [(&str, &str); 4] = [
    ("scale", env!("CARGO_BIN_EXE_scale")),
    ("serve_storm", env!("CARGO_BIN_EXE_serve_storm")),
    ("soak", env!("CARGO_BIN_EXE_soak")),
    ("sweep", env!("CARGO_BIN_EXE_sweep")),
];

#[test]
fn a_bad_command_line_exits_2_with_its_reason() {
    let cases: [(&[&str], &str); 5] = [
        (&["--bogus"], "unknown argument --bogus"),
        (&["--seed"], "--seed requires a value"),
        (&["--seed", "--out", "x.json"], "--seed requires a value"),
        (&["--seed", "-1"], "--seed: invalid digit found in string"),
        (&["--smoke", "--out"], "--out requires a value"),
    ];
    for (name, exe) in BINARIES {
        for (args, reason) in cases {
            // `sweep` has no `--smoke`: it stops at that flag instead.
            let reason = match (name, args[0]) {
                ("sweep", "--smoke") => "unknown argument --smoke",
                _ => reason,
            };
            let out = Command::new(exe).args(args).output().expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
            assert_eq!(stderr, format!("{name}: {reason}\n"), "{name} {args:?}");
        }
    }
}

#[test]
fn out_of_range_counts_are_rejected() {
    let cases: [(&str, &[&str], &str); 4] = [
        ("sweep", &["--workers", "0"], "--workers must be at least 1"),
        ("sweep", &["--cells", "0"], "--cells must be at least 1"),
        (
            "scale",
            &["--nodes", "1,x"],
            "--nodes: invalid digit found in string",
        ),
        (
            "scale",
            &["--shards", "2,0"],
            "--shards needs at least one nonzero count",
        ),
    ];
    for (name, args, reason) in cases {
        let exe = BINARIES
            .iter()
            .find(|(n, _)| *n == name)
            .expect("a binary")
            .1;
        let out = Command::new(exe).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr, format!("{name}: {reason}\n"), "{name} {args:?}");
    }
}

#[test]
fn repro_rejects_a_flag_it_does_not_know() {
    let cases: [(&[&str], &str); 2] = [
        (&["--qiuck", "fig3"], "unknown argument --qiuck"),
        (&["fig3", "--out"], "--out requires a value"),
    ];
    for (args, reason) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert_eq!(stderr, format!("repro: {reason}\n"), "repro {args:?}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran something");
    }
}
