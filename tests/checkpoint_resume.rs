//! Resume contracts of the sweep verbs over a persistent result store.
//!
//! Sweep points are ordinary store records under per-point digests
//! (`DefendConfig::point_key`, `CharacterizeConfig::point_key`). The
//! acceptance criteria this file pins:
//!
//! * A `defend` sweep resumed from a store that holds only some of its
//!   points produces a report **equal to a fresh uninterrupted run** — the
//!   per-point codec round-trips every `f64` bit-exactly, so the rendered
//!   table is byte-identical too.
//! * The same holds for a `characterize` sweep resumed mid-way.
//! * A stored record that decodes but carries the wrong schema is
//!   recomputed, never trusted — damage costs work, not correctness.
//! * After a resumed run, the store holds every point, so a second
//!   resume inserts nothing.

use std::path::{Path, PathBuf};

use amperebleed::characterize::{self, CharacterizeConfig};
use amperebleed::defend::{self, AttackKind, DefendConfig};
use amperebleed::Platform;
use fpga_fabric::ring_oscillator::RoConfig;
use fpga_fabric::virus::VirusConfig;
use sim_rt::Pool;
use sim_store::{Store, StoreConfig};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amperebleed-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_store(dir: &Path) -> Store {
    Store::open(StoreConfig {
        dir: Some(dir.to_path_buf()),
        ..StoreConfig::default()
    })
    .unwrap()
}

#[test]
fn defend_resume_equals_fresh_run() {
    let config = DefendConfig::quick(AttackKind::Covert);
    let fresh = defend::run_with(&config, &Pool::serial()).unwrap();
    let n_points = 1 + config.strengths.len() as u64;

    let dir = tmpdir("defend");
    {
        // Simulate an interrupted sweep: only the baseline and the first
        // strength point landed before the process died.
        let partial = open_store(&dir);
        for (index, point) in [(0, &fresh.baseline), (1, &fresh.points[0])] {
            let json = point.to_value().to_json();
            partial.insert(&config.point_key(index), "defend-sweep", config.seed, &json);
        }
    }
    let store = open_store(&dir);
    assert_eq!(store.stats().persist_entries, 2);
    let resumed = defend::run_checkpointed(&config, &Pool::new(2), &store).unwrap();

    assert_eq!(resumed, fresh);
    assert_eq!(resumed.render(), fresh.render());
    for (a, b) in resumed.points.iter().zip(&fresh.points) {
        assert_eq!(a.success.to_bits(), b.success.to_bits());
        assert_eq!(a.strength.to_bits(), b.strength.to_bits());
    }
    // The resumed run decoded the two stored points and back-filled the
    // missing ones.
    let stats = store.stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.inserts, n_points - 2);
    assert_eq!(stats.persist_entries as u64, n_points);

    // A second resume over the same directory decodes everything.
    let store = open_store(&dir);
    let replayed = defend::run_checkpointed(&config, &Pool::new(8), &store).unwrap();
    assert_eq!(replayed, fresh);
    assert_eq!(store.stats().hits, n_points);
    assert_eq!(store.stats().inserts, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn defend_recomputes_schema_damaged_records() {
    let config = DefendConfig::quick(AttackKind::Covert);
    let fresh = defend::run_with(&config, &Pool::serial()).unwrap();

    // Valid JSON, wrong shape: must be recomputed, not trusted.
    let dir = tmpdir("damaged");
    let store = open_store(&dir);
    store.insert(
        &config.point_key(0),
        "defend-sweep",
        config.seed,
        r#"{"not":"a point"}"#,
    );
    store.insert(&config.point_key(2), "defend-sweep", config.seed, "42");
    let resumed = defend::run_checkpointed(&config, &Pool::serial(), &store).unwrap();
    assert_eq!(resumed, fresh);
    // Both damaged records were read, and every point was computed.
    let stats = store.stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.inserts, 2 + 1 + config.strengths.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn characterize_resume_equals_fresh_run() {
    const SEED: u64 = 1_000;
    let factory = |_level: u32| {
        let mut p = Platform::zcu102(SEED);
        p.deploy_virus(VirusConfig::default())?;
        p.deploy_ro_bank(RoConfig::default())?;
        Ok(p)
    };
    let mut cfg = CharacterizeConfig::quick();
    cfg.levels = vec![0, 40, 80, 120, 160];
    cfg.samples_per_level = 120;
    let fresh = characterize::run_parallel(factory, &cfg, &Pool::serial()).unwrap();
    let n_rows = cfg.levels.len() as u64;

    let dir = tmpdir("char");
    {
        // Rows 0 and 3 landed; the rest are missing.
        let partial = open_store(&dir);
        for index in [0, 3] {
            let json = fresh.rows[index].to_value().to_json();
            let key = cfg.point_key(SEED, index as u64);
            partial.insert(&key, "characterize-sweep", SEED, &json);
        }
    }
    let store = open_store(&dir);
    let resumed =
        characterize::run_parallel_checkpointed(factory, &cfg, &Pool::new(2), &store, SEED)
            .unwrap();
    assert_eq!(resumed, fresh);
    assert_eq!(store.stats().inserts, n_rows - 2);
    assert_eq!(store.stats().persist_entries as u64, n_rows);

    // A second resume over the same directory decodes everything.
    let store = open_store(&dir);
    let replayed =
        characterize::run_parallel_checkpointed(factory, &cfg, &Pool::new(8), &store, SEED)
            .unwrap();
    assert_eq!(replayed, fresh);
    assert_eq!(store.stats().hits, n_rows);
    assert_eq!(store.stats().inserts, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_keys_separate_distinct_sweeps() {
    let covert = DefendConfig::quick(AttackKind::Covert);
    let rsa = DefendConfig::quick(AttackKind::Rsa);
    assert_ne!(covert.point_key(1), rsa.point_key(1));
    let mut reseeded = covert.clone();
    reseeded.seed += 1;
    assert_ne!(covert.point_key(1), reseeded.point_key(1));
    assert_eq!(
        covert.point_key(1),
        DefendConfig::quick(AttackKind::Covert).point_key(1)
    );
    // Same sweep, different point.
    assert_ne!(covert.point_key(0), covert.point_key(1));

    let quick = CharacterizeConfig::quick();
    assert_ne!(quick.point_key(1, 0), quick.point_key(2, 0));
    assert_ne!(quick.point_key(1, 0), quick.point_key(1, 1));
    assert_eq!(
        quick.point_key(1, 0),
        CharacterizeConfig::quick().point_key(1, 0)
    );
}
