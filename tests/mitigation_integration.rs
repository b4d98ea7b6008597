//! End-to-end verification of the Section V mitigation: once the hwmon
//! nodes are root-only, every attack in the suite fails for an
//! unprivileged process, while privileged monitoring still works.

use std::sync::Arc;

use amperebleed::characterize::{self, CharacterizeConfig};
use amperebleed::mitigation::{restrict_all_sensors, unrestrict_all_sensors};
use amperebleed::{AttackError, Channel, CurrentSampler, Platform};
use fpga_fabric::rsa::{RsaConfig, RsaKey};
use fpga_fabric::virus::VirusConfig;
use hwmon_sim::HwmonError;
use obs::{Level, MemorySink, Sink};
use zynq_soc::{PowerDomain, SimTime};

#[test]
fn characterization_fails_under_mitigation() {
    let mut p = Platform::zcu102(200);
    p.deploy_virus(VirusConfig::default()).unwrap();
    restrict_all_sensors(&mut p).unwrap();
    let err = characterize::run(&p, &CharacterizeConfig::quick()).unwrap_err();
    assert!(matches!(
        err,
        AttackError::Hwmon(HwmonError::PermissionDenied(_))
    ));
}

#[test]
fn rsa_sampling_fails_under_mitigation() {
    let mut p = Platform::zcu102(201);
    p.deploy_rsa(
        RsaConfig::default(),
        RsaKey::with_hamming_weight(512, 0).unwrap(),
    )
    .unwrap();
    restrict_all_sensors(&mut p).unwrap();
    let sampler = CurrentSampler::unprivileged(&p);
    let err = sampler
        .capture(
            PowerDomain::FpgaLogic,
            Channel::Current,
            SimTime::from_ms(40),
            1_000.0,
            100,
        )
        .unwrap_err();
    assert!(matches!(
        err,
        AttackError::Hwmon(HwmonError::PermissionDenied(_))
    ));
}

#[test]
fn benign_root_monitoring_survives_mitigation() {
    let mut p = Platform::zcu102(202);
    let virus = p.deploy_virus(VirusConfig::default()).unwrap();
    virus.activate_groups(80).unwrap();
    restrict_all_sensors(&mut p).unwrap();
    // A root performance-monitoring daemon keeps full visibility.
    let root = CurrentSampler::privileged(&p);
    for domain in PowerDomain::ALL {
        let trace = root
            .capture(domain, Channel::Current, SimTime::from_ms(40), 100.0, 20)
            .unwrap();
        assert_eq!(trace.len(), 20);
    }
}

#[test]
fn attack_recovers_after_policy_rollback() {
    // The paper's caveat: the mitigation must stay applied; rolling it
    // back (e.g. a distro reverting permissions) re-opens the channel.
    let mut p = Platform::zcu102(203);
    let virus = p.deploy_virus(VirusConfig::default()).unwrap();
    restrict_all_sensors(&mut p).unwrap();
    unrestrict_all_sensors(&mut p);
    virus.activate_groups(160).unwrap();
    let sampler = CurrentSampler::unprivileged(&p);
    let trace = sampler
        .capture(
            PowerDomain::FpgaLogic,
            Channel::Current,
            SimTime::from_ms(40),
            100.0,
            20,
        )
        .unwrap();
    assert!(trace.mean() > 5_000.0, "attack works again after rollback");
}

#[test]
fn name_attribute_stays_world_readable() {
    // Device discovery (ls + name reads) is not a measurement and stays
    // open — the mitigation only protects the side channel itself.
    let mut p = Platform::zcu102(204);
    restrict_all_sensors(&mut p).unwrap();
    let name = p
        .hwmon()
        .read(
            p.sensor_path(PowerDomain::FpgaLogic, "name"),
            SimTime::ZERO,
            hwmon_sim::Privilege::User,
        )
        .unwrap();
    assert_eq!(name.trim(), "ina226_u79");
}

#[test]
fn mitigation_check_counts_denials_without_warning() {
    // A campaign's mitigation check expects its capture to be denied: each
    // denial is counted and logged at `debug`, never at `warn` or above,
    // so the default stderr filter stays quiet.
    let mut p = Platform::zcu102(205);
    p.deploy_virus(VirusConfig::default()).unwrap();
    restrict_all_sensors(&mut p).unwrap();

    obs::init();
    obs::clear_sinks();
    let sink = Arc::new(MemorySink::new());
    obs::install_sink(Arc::clone(&sink) as Arc<dyn Sink>);
    obs::set_level(Some(Level::Debug));
    let denied_before = obs::counter!("hwmon.fs.reads_denied").get();
    let blocked = characterize::run(&p, &CharacterizeConfig::quick()).is_err();
    let denied = obs::counter!("hwmon.fs.reads_denied").get() - denied_before;
    obs::set_level(Some(Level::Warn));
    obs::clear_sinks();

    assert!(blocked, "the mitigation must block the sweep");
    assert!(denied >= 1, "every denial is counted");
    let events = sink.events();
    assert!(events
        .iter()
        .any(|e| e.target == "hwmon.fs" && e.level == Level::Debug));
    let loud: Vec<_> = events.iter().filter(|e| e.level <= Level::Warn).collect();
    assert!(loud.is_empty(), "events at warn or above: {loud:?}");
}
