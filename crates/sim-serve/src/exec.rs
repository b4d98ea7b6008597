//! Pure verb execution: `execute(verb, seed, config)` is a function of
//! its arguments only, so any scheduling of the same request produces a
//! byte-identical `result` value. The server calls through here; tests
//! call it directly to build the serial reference results.

use amperebleed::characterize::{self, CharacterizeConfig};
use amperebleed::defend::{self, AttackKind, DefendConfig, UNDEFENDED};
use amperebleed::fingerprint::{self, FingerprintConfig};
use amperebleed::rsa_attack::{self, RsaAttackConfig};
use amperebleed::{covert, AttackError, Platform};
use fpga_fabric::covert::CovertConfig;
use fpga_fabric::ring_oscillator::RoConfig;
use fpga_fabric::virus::VirusConfig;
use sim_defend::LayerKind;
use sim_rt::pool::Pool;
use sim_rt::ser::Value;
use zynq_soc::SimTime;

/// The campaign verbs the server multiplexes (plus the control verb
/// `shutdown`, which the scheduler intercepts before execution).
pub const VERBS: &[&str] = &[
    "ping",
    "quickstart",
    "characterize",
    "fingerprint",
    "rsa",
    "covert",
    "defend",
];

/// Typed execution failure, mapped onto the wire as
/// `status:"error", error_kind, error`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError {
    /// One of `unknown_verb`, `bad_config`, `invalid_parameter`,
    /// `attack_failed`, `internal_error`.
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ExecError {
    fn bad_config(message: impl Into<String>) -> ExecError {
        ExecError {
            kind: "bad_config",
            message: message.into(),
        }
    }

    /// A server-side invariant failed. The request gets a structured
    /// `internal_error` response instead of the worker thread panicking
    /// and taking the farm board with it.
    pub(crate) fn internal(message: impl Into<String>) -> ExecError {
        ExecError {
            kind: "internal_error",
            message: message.into(),
        }
    }
}

impl From<AttackError> for ExecError {
    fn from(e: AttackError) -> ExecError {
        let kind = match &e {
            AttackError::InvalidParameter(_) => "invalid_parameter",
            _ => "attack_failed",
        };
        ExecError {
            kind,
            message: e.to_string(),
        }
    }
}

/// Whether `verb` runs against a ready platform (booted from a farm
/// board's pristine image when the seeds match).
pub fn uses_board_platform(verb: &str) -> bool {
    matches!(verb, "quickstart" | "characterize")
}

/// Whether `verb` is servable at all.
pub fn known_verb(verb: &str) -> bool {
    VERBS.contains(&verb)
}

/// Maps a request verb onto its `'static` name from [`VERBS`] (or
/// `"other"`), so trace spans can label themselves without allocating.
fn static_verb(verb: &str) -> &'static str {
    VERBS
        .iter()
        .copied()
        .find(|v| *v == verb)
        .unwrap_or("other")
}

/// Builds the platform a farm board would hold for `seed`: ZCU102 with
/// the power-virus array and RO bank deployed.
///
/// # Errors
///
/// Propagates deployment failures as [`ExecError`].
pub fn ready_platform(seed: u64) -> Result<Platform, ExecError> {
    let mut platform = Platform::zcu102(seed);
    platform.deploy_virus(VirusConfig::default())?;
    platform.deploy_ro_bank(RoConfig::default())?;
    Ok(platform)
}

/// Runs `verb` from scratch: platform verbs construct a fresh
/// [`ready_platform`] from `seed`. This is the serial reference the
/// determinism contract is stated against.
///
/// # Errors
///
/// [`ExecError`] for unknown verbs, bad configs, and campaign failures.
pub fn execute(verb: &str, seed: u64, config: &Value) -> Result<Value, ExecError> {
    let _span = obs::trace::span("serve.exec", static_verb(verb));
    let board = if uses_board_platform(verb) {
        Some(ready_platform(seed)?)
    } else {
        None
    };
    run_verb(board.as_ref(), verb, seed, config)
}

/// Runs a platform verb against an existing ready platform; the other
/// verbs build their own platforms from `seed` and ignore it.
/// Byte-identical to [`execute`] with the platform's construction seed
/// **only while the platform is pristine**: campaign sweeps drive the
/// power-virus activation timeline, so a used platform answers
/// differently — which is why the farm boots a fresh image per run
/// instead of caching one (see `farm::Board`).
///
/// # Errors
///
/// [`ExecError`] for unknown verbs, bad configs, and campaign failures.
pub fn execute_on(
    platform: &Platform,
    verb: &str,
    seed: u64,
    config: &Value,
) -> Result<Value, ExecError> {
    let _span = obs::trace::span("serve.exec", static_verb(verb));
    run_verb(Some(platform), verb, seed, config)
}

/// The one match over every verb. `board` is the ready platform the
/// [`uses_board_platform`] verbs run on; the rest build their own
/// platforms from `seed`.
fn run_verb(
    board: Option<&Platform>,
    verb: &str,
    seed: u64,
    config: &Value,
) -> Result<Value, ExecError> {
    let board = || board.ok_or_else(|| ExecError::internal(format!("`{verb}` needs a board")));
    match verb {
        "ping" => {
            expect_no_overrides(config, "ping")?;
            Ok(obj(vec![("pong", Value::Bool(true))]))
        }
        "quickstart" => {
            let platform = board()?;
            let samples = quickstart_samples(config)?;
            let report = characterize::quicklook(platform, samples)?;
            Ok(characterize_result(&report))
        }
        "characterize" => {
            let platform = board()?;
            let cfg = characterize_config(config)?;
            let report = characterize::run(platform, &cfg)?;
            Ok(characterize_result(&report))
        }
        "fingerprint" => {
            let (cfg, n_models) = fingerprint_config(config, seed)?;
            let grid = fingerprint::run(&cfg, n_models, &Pool::serial(), UNDEFENDED)?;
            Ok(fingerprint_result(&grid))
        }
        "rsa" => {
            let cfg = rsa_config(config, seed)?;
            let report = rsa_attack::run(&cfg, UNDEFENDED)?;
            Ok(rsa_result(&report))
        }
        "covert" => {
            let (cfg, payload) = covert_config(config)?;
            let (rx, ber) = covert::round_trip(&cfg, &payload, seed, UNDEFENDED)?;
            Ok(obj(vec![
                ("sent", Value::Str(String::from_utf8_lossy(&payload).into())),
                (
                    "decoded",
                    Value::Str(String::from_utf8_lossy(&rx.payload).into()),
                ),
                ("ber", Value::Float(ber)),
                ("clean", Value::Bool(ber == 0.0)),
                ("sync_offset", Value::Int(rx.sync_offset as i64)),
                ("sync_quality", Value::Float(rx.sync_quality)),
                ("bandwidth_bps", Value::Float(rx.payload_bandwidth_bps)),
            ]))
        }
        "defend" => {
            let cfg = defend_config(config, seed)?;
            let report = defend::run(&cfg, &Pool::serial())?;
            Ok(defend_result(&report))
        }
        other => Err(ExecError {
            kind: "unknown_verb",
            message: format!("unknown verb `{other}`"),
        }),
    }
}

// --- config override parsing ------------------------------------------

/// The config's override fields, sorted by key. The store addresses a
/// request by its canonical config JSON, which sorts keys, so neither a
/// result nor an error may depend on the order the request lists its
/// overrides in: a key given twice is rejected, and the rest apply in
/// key order.
fn overrides<'a>(config: &'a Value, verb: &str) -> Result<Vec<&'a (String, Value)>, ExecError> {
    let mut fields: Vec<&(String, Value)> = match config {
        Value::Null => Vec::new(),
        Value::Object(fields) => fields.iter().collect(),
        _ => {
            return Err(ExecError::bad_config(format!(
                "`{verb}` config must be an object"
            )))
        }
    };
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    let mut pairs = fields.iter().zip(fields.iter().skip(1));
    if let Some(((key, _), _)) = pairs.find(|(a, b)| a.0 == b.0) {
        return Err(ExecError::bad_config(format!(
            "`{verb}` config key `{key}` is given more than once"
        )));
    }
    Ok(fields)
}

fn expect_no_overrides(config: &Value, verb: &str) -> Result<(), ExecError> {
    match overrides(config, verb)?.as_slice() {
        [] => Ok(()),
        [(key, _), ..] => Err(ExecError::bad_config(format!(
            "`{verb}` takes no config overrides (got `{key}`)"
        ))),
    }
}

fn need_usize(key: &str, v: &Value) -> Result<usize, ExecError> {
    v.as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| ExecError::bad_config(format!("`{key}` must be a non-negative integer")))
}

fn need_f64(key: &str, v: &Value) -> Result<f64, ExecError> {
    v.as_f64()
        .ok_or_else(|| ExecError::bad_config(format!("`{key}` must be a number")))
}

fn need_u32_array(key: &str, v: &Value) -> Result<Vec<u32>, ExecError> {
    let items = v
        .as_array()
        .ok_or_else(|| ExecError::bad_config(format!("`{key}` must be an array of integers")))?;
    items
        .iter()
        .map(|item| {
            item.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| ExecError::bad_config(format!("`{key}` entries must fit in u32")))
        })
        .collect()
}

fn unknown_key(verb: &str, key: &str) -> ExecError {
    ExecError::bad_config(format!("unknown `{verb}` config key `{key}`"))
}

fn quickstart_samples(config: &Value) -> Result<usize, ExecError> {
    let mut samples = 120usize;
    for (key, v) in overrides(config, "quickstart")? {
        match key.as_str() {
            "samples_per_level" => samples = need_usize(key, v)?,
            _ => return Err(unknown_key("quickstart", key)),
        }
    }
    Ok(samples)
}

fn characterize_config(config: &Value) -> Result<CharacterizeConfig, ExecError> {
    let fields = overrides(config, "characterize")?;
    let given = |name: &str| fields.iter().any(|(key, _)| key == name);
    if given("level_step") && given("levels") {
        return Err(ExecError::bad_config(
            "`level_step` and `levels` both set the sweep levels; give one of them",
        ));
    }
    let mut cfg = CharacterizeConfig::quick();
    for (key, v) in fields {
        match key.as_str() {
            "level_step" => {
                let step = need_usize(key, v)?.max(1);
                cfg.levels = (0..=160).step_by(step).collect();
            }
            "levels" => cfg.levels = need_u32_array(key, v)?,
            "samples_per_level" => cfg.samples_per_level = need_usize(key, v)?,
            "sample_rate_hz" => cfg.sample_rate_hz = need_f64(key, v)?,
            "settle_ms" => cfg.settle = SimTime::from_ms(need_usize(key, v)? as u64),
            _ => return Err(unknown_key("characterize", key)),
        }
    }
    Ok(cfg)
}

fn fingerprint_config(config: &Value, seed: u64) -> Result<(FingerprintConfig, usize), ExecError> {
    let mut cfg = FingerprintConfig::quick();
    cfg.seed = seed;
    let mut n_models = 3usize;
    for (key, v) in overrides(config, "fingerprint")? {
        match key.as_str() {
            "traces_per_model" => cfg.traces_per_model = need_usize(key, v)?,
            "capture_seconds" => cfg.capture_seconds = need_f64(key, v)?,
            "resample_len" => cfg.resample_len = need_usize(key, v)?,
            "folds" => cfg.folds = need_usize(key, v)?,
            "n_models" => n_models = need_usize(key, v)?,
            _ => return Err(unknown_key("fingerprint", key)),
        }
    }
    Ok((cfg, n_models))
}

fn rsa_config(config: &Value, seed: u64) -> Result<RsaAttackConfig, ExecError> {
    let mut cfg = RsaAttackConfig::quick();
    cfg.seed = seed;
    for (key, v) in overrides(config, "rsa")? {
        match key.as_str() {
            "hamming_weights" => cfg.hamming_weights = need_u32_array(key, v)?,
            "samples_per_key" => cfg.samples_per_key = need_usize(key, v)?,
            "sample_rate_hz" => cfg.sample_rate_hz = need_f64(key, v)?,
            "z_score" => cfg.z_score = need_f64(key, v)?,
            _ => return Err(unknown_key("rsa", key)),
        }
    }
    Ok(cfg)
}

fn covert_config(config: &Value) -> Result<(CovertConfig, Vec<u8>), ExecError> {
    let mut cfg = CovertConfig::default();
    let mut payload: Vec<u8> = b"amperebleed".to_vec();
    for (key, v) in overrides(config, "covert")? {
        match key.as_str() {
            "payload" => {
                payload = v
                    .as_str()
                    .ok_or_else(|| ExecError::bad_config("`payload` must be a string"))?
                    .as_bytes()
                    .to_vec();
            }
            "on_ma" => cfg.on_ma = need_f64(key, v)?,
            "jitter" => cfg.jitter = need_f64(key, v)?,
            "bit_period_ms" => cfg.bit_period = SimTime::from_ms(need_usize(key, v)? as u64),
            _ => return Err(unknown_key("covert", key)),
        }
    }
    Ok((cfg, payload))
}

fn need_f64_array(key: &str, v: &Value) -> Result<Vec<f64>, ExecError> {
    let items = v
        .as_array()
        .ok_or_else(|| ExecError::bad_config(format!("`{key}` must be an array of numbers")))?;
    items.iter().map(|item| need_f64(key, item)).collect()
}

fn defend_config(config: &Value, seed: u64) -> Result<DefendConfig, ExecError> {
    let mut cfg = DefendConfig::quick(AttackKind::Covert);
    cfg.seed = seed;
    for (key, v) in overrides(config, "defend")? {
        match key.as_str() {
            "attack" => {
                let tag = v
                    .as_str()
                    .ok_or_else(|| ExecError::bad_config("`attack` must be a string"))?;
                cfg.attack = AttackKind::from_tag(tag).ok_or_else(|| {
                    ExecError::bad_config(format!(
                        "unknown attack `{tag}` (rsa|fingerprint|covert)"
                    ))
                })?;
            }
            "layers" => {
                let tags = v.as_array().ok_or_else(|| {
                    ExecError::bad_config("`layers` must be an array of layer tags")
                })?;
                cfg.layers = tags
                    .iter()
                    .map(|t| {
                        t.as_str().and_then(LayerKind::from_tag).ok_or_else(|| {
                            ExecError::bad_config(format!(
                                "unknown defense layer `{}`",
                                t.as_str().unwrap_or("<non-string>")
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "strengths" => cfg.strengths = need_f64_array(key, v)?,
            "payload" => {
                cfg.payload = v
                    .as_str()
                    .ok_or_else(|| ExecError::bad_config("`payload` must be a string"))?
                    .as_bytes()
                    .to_vec();
            }
            "samples_per_key" => cfg.rsa.samples_per_key = need_usize(key, v)?,
            "n_models" => cfg.n_models = need_usize(key, v)?,
            "traces_per_model" => cfg.fingerprint.traces_per_model = need_usize(key, v)?,
            _ => return Err(unknown_key("defend", key)),
        }
    }
    Ok(cfg)
}

// --- result encoding ---------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn opt_float(v: Option<f64>) -> Value {
    v.map(Value::Float).unwrap_or(Value::Null)
}

fn characterize_result(r: &characterize::CharacterizationReport) -> Value {
    obj(vec![
        ("levels", Value::Int(r.rows.len() as i64)),
        ("pearson_current", Value::Float(r.pearson_current)),
        ("pearson_voltage", Value::Float(r.pearson_voltage)),
        ("pearson_power", Value::Float(r.pearson_power)),
        ("pearson_ro", opt_float(r.pearson_ro)),
        ("current_slope_ma", Value::Float(r.fit_current.slope)),
        (
            "voltage_lsb_per_step",
            Value::Float(r.voltage_lsb_per_step()),
        ),
        ("variation_ratio_vs_ro", opt_float(r.variation_ratio_vs_ro)),
    ])
}

fn fingerprint_result(grid: &fingerprint::AccuracyGrid) -> Value {
    let cells: Vec<Value> = grid
        .rows
        .iter()
        .flat_map(|(sc, cells)| {
            cells.iter().map(move |cell| {
                obj(vec![
                    (
                        "channel",
                        Value::Str(format!("{}/{}", sc.domain, sc.channel)),
                    ),
                    ("duration_s", Value::Float(cell.duration_s)),
                    ("top1", Value::Float(cell.top1)),
                    ("top5", Value::Float(cell.top5)),
                ])
            })
        })
        .collect();
    obj(vec![
        ("classes", Value::Int(grid.n_classes as i64)),
        ("chance", Value::Float(grid.chance())),
        ("cells", Value::Array(cells)),
    ])
}

fn rsa_result(report: &rsa_attack::RsaAttackReport) -> Value {
    let weights: Vec<Value> = report
        .observations
        .iter()
        .map(|o| Value::Int(o.hamming_weight as i64))
        .collect();
    obj(vec![
        ("keys", Value::Int(report.observations.len() as i64)),
        ("weights", Value::Array(weights)),
        (
            "current_distinguishable",
            Value::Int(report.current_separability.distinguishable as i64),
        ),
        (
            "power_distinguishable",
            Value::Int(report.power_separability.distinguishable as i64),
        ),
        (
            "current_separates_all",
            Value::Bool(report.current_separates_all()),
        ),
    ])
}

fn defend_result(report: &defend::DefendReport) -> Value {
    let points: Vec<Value> = report
        .points
        .iter()
        .map(|p| {
            obj(vec![
                ("strength", Value::Float(p.strength)),
                ("success", Value::Float(p.success)),
                ("blocked", Value::Bool(p.blocked)),
            ])
        })
        .collect();
    obj(vec![
        ("attack", Value::Str(report.attack.tag().into())),
        ("stack", Value::Str(report.stack.clone())),
        ("baseline_success", Value::Float(report.baseline.success)),
        ("points", Value::Array(points)),
        ("auc", Value::Float(report.curve.auc())),
        ("table", Value::Str(report.render())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_is_trivially_pure() {
        let a = execute("ping", 1, &Value::Null).unwrap();
        let b = execute("ping", 2, &Value::Null).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn unknown_verb_and_bad_configs_are_typed() {
        assert_eq!(
            execute("frobnicate", 1, &Value::Null).unwrap_err().kind,
            "unknown_verb"
        );
        let cfg = Value::Object(vec![("bogus".into(), Value::Int(1))]);
        assert_eq!(execute("rsa", 1, &cfg).unwrap_err().kind, "bad_config");
        let cfg = Value::Object(vec![("samples_per_key".into(), Value::Int(0))]);
        assert_eq!(
            execute("rsa", 1, &cfg).unwrap_err().kind,
            "invalid_parameter"
        );
        assert_eq!(
            execute("ping", 1, &Value::Array(vec![])).unwrap_err().kind,
            "bad_config"
        );
        let twice = sim_rt::json::parse(r#"{"samples_per_level":20,"samples_per_level":30}"#)
            .expect("valid JSON");
        let err = execute("quickstart", 1, &twice).unwrap_err();
        assert_eq!(err.kind, "bad_config");
        assert!(
            err.message.contains("`samples_per_level`"),
            "{}",
            err.message
        );
        let both =
            sim_rt::json::parse(r#"{"levels":[0,160],"level_step":80}"#).expect("valid JSON");
        let err = execute("characterize", 1, &both).unwrap_err();
        assert_eq!(err.kind, "bad_config");
        assert!(
            err.message.contains("`level_step` and `levels`"),
            "{}",
            err.message
        );
    }

    #[test]
    fn quickstart_is_pure_on_pristine_platforms_only() {
        let seed = 4242;
        let fresh = execute("quickstart", seed, &Value::Null).unwrap();
        let platform = ready_platform(seed).unwrap();
        let first = execute_on(&platform, "quickstart", seed, &Value::Null).unwrap();
        assert_eq!(fresh.to_json(), first.to_json());
        // A second run on the now-used platform diverges: the sweep drove
        // the activation timeline. This divergence is exactly why the
        // farm re-images boards per campaign run instead of caching
        // platforms — if it ever becomes an equality, caching is safe.
        let second = execute_on(&platform, "quickstart", seed, &Value::Null).unwrap();
        assert_ne!(fresh.to_json(), second.to_json());
    }

    #[test]
    fn defend_runs_a_one_point_sweep_through_the_verb() {
        let cfg = Value::Object(vec![
            ("attack".into(), Value::Str("covert".into())),
            (
                "layers".into(),
                Value::Array(vec![Value::Str("noise".into())]),
            ),
            ("strengths".into(), Value::Array(vec![Value::Float(0.8)])),
            ("payload".into(), Value::Str("hi".into())),
        ]);
        let result = execute("defend", 11, &cfg).unwrap();
        assert_eq!(result.get("attack").unwrap().as_str(), Some("covert"));
        assert_eq!(result.get("stack").unwrap().as_str(), Some("noise"));
        let points = result.get("points").unwrap().as_array().unwrap();
        assert_eq!(points.len(), 1);
        assert!(result
            .get("table")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("defend sweep"));
        // Pure: identical request, identical bytes.
        let again = execute("defend", 11, &cfg).unwrap();
        assert_eq!(result.to_json(), again.to_json());
    }

    #[test]
    fn defend_rejects_unknown_attacks_and_layers() {
        let cfg = Value::Object(vec![("attack".into(), Value::Str("dma".into()))]);
        assert_eq!(execute("defend", 1, &cfg).unwrap_err().kind, "bad_config");
        let cfg = Value::Object(vec![(
            "layers".into(),
            Value::Array(vec![Value::Str("tinfoil".into())]),
        )]);
        assert_eq!(execute("defend", 1, &cfg).unwrap_err().kind, "bad_config");
        let cfg = Value::Object(vec![(
            "strengths".into(),
            Value::Array(vec![Value::Float(2.0)]),
        )]);
        assert_eq!(
            execute("defend", 1, &cfg).unwrap_err().kind,
            "invalid_parameter"
        );
    }

    /// Every multi-key config the serve tests send, plus shapes that set
    /// one field twice: each answers the same whichever order its keys
    /// come in, because the store cannot tell the two orders apart.
    #[test]
    fn override_order_does_not_change_the_answer() {
        let cases = [
            (
                "characterize",
                r#"{"level_step":40,"samples_per_level":50}"#,
            ),
            (
                "characterize",
                r#"{"level_step":80,"levels":[0,160],"samples_per_level":20}"#,
            ),
            (
                "quickstart",
                r#"{"samples_per_level":20,"samples_per_level":30}"#,
            ),
            (
                "rsa",
                r#"{"hamming_weights":[1,512,1024],"samples_per_key":400}"#,
            ),
            (
                "fingerprint",
                r#"{"traces_per_model":4,"capture_seconds":1.0,"resample_len":16,"folds":2,"n_models":2}"#,
            ),
            (
                "defend",
                r#"{"attack":"covert","layers":["jitter","noise","throttle"],"strengths":[0.0,1.0],"payload":"det"}"#,
            ),
            ("ping", r#"{"b":1,"a":2}"#),
        ];
        for (verb, text) in cases {
            let Ok(Value::Object(fields)) = sim_rt::json::parse(text) else {
                panic!("{text} is not a JSON object");
            };
            let reversed = Value::Object(fields.iter().rev().cloned().collect());
            let forward = execute(verb, 5, &Value::Object(fields));
            let backward = execute(verb, 5, &reversed);
            assert_eq!(
                forward.map(|v| v.to_json()),
                backward.map(|v| v.to_json()),
                "{verb} {text}"
            );
        }
    }

    #[test]
    fn covert_round_trips_through_the_verb() {
        let cfg = Value::Object(vec![("payload".into(), Value::Str("hi".into()))]);
        let result = execute("covert", 9, &cfg).unwrap();
        assert_eq!(result.get("decoded").unwrap().as_str(), Some("hi"));
        assert_eq!(result.get("clean").unwrap().as_bool(), Some(true));
    }
}
