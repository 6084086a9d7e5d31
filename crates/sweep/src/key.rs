//! Content-addressed job keys.
//!
//! A [`JobKey`] is a 128-bit FNV-1a hash of the **canonical JSON** rendering
//! of a fully resolved [`ScenarioSpec`] — the complete simulation input. Two
//! specs get the same key exactly when the engine is guaranteed to produce
//! byte-identical results for them, so the key deliberately **excludes**
//! every knob that is proven result-neutral:
//!
//! * the shard **count** — every run is byte-identical whatever the count
//!   (`tests/shard_determinism.rs`),
//! * worker/thread counts — never part of the spec at all,
//! * the campaign and topology display names — labels, not inputs.
//!
//! Everything that does shape results — topology edges, workload, PHY
//! policy (FEC, lanes, power, bypass chains), controller, lane rate, switch
//! model, port buffers, PLP timing table, MTU, train window, seed, horizon,
//! event budget — is serialised field by field, with canonical key ordering
//! via [`json::canonical`], so the hash is stable across axis orderings and
//! code-level field reorderings.

use rackfabric::policy::CrcPolicy;
use rackfabric_phy::{FecMode, PowerState};
use rackfabric_scenario::spec::{ControllerSpec, FecSetting, ScenarioSpec, WorkloadSpec};
use rackfabric_sim::json::{self, JsonValue};
use rackfabric_switch::model::SwitchKind;
use rackfabric_topo::spec::TopologySpec;
use std::fmt;

/// A 128-bit content hash identifying one fully resolved job spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(pub u128);

impl JobKey {
    /// The key as 32 lowercase hex characters (the store's file name).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the 32-hex-character form back into a key.
    pub fn from_hex(hex: &str) -> Option<JobKey> {
        if hex.len() != 32 {
            return None;
        }
        u128::from_str_radix(hex, 16).ok().map(JobKey)
    }
}

impl fmt::Display for JobKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// FNV-1a over `bytes`, 128-bit variant.
fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u128;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The canonical JSON preimage of a spec's key: every result-shaping field,
/// rendered with sorted object keys and no whitespace. This is what gets
/// hashed, and also what the store records next to each result for
/// debugging.
pub fn canonical_spec_json(spec: &ScenarioSpec) -> String {
    json::canonical(&spec_value(spec))
}

/// The content-addressed key of a fully resolved spec.
pub fn job_key(spec: &ScenarioSpec) -> JobKey {
    JobKey(fnv1a_128(canonical_spec_json(spec).as_bytes()))
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn uint(v: u64) -> JsonValue {
    JsonValue::Number(v.to_string())
}

fn float(v: f64) -> JsonValue {
    JsonValue::Number(json::number(v))
}

fn string(s: &str) -> JsonValue {
    JsonValue::String(s.to_string())
}

fn spec_value(spec: &ScenarioSpec) -> JsonValue {
    // `spec.name` and the shard count are intentionally absent — see the
    // module docs.
    obj(vec![
        ("controller", controller_value(&spec.controller)),
        ("event_budget", uint(spec.event_budget)),
        ("horizon_ps", uint(spec.horizon.as_picos())),
        ("lane_rate_bps", uint(spec.lane_rate.as_bps())),
        ("mtu_bytes", uint(spec.mtu.as_u64())),
        (
            "phy",
            obj(vec![
                ("bypassed_nodes", uint(spec.phy.bypassed_nodes as u64)),
                ("fec", string(&fec_name(&spec.phy.fec))),
                (
                    "lanes",
                    match spec.phy.active_lanes {
                        Some(n) => uint(n as u64),
                        None => JsonValue::Null,
                    },
                ),
                ("power", string(power_name(spec.phy.power))),
            ]),
        ),
        (
            "plp_timing",
            obj(vec![
                ("bundle_ps", uint(spec.plp_timing.bundle.as_picos())),
                ("bypass_ps", uint(spec.plp_timing.bypass.as_picos())),
                ("move_lanes_ps", uint(spec.plp_timing.move_lanes.as_picos())),
                (
                    "set_active_lanes_ps",
                    uint(spec.plp_timing.set_active_lanes.as_picos()),
                ),
                ("set_fec_ps", uint(spec.plp_timing.set_fec.as_picos())),
                ("set_power_ps", uint(spec.plp_timing.set_power.as_picos())),
                ("split_ps", uint(spec.plp_timing.split.as_picos())),
            ]),
        ),
        ("port_buffer_bytes", uint(spec.port_buffer.as_u64())),
        (
            // The spec-level routing override. `controller-default` means the
            // lowered config keeps the controller's choice (shortest-hop for
            // baseline, the CRC routing recorded under `controller` above).
            "routing",
            match spec.routing {
                Some(r) => string(&format!("{r:?}")),
                None => string("controller-default"),
            },
        ),
        ("seed", uint(spec.seed)),
        (
            "switch",
            obj(vec![
                (
                    "kind",
                    string(match spec.switch.kind {
                        SwitchKind::CutThrough => "cut_through",
                        SwitchKind::StoreAndForward => "store_and_forward",
                    }),
                ),
                ("pipeline_ps", uint(spec.switch.pipeline_latency.as_picos())),
            ]),
        ),
        ("stop_when_done", JsonValue::Bool(spec.stop_when_done)),
        ("topology", topology_value(&spec.topology)),
        ("train_window_ps", uint(spec.train_window.as_picos())),
        (
            "upgrade",
            match &spec.upgrade {
                Some(t) => topology_value(t),
                None => JsonValue::Null,
            },
        ),
        ("workload", workload_value(&spec.workload)),
    ])
}

fn topology_value(t: &TopologySpec) -> JsonValue {
    // The display name is excluded: instantiation consumes only the node
    // count and the edge list, so renaming a spec must not invalidate the
    // cache. Edges are serialised exactly (endpoints, lanes, length, media,
    // link class — the class steers the conservative lookahead, so it
    // shapes sharded results).
    let edges: Vec<JsonValue> = t
        .edges
        .iter()
        .map(|e| {
            JsonValue::Array(vec![
                uint(e.a.0 as u64),
                uint(e.b.0 as u64),
                uint(e.lanes as u64),
                uint(e.length.as_mm()),
                string(&format!("{:?}", e.media)),
                string(&format!("{:?}", e.class)),
            ])
        })
        .collect();
    obj(vec![
        (
            "dims",
            match t.dims {
                Some((r, c)) => JsonValue::Array(vec![uint(r as u64), uint(c as u64)]),
                None => JsonValue::Null,
            },
        ),
        ("edges", JsonValue::Array(edges)),
        ("kind", string(&format!("{:?}", t.kind))),
        ("nodes", uint(t.nodes as u64)),
    ])
}

fn controller_value(c: &ControllerSpec) -> JsonValue {
    match c {
        ControllerSpec::Baseline => obj(vec![("kind", string("baseline"))]),
        ControllerSpec::Adaptive {
            policy,
            epoch,
            routing,
        } => obj(vec![
            ("epoch_ps", uint(epoch.as_picos())),
            ("kind", string("adaptive")),
            ("policy", policy_value(policy)),
            ("routing", string(&format!("{routing:?}"))),
        ]),
    }
}

fn policy_value(p: &CrcPolicy) -> JsonValue {
    match p {
        CrcPolicy::LatencyMinimize => obj(vec![("kind", string("latency_minimize"))]),
        CrcPolicy::CongestionBalance => obj(vec![("kind", string("congestion_balance"))]),
        CrcPolicy::PowerCap { budget } => obj(vec![
            ("budget_mw", uint(budget.as_milliwatts())),
            ("kind", string("power_cap")),
        ]),
        CrcPolicy::Hybrid { budget } => obj(vec![
            ("budget_mw", uint(budget.as_milliwatts())),
            ("kind", string("hybrid")),
        ]),
    }
}

fn fec_name(f: &FecSetting) -> String {
    match f {
        FecSetting::Default => "default".into(),
        FecSetting::Fixed(FecMode::None) => "none".into(),
        FecSetting::Fixed(FecMode::FireCode) => "firecode".into(),
        FecSetting::Fixed(FecMode::Rs528) => "rs528".into(),
        FecSetting::Fixed(FecMode::Rs544) => "rs544".into(),
    }
}

fn power_name(p: PowerState) -> &'static str {
    match p {
        PowerState::Active => "active",
        PowerState::LowPower => "low_power",
        PowerState::Off => "off",
    }
}

fn workload_value(w: &WorkloadSpec) -> JsonValue {
    match w {
        WorkloadSpec::Shuffle { partition, load } => obj(vec![
            ("kind", string("shuffle")),
            ("load", float(*load)),
            ("partition_bytes", uint(partition.as_u64())),
        ]),
        WorkloadSpec::Incast { request, load } => obj(vec![
            ("kind", string("incast")),
            ("load", float(*load)),
            ("request_bytes", uint(request.as_u64())),
        ]),
        WorkloadSpec::Permutation { size, load } => obj(vec![
            ("kind", string("permutation")),
            ("load", float(*load)),
            ("size_bytes", uint(size.as_u64())),
        ]),
        WorkloadSpec::SingleFlow { size, load } => obj(vec![
            ("kind", string("single_flow")),
            ("load", float(*load)),
            ("size_bytes", uint(size.as_u64())),
        ]),
        WorkloadSpec::Uniform {
            flows_per_node,
            size,
            mean_interarrival,
            load,
        } => obj(vec![
            ("flows_per_node", float(*flows_per_node)),
            ("kind", string("uniform")),
            ("load", float(*load)),
            ("mean_interarrival_ps", uint(mean_interarrival.as_picos())),
            ("size_bytes", uint(size.as_u64())),
        ]),
        WorkloadSpec::Hotspot {
            flows_per_node,
            size,
            zipf_exponent,
            load,
        } => obj(vec![
            ("flows_per_node", float(*flows_per_node)),
            ("kind", string("hotspot")),
            ("load", float(*load)),
            ("size_bytes", uint(size.as_u64())),
            ("zipf_exponent", float(*zipf_exponent)),
        ]),
        WorkloadSpec::Storage {
            ops_per_node,
            io_size,
            read_fraction,
            load,
        } => obj(vec![
            ("io_size_bytes", uint(io_size.as_u64())),
            ("kind", string("storage")),
            ("load", float(*load)),
            ("ops_per_node", float(*ops_per_node)),
            ("read_fraction", float(*read_fraction)),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_sim::time::{SimDuration, SimTime};
    use rackfabric_sim::units::Bytes;

    fn base() -> ScenarioSpec {
        ScenarioSpec::new(
            "key-unit",
            TopologySpec::grid(3, 3, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(4)),
        )
        .horizon(SimTime::from_millis(10))
        .seed(42)
    }

    #[test]
    fn key_is_deterministic_and_hexes_round_trip() {
        let k = job_key(&base());
        assert_eq!(k, job_key(&base()));
        assert_eq!(JobKey::from_hex(&k.hex()), Some(k));
        assert_eq!(k.hex().len(), 32);
    }

    #[test]
    fn result_shaping_fields_change_the_key() {
        let k = job_key(&base());
        assert_ne!(k, job_key(&base().seed(43)));
        assert_ne!(k, job_key(&base().horizon(SimTime::from_millis(11))));
        assert_ne!(k, job_key(&base().mtu(Bytes::new(9000))));
        assert_ne!(
            k,
            job_key(&base().train_window(SimDuration::from_nanos(100)))
        );
        assert_ne!(k, job_key(&base().controller(ControllerSpec::Baseline)));
    }

    #[test]
    fn physical_layer_knobs_change_the_key() {
        use rackfabric_phy::PlpTiming;
        use rackfabric_sim::units::{Bytes, Length};
        use rackfabric_switch::model::SwitchModel;

        let k = job_key(&base());
        assert_ne!(
            k,
            job_key(&base().switch_model(SwitchModel::store_and_forward())),
            "forwarding discipline shapes per-hop latency"
        );
        assert_ne!(
            k,
            job_key(&base().switch_model(SwitchModel::with_pipeline(SimDuration::from_nanos(250)))),
            "pipeline latency shapes per-hop latency"
        );
        assert_ne!(
            k,
            job_key(&base().port_buffer(Bytes::from_kib(64))),
            "buffer depth shapes drops and queueing"
        );
        assert_ne!(
            k,
            job_key(&base().plp_timing(PlpTiming::default().scaled(10.0))),
            "reconfiguration cost shapes adaptive runs"
        );
        let mut bypassed = base();
        bypassed.phy.bypassed_nodes = 2;
        assert_ne!(k, job_key(&bypassed), "bypass chains shape the datapath");
        let mut spaced = base();
        spaced.topology = spaced.topology.with_rack_spacing(Length::from_m(20));
        assert_ne!(
            k,
            job_key(&spaced),
            "inter-rack cable length shapes propagation delay and lookahead"
        );
    }

    #[test]
    fn result_neutral_fields_do_not_change_the_key() {
        let k = job_key(&base());
        // Campaign name is a label.
        let mut renamed = base();
        renamed.name = "other-name".into();
        assert_eq!(k, job_key(&renamed));
        // Every shard count is byte-identical (0 runs as 1).
        assert_eq!(k, job_key(&base().shards(0)));
        assert_eq!(k, job_key(&base().shards(4)));
        // Topology display name is a label.
        let mut t = TopologySpec::grid(3, 3, 2);
        t.name = "renamed-topology".into();
        let mut spec = base();
        spec.topology = t;
        assert_eq!(k, job_key(&spec));
    }

    #[test]
    fn canonical_json_parses_and_is_sorted() {
        let text = canonical_spec_json(&base());
        let doc = rackfabric_sim::json::parse(&text).unwrap();
        assert!(doc.get("engine").is_none());
        assert!(doc.get("scheduler").is_none());
        assert!(doc.get("shards").is_none());
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
