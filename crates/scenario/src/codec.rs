//! The spec wire format: canonical JSON for a [`ScenarioSpec`], in both
//! directions.
//!
//! [`canonical_spec_json`] renders every result-shaping field with sorted
//! object keys and no whitespace. Its bytes are the job-key preimage that
//! addresses every stored result. [`decode_spec`] is its inverse. The
//! journal uses it to replay a job record without the matrix that produced
//! it, and the daemon uses it to accept submitted specs.
//!
//! The round-trip contract is `canonical(decode(canonical(s))) ==
//! canonical(s)`, so a replayed job lands under the same content key as the
//! original. Each enum's wire name is defined once in this module and read
//! in both directions. Renaming a Rust variant therefore cannot re-key
//! stored results.
//!
//! The key deliberately **excludes** every knob that is proven
//! result-neutral:
//!
//! * the shard **count**: every run is byte-identical whatever the count
//!   (`tests/shard_determinism.rs`);
//! * worker/thread counts, which are never part of the spec;
//! * the campaign and topology display names, which are labels.
//!
//! Decoding fills these with defaults. The default single shard is the
//! canonical representative of every shard count.

use crate::spec::{ControllerSpec, FecSetting, ScenarioSpec, WorkloadSpec};
use rackfabric::policy::CrcPolicy;
use rackfabric_phy::{FecMode, MediaKind, PlpTiming, PowerState};
use rackfabric_sim::json::{self, JsonValue};
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::units::{BitRate, Bytes, Length, Power};
use rackfabric_switch::model::{SwitchKind, SwitchModel};
use rackfabric_topo::graph::NodeId;
use rackfabric_topo::routing::RoutingAlgorithm;
use rackfabric_topo::spec::{EdgeSpec, LinkClass, TopologyKind, TopologySpec};

/// Declares one enum's wire names. `$encode` is an exhaustive match, so a
/// new variant does not build until it is named here; `$decode` parses the
/// same names back.
macro_rules! wire_names {
    ($ty:ident, $what:literal, $encode:ident, $decode:ident {
        $($variant:ident => $name:literal,)+
    }) => {
        fn $encode(value: $ty) -> &'static str {
            match value {
                $($ty::$variant => $name,)+
            }
        }

        fn $decode(name: &str) -> Result<$ty, String> {
            match name {
                $($name => Ok($ty::$variant),)+
                other => Err(format!(concat!("unknown ", $what, " {:?}"), other)),
            }
        }
    };
}

// Routing, topology kind, media and link class keep the spelling of their
// Rust variant names: that is how stored keys have always rendered them.
wire_names!(RoutingAlgorithm, "routing algorithm", routing_name, decode_routing {
    ShortestHop => "ShortestHop",
    MinCost => "MinCost",
    Ecmp => "Ecmp",
    DimensionOrdered => "DimensionOrdered",
    Valiant => "Valiant",
    Adaptive => "Adaptive",
});

wire_names!(TopologyKind, "topology kind", topology_kind_name, decode_topology_kind {
    Line => "Line",
    Ring => "Ring",
    Grid => "Grid",
    Torus => "Torus",
    Hypercube => "Hypercube",
    FatTree => "FatTree",
    Dragonfly => "Dragonfly",
});

wire_names!(MediaKind, "media kind", media_name, decode_media {
    CopperDac => "CopperDac",
    OpticalFiber => "OpticalFiber",
    Backplane => "Backplane",
});

wire_names!(LinkClass, "link class", link_class_name, decode_link_class {
    IntraRack => "IntraRack",
    InterRack => "InterRack",
});

wire_names!(PowerState, "power state", power_name, decode_power {
    Active => "active",
    LowPower => "low_power",
    Off => "off",
});

wire_names!(SwitchKind, "switch kind", switch_kind_name, decode_switch_kind {
    CutThrough => "cut_through",
    StoreAndForward => "store_and_forward",
});

/// The `routing` value of a spec without a routing override.
const CONTROLLER_DEFAULT: &str = "controller-default";

/// The `kind` names of controllers and workloads.
mod kind {
    pub const BASELINE: &str = "baseline";
    pub const ADAPTIVE: &str = "adaptive";
    pub const SHUFFLE: &str = "shuffle";
    pub const INCAST: &str = "incast";
    pub const PERMUTATION: &str = "permutation";
    pub const SINGLE_FLOW: &str = "single_flow";
    pub const UNIFORM: &str = "uniform";
    pub const HOTSPOT: &str = "hotspot";
    pub const STORAGE: &str = "storage";
}

/// The canonical JSON preimage of a spec's key: every result-shaping field,
/// rendered with sorted object keys and no whitespace. This is what gets
/// hashed, and also what the store records next to each result.
pub fn canonical_spec_json(spec: &ScenarioSpec) -> String {
    json::canonical(&spec_value(spec))
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
    // `spec.name` and the shard count are intentionally absent: see the
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
                ("fec", string(&spec.phy.fec.label())),
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
            string(spec.routing.map_or(CONTROLLER_DEFAULT, routing_name)),
        ),
        ("seed", uint(spec.seed)),
        (
            "switch",
            obj(vec![
                ("kind", string(switch_kind_name(spec.switch.kind))),
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
                string(media_name(e.media)),
                string(link_class_name(e.class)),
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
        ("kind", string(topology_kind_name(t.kind))),
        ("nodes", uint(t.nodes as u64)),
    ])
}

fn controller_value(c: &ControllerSpec) -> JsonValue {
    match c {
        ControllerSpec::Baseline => obj(vec![("kind", string(kind::BASELINE))]),
        ControllerSpec::Adaptive {
            policy,
            epoch,
            routing,
        } => obj(vec![
            ("epoch_ps", uint(epoch.as_picos())),
            ("kind", string(kind::ADAPTIVE)),
            ("policy", policy_value(policy)),
            ("routing", string(routing_name(*routing))),
        ]),
    }
}

fn policy_value(p: &CrcPolicy) -> JsonValue {
    let kind = ("kind", string(p.name()));
    match p {
        CrcPolicy::LatencyMinimize | CrcPolicy::CongestionBalance => obj(vec![kind]),
        CrcPolicy::PowerCap { budget } | CrcPolicy::Hybrid { budget } => {
            obj(vec![("budget_mw", uint(budget.as_milliwatts())), kind])
        }
    }
}

fn workload_value(w: &WorkloadSpec) -> JsonValue {
    match w {
        WorkloadSpec::Shuffle { partition, load } => obj(vec![
            ("kind", string(kind::SHUFFLE)),
            ("load", float(*load)),
            ("partition_bytes", uint(partition.as_u64())),
        ]),
        WorkloadSpec::Incast { request, load } => obj(vec![
            ("kind", string(kind::INCAST)),
            ("load", float(*load)),
            ("request_bytes", uint(request.as_u64())),
        ]),
        WorkloadSpec::Permutation { size, load } => obj(vec![
            ("kind", string(kind::PERMUTATION)),
            ("load", float(*load)),
            ("size_bytes", uint(size.as_u64())),
        ]),
        WorkloadSpec::SingleFlow { size, load } => obj(vec![
            ("kind", string(kind::SINGLE_FLOW)),
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
            ("kind", string(kind::UNIFORM)),
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
            ("kind", string(kind::HOTSPOT)),
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
            ("kind", string(kind::STORAGE)),
            ("load", float(*load)),
            ("ops_per_node", float(*ops_per_node)),
            ("read_fraction", float(*read_fraction)),
        ]),
    }
}

/// Decodes a canonical spec JSON document into a runnable spec.
///
/// Any document this accepts can be run: malformed input, including edges
/// that name a missing node, returns an error instead of panicking later
/// in topology construction.
pub fn decode_spec(spec_json: &str) -> Result<ScenarioSpec, String> {
    let doc = json::parse(spec_json).map_err(|e| format!("spec json: {e}"))?;
    let topology = decode_topology(field(&doc, "topology")?)?;
    let workload = decode_workload(field(&doc, "workload")?)?;
    let mut spec = ScenarioSpec::new("replayed", topology, workload);

    spec.upgrade = match field(&doc, "upgrade")? {
        JsonValue::Null => None,
        t => Some(decode_topology(t)?),
    };
    spec.controller = decode_controller(field(&doc, "controller")?)?;
    spec.event_budget = uint_field(&doc, "event_budget")?;
    spec.horizon = SimTime::from_picos(uint_field(&doc, "horizon_ps")?);
    spec.lane_rate = BitRate::from_bps(uint_field(&doc, "lane_rate_bps")?);
    spec.mtu = Bytes::new(uint_field(&doc, "mtu_bytes")?);
    spec.port_buffer = Bytes::new(uint_field(&doc, "port_buffer_bytes")?);
    spec.seed = uint_field(&doc, "seed")?;
    spec.stop_when_done = field(&doc, "stop_when_done")?
        .as_bool()
        .ok_or("stop_when_done: not a bool")?;
    spec.train_window = SimDuration::from_picos(uint_field(&doc, "train_window_ps")?);
    spec.routing = match str_field(&doc, "routing")? {
        CONTROLLER_DEFAULT => None,
        name => Some(decode_routing(name)?),
    };

    let phy = field(&doc, "phy")?;
    spec.phy.bypassed_nodes = size(uint_field(phy, "bypassed_nodes")?, "bypassed_nodes")?;
    spec.phy.fec = decode_fec(str_field(phy, "fec")?)?;
    spec.phy.active_lanes = match field(phy, "lanes")? {
        JsonValue::Null => None,
        n => Some(size(
            n.as_u64().ok_or("phy.lanes: not a u64")?,
            "phy.lanes",
        )?),
    };
    spec.phy.power = decode_power(str_field(phy, "power")?)?;

    let plp = field(&doc, "plp_timing")?;
    let ps = |name: &str| -> Result<SimDuration, String> {
        Ok(SimDuration::from_picos(uint_field(plp, name)?))
    };
    spec.plp_timing = PlpTiming {
        split: ps("split_ps")?,
        bundle: ps("bundle_ps")?,
        move_lanes: ps("move_lanes_ps")?,
        set_active_lanes: ps("set_active_lanes_ps")?,
        set_power: ps("set_power_ps")?,
        set_fec: ps("set_fec_ps")?,
        bypass: ps("bypass_ps")?,
    };

    let switch = field(&doc, "switch")?;
    spec.switch = SwitchModel {
        kind: decode_switch_kind(str_field(switch, "kind")?)?,
        pipeline_latency: SimDuration::from_picos(uint_field(switch, "pipeline_ps")?),
    };

    Ok(spec)
}

fn field<'a>(doc: &'a JsonValue, name: &str) -> Result<&'a JsonValue, String> {
    doc.get(name)
        .ok_or_else(|| format!("missing field {name:?}"))
}

fn str_field<'a>(doc: &'a JsonValue, name: &str) -> Result<&'a str, String> {
    field(doc, name)?
        .as_str()
        .ok_or_else(|| format!("{name}: not a string"))
}

fn uint_field(doc: &JsonValue, name: &str) -> Result<u64, String> {
    field(doc, name)?
        .as_u64()
        .ok_or_else(|| format!("{name}: not a u64"))
}

/// A count from the wire as a `usize`, refusing values the platform cannot
/// hold instead of truncating them.
fn size(n: u64, name: &str) -> Result<usize, String> {
    usize::try_from(n).map_err(|_| format!("{name}: {n} exceeds usize"))
}

fn float_field(doc: &JsonValue, name: &str) -> Result<f64, String> {
    field(doc, name)?
        .as_f64()
        .ok_or_else(|| format!("{name}: not a number"))
}

fn decode_fec(name: &str) -> Result<FecSetting, String> {
    std::iter::once(FecSetting::Default)
        .chain(FecMode::ALL.map(FecSetting::Fixed))
        .find(|fec| fec.label() == name)
        .ok_or_else(|| format!("unknown fec setting {name:?}"))
}

fn decode_policy(doc: &JsonValue) -> Result<CrcPolicy, String> {
    let name = str_field(doc, "kind")?;
    let budget = || Ok::<_, String>(Power::from_milliwatts(uint_field(doc, "budget_mw")?));
    match [
        CrcPolicy::LatencyMinimize,
        CrcPolicy::CongestionBalance,
        CrcPolicy::PowerCap {
            budget: Power::ZERO,
        },
        CrcPolicy::Hybrid {
            budget: Power::ZERO,
        },
    ]
    .into_iter()
    .find(|policy| policy.name() == name)
    {
        Some(CrcPolicy::PowerCap { .. }) => Ok(CrcPolicy::PowerCap { budget: budget()? }),
        Some(CrcPolicy::Hybrid { .. }) => Ok(CrcPolicy::Hybrid { budget: budget()? }),
        Some(policy) => Ok(policy),
        None => Err(format!("unknown crc policy {name:?}")),
    }
}

fn decode_controller(doc: &JsonValue) -> Result<ControllerSpec, String> {
    match str_field(doc, "kind")? {
        kind::BASELINE => Ok(ControllerSpec::Baseline),
        kind::ADAPTIVE => Ok(ControllerSpec::Adaptive {
            policy: decode_policy(field(doc, "policy")?)?,
            epoch: SimDuration::from_picos(uint_field(doc, "epoch_ps")?),
            routing: decode_routing(str_field(doc, "routing")?)?,
        }),
        other => Err(format!("unknown controller kind {other:?}")),
    }
}

fn decode_topology(doc: &JsonValue) -> Result<TopologySpec, String> {
    let kind = decode_topology_kind(str_field(doc, "kind")?)?;
    let nodes = uint_field(doc, "nodes")?;
    let dims = match field(doc, "dims")? {
        JsonValue::Null => None,
        d => {
            let pair = d.as_array().ok_or("dims: not an array")?;
            if pair.len() != 2 {
                return Err("dims: expected [rows, cols]".into());
            }
            Some((
                size(pair[0].as_u64().ok_or("dims[0]: not a u64")?, "dims[0]")?,
                size(pair[1].as_u64().ok_or("dims[1]: not a u64")?, "dims[1]")?,
            ))
        }
    };
    let edges = field(doc, "edges")?
        .as_array()
        .ok_or("edges: not an array")?
        .iter()
        .map(|edge| decode_edge(edge, nodes))
        .collect::<Result<Vec<EdgeSpec>, String>>()?;
    Ok(TopologySpec {
        // Display names are key-excluded; replayed topologies get a marker.
        name: "replayed".into(),
        kind,
        nodes: size(nodes, "nodes")?,
        edges,
        dims,
    })
}

/// Decodes one `[a, b, lanes, length_mm, media, class]` edge of a topology
/// with `nodes` nodes.
fn decode_edge(doc: &JsonValue, nodes: u64) -> Result<EdgeSpec, String> {
    let parts = doc.as_array().ok_or("edge: not an array")?;
    if parts.len() != 6 {
        return Err(format!("edge: expected 6 fields, got {}", parts.len()));
    }
    let num = |i: usize| -> Result<u64, String> {
        parts[i]
            .as_u64()
            .ok_or_else(|| format!("edge[{i}]: not a u64"))
    };
    let text = |i: usize| -> Result<&str, String> {
        parts[i]
            .as_str()
            .ok_or_else(|| format!("edge[{i}]: not a string"))
    };
    let endpoint = |i: usize| -> Result<NodeId, String> {
        let n = num(i)?;
        match u32::try_from(n) {
            Ok(id) if n < nodes => Ok(NodeId(id)),
            _ => Err(format!(
                "edge[{i}]: node {n} out of range for {nodes} nodes"
            )),
        }
    };
    let (a, b) = (endpoint(0)?, endpoint(1)?);
    if a == b {
        return Err(format!("edge: self-loop at node {}", a.0));
    }
    Ok(EdgeSpec {
        a,
        b,
        lanes: size(num(2)?, "edge lanes")?,
        length: Length::from_mm(num(3)?),
        media: decode_media(text(4)?)?,
        class: decode_link_class(text(5)?)?,
    })
}

fn decode_workload(doc: &JsonValue) -> Result<WorkloadSpec, String> {
    let load = float_field(doc, "load")?;
    let bytes = |name: &str| Ok::<_, String>(Bytes::new(uint_field(doc, name)?));
    Ok(match str_field(doc, "kind")? {
        kind::SHUFFLE => WorkloadSpec::Shuffle {
            partition: bytes("partition_bytes")?,
            load,
        },
        kind::INCAST => WorkloadSpec::Incast {
            request: bytes("request_bytes")?,
            load,
        },
        kind::PERMUTATION => WorkloadSpec::Permutation {
            size: bytes("size_bytes")?,
            load,
        },
        kind::SINGLE_FLOW => WorkloadSpec::SingleFlow {
            size: bytes("size_bytes")?,
            load,
        },
        kind::UNIFORM => WorkloadSpec::Uniform {
            flows_per_node: float_field(doc, "flows_per_node")?,
            size: bytes("size_bytes")?,
            mean_interarrival: SimDuration::from_picos(uint_field(doc, "mean_interarrival_ps")?),
            load,
        },
        kind::HOTSPOT => WorkloadSpec::Hotspot {
            flows_per_node: float_field(doc, "flows_per_node")?,
            size: bytes("size_bytes")?,
            zipf_exponent: float_field(doc, "zipf_exponent")?,
            load,
        },
        kind::STORAGE => WorkloadSpec::Storage {
            ops_per_node: float_field(doc, "ops_per_node")?,
            io_size: bytes("io_size_bytes")?,
            read_fraction: float_field(doc, "read_fraction")?,
            load,
        },
        other => return Err(format!("unknown workload kind {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ROUTINGS: [RoutingAlgorithm; 6] = [
        RoutingAlgorithm::ShortestHop,
        RoutingAlgorithm::MinCost,
        RoutingAlgorithm::Ecmp,
        RoutingAlgorithm::DimensionOrdered,
        RoutingAlgorithm::Valiant,
        RoutingAlgorithm::Adaptive,
    ];
    const MEDIA: [MediaKind; 3] = [
        MediaKind::CopperDac,
        MediaKind::OpticalFiber,
        MediaKind::Backplane,
    ];
    const CLASSES: [LinkClass; 2] = [LinkClass::IntraRack, LinkClass::InterRack];
    const POWER: [PowerState; 3] = [PowerState::Active, PowerState::LowPower, PowerState::Off];
    const SWITCHES: [SwitchKind; 2] = [SwitchKind::CutThrough, SwitchKind::StoreAndForward];

    /// One topology per kind (the kinds are drawn by index `0..7`).
    fn topology(kind: usize) -> TopologySpec {
        match kind {
            0 => TopologySpec::line(4, 2),
            1 => TopologySpec::ring(4, 1),
            2 => TopologySpec::grid(2, 3, 2),
            3 => TopologySpec::torus(2, 2, 1),
            4 => TopologySpec::hypercube(2, 1),
            5 => TopologySpec::fat_tree(4, 2, 1, 1),
            _ => TopologySpec::dragonfly(2, 1, 1, 1),
        }
    }

    fn fec(index: usize) -> FecSetting {
        match index {
            0 => FecSetting::Default,
            i => FecSetting::Fixed(FecMode::ALL[i - 1]),
        }
    }

    fn policy(index: usize, budget_mw: u64) -> CrcPolicy {
        let budget = Power::from_milliwatts(budget_mw);
        match index {
            0 => CrcPolicy::LatencyMinimize,
            1 => CrcPolicy::CongestionBalance,
            2 => CrcPolicy::PowerCap { budget },
            _ => CrcPolicy::Hybrid { budget },
        }
    }

    fn workload(index: usize, size: u64, x: f64, load: f64) -> WorkloadSpec {
        let bytes = Bytes::new(size);
        match index {
            0 => WorkloadSpec::Shuffle {
                partition: bytes,
                load,
            },
            1 => WorkloadSpec::Incast {
                request: bytes,
                load,
            },
            2 => WorkloadSpec::Permutation { size: bytes, load },
            3 => WorkloadSpec::SingleFlow { size: bytes, load },
            4 => WorkloadSpec::Uniform {
                flows_per_node: x,
                size: bytes,
                mean_interarrival: SimDuration::from_picos(size * 7),
                load,
            },
            5 => WorkloadSpec::Hotspot {
                flows_per_node: x,
                size: bytes,
                zipf_exponent: x / 3.0,
                load,
            },
            _ => WorkloadSpec::Storage {
                ops_per_node: x,
                io_size: bytes,
                read_fraction: x / 8.0,
                load,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every variant of every enum on the wire, and both `None` and
        /// `Some` for every optional field, survives
        /// `decode(canonical(s))` with the same canonical bytes. The job key
        /// hashes exactly those bytes, so it is unchanged too.
        #[test]
        fn every_spec_round_trips_through_the_codec(
            kind in 0usize..7,
            upgrade_kind in 0usize..8,
            media in 0usize..3,
            class in 0usize..2,
            routing_override in 0usize..7,
            controller in 0usize..5,
            controller_routing in 0usize..6,
            fec_index in 0usize..5,
            power in 0usize..3,
            switch in 0usize..2,
            workload_index in 0usize..7,
            lanes in 0usize..4,
            size in 1u64..1_000_000,
            x in 0.0f64..8.0,
            load in 0.01f64..4.0,
            seed in 0u64..u64::MAX,
        ) {
            let mut topo = topology(kind);
            topo.edges[0].media = MEDIA[media];
            topo.edges[0].class = CLASSES[class];
            let mut spec = ScenarioSpec::new("codec-property", topo, workload(workload_index, size, x, load))
                .seed(seed)
                .shards(1 + lanes)
                .switch_model(SwitchModel {
                    kind: SWITCHES[switch],
                    pipeline_latency: SimDuration::from_picos(size),
                });
            if upgrade_kind < 7 {
                spec.upgrade = Some(topology(upgrade_kind));
            }
            if routing_override > 0 {
                spec.routing = Some(ROUTINGS[routing_override - 1]);
            }
            spec.controller = match controller {
                0 => ControllerSpec::Baseline,
                p => ControllerSpec::Adaptive {
                    policy: policy(p - 1, size),
                    epoch: SimDuration::from_picos(size * 1000),
                    routing: ROUTINGS[controller_routing],
                },
            };
            spec.phy.fec = fec(fec_index);
            spec.phy.power = POWER[power];
            spec.phy.active_lanes = (lanes > 0).then_some(lanes);
            spec.phy.bypassed_nodes = lanes;

            let canonical = canonical_spec_json(&spec);
            let mut decoded = decode_spec(&canonical).expect("decode");
            prop_assert_eq!(canonical_spec_json(&decoded), canonical);
            // Beyond the bytes, decoding loses only the key-neutral labels
            // and shard count.
            decoded.name = spec.name.clone();
            decoded.shards = spec.shards;
            decoded.topology.name = spec.topology.name.clone();
            if let (Some(d), Some(s)) = (&mut decoded.upgrade, &spec.upgrade) {
                d.name = s.name.clone();
            }
            prop_assert_eq!(decoded, spec);
        }
    }

    #[test]
    fn malformed_specs_error_instead_of_panicking() {
        let valid = canonical_spec_json(&ScenarioSpec::new(
            "codec-malformed",
            TopologySpec::grid(2, 2, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(4)),
        ));
        let first_edge = "[[0,1,2,2000,";
        assert!(valid.contains(first_edge));
        let with_first_edge =
            |endpoints: &str| valid.replacen(first_edge, &format!("[[{endpoints},2,2000,"), 1);
        for bad in [
            "not json".to_string(),
            "{}".to_string(),
            "{\"workload\":{\"kind\":\"shuffle\"}}".to_string(),
            "{\"topology\":{\"kind\":\"Moebius\"}}".to_string(),
            // An endpoint past the node count.
            with_first_edge("0,99"),
            // A self-loop.
            with_first_edge("1,1"),
            // An endpoint above u32::MAX, which used to truncate to node 0.
            with_first_edge("4294967296,1"),
        ] {
            assert!(decode_spec(&bad).is_err(), "accepted {bad:?}");
        }
        assert!(decode_spec(&with_first_edge("0,1")).is_ok());
    }
}
