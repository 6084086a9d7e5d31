//! Decoding canonical spec JSON back into a runnable [`ScenarioSpec`].
//!
//! The sweep layer's [`canonical_spec_json`] is the job-key preimage: every
//! result-shaping field, serialised with sorted keys. This module is its
//! inverse, which is what lets the journal replay an `execute-cell` record
//! without the matrix that originally produced it: the record alone carries
//! the complete simulation input.
//!
//! The round-trip contract — checked by the tests here and relied on by
//! recovery — is `job_key(decode(canonical(spec))) == job_key(spec)`: a
//! replayed job lands under the same content key (and therefore the same
//! store record) as the original.
//!
//! [`canonical_spec_json`]: rackfabric_sweep::key::canonical_spec_json

use rackfabric::policy::CrcPolicy;
use rackfabric_phy::MediaKind;
use rackfabric_phy::{FecMode, PlpTiming, PowerState};
use rackfabric_scenario::spec::{ControllerSpec, FecSetting, ScenarioSpec, WorkloadSpec};
use rackfabric_sim::json::{self, JsonValue};
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::units::{BitRate, Bytes, Length, Power};
use rackfabric_switch::model::{SwitchKind, SwitchModel};
use rackfabric_topo::graph::NodeId;
use rackfabric_topo::routing::RoutingAlgorithm;
use rackfabric_topo::spec::{EdgeSpec, LinkClass, TopologyKind, TopologySpec};

/// Decodes a canonical spec JSON document into a runnable spec.
///
/// Key-neutral fields (name, shard count) get defaults: every shard count is
/// key-equivalent, so the default single shard is the canonical
/// representative.
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
        "controller-default" => None,
        name => Some(decode_routing(name)?),
    };

    let phy = field(&doc, "phy")?;
    spec.phy.bypassed_nodes = uint_field(phy, "bypassed_nodes")? as usize;
    spec.phy.fec = decode_fec(str_field(phy, "fec")?)?;
    spec.phy.active_lanes = match field(phy, "lanes")? {
        JsonValue::Null => None,
        n => Some(n.as_u64().ok_or("phy.lanes: not a number")? as usize),
    };
    spec.phy.power = match str_field(phy, "power")? {
        "active" => PowerState::Active,
        "low_power" => PowerState::LowPower,
        "off" => PowerState::Off,
        other => return Err(format!("unknown power state {other:?}")),
    };

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
        kind: match str_field(switch, "kind")? {
            "cut_through" => SwitchKind::CutThrough,
            "store_and_forward" => SwitchKind::StoreAndForward,
            other => return Err(format!("unknown switch kind {other:?}")),
        },
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

fn float_field(doc: &JsonValue, name: &str) -> Result<f64, String> {
    field(doc, name)?
        .as_f64()
        .ok_or_else(|| format!("{name}: not a number"))
}

fn decode_routing(name: &str) -> Result<RoutingAlgorithm, String> {
    // Inverse of the `{:?}` rendering used by the key serialiser.
    Ok(match name {
        "ShortestHop" => RoutingAlgorithm::ShortestHop,
        "MinCost" => RoutingAlgorithm::MinCost,
        "Ecmp" => RoutingAlgorithm::Ecmp,
        "DimensionOrdered" => RoutingAlgorithm::DimensionOrdered,
        "Valiant" => RoutingAlgorithm::Valiant,
        "Adaptive" => RoutingAlgorithm::Adaptive,
        other => return Err(format!("unknown routing algorithm {other:?}")),
    })
}

fn decode_fec(name: &str) -> Result<FecSetting, String> {
    Ok(match name {
        "default" => FecSetting::Default,
        "none" => FecSetting::Fixed(FecMode::None),
        "firecode" => FecSetting::Fixed(FecMode::FireCode),
        "rs528" => FecSetting::Fixed(FecMode::Rs528),
        "rs544" => FecSetting::Fixed(FecMode::Rs544),
        other => return Err(format!("unknown fec setting {other:?}")),
    })
}

fn decode_controller(doc: &JsonValue) -> Result<ControllerSpec, String> {
    match str_field(doc, "kind")? {
        "baseline" => Ok(ControllerSpec::Baseline),
        "adaptive" => {
            let policy_doc = field(doc, "policy")?;
            let policy = match str_field(policy_doc, "kind")? {
                "latency_minimize" => CrcPolicy::LatencyMinimize,
                "congestion_balance" => CrcPolicy::CongestionBalance,
                "power_cap" => CrcPolicy::PowerCap {
                    budget: Power::from_milliwatts(uint_field(policy_doc, "budget_mw")?),
                },
                "hybrid" => CrcPolicy::Hybrid {
                    budget: Power::from_milliwatts(uint_field(policy_doc, "budget_mw")?),
                },
                other => return Err(format!("unknown crc policy {other:?}")),
            };
            Ok(ControllerSpec::Adaptive {
                policy,
                epoch: SimDuration::from_picos(uint_field(doc, "epoch_ps")?),
                routing: decode_routing(str_field(doc, "routing")?)?,
            })
        }
        other => Err(format!("unknown controller kind {other:?}")),
    }
}

fn decode_topology(doc: &JsonValue) -> Result<TopologySpec, String> {
    let kind = match str_field(doc, "kind")? {
        "Line" => TopologyKind::Line,
        "Ring" => TopologyKind::Ring,
        "Grid" => TopologyKind::Grid,
        "Torus" => TopologyKind::Torus,
        "Hypercube" => TopologyKind::Hypercube,
        "FatTree" => TopologyKind::FatTree,
        "Dragonfly" => TopologyKind::Dragonfly,
        other => return Err(format!("unknown topology kind {other:?}")),
    };
    let dims = match field(doc, "dims")? {
        JsonValue::Null => None,
        d => {
            let pair = d.as_array().ok_or("dims: not an array")?;
            if pair.len() != 2 {
                return Err("dims: expected [rows, cols]".into());
            }
            Some((
                pair[0].as_u64().ok_or("dims[0]: not a u64")? as usize,
                pair[1].as_u64().ok_or("dims[1]: not a u64")? as usize,
            ))
        }
    };
    let edges = field(doc, "edges")?
        .as_array()
        .ok_or("edges: not an array")?
        .iter()
        .map(decode_edge)
        .collect::<Result<Vec<EdgeSpec>, String>>()?;
    Ok(TopologySpec {
        // Display names are key-excluded; replayed topologies get a marker.
        name: "replayed".into(),
        kind,
        nodes: uint_field(doc, "nodes")? as usize,
        edges,
        dims,
    })
}

fn decode_edge(doc: &JsonValue) -> Result<EdgeSpec, String> {
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
    Ok(EdgeSpec {
        a: NodeId(num(0)? as u32),
        b: NodeId(num(1)? as u32),
        lanes: num(2)? as usize,
        length: Length::from_mm(num(3)?),
        media: match text(4)? {
            "CopperDac" => MediaKind::CopperDac,
            "OpticalFiber" => MediaKind::OpticalFiber,
            "Backplane" => MediaKind::Backplane,
            other => return Err(format!("unknown media kind {other:?}")),
        },
        class: match text(5)? {
            "IntraRack" => LinkClass::IntraRack,
            "InterRack" => LinkClass::InterRack,
            other => return Err(format!("unknown link class {other:?}")),
        },
    })
}

fn decode_workload(doc: &JsonValue) -> Result<WorkloadSpec, String> {
    let load = float_field(doc, "load")?;
    Ok(match str_field(doc, "kind")? {
        "shuffle" => WorkloadSpec::Shuffle {
            partition: Bytes::new(uint_field(doc, "partition_bytes")?),
            load,
        },
        "incast" => WorkloadSpec::Incast {
            request: Bytes::new(uint_field(doc, "request_bytes")?),
            load,
        },
        "permutation" => WorkloadSpec::Permutation {
            size: Bytes::new(uint_field(doc, "size_bytes")?),
            load,
        },
        "single_flow" => WorkloadSpec::SingleFlow {
            size: Bytes::new(uint_field(doc, "size_bytes")?),
            load,
        },
        "uniform" => WorkloadSpec::Uniform {
            flows_per_node: float_field(doc, "flows_per_node")?,
            size: Bytes::new(uint_field(doc, "size_bytes")?),
            mean_interarrival: SimDuration::from_picos(uint_field(doc, "mean_interarrival_ps")?),
            load,
        },
        "hotspot" => WorkloadSpec::Hotspot {
            flows_per_node: float_field(doc, "flows_per_node")?,
            size: Bytes::new(uint_field(doc, "size_bytes")?),
            zipf_exponent: float_field(doc, "zipf_exponent")?,
            load,
        },
        "storage" => WorkloadSpec::Storage {
            ops_per_node: float_field(doc, "ops_per_node")?,
            io_size: Bytes::new(uint_field(doc, "io_size_bytes")?),
            read_fraction: float_field(doc, "read_fraction")?,
            load,
        },
        other => return Err(format!("unknown workload kind {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_sim::units::Bytes;
    use rackfabric_sweep::key::{canonical_spec_json, job_key};

    fn assert_round_trip(spec: &ScenarioSpec) {
        let canonical = canonical_spec_json(spec);
        let decoded = decode_spec(&canonical).expect("decode");
        assert_eq!(
            canonical_spec_json(&decoded),
            canonical,
            "decode must reproduce the canonical form byte for byte"
        );
        assert_eq!(job_key(&decoded), job_key(spec));
    }

    #[test]
    fn default_grid_shuffle_round_trips() {
        assert_round_trip(
            &ScenarioSpec::new(
                "codec-unit",
                TopologySpec::grid(3, 3, 2),
                WorkloadSpec::shuffle(Bytes::from_kib(4)),
            )
            .seed(42),
        );
    }

    #[test]
    fn every_workload_kind_round_trips() {
        let topo = TopologySpec::grid(2, 2, 2);
        let workloads = vec![
            WorkloadSpec::Shuffle {
                partition: Bytes::from_kib(8),
                load: 0.75,
            },
            WorkloadSpec::Incast {
                request: Bytes::from_kib(2),
                load: 1.0,
            },
            WorkloadSpec::Permutation {
                size: Bytes::from_kib(16),
                load: 0.5,
            },
            WorkloadSpec::SingleFlow {
                size: Bytes::from_mib(1),
                load: 1.0,
            },
            WorkloadSpec::Uniform {
                flows_per_node: 2.5,
                size: Bytes::from_kib(4),
                mean_interarrival: SimDuration::from_picos(12_345),
                load: 0.9,
            },
            WorkloadSpec::Hotspot {
                flows_per_node: 3.0,
                size: Bytes::from_kib(4),
                zipf_exponent: 1.2,
                load: 0.8,
            },
            WorkloadSpec::Storage {
                ops_per_node: 4.0,
                io_size: Bytes::from_kib(64),
                read_fraction: 0.7,
                load: 0.6,
            },
        ];
        for workload in workloads {
            assert_round_trip(&ScenarioSpec::new(
                "codec-workloads",
                topo.clone(),
                workload,
            ));
        }
    }

    #[test]
    fn controllers_policies_phy_and_engine_knobs_round_trip() {
        let base = ScenarioSpec::new(
            "codec-knobs",
            TopologySpec::dragonfly(3, 4, 2, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(4)),
        );
        let mut adaptive = base.clone();
        adaptive.controller = ControllerSpec::Adaptive {
            policy: CrcPolicy::Hybrid {
                budget: Power::from_milliwatts(1500),
            },
            epoch: SimDuration::from_picos(5_000_000),
            routing: RoutingAlgorithm::Adaptive,
        };
        adaptive.routing = Some(RoutingAlgorithm::Valiant);
        adaptive.phy.fec = FecSetting::Fixed(FecMode::Rs544);
        adaptive.phy.active_lanes = Some(2);
        adaptive.phy.power = PowerState::LowPower;
        adaptive.phy.bypassed_nodes = 2;
        adaptive.shards = 3; // key-neutral: decodes to the default count
        adaptive.upgrade = Some(TopologySpec::grid(2, 2, 1));
        assert_round_trip(&adaptive);

        let mut power_cap = base;
        power_cap.controller = ControllerSpec::Adaptive {
            policy: CrcPolicy::PowerCap {
                budget: Power::from_milliwatts(900),
            },
            epoch: SimDuration::from_picos(1_000_000),
            routing: RoutingAlgorithm::MinCost,
        };
        assert_round_trip(&power_cap);
    }

    #[test]
    fn malformed_specs_error_instead_of_panicking() {
        for bad in [
            "not json",
            "{}",
            "{\"workload\":{\"kind\":\"shuffle\"}}",
            "{\"topology\":{\"kind\":\"Moebius\"}}",
        ] {
            assert!(decode_spec(bad).is_err(), "accepted {bad:?}");
        }
    }
}
