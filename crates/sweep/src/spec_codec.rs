//! Readable round trips of concrete specs through the spec codec
//! ([`rackfabric_scenario::codec`]): a spec decoded from its key preimage
//! re-encodes to the same bytes and so keeps its [`job_key`](crate::job_key).
//! The codec's own property draws every variant; these pin a few named
//! cases.

#[cfg(test)]
mod tests {
    use crate::key::{canonical_spec_json, job_key};
    use rackfabric::policy::CrcPolicy;
    use rackfabric_phy::{FecMode, PowerState};
    use rackfabric_scenario::codec::decode_spec;
    use rackfabric_scenario::spec::{ControllerSpec, FecSetting, ScenarioSpec, WorkloadSpec};
    use rackfabric_sim::time::SimDuration;
    use rackfabric_sim::units::{Bytes, Power};
    use rackfabric_topo::routing::RoutingAlgorithm;
    use rackfabric_topo::spec::TopologySpec;

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
}
