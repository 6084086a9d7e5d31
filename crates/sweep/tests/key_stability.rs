//! Property tests for store-key stability — the contract the whole resume
//! story stands on: a job's [`job_key`] must be a pure function of the
//! *simulation input* and nothing else.
//!
//! * invariant under **axis-order permutation** of the matrix that produced
//!   the job (the key hashes the resolved spec, not the sweep structure),
//! * invariant under the proven result-neutral knobs: shard count, runner
//!   worker counts (which never touch the spec), and display names,
//! * distinct whenever a result-shaping field differs.

use proptest::prelude::*;
use rackfabric_phy::PlpTiming;
use rackfabric_scenario::prelude::*;
use rackfabric_sim::prelude::*;
use rackfabric_sweep::prelude::*;
use rackfabric_switch::model::SwitchModel;
use rackfabric_topo::routing::RoutingAlgorithm;
use rackfabric_topo::spec::TopologySpec;
use std::collections::BTreeSet;

/// The sweep axes the properties permute, parameterised by a few drawn
/// values so every case explores a different matrix. The port-buffer axis
/// keeps the new physical-layer axes under the permutation property; the
/// routing axis keeps the policy override there too.
fn axes(rack_a: usize, load_a: f64, load_b: f64) -> Vec<(String, Vec<AxisValue>)> {
    vec![
        (
            "racks".into(),
            vec![
                AxisValue::Topology(TopologySpec::grid(rack_a, rack_a, 2)),
                AxisValue::Topology(TopologySpec::grid(rack_a + 1, rack_a, 2)),
            ],
        ),
        (
            "load".into(),
            vec![AxisValue::Load(load_a), AxisValue::Load(load_b)],
        ),
        (
            "controller".into(),
            vec![
                AxisValue::Controller(ControllerSpec::Baseline),
                AxisValue::Controller(ControllerSpec::adaptive_default()),
            ],
        ),
        (
            "port_buffer".into(),
            vec![
                AxisValue::PortBuffer(Bytes::from_kib(64)),
                AxisValue::PortBuffer(Bytes::from_kib(256)),
            ],
        ),
        (
            "routing".into(),
            vec![
                AxisValue::Routing(RoutingAlgorithm::ShortestHop),
                AxisValue::Routing(RoutingAlgorithm::Valiant),
            ],
        ),
    ]
}

fn matrix_with_axes(axes: Vec<(String, Vec<AxisValue>)>, seed: u64) -> Matrix {
    let base = ScenarioSpec::new(
        "key-stability",
        TopologySpec::grid(3, 3, 2),
        WorkloadSpec::shuffle(Bytes::from_kib(2)),
    )
    .horizon(SimTime::from_millis(10));
    let mut matrix = Matrix::new(base).replicates(2).master_seed(seed);
    for (name, values) in axes {
        matrix = matrix.axis(name, values);
    }
    matrix
}

/// The set of job keys a matrix expands to. Seeds are position-dependent in
/// `Matrix::expand`, so permuted matrices are compared with seeds
/// normalised out (the permutation property is about the *spec content*).
fn key_set(matrix: &Matrix) -> BTreeSet<JobKey> {
    matrix
        .expand()
        .into_iter()
        .map(|job| {
            let mut spec = job.spec;
            spec.seed = 1;
            job_key(&spec)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn keys_are_invariant_under_axis_order_permutation(
        rack_a in 2usize..4,
        load_a in 0.25f64..1.0,
        load_b in 1.0f64..2.0,
        seed in 1u64..1000,
        rotation in 0usize..8,
    ) {
        let base_axes = axes(rack_a, load_a, load_b);
        let mut permuted = base_axes.clone();
        // Cycle through a deterministic permutation schedule: rotate and
        // optionally swap, covering a spread of the 5! orders across cases.
        permuted.rotate_left(rotation % 5);
        if rotation >= 4 {
            permuted.swap(0, 1);
        }
        let a = matrix_with_axes(base_axes, seed);
        let b = matrix_with_axes(permuted, seed);
        prop_assert_eq!(key_set(&a), key_set(&b));
    }

    #[test]
    fn keys_ignore_result_neutral_knobs(
        rack in 2usize..5,
        load in 0.25f64..2.0,
        seed in 1u64..10_000,
        shards in 0usize..6,
        other_shards in 0usize..6,
    ) {
        let mut spec = ScenarioSpec::new(
            "neutral-knobs",
            TopologySpec::grid(rack, rack, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .horizon(SimTime::from_millis(10))
        .seed(seed);
        spec.workload = spec.workload.clone().with_load(load);

        // Any two shard counts are result-identical (0 runs as 1).
        prop_assert_eq!(
            job_key(&spec.clone().shards(shards)),
            job_key(&spec.clone().shards(other_shards))
        );
        prop_assert_eq!(job_key(&spec), job_key(&spec.clone().shards(shards)));
        // Campaign names are labels.
        let mut renamed = spec.clone();
        renamed.name = "a-different-campaign".into();
        prop_assert_eq!(job_key(&spec), job_key(&renamed));
    }

    #[test]
    fn keys_separate_result_shaping_fields(
        rack in 2usize..5,
        seed in 1u64..10_000,
        mtu in 600u64..9000,
    ) {
        let spec = ScenarioSpec::new(
            "shaping-fields",
            TopologySpec::grid(rack, rack, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .horizon(SimTime::from_millis(10))
        .seed(seed);
        let key = job_key(&spec);
        prop_assert_ne!(key, job_key(&spec.clone().seed(seed + 1)));
        prop_assert_ne!(key, job_key(&spec.clone().mtu(Bytes::new(mtu + 9001))));
        prop_assert_ne!(
            key,
            job_key(&spec.clone().train_window(SimDuration::from_nanos(137)))
        );
        prop_assert_ne!(
            key,
            job_key(&spec.clone().controller(ControllerSpec::Baseline))
        );
    }

    /// The three new physical-layer axes must change the key — a value that
    /// silently hashed to the same key would make the store return stale
    /// results for a genuinely different simulation input.
    #[test]
    fn physical_layer_axes_are_not_silently_result_neutral(
        rack in 2usize..5,
        seed in 1u64..10_000,
        buf_kib in 1u64..1024,
        pipeline_extra_ns in 1u64..600,
        plp_scale in 2u32..50,
    ) {
        let spec = ScenarioSpec::new(
            "physical-axes",
            TopologySpec::grid(rack, rack, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .horizon(SimTime::from_millis(10))
        .seed(seed);
        let key = job_key(&spec);

        // SwitchModel: discipline and pipeline latency are both keyed.
        prop_assert_ne!(
            key,
            job_key(&spec.clone().switch_model(SwitchModel::store_and_forward()))
        );
        // 400 ns is the default pipeline; the offset keeps the drawn value
        // distinct from it.
        let pipeline = SimDuration::from_nanos(400 + pipeline_extra_ns);
        prop_assert_ne!(
            key,
            job_key(&spec.clone().switch_model(SwitchModel::with_pipeline(pipeline)))
        );

        // PortBuffer: the odd byte count can never equal the 256 KiB default.
        let buffer = Bytes::new(buf_kib * 1024 + 1);
        let buffered = job_key(&spec.clone().port_buffer(buffer));
        prop_assert_ne!(key, buffered);
        // ... and two different buffer values key apart from each other.
        prop_assert_ne!(
            buffered,
            job_key(&spec.clone().port_buffer(Bytes::new(buf_kib * 1024 + 2)))
        );

        // PlpTiming: a scaled table is a different reconfiguration-cost
        // regime.
        prop_assert_ne!(
            key,
            job_key(&spec.clone().plp_timing(PlpTiming::default().scaled(plp_scale as f64)))
        );

        // Bypass chains are simulation input too.
        let mut bypassed = spec.clone();
        bypassed.phy.bypassed_nodes = 1;
        prop_assert_ne!(key, job_key(&bypassed));
    }

    /// Every pair of distinct routing-policy overrides must key apart, and
    /// every override must key apart from "no override" — a Valiant cell
    /// resolving to a cached minimal-routing record would silently return
    /// the wrong simulation.
    #[test]
    fn distinct_routing_policies_get_distinct_keys(
        groups in 3usize..6,
        seed in 1u64..10_000,
    ) {
        let spec = ScenarioSpec::new(
            "routing-keys",
            TopologySpec::dragonfly(groups, 2, 2, 1),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .horizon(SimTime::from_millis(10))
        .seed(seed);
        let policies = [
            RoutingAlgorithm::ShortestHop,
            RoutingAlgorithm::MinCost,
            RoutingAlgorithm::Ecmp,
            RoutingAlgorithm::DimensionOrdered,
            RoutingAlgorithm::Valiant,
            RoutingAlgorithm::Adaptive,
        ];
        let keys: Vec<JobKey> = policies
            .iter()
            .map(|&r| job_key(&spec.clone().routing(r)))
            .collect();
        let unique: BTreeSet<JobKey> = keys.iter().copied().collect();
        prop_assert_eq!(unique.len(), policies.len());
        // `None` (controller default) is its own point in key space.
        prop_assert!(!unique.contains(&job_key(&spec)));
    }
}

/// Worker counts live on the runner, not the spec — by construction they
/// cannot perturb a key. Pin that with the concrete end-to-end check: the
/// same matrix resolved by 1-thread and N-thread runners produces records
/// whose keys match pairwise.
#[test]
fn runner_thread_count_cannot_reach_the_key() {
    let matrix = matrix_with_axes(axes(2, 0.5, 1.0), 77);
    let serial: Vec<JobKey> = matrix.expand().iter().map(|j| job_key(&j.spec)).collect();
    let parallel: Vec<JobKey> = matrix.expand().iter().map(|j| job_key(&j.spec)).collect();
    assert_eq!(serial, parallel);
    assert_eq!(serial.len(), 64);
}

/// The default grid shuffle: every field at its default.
fn pinned_grid_shuffle() -> ScenarioSpec {
    ScenarioSpec::new(
        "pinned-grid",
        TopologySpec::grid(2, 2, 2),
        WorkloadSpec::shuffle(Bytes::from_kib(4)),
    )
}

/// An adaptive dragonfly that sets every optional field: an upgrade target,
/// a routing override, a lane cap, a fixed codec, a non-default power
/// state, bypass chains and the hybrid policy.
fn pinned_adaptive_dragonfly() -> ScenarioSpec {
    use rackfabric::policy::CrcPolicy;
    use rackfabric_phy::{FecMode, PowerState};
    let mut spec = ScenarioSpec::new(
        "pinned-dragonfly",
        TopologySpec::dragonfly(2, 1, 1, 1),
        WorkloadSpec::shuffle(Bytes::from_kib(4)),
    )
    .upgrade(TopologySpec::ring(4, 1))
    .controller(ControllerSpec::Adaptive {
        policy: CrcPolicy::Hybrid {
            budget: Power::from_milliwatts(1500),
        },
        epoch: SimDuration::from_micros(5),
        routing: RoutingAlgorithm::Adaptive,
    })
    .routing(RoutingAlgorithm::Valiant)
    .switch_model(SwitchModel::store_and_forward())
    .seed(7);
    spec.phy.active_lanes = Some(1);
    spec.phy.fec = FecSetting::Fixed(FecMode::Rs544);
    spec.phy.power = PowerState::LowPower;
    spec.phy.bypassed_nodes = 2;
    spec
}

/// Pins the exact key preimage bytes and key of two specs. Every stored
/// result is addressed by these bytes: a codec change that moved one of
/// them would silently orphan every existing store record.
#[test]
fn key_preimages_and_keys_are_pinned() {
    let cases = [
        (
            pinned_grid_shuffle(),
            concat!(
                r#"{"controller":{"epoch_ps":20000000,"kind":"adaptive""#,
                r#","policy":{"budget_mw":2000000,"kind":"hybrid"},"routing":"MinCost"}"#,
                r#","event_budget":18446744073709551615,"horizon_ps":50000000000"#,
                r#","lane_rate_bps":25000000000,"mtu_bytes":1500,"phy":{"bypassed_nodes":0"#,
                r#","fec":"default","lanes":null,"power":"active"}"#,
                r#","plp_timing":{"bundle_ps":20000000,"bypass_ps":2000000"#,
                r#","move_lanes_ps":15000000,"set_active_lanes_ps":5000000"#,
                r#","set_fec_ps":10000000,"set_power_ps":50000000,"split_ps":20000000}"#,
                r#","port_buffer_bytes":262144,"routing":"controller-default","seed":1"#,
                r#","stop_when_done":true,"switch":{"kind":"cut_through""#,
                r#","pipeline_ps":400000},"topology":{"dims":[2,2],"edges":[[0,1,2,2000"#,
                r#","OpticalFiber","IntraRack"],[0,2,2,2000,"OpticalFiber""#,
                r#","InterRack"],[1,3,2,2000,"OpticalFiber","InterRack"],[2,3,2,2000"#,
                r#","OpticalFiber","IntraRack"]],"kind":"Grid","nodes":4}"#,
                r#","train_window_ps":1000000,"upgrade":null,"workload":{"kind":"shuffle""#,
                r#","load":1,"partition_bytes":4096}}"#,
            ),
            "cff46aba329f109cb48b7bf7daacd4f2",
        ),
        (
            pinned_adaptive_dragonfly(),
            concat!(
                r#"{"controller":{"epoch_ps":5000000,"kind":"adaptive""#,
                r#","policy":{"budget_mw":1500,"kind":"hybrid"},"routing":"Adaptive"}"#,
                r#","event_budget":18446744073709551615,"horizon_ps":50000000000"#,
                r#","lane_rate_bps":25000000000,"mtu_bytes":1500,"phy":{"bypassed_nodes":2"#,
                r#","fec":"rs544","lanes":1,"power":"low_power"}"#,
                r#","plp_timing":{"bundle_ps":20000000,"bypass_ps":2000000"#,
                r#","move_lanes_ps":15000000,"set_active_lanes_ps":5000000"#,
                r#","set_fec_ps":10000000,"set_power_ps":50000000,"split_ps":20000000}"#,
                r#","port_buffer_bytes":262144,"routing":"Valiant","seed":7"#,
                r#","stop_when_done":true,"switch":{"kind":"store_and_forward""#,
                r#","pipeline_ps":400000},"topology":{"dims":null,"edges":[[0,1,1,2000"#,
                r#","CopperDac","IntraRack"],[2,3,1,2000,"CopperDac""#,
                r#","IntraRack"],[0,2,1,20000,"OpticalFiber","InterRack"]],"kind":"Dragonfly""#,
                r#","nodes":4},"train_window_ps":1000000,"upgrade":{"dims":null"#,
                r#","edges":[[0,1,1,2000,"OpticalFiber","InterRack"],[1,2,1,2000"#,
                r#","OpticalFiber","InterRack"],[2,3,1,2000,"OpticalFiber""#,
                r#","InterRack"],[3,0,1,2000,"OpticalFiber","InterRack"]],"kind":"Ring""#,
                r#","nodes":4},"workload":{"kind":"shuffle","load":1,"partition_bytes":4096}}"#,
            ),
            "d1949decdc8c100cebafd66525d215be",
        ),
    ];
    for (spec, preimage, key) in cases {
        assert_eq!(canonical_spec_json(&spec), preimage, "{}", spec.name);
        assert_eq!(job_key(&spec).hex(), key, "{}", spec.name);
    }
}
