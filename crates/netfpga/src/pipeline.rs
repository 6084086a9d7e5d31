//! Cycle-level model of the SUME reference switch datapath.
//!
//! The NetFPGA SUME reference switch is a 4x10G output-queued switch built
//! around a 256-bit AXI-Stream datapath clocked at 200 MHz (5 ns per cycle).
//! A frame moves through: input queue → round-robin input arbiter → header
//! parse + output-port lookup → output queue → 10G MAC egress. Each stage
//! contributes a fixed number of cycles plus, for the store-and-forward
//! output queue, the cycles needed to stream the frame across the datapath.

use rackfabric_sim::time::SimDuration;
use rackfabric_sim::units::{BitRate, Bytes};

/// Static configuration of the modelled device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SumeConfig {
    /// Core clock period (5 ns at 200 MHz).
    pub clock_period: SimDuration,
    /// Datapath width in bytes per cycle (256 bit = 32 B).
    pub datapath_bytes_per_cycle: u64,
    /// Fixed pipeline depth in cycles (arbiter + parser + lookup + queue
    /// control), taken from the reference design's latency report.
    pub fixed_pipeline_cycles: u64,
    /// Line rate of each port.
    pub port_rate: BitRate,
    /// Number of ports.
    pub ports: usize,
}

impl Default for SumeConfig {
    fn default() -> Self {
        SumeConfig {
            clock_period: SimDuration::from_nanos(5),
            datapath_bytes_per_cycle: 32,
            fixed_pipeline_cycles: 30,
            port_rate: BitRate::from_gbps(10),
            ports: 4,
        }
    }
}

/// The cycle-level switch model.
#[derive(Debug, Clone)]
pub struct SumeSwitch {
    /// Device configuration.
    pub config: SumeConfig,
    /// Per-output-port cycle at which the port becomes free.
    egress_free_cycle: Vec<u64>,
    /// Current cycle counter.
    cycle: u64,
    /// Frames forwarded per output port.
    pub forwarded: Vec<u64>,
}

impl SumeSwitch {
    /// Creates a switch.
    pub fn new(config: SumeConfig) -> Self {
        SumeSwitch {
            egress_free_cycle: vec![0; config.ports],
            forwarded: vec![0; config.ports],
            config,
            cycle: 0,
        }
    }

    /// The current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances the clock by `cycles`.
    pub fn tick(&mut self, cycles: u64) {
        self.cycle += cycles;
    }

    /// Number of datapath cycles needed to stream a frame of `size`.
    pub fn streaming_cycles(&self, size: Bytes) -> u64 {
        size.as_u64().div_ceil(self.config.datapath_bytes_per_cycle)
    }

    /// Injects a frame of `size` destined for `output_port` at the current
    /// cycle and returns the cycle at which its last byte leaves the egress
    /// MAC. Queueing behind earlier frames on the same output is modelled;
    /// contention on the shared datapath is folded into the fixed pipeline.
    ///
    /// # Panics
    /// Panics if `output_port` is out of range.
    pub fn forward(&mut self, size: Bytes, output_port: usize) -> u64 {
        assert!(output_port < self.config.ports, "no such port");
        // Ingress + pipeline: the frame must be fully received from the 10G
        // MAC (store and forward into the input queue), then spends the fixed
        // pipeline depth, then is streamed into the output queue.
        let wire_time = self.config.port_rate.serialization_delay(size);
        let ingress_cycles = Self::duration_to_cycles(wire_time, self.config.clock_period);
        let ready_cycle = self.cycle
            + ingress_cycles
            + self.config.fixed_pipeline_cycles
            + self.streaming_cycles(size);
        // Egress: wait for the port, then serialize onto the wire again.
        let start = ready_cycle.max(self.egress_free_cycle[output_port]);
        let egress_cycles = Self::duration_to_cycles(wire_time, self.config.clock_period);
        let done = start + egress_cycles;
        self.egress_free_cycle[output_port] = done;
        self.forwarded[output_port] += 1;
        done
    }

    /// Latency, in simulated time, of forwarding one frame through an
    /// otherwise idle switch (the number Experiment E7 compares with the DES
    /// model).
    pub fn idle_forward_latency(&mut self, size: Bytes, output_port: usize) -> SimDuration {
        let start_cycle = self.cycle;
        let done = self.forward(size, output_port);
        self.config.clock_period * (done - start_cycle)
    }

    fn duration_to_cycles(d: SimDuration, period: SimDuration) -> u64 {
        d.as_picos().div_ceil(period.as_picos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_cycles_round_up() {
        let s = SumeSwitch::new(SumeConfig::default());
        assert_eq!(s.streaming_cycles(Bytes::new(32)), 1);
        assert_eq!(s.streaming_cycles(Bytes::new(33)), 2);
        assert_eq!(s.streaming_cycles(Bytes::new(1500)), 47);
    }

    #[test]
    fn idle_latency_is_microsecond_scale_for_mtu_at_10g() {
        let mut s = SumeSwitch::new(SumeConfig::default());
        let lat = s.idle_forward_latency(Bytes::new(1500), 0);
        let us = lat.as_micros_f64();
        // Two 1.2 us wire times (in + out) plus ~0.4 us of pipeline.
        assert!(
            (2.0..3.5).contains(&us),
            "MTU store-and-forward latency was {us} us"
        );
        // A minimum-size frame is much faster but still pays the pipeline.
        let mut s2 = SumeSwitch::new(SumeConfig::default());
        let small = s2.idle_forward_latency(Bytes::new(64), 0);
        assert!(small < lat);
        assert!(small.as_nanos_f64() > 150.0);
    }

    #[test]
    fn output_contention_serialises_frames() {
        let mut s = SumeSwitch::new(SumeConfig::default());
        let first_done = s.forward(Bytes::new(1500), 2);
        let second_done = s.forward(Bytes::new(1500), 2);
        let wire_cycles = SumeSwitch::duration_to_cycles(
            BitRate::from_gbps(10).serialization_delay(Bytes::new(1500)),
            SimDuration::from_nanos(5),
        );
        assert_eq!(second_done, first_done + wire_cycles);
        // A different port does not wait.
        let other_done = s.forward(Bytes::new(1500), 3);
        assert!(other_done < second_done);
        assert_eq!(s.forwarded[2], 2);
        assert_eq!(s.forwarded[3], 1);
    }

    #[test]
    fn clock_advances_independently() {
        let mut s = SumeSwitch::new(SumeConfig::default());
        assert_eq!(s.cycle(), 0);
        s.tick(100);
        assert_eq!(s.cycle(), 100);
        let done = s.forward(Bytes::new(64), 0);
        assert!(done > 100);
    }

    #[test]
    #[should_panic(expected = "no such port")]
    fn out_of_range_port_panics() {
        let mut s = SumeSwitch::new(SumeConfig::default());
        s.forward(Bytes::new(64), 4);
    }
}
