//! Contract tests of the simulation engine.
//!
//! The guarantees every discrete-event engine owes its models — events
//! delivered in time order, a horizon that bounds a run and lets a later run
//! resume, stop and event-budget exits, seed determinism, and a trace that
//! does not depend on the pending-event set — checked on
//! [`WindowedSim`](crate::windowed::WindowedSim) driven as a single shard,
//! the way a classic one-queue simulator runs.

mod tests {
    use crate::event::EventId;
    use crate::queue::EventQueue;
    use crate::rng::DetRng;
    use crate::time::{SimDuration, SimTime};
    use crate::windowed::{RunOutcome, ShardModel, ShardsView, SyncHook, WindowCtx, WindowedSim};

    /// A sync hook with no control points and an optional stop threshold.
    struct Hook {
        stop_at: u64,
    }

    impl<M: ShardModel> SyncHook<M> for Hook {
        fn next_sync(&self) -> SimTime {
            SimTime::MAX
        }
        fn on_sync(&mut self, _: SimTime, _: &mut ShardsView<'_, M>) {}
        fn stop_threshold(&self) -> u64 {
            self.stop_at
        }
        fn lookahead(&self) -> SimDuration {
            SimDuration::from_nanos(1)
        }
    }

    fn no_stop() -> Hook {
        Hook { stop_at: u64::MAX }
    }

    /// A single-shard simulation of `model` on one worker.
    fn single<M: ShardModel>(model: M) -> WindowedSim<M> {
        WindowedSim::new(vec![model]).with_workers(1)
    }

    /// Records the order in which events were delivered.
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl ShardModel for Recorder {
        type Event = u32;
        fn handle(&mut self, ctx: &mut WindowCtx<'_, u32>, event: u32) {
            self.seen.push((ctx.now(), event));
        }
        fn stop_contribution(&self) -> u64 {
            self.seen.len() as u64
        }
    }

    fn recorder() -> WindowedSim<Recorder> {
        single(Recorder { seen: Vec::new() })
    }

    #[test]
    fn delivers_events_in_time_order() {
        let mut sim = recorder();
        sim.schedule(0, SimTime::from_nanos(30), 0, 3);
        sim.schedule(0, SimTime::from_nanos(10), 1, 1);
        sim.schedule(0, SimTime::from_nanos(20), 2, 2);
        let out = sim.run(SimTime::MAX, &mut no_stop());
        assert_eq!(out.outcome, RunOutcome::Drained);
        assert_eq!(out.events, 3);
        assert_eq!(
            sim.model_mut(0).seen,
            vec![
                (SimTime::from_nanos(10), 1),
                (SimTime::from_nanos(20), 2),
                (SimTime::from_nanos(30), 3)
            ]
        );
    }

    #[test]
    fn horizon_stops_and_resumes() {
        let mut sim = recorder();
        sim.schedule(0, SimTime::from_nanos(10), 0, 1);
        sim.schedule(0, SimTime::from_nanos(50), 1, 2);
        let out = sim.run(SimTime::from_nanos(20), &mut no_stop());
        assert_eq!(out.outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.model_mut(0).seen.len(), 1);
        assert_eq!(sim.now(), SimTime::from_nanos(20));
        // Resume and drain.
        let out = sim.run(SimTime::MAX, &mut no_stop());
        assert_eq!(out.outcome, RunOutcome::Drained);
        assert_eq!(
            sim.model_mut(0).seen,
            vec![(SimTime::from_nanos(10), 1), (SimTime::from_nanos(50), 2)]
        );
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn stop_request_is_honoured() {
        let mut sim = recorder();
        for i in 0..10 {
            sim.schedule(0, SimTime::from_nanos(i), i, i as u32);
        }
        let out = sim.run(SimTime::MAX, &mut Hook { stop_at: 2 });
        assert_eq!(out.outcome, RunOutcome::Stopped);
        assert_eq!(sim.model_mut(0).seen.len(), 2);
        // The other 8 events are still pending: a resumed run delivers them.
        let out = sim.run(SimTime::MAX, &mut no_stop());
        assert_eq!(out.outcome, RunOutcome::Drained);
        let seen: Vec<u32> = sim.model_mut(0).seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(seen, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn event_budget_prevents_livelock() {
        /// A model that perpetually schedules itself at the same instant.
        struct Livelock;
        impl ShardModel for Livelock {
            type Event = ();
            fn handle(&mut self, ctx: &mut WindowCtx<'_, ()>, _: ()) {
                let now = ctx.now();
                ctx.schedule(now, 0, ());
            }
        }
        let mut sim = single(Livelock).with_event_budget(1000);
        sim.schedule(0, SimTime::ZERO, 0, ());
        let out = sim.run(SimTime::MAX, &mut no_stop());
        assert_eq!(out.outcome, RunOutcome::EventBudgetExhausted);
        assert_eq!(sim.events_processed(), 1000);
    }

    /// Schedules events at random offsets drawn from the model's own RNG and
    /// records the delivery trace. Keys come from a sequence counter, so
    /// same-instant events are delivered in scheduling order.
    struct RandomWalk {
        rng: DetRng,
        remaining: u32,
        max_offset_ps: u64,
        next_key: u64,
        trace: Vec<(u64, u64)>,
    }

    impl RandomWalk {
        fn new(seed: u64, remaining: u32, max_offset_ps: u64) -> Self {
            RandomWalk {
                rng: DetRng::new(seed),
                remaining,
                max_offset_ps,
                next_key: 0,
                trace: Vec::new(),
            }
        }

        /// Schedules one event `d` ps after `now`, carrying `d`.
        fn next(&mut self, now: SimTime) -> (SimTime, u64, u64) {
            let d = self.rng.range_u64(1..self.max_offset_ps);
            let key = self.next_key;
            self.next_key += 1;
            (now + SimDuration::from_picos(d), key, d)
        }

        /// Records one delivery and returns what it schedules.
        fn step(&mut self, now: SimTime, ev: u64) -> Option<(SimTime, u64, u64)> {
            self.trace.push((now.as_picos(), ev));
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            Some(self.next(now))
        }
    }

    impl ShardModel for RandomWalk {
        type Event = u64;
        fn handle(&mut self, ctx: &mut WindowCtx<'_, u64>, ev: u64) {
            if let Some((at, key, d)) = self.step(ctx.now(), ev) {
                ctx.schedule(at, key, d);
            }
        }
    }

    /// Runs `walkers` concurrent random walks on the windowed engine.
    fn walk_windowed(seed: u64, walkers: u32, steps: u32, max_offset_ps: u64) -> Vec<(u64, u64)> {
        let mut sim = single(RandomWalk::new(seed, steps, max_offset_ps));
        for _ in 0..walkers {
            let (at, key, d) = sim.model_mut(0).next(SimTime::ZERO);
            sim.schedule(0, at, key, d);
        }
        let out = sim.run(SimTime::MAX, &mut no_stop());
        assert_eq!(out.outcome, RunOutcome::Drained);
        assert_eq!(out.events, u64::from(walkers + steps));
        sim.into_models().remove(0).trace
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed| walk_windowed(seed, 1, 200, 1000);
        assert_eq!(run(7), run(7), "identical seeds must give identical traces");
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    /// The engine runs on the calendar queue; the same model driven over the
    /// reference binary heap must produce the same delivery trace.
    #[test]
    fn heap_and_calendar_schedulers_produce_identical_traces() {
        let (walkers, steps, max_offset_ps) = (8, 500, 2_000_000);
        let mut model = RandomWalk::new(11, steps, max_offset_ps);
        let mut heap = EventQueue::new();
        for _ in 0..walkers {
            let (at, key, d) = model.next(SimTime::ZERO);
            heap.push(at, EventId(key), d);
        }
        while let Some((now, _, ev)) = heap.pop() {
            if let Some((at, key, d)) = model.step(now, ev) {
                heap.push(at, EventId(key), d);
            }
        }
        let calendar = walk_windowed(11, walkers, steps, max_offset_ps);
        assert_eq!(model.trace.len(), calendar.len());
        assert_eq!(model.trace, calendar);
    }
}
