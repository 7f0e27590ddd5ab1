//! ImmortalThreads-style local continuations for intermittent execution.
//!
//! The ARTEMIS monitors are generated on top of the ImmortalThreads
//! library (Yıldız et al., OSDI '22): C macros that checkpoint a
//! *local continuation* — a persistent program counter plus persistent
//! locals — so that a routine interrupted by a power failure resumes
//! exactly where it stopped instead of restarting from scratch
//! (paper §4.2.3, "Atomicity and Forward Progress of the Monitor").
//!
//! This crate reproduces that execution model in safe Rust:
//!
//! - a [`Routine`] is a sequence of numbered steps with a program
//!   counter in FRAM; [`Routine::run`] executes the remaining steps,
//!   resuming mid-way after a reboot (`monitorFinalize` in the paper's
//!   Figure 8 is exactly such a resume);
//! - plain steps get **at-least-once** semantics: a failure between a
//!   step's effect and the counter increment re-executes that step;
//! - [`Routine::atomic_step`] upgrades one step to **exactly-once** by
//!   committing the step's FRAM effects *and* the counter increment in
//!   a single crash-atomic journal transaction.
//!
//! Persistent "locals" are ordinary [`NvCell`]s allocated next to the
//! routine; the paper's `_begin`/`_end` macro pair corresponds to
//! [`Routine::begin`] + [`Routine::run`] here.

use artemis_core::time::SimDuration;
use intermittent_sim::device::{Device, Interrupt, MemOwner};
use intermittent_sim::fram::{NvCell, NvData};
use intermittent_sim::journal::{Journal, TxWriter};

/// A power-failure-resilient routine with a persistent program counter.
///
/// # Examples
///
/// ```
/// use immortal::Routine;
/// use intermittent_sim::{DeviceBuilder, MemOwner};
///
/// let mut dev = DeviceBuilder::msp430fr5994().build();
/// let routine = Routine::new(&mut dev, MemOwner::Monitor, "demo").unwrap();
/// let hits = dev.nv_alloc::<u32>(0, MemOwner::Monitor, "hits").unwrap();
///
/// routine.begin(&mut dev, 3).unwrap();
/// routine
///     .run(&mut dev, &mut |dev, _step| {
///         let h = dev.nv_read(&hits)?;
///         dev.nv_write(&hits, h + 1)
///     })
///     .unwrap();
/// assert_eq!(dev.peek(&hits), 3);
/// assert!(routine.is_complete(&mut dev).unwrap());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Routine {
    /// Next step to execute.
    pc: NvCell<u32>,
    /// Total steps in the current activation; 0 means idle.
    len: NvCell<u32>,
}

impl Routine {
    /// Allocates the routine's persistent state (idle, zero steps).
    pub fn new(dev: &mut Device, owner: MemOwner, label: &str) -> Result<Routine, Interrupt> {
        let pc = dev.nv_alloc::<u32>(0, owner, &format!("{label}.pc"))?;
        let len = dev.nv_alloc::<u32>(0, owner, &format!("{label}.len"))?;
        Ok(Routine { pc, len })
    }

    /// Arms a new activation of `n_steps` steps, resetting the counter.
    ///
    /// Corresponds to the ImmortalThreads `_begin` macro: after this,
    /// [`Routine::run`] (or a post-reboot resume) executes steps
    /// `0..n_steps`.
    pub fn begin(&self, dev: &mut Device, n_steps: u32) -> Result<(), Interrupt> {
        // Order matters for crash consistency: reset the counter first,
        // then write the length that makes the activation visible.
        dev.nv_write(&self.pc, 0)?;
        dev.nv_write(&self.len, n_steps)
    }

    /// Executes remaining steps until the activation completes.
    ///
    /// `step(dev, i)` runs each pending step `i`; after it returns the
    /// counter advances. A power failure inside `step` re-executes that
    /// step on resume (at-least-once). Steps needing exactly-once
    /// effects should use [`Routine::atomic_step`] inside `step`.
    pub fn run(
        &self,
        dev: &mut Device,
        step: &mut dyn FnMut(&mut Device, u32) -> Result<(), Interrupt>,
    ) -> Result<(), Interrupt> {
        loop {
            let len = dev.nv_read(&self.len)?;
            let pc = dev.nv_read(&self.pc)?;
            if pc >= len {
                return Ok(());
            }
            step(dev, pc)?;
            // Harmless overwrite when the step already advanced the
            // counter via `atomic_step`.
            let current = dev.nv_read(&self.pc)?;
            if current == pc {
                dev.nv_write(&self.pc, pc + 1)?;
            }
        }
    }

    /// Commits `tx` *and* this step's completion in one crash-atomic
    /// transaction, giving the step exactly-once effect semantics.
    ///
    /// Call from inside a [`Routine::run`] step with the step's index;
    /// the subsequent counter increment in `run` is skipped because the
    /// transaction already advanced it.
    pub fn atomic_step(
        &self,
        dev: &mut Device,
        journal: &Journal,
        step_index: u32,
        tx: &mut TxWriter,
    ) -> Result<(), Interrupt> {
        tx.write(&self.pc, step_index + 1);
        dev.commit(journal, tx)
    }

    /// Stages a new activation into a pending transaction, so arming
    /// becomes atomic with whatever state the caller commits alongside
    /// it (e.g. the reference monitor engine's event + sequence number:
    /// a power failure can then never separate "event recorded" from
    /// "steps armed").
    pub fn stage_begin(&self, tx: &mut TxWriter, n_steps: u32) {
        tx.write(&self.pc, 0u32);
        tx.write(&self.len, n_steps);
    }

    /// Marks step `step_index` complete with a plain counter write,
    /// without a journal transaction. Correct only for steps whose
    /// effects are idempotent or absent (re-execution after a power
    /// failure between the effect and this write must be harmless).
    pub fn complete_step(&self, dev: &mut Device, step_index: u32) -> Result<(), Interrupt> {
        dev.nv_write(&self.pc, step_index + 1)
    }

    /// Returns `true` when no steps are pending.
    pub fn is_complete(&self, dev: &mut Device) -> Result<bool, Interrupt> {
        let len = dev.nv_read(&self.len)?;
        let pc = dev.nv_read(&self.pc)?;
        Ok(pc >= len)
    }

    /// Current step index (for inspection).
    pub fn pc(&self, dev: &mut Device) -> Result<u32, Interrupt> {
        dev.nv_read(&self.pc)
    }
}

/// A persistent scalar with read-modify-write helpers: the "persistent
/// local variable" of an immortal routine.
///
/// # Examples
///
/// ```
/// use immortal::PersistentVar;
/// use intermittent_sim::{DeviceBuilder, MemOwner};
///
/// let mut dev = DeviceBuilder::msp430fr5994().build();
/// let v = PersistentVar::new(&mut dev, 5u32, MemOwner::Monitor, "v").unwrap();
/// v.update(&mut dev, |x| x * 2).unwrap();
/// assert_eq!(v.get(&mut dev).unwrap(), 10);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PersistentVar<T: NvData> {
    cell: NvCell<T>,
}

impl<T: NvData> PersistentVar<T> {
    /// Allocates the variable with an initial value.
    pub fn new(dev: &mut Device, init: T, owner: MemOwner, label: &str) -> Result<Self, Interrupt> {
        Ok(PersistentVar {
            cell: dev.nv_alloc(init, owner, label)?,
        })
    }

    /// Reads the value.
    pub fn get(&self, dev: &mut Device) -> Result<T, Interrupt> {
        dev.nv_read(&self.cell)
    }

    /// Writes the value.
    pub fn set(&self, dev: &mut Device, value: T) -> Result<(), Interrupt> {
        dev.nv_write(&self.cell, value)
    }

    /// Read-modify-write.
    pub fn update(&self, dev: &mut Device, f: impl FnOnce(T) -> T) -> Result<(), Interrupt> {
        let v = self.get(dev)?;
        self.set(dev, f(v))
    }

    /// The underlying cell, for journaled writes.
    pub fn cell(&self) -> &NvCell<T> {
        &self.cell
    }
}

/// A bounded exponential idle-backoff for runtimes that wait for a
/// condition without spinning at full power.
pub fn backoff_idle(dev: &mut Device, attempt: u32) -> Result<(), Interrupt> {
    let exp = attempt.min(10);
    let dt = SimDuration::from_micros(100u64 << exp);
    dev.idle(dt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use intermittent_sim::capacitor::Capacitor;
    use intermittent_sim::device::DeviceBuilder;
    use intermittent_sim::energy::Energy;
    use intermittent_sim::harvester::Harvester;
    use intermittent_sim::simulator::{RunLimit, SimOutcome, Simulator};

    fn dev() -> Device {
        DeviceBuilder::msp430fr5994().build()
    }

    #[test]
    fn fresh_routine_is_complete() {
        let mut d = dev();
        let r = Routine::new(&mut d, MemOwner::Monitor, "r").unwrap();
        assert!(r.is_complete(&mut d).unwrap());
        r.run(&mut d, &mut |_, _| panic!("no steps expected"))
            .unwrap();
    }

    #[test]
    fn run_executes_each_step_once_without_failures() {
        let mut d = dev();
        let r = Routine::new(&mut d, MemOwner::Monitor, "r").unwrap();
        r.begin(&mut d, 5).unwrap();
        let mut seen = Vec::new();
        r.run(&mut d, &mut |_, i| {
            seen.push(i);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert!(r.is_complete(&mut d).unwrap());
    }

    #[test]
    fn resume_after_power_failure_skips_completed_steps() {
        // Small budget: the 5-step routine cannot finish in one boot.
        let mut d = DeviceBuilder::msp430fr5994()
            .capacitor(Capacitor::with_budget(Energy::from_micro_joules(12)))
            .harvester(Harvester::FixedDelay(SimDuration::from_secs(1)))
            .build();
        let r = Routine::new(&mut d, MemOwner::Monitor, "r").unwrap();
        let executions = d
            .nv_alloc::<[u32; 5]>([0; 5], MemOwner::Monitor, "execs")
            .unwrap();
        r.begin(&mut d, 5).unwrap();

        let sim = Simulator::new(RunLimit::reboots(100));
        let outcome = sim.run(&mut d, &mut |d: &mut Device| {
            r.run(d, &mut |d, i| {
                // Each step burns enough to force failures between steps.
                d.compute(8_000)?;
                let mut e = d.nv_read(&executions)?;
                e[i as usize] += 1;
                d.nv_write(&executions, e)
            })
        });
        assert!(outcome.is_completed());
        let execs = d.peek(&executions);
        // At-least-once: every step ran, none more than a couple of
        // times — early steps did NOT restart from scratch each boot.
        for (i, &n) in execs.iter().enumerate() {
            assert!(n >= 1, "step {i} never ran");
            assert!(n <= 2, "step {i} ran {n} times; continuation failed");
        }
        assert!(d.reboots() >= 1);
    }

    #[test]
    fn atomic_step_gives_exactly_once_effects() {
        // Sweep energy budgets so failures land at different protocol
        // points; the step's counter must never double-apply.
        for budget_uj in 5..40u64 {
            let mut d = DeviceBuilder::msp430fr5994()
                .capacitor(Capacitor::with_budget(Energy::from_micro_joules(budget_uj)))
                .harvester(Harvester::FixedDelay(SimDuration::from_secs(1)))
                .build();
            let r = Routine::new(&mut d, MemOwner::Monitor, "r").unwrap();
            let journal = d.make_journal(128, MemOwner::Monitor).unwrap();
            let counter = d.nv_alloc::<u32>(0, MemOwner::Monitor, "c").unwrap();
            r.begin(&mut d, 3).unwrap();

            let sim = Simulator::new(RunLimit::reboots(1_000));
            let outcome = sim.run(&mut d, &mut |d: &mut Device| {
                // Re-apply a half-committed transaction first, as the
                // ARTEMIS runtime does via monitorFinalize.
                d.recover(&journal)?;
                r.run(d, &mut |d, i| {
                    let v = d.nv_read(&counter)?;
                    let mut tx = TxWriter::new();
                    tx.write(&counter, v + 1);
                    r.atomic_step(d, &journal, i, &mut tx)
                })
            });
            assert!(outcome.is_completed(), "budget {budget_uj} never finished");
            assert_eq!(
                d.peek(&counter),
                3,
                "budget {budget_uj}: counter shows double/missed apply"
            );
        }
    }

    #[test]
    fn begin_rearms_a_completed_routine() {
        let mut d = dev();
        let r = Routine::new(&mut d, MemOwner::Monitor, "r").unwrap();
        r.begin(&mut d, 2).unwrap();
        r.run(&mut d, &mut |_, _| Ok(())).unwrap();
        assert!(r.is_complete(&mut d).unwrap());
        r.begin(&mut d, 1).unwrap();
        assert!(!r.is_complete(&mut d).unwrap());
        assert_eq!(r.pc(&mut d).unwrap(), 0);
    }

    #[test]
    fn persistent_var_round_trip_and_update() {
        let mut d = dev();
        let v = PersistentVar::new(&mut d, 1u64, MemOwner::App, "v").unwrap();
        v.set(&mut d, 10).unwrap();
        v.update(&mut d, |x| x + 5).unwrap();
        assert_eq!(v.get(&mut d).unwrap(), 15);
        assert_eq!(v.cell().size(), 8);
    }

    #[test]
    fn backoff_idle_grows_and_saturates() {
        let mut d = dev();
        let t0 = d.now();
        backoff_idle(&mut d, 0).unwrap();
        let d1 = d.now() - t0;
        let t1 = d.now();
        backoff_idle(&mut d, 4).unwrap();
        let d2 = d.now() - t1;
        assert!(d2 > d1);
        let t2 = d.now();
        backoff_idle(&mut d, 10).unwrap();
        let big = d.now() - t2;
        let t3 = d.now();
        backoff_idle(&mut d, 200).unwrap();
        assert_eq!(d.now() - t3, big, "backoff must saturate");
    }

    #[test]
    fn closure_system_composes_with_routines() {
        let mut d = dev();
        let r = Routine::new(&mut d, MemOwner::Monitor, "r").unwrap();
        r.begin(&mut d, 1).unwrap();
        let sim = Simulator::new(RunLimit::unbounded());
        let out = sim.run(&mut d, &mut |d: &mut Device| {
            r.run(d, &mut |_, _| Ok(()))?;
            Ok(42u32)
        });
        assert_eq!(out, SimOutcome::Completed(42));
    }
}
