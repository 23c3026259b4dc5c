//! The Newton interpretation of the typed PIM ISA.
//!
//! `pimflow-isa` programs are backend-neutral; this module gives them their
//! Newton meaning. The five data-path instructions map 1:1 onto the
//! simulator's command vocabulary —
//!
//! | ISA                  | Newton command |
//! |----------------------|----------------|
//! | `BUFWRITE`           | `GWRITE`       |
//! | `ROWACT`             | `G_ACT`        |
//! | `MACBURST`           | `COMP`         |
//! | `DRAIN`              | `READRES`      |
//! | `HOSTBURST`          | `GpuBurst`     |
//!
//! — so lowering a program and lifting a trace are exact inverses, and a
//! barrier-free program times **bit-identically** to running its lowered
//! traces through [`run_channels`](crate::timing::run_channels) directly.
//! That identity is the interpreter contract the compiler relies on:
//! moving codegen onto the ISA changed no timing anywhere. `BARRIER`s
//! (which command traces cannot express) split a program into epochs that
//! run back to back.

use crate::command::{CommandBlock, PimCommand};
use crate::config::PimConfig;
use crate::fault::{FaultCondition, FaultPlan};
use crate::scheduler::{schedule_distinct, ScheduleGranularity};
use crate::timing::{ChannelEngine, ChannelStats, RunOptions};
use pimflow_isa::{BackendKind, Interpreter, IsaProgram, PimInst, ProgramError};
use std::sync::Arc;

fn lift_command(cmd: PimCommand) -> PimInst {
    match cmd {
        PimCommand::Gwrite { buffer, bytes } => PimInst::BufWrite { buffer, bytes },
        PimCommand::GAct { row } => PimInst::RowActivate { row },
        PimCommand::Comp { buffer, repeat } => PimInst::MacBurst { buffer, repeat },
        PimCommand::ReadRes { bytes } => PimInst::Drain { bytes },
        PimCommand::BankFeed { buffer, bytes } => PimInst::BankFeed { buffer, bytes },
        PimCommand::GpuBurst { bytes } => PimInst::HostBurst { bytes },
    }
}

/// Lifts scheduled per-channel command traces into an ISA program (the
/// exact inverse of [`NewtonInterpreter::lower`]).
pub fn lift_traces(traces: &[Vec<PimCommand>]) -> IsaProgram {
    IsaProgram::from_channels(
        traces
            .iter()
            .map(|t| t.iter().map(|&cmd| lift_command(cmd)).collect())
            .collect(),
    )
}

/// Schedules `blocks` over `channels` channels exactly as
/// [`schedule`](crate::scheduler::schedule) does and lifts the result into
/// an ISA program, equal to `lift_traces(&schedule(..))`.
///
/// Channels assigned equal unit sequences share one stream: each distinct
/// sequence is expanded and lifted once, and the interpreter then times it
/// once per fault condition.
///
/// # Panics
///
/// Panics if `channels == 0` or the plan leaves no channel alive.
pub fn schedule_program(
    blocks: &[CommandBlock],
    channels: usize,
    granularity: ScheduleGranularity,
    cfg: &PimConfig,
    opts: &RunOptions<'_>,
) -> IsaProgram {
    let (streams, index) =
        schedule_distinct(blocks, channels, granularity, cfg, opts, lift_command);
    let streams: Vec<Arc<Vec<PimInst>>> = streams.into_iter().map(Arc::new).collect();
    IsaProgram::from_streams(index.into_iter().map(|i| streams[i].clone()).collect())
}

/// Executes ISA programs on the cycle-level Newton channel engine.
#[derive(Debug, Clone, Copy)]
pub struct NewtonInterpreter<'a> {
    cfg: &'a PimConfig,
}

impl<'a> NewtonInterpreter<'a> {
    /// An interpreter over the given channel configuration.
    pub fn new(cfg: &'a PimConfig) -> Self {
        NewtonInterpreter { cfg }
    }

    /// Lowers a program to per-channel Newton command traces. Barriers
    /// carry no command — they only partition execution into epochs — so
    /// the lowering of a lifted trace is the original trace.
    pub fn lower(&self, program: &IsaProgram) -> Vec<Vec<PimCommand>> {
        program
            .channels()
            .iter()
            .map(|stream| stream.iter().filter_map(Self::lower_inst).collect())
            .collect()
    }

    fn lower_inst(inst: &PimInst) -> Option<PimCommand> {
        match *inst {
            PimInst::BufWrite { buffer, bytes } => Some(PimCommand::Gwrite { buffer, bytes }),
            PimInst::RowActivate { row } => Some(PimCommand::GAct { row }),
            PimInst::MacBurst { buffer, repeat } => Some(PimCommand::Comp { buffer, repeat }),
            PimInst::Drain { bytes } => Some(PimCommand::ReadRes { bytes }),
            PimInst::BankFeed { buffer, bytes } => Some(PimCommand::BankFeed { buffer, bytes }),
            PimInst::HostBurst { bytes } => Some(PimCommand::GpuBurst { bytes }),
            // Barriers carry no command. The hard barrier ends an epoch
            // (the channel engine restarts from reset); the overlap barrier
            // deliberately vanishes *without* an epoch split, so
            // overlap-linked member streams run through one continuous
            // channel engine — carried row/refresh/pacing state and
            // cross-channel imbalance hiding are exactly the overlap
            // semantics.
            PimInst::Barrier | PimInst::OverlapBarrier => None,
        }
    }

    /// Runs a program and returns the merged statistics, exactly as
    /// [`run_channels`](crate::timing::run_channels) reports them for the
    /// lowered traces.
    ///
    /// A barrier-free program (everything the block scheduler generates)
    /// is one epoch: its statistics are bit-identical to running the
    /// lowered traces through `run_channels` with the same options. A
    /// program with barriers runs epoch by epoch — each epoch's channels in
    /// parallel (max cycles), consecutive epochs back to back (summed
    /// cycles) — with each channel's engine state reset at the barrier.
    /// Stall faults are epoch-local under that reset: a scheduled stall can
    /// fire once per epoch on the channel it targets.
    ///
    /// Each distinct (stream, fault condition) pair is timed once: a
    /// channel engine's statistics are a pure function of its command
    /// stream, the config, and its fault condition (derating and stall),
    /// so channels sharing a stream under the same condition reuse one
    /// run. The per-channel callback, if any, still receives every
    /// channel's epoch-summed statistics once, in channel order, before
    /// the merge.
    ///
    /// # Panics
    ///
    /// Panics when the program's barriers are unbalanced across channels,
    /// or a dead channel (per the options' fault plan) has work scheduled.
    pub fn run(&self, program: &IsaProgram, opts: RunOptions<'_>) -> ChannelStats {
        let RunOptions {
            faults,
            mut on_channel,
        } = opts;
        let healthy;
        let plan = match faults {
            Some(p) => p,
            None => {
                healthy = FaultPlan::healthy();
                &healthy
            }
        };
        let mut timed: Vec<TimedStream<'_>> = Vec::new();
        let mut slots: Vec<usize> = Vec::with_capacity(program.num_channels());
        for (ch, stream) in program.channels().iter().enumerate() {
            let condition = plan.condition(ch);
            let slot = match timed
                .iter()
                .position(|t| Arc::ptr_eq(t.stream, stream) && t.condition == condition)
            {
                Some(slot) => slot,
                None => {
                    timed.push(self.time_stream(stream, plan, ch));
                    timed.len() - 1
                }
            };
            if let Some(&first) = slots.first() {
                let (have, want) = (timed[slot].epochs.len(), timed[first].epochs.len());
                if have != want {
                    let e = ProgramError::UnbalancedBarriers {
                        channel: ch,
                        have: have - 1,
                        want: want - 1,
                    };
                    panic!("newton interpreter: {e}");
                }
            }
            let commands = timed[slot].commands;
            assert!(
                !plan.is_dead(ch) || commands == 0,
                "dead channel {ch} was scheduled {commands} commands"
            );
            slots.push(slot);
        }

        let epochs = slots.first().map_or(0, |&s| timed[s].epochs.len());
        let mut total = ChannelStats::default();
        for epoch in 0..epochs {
            let epoch_merged = slots.iter().fold(ChannelStats::default(), |acc, &slot| {
                acc.merge_parallel(&timed[slot].epochs[epoch])
            });
            total = total.merge_sequential(&epoch_merged);
        }
        if let Some(cb) = on_channel.as_mut() {
            for (ch, &slot) in slots.iter().enumerate() {
                cb(ch, &timed[slot].summed);
            }
        }
        total
    }

    /// Runs one stream on a channel engine under `channel`'s fault
    /// condition, resetting the engine at every hard barrier.
    fn time_stream<'s>(
        &self,
        stream: &'s Arc<Vec<PimInst>>,
        plan: &FaultPlan,
        channel: usize,
    ) -> TimedStream<'s> {
        let mut epochs = Vec::new();
        let mut commands = 0usize;
        let mut engine = ChannelEngine::with_fault(*self.cfg, plan, channel);
        for inst in stream.iter() {
            match Self::lower_inst(inst) {
                Some(cmd) => {
                    commands += 1;
                    engine.execute(&cmd);
                }
                None if matches!(inst, PimInst::Barrier) => {
                    let next = ChannelEngine::with_fault(*self.cfg, plan, channel);
                    epochs.push(std::mem::replace(&mut engine, next).finish());
                }
                None => {}
            }
        }
        epochs.push(engine.finish());
        let summed = epochs
            .iter()
            .fold(ChannelStats::default(), |acc, s| acc.merge_sequential(s));
        TimedStream {
            stream,
            condition: plan.condition(channel),
            commands,
            epochs,
            summed,
        }
    }
}

/// One distinct (stream, fault condition) pair and its timing.
struct TimedStream<'s> {
    stream: &'s Arc<Vec<PimInst>>,
    condition: FaultCondition,
    /// Data-path instructions (barriers excluded).
    commands: usize,
    /// Statistics per barrier-separated epoch.
    epochs: Vec<ChannelStats>,
    /// The epochs merged back to back.
    summed: ChannelStats,
}

impl Interpreter for NewtonInterpreter<'_> {
    fn backend(&self) -> BackendKind {
        BackendKind::Newton
    }

    fn interpret_us(&self, program: &IsaProgram) -> f64 {
        let stats = self.run(program, RunOptions::new());
        self.cfg.cycles_to_ns(stats.cycles) * 1e-3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::schedule;
    use crate::timing::run_channels;

    fn sample_traces() -> Vec<Vec<PimCommand>> {
        let blocks = vec![
            CommandBlock {
                buffer_rows: 4,
                gwrite_bytes: 128,
                gwrites_per_row: 1,
                gacts: 8,
                comps_per_gact: 16,
                readres_bytes: 64,
                oc_splits: 8,
                row_base: 0,
            };
            6
        ];
        schedule(
            &blocks,
            4,
            ScheduleGranularity::Comp,
            &PimConfig::default(),
            &RunOptions::new(),
        )
    }

    #[test]
    fn lift_then_lower_is_identity() {
        let traces = sample_traces();
        let program = lift_traces(&traces);
        let lowered = NewtonInterpreter::new(&PimConfig::default()).lower(&program);
        assert_eq!(lowered, traces);
    }

    #[test]
    fn scheduled_program_shares_equal_channel_streams() {
        let cfg = PimConfig::default();
        let blocks = vec![
            CommandBlock {
                buffer_rows: 4,
                gwrite_bytes: 128,
                gwrites_per_row: 1,
                gacts: 8,
                comps_per_gact: 16,
                readres_bytes: 64,
                oc_splits: 8,
                row_base: 0,
            };
            32
        ];
        let opts = RunOptions::new();
        let program = schedule_program(&blocks, 16, ScheduleGranularity::Comp, &cfg, &opts);
        let traces = schedule(&blocks, 16, ScheduleGranularity::Comp, &cfg, &opts);
        assert_eq!(program, lift_traces(&traces));
        // 32 equal blocks over 16 channels: every channel runs two of them.
        assert_eq!(program.distinct_streams(), 1);
        let interp = NewtonInterpreter::new(&cfg);
        assert_eq!(
            interp.run(&program, RunOptions::new()),
            run_channels(&cfg, &traces, RunOptions::new())
        );
    }

    #[test]
    fn barrier_free_program_times_bit_identically() {
        let cfg = PimConfig::default();
        let traces = sample_traces();
        let direct = run_channels(&cfg, &traces, RunOptions::new());
        let interpreted =
            NewtonInterpreter::new(&cfg).run(&lift_traces(&traces), RunOptions::new());
        assert_eq!(direct, interpreted);
    }

    #[test]
    fn epochs_run_back_to_back() {
        let cfg = PimConfig::default();
        let traces = sample_traces();
        let single = NewtonInterpreter::new(&cfg).run(&lift_traces(&traces), RunOptions::new());
        let mut linked = lift_traces(&traces);
        linked.append(&lift_traces(&traces));
        let double = NewtonInterpreter::new(&cfg).run(&linked, RunOptions::new());
        assert_eq!(double.cycles, 2 * single.cycles);
        assert_eq!(double.comps, 2 * single.comps);
        assert_eq!(double.macs, 2 * single.macs);
    }

    #[test]
    fn multi_epoch_callback_reports_summed_channels() {
        let cfg = PimConfig::default();
        let traces = sample_traces();
        let mut linked = lift_traces(&traces);
        linked.append(&lift_traces(&traces));
        let mut per = Vec::new();
        let mut collect = |ch: usize, s: &ChannelStats| per.push((ch, *s));
        NewtonInterpreter::new(&cfg).run(&linked, RunOptions::new().on_channel(&mut collect));
        assert_eq!(per.len(), 4);
        let single = run_channels(&cfg, &traces, RunOptions::new());
        let folded = per
            .iter()
            .fold(ChannelStats::default(), |acc, (_, s)| acc.merge_parallel(s));
        assert_eq!(folded.comps, 2 * single.comps);
    }

    #[test]
    fn overlap_conserves_work_in_one_epoch() {
        // Linking with OverlapBarrier keeps everything in one epoch and
        // conserves the command stream: same COMPs/MACs as a hard barrier
        // link, never cheaper than one copy alone. (Cycles vs the hard
        // link are *not* ordered structurally — a continuous run can cross
        // refresh boundaries the per-epoch engine reset would have
        // avoided — which is why the compiler prices a fused region as the
        // min of both compositions.)
        let cfg = PimConfig::default();
        let traces = sample_traces();
        let single = NewtonInterpreter::new(&cfg).run(&lift_traces(&traces), RunOptions::new());
        let mut hard = lift_traces(&traces);
        hard.append(&lift_traces(&traces));
        let mut soft = lift_traces(&traces);
        soft.append_overlapped(&lift_traces(&traces));
        assert_eq!(soft.epochs().unwrap().len(), 1, "overlap keeps one epoch");
        let interp = NewtonInterpreter::new(&cfg);
        let hard_stats = interp.run(&hard, RunOptions::new());
        let soft_stats = interp.run(&soft, RunOptions::new());
        assert!(soft_stats.cycles >= single.cycles);
        assert_eq!(soft_stats.comps, hard_stats.comps);
        assert_eq!(soft_stats.macs, hard_stats.macs);
    }

    #[test]
    fn overlap_hides_cross_channel_imbalance() {
        // Member A loads channel 0 heavily and channel 1 lightly; member B
        // is the mirror image. A hard barrier pays max(heavy, light) twice
        // (≈ 2·heavy); the overlap link lets each channel flow straight
        // into its next member, so the total approaches heavy + light.
        // Workloads are sized well under the refresh interval so the
        // continuous run pays no refresh the epoch-reset path would skip.
        let cfg = PimConfig::default();
        let member = |heavy_ch: usize| {
            let mut p = IsaProgram::new(2);
            for ch in 0..2 {
                let repeat = if ch == heavy_ch { 400 } else { 20 };
                p.push(
                    ch,
                    PimInst::BufWrite {
                        buffer: 0,
                        bytes: 64,
                    },
                );
                p.push(ch, PimInst::RowActivate { row: 0 });
                p.push(ch, PimInst::MacBurst { buffer: 0, repeat });
                p.push(ch, PimInst::Drain { bytes: 32 });
            }
            p
        };
        let interp = NewtonInterpreter::new(&cfg);
        let mut hard = member(0);
        hard.append(&member(1));
        let mut soft = member(0);
        soft.append_overlapped(&member(1));
        let hard_cycles = interp.run(&hard, RunOptions::new()).cycles;
        let soft_cycles = interp.run(&soft, RunOptions::new()).cycles;
        assert!(
            soft_cycles < hard_cycles,
            "overlap must hide the imbalance: soft {soft_cycles} vs hard {hard_cycles}"
        );
    }

    #[test]
    fn interpreter_reports_newton_and_us() {
        let cfg = PimConfig::default();
        let interp = NewtonInterpreter::new(&cfg);
        assert_eq!(interp.backend(), BackendKind::Newton);
        let traces = sample_traces();
        let program = lift_traces(&traces);
        let us = interp.interpret_us(&program);
        let cycles = run_channels(&cfg, &traces, RunOptions::new()).cycles;
        assert!((us - cfg.cycles_to_ns(cycles) * 1e-3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "newton interpreter")]
    fn unbalanced_barriers_panic() {
        let program = IsaProgram::from_channels(vec![vec![PimInst::Barrier], vec![]]);
        NewtonInterpreter::new(&PimConfig::default()).run(&program, RunOptions::new());
    }
}
