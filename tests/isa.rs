//! Cross-crate contracts of the typed PIM ISA layer.
//!
//! Three properties hold the refactor together:
//!
//! 1. **Golden encoding** — the textual mnemonic of every instruction is
//!    pinned byte for byte, so serialized programs stay replayable across
//!    releases.
//! 2. **Interpreter identity** — for seeded random workloads, lowering to
//!    the ISA, encoding to text, decoding, and interpreting on the Newton
//!    engine reports exactly the statistics of running the scheduled
//!    command traces directly. The ISA is a lens over the simulator, not a
//!    second cost model.
//! 3. **Backend search** — the mixed Newton/crossbar search is
//!    deterministic across pool widths, actually uses the crossbar where
//!    deep reductions favour it, and never loses to a single-backend plan.
//! 4. **Shared streams are invisible** — channels that share one stream
//!    are generated, rewritten and timed once, yet the interpreter's
//!    merged and per-channel statistics equal a brute-force run of one
//!    fresh channel engine per channel and epoch, under every fault
//!    condition.

use pimflow::codegen::{generate_group_program_overlapped, PimWorkload};
use pimflow::engine::{EngineConfig, PimBackendSet};
use pimflow::search::{Decision, Search, SearchOptions};
use pimflow::{BackendKind, CrossbarConfig};
use pimflow_ir::models;
use pimflow_isa::{
    inst_to_line, parse_program, program_to_text, FusedRole, IsaProgram, PimInst, PROGRAM_HEADER,
};
use pimflow_pimsim::{
    lift_traces, run_channels, schedule, schedule_program, ChannelEngine, ChannelFault,
    ChannelStats, CommandBlock, FaultKind, FaultPlan, NewtonInterpreter, PimCommand, PimConfig,
    RunOptions, ScheduleGranularity,
};
use pimflow_rng::Rng;

/// Every mnemonic of the v1 text format, pinned byte for byte.
#[test]
fn golden_isa_text_encoding() {
    let cases = [
        (
            PimInst::BufWrite {
                buffer: 2,
                bytes: 256,
            },
            "BUFWRITE buf=2 bytes=256",
        ),
        (PimInst::RowActivate { row: 7 }, "ROWACT row=7"),
        (
            PimInst::MacBurst {
                buffer: 1,
                repeat: 16,
            },
            "MACBURST buf=1 repeat=16",
        ),
        (PimInst::Drain { bytes: 64 }, "DRAIN bytes=64"),
        (PimInst::HostBurst { bytes: 512 }, "HOSTBURST bytes=512"),
        (PimInst::Barrier, "BARRIER"),
    ];
    for (inst, line) in &cases {
        assert_eq!(inst_to_line(inst), *line);
    }
    assert_eq!(PROGRAM_HEADER, "# pimflow pim-isa v1");
    let program = pimflow_isa::IsaProgram::from_channels(vec![
        vec![
            PimInst::BufWrite {
                buffer: 2,
                bytes: 256,
            },
            PimInst::Barrier,
        ],
        vec![PimInst::RowActivate { row: 7 }, PimInst::Barrier],
    ]);
    assert_eq!(
        program_to_text(&program),
        "# pimflow pim-isa v1 channel=0\n\
         BUFWRITE buf=2 bytes=256\n\
         BARRIER\n\
         # pimflow pim-isa v1 channel=1\n\
         ROWACT row=7\n\
         BARRIER\n"
    );
}

fn random_blocks(rng: &mut Rng) -> Vec<CommandBlock> {
    (0..rng.range_usize(1, 8))
        .map(|_| CommandBlock {
            buffer_rows: rng.range_u32(1, 4) as u8,
            gwrite_bytes: rng.range_u32(32, 512),
            gwrites_per_row: rng.range_u32(1, 3) as u16,
            gacts: rng.range_u32(1, 12),
            comps_per_gact: rng.range_u32(1, 24),
            readres_bytes: rng.range_u32(16, 256),
            oc_splits: rng.range_u32(1, 8) as u16,
            row_base: rng.range_u32(0, 64),
        })
        .collect()
}

/// Lower → encode → decode → interpret equals direct legacy timing, for
/// seeded random workloads over every scheduling granularity and several
/// channel counts.
#[test]
fn interpreted_isa_matches_direct_timing_on_random_workloads() {
    let cfg = PimConfig::default();
    let mut rng = Rng::seed_from_u64(0x1517_c0de);
    for trial in 0..24 {
        let blocks = random_blocks(&mut rng);
        let channels = [1, 2, 4, 16][trial % 4];
        let granularity = [
            ScheduleGranularity::GAct,
            ScheduleGranularity::ReadRes,
            ScheduleGranularity::Comp,
        ][trial % 3];
        let traces = schedule(&blocks, channels, granularity, &cfg, &RunOptions::new());
        let direct = run_channels(&cfg, &traces, RunOptions::new());
        let program = lift_traces(&traces);
        let decoded = parse_program(&program_to_text(&program)).expect("emitted program parses");
        assert_eq!(decoded, program, "text round-trip must be exact");
        let interpreted = NewtonInterpreter::new(&cfg).run(&decoded, RunOptions::new());
        assert_eq!(
            interpreted, direct,
            "trial {trial}: ISA interpretation diverged from direct run"
        );
    }
}

/// Newton-only plans are byte-identical whether the search routes costs
/// through the ISA at pool width 1 or 2 — the width-invariance the
/// refactor must preserve.
#[test]
fn newton_plans_are_width_invariant() {
    let g = models::toy();
    let cfg = EngineConfig::pimflow();
    let opts = SearchOptions::default();
    let plans: Vec<String> = [1usize, 2]
        .iter()
        .map(|&w| {
            let plan = Search::new(&g, &cfg)
                .options(opts)
                .pool(w)
                .run()
                .expect("toy search");
            pimflow_json::to_string(&plan)
        })
        .collect();
    assert_eq!(plans[0], plans[1]);
}

/// The mixed-backend search is deterministic across pool widths, routes
/// vgg-16's deep FC reductions to the crossbar, and never loses to the
/// Newton-only plan. Split decisions survive the plan JSON round-trip with
/// their backend tag; Newton-only plans keep the legacy JSON shape.
#[test]
fn mixed_backend_search_is_deterministic_and_no_worse() {
    let g = models::by_name("vgg-16").expect("zoo model");
    let opts = SearchOptions::default();
    let newton_cfg = EngineConfig::pimflow();
    let mixed_cfg = EngineConfig {
        pim_backends: PimBackendSet::Mixed(CrossbarConfig::pimcomp_like()),
        ..EngineConfig::pimflow()
    };
    let run = |cfg: &EngineConfig, w: usize| {
        Search::new(&g, cfg)
            .options(opts)
            .pool(w)
            .run()
            .expect("vgg search")
    };
    let mixed_1 = run(&mixed_cfg, 1);
    let mixed_2 = run(&mixed_cfg, 2);
    assert_eq!(
        pimflow_json::to_string(&mixed_1),
        pimflow_json::to_string(&mixed_2),
        "mixed search must be pool-width invariant"
    );
    let newton = run(&newton_cfg, 2);
    assert!(
        mixed_1.predicted_us <= newton.predicted_us,
        "mixed ({}) searches a superset of Newton-only ({})",
        mixed_1.predicted_us,
        newton.predicted_us
    );
    // The FC tail prices cheapest as a whole fused region on the crossbar
    // (per-layer crossbar splits were the best the search could do before
    // groups could carry a backend), so crossbar routing now shows up as
    // fused-region backends.
    let crossbar_regions = mixed_1
        .decisions
        .iter()
        .filter(|(_, d)| {
            matches!(
                d,
                Decision::Split {
                    backend: BackendKind::Crossbar,
                    ..
                } | Decision::Fused {
                    backend: BackendKind::Crossbar,
                    ..
                }
            )
        })
        .count();
    assert!(
        crossbar_regions > 0,
        "vgg-16's FC layers must land on the crossbar"
    );
    // Round-trip: backend tags survive; legacy Newton splits stay tagless.
    let json = pimflow_json::to_string(&mixed_1);
    let back: pimflow::search::ExecutionPlan = pimflow_json::from_str(&json).unwrap();
    assert_eq!(back, mixed_1);
    assert!(
        json.contains("\"backend\": \"crossbar\"") || json.contains("\"backend\":\"crossbar\"")
    );
    let newton_json = pimflow_json::to_string(&newton);
    assert!(
        !newton_json.contains("backend"),
        "Newton-only plan JSON must stay byte-stable with pre-ISA plans"
    );
}

/// A hand-written legacy plan document (no backend field) decodes to
/// Newton splits.
#[test]
fn legacy_split_json_defaults_to_newton() {
    let json = r#"{"Split": {"gpu_percent": 40}}"#;
    let d: Decision = pimflow_json::from_str(json).unwrap();
    assert_eq!(
        d,
        Decision::Split {
            gpu_percent: 40,
            backend: BackendKind::Newton,
        }
    );
}

/// The brute-force oracle: one fresh [`ChannelEngine`] per channel and
/// barrier-separated epoch, no sharing of any kind. Returns the merged
/// statistics and each channel's epoch-summed statistics.
fn brute_force(
    cfg: &PimConfig,
    program: &IsaProgram,
    plan: &FaultPlan,
) -> (ChannelStats, Vec<ChannelStats>) {
    let lower = |inst: &PimInst| match *inst {
        PimInst::BufWrite { buffer, bytes } => Some(PimCommand::Gwrite { buffer, bytes }),
        PimInst::RowActivate { row } => Some(PimCommand::GAct { row }),
        PimInst::MacBurst { buffer, repeat } => Some(PimCommand::Comp { buffer, repeat }),
        PimInst::Drain { bytes } => Some(PimCommand::ReadRes { bytes }),
        PimInst::BankFeed { buffer, bytes } => Some(PimCommand::BankFeed { buffer, bytes }),
        PimInst::HostBurst { bytes } => Some(PimCommand::GpuBurst { bytes }),
        PimInst::Barrier | PimInst::OverlapBarrier => None,
    };
    let epochs = program.epochs().expect("balanced barriers");
    let mut total = ChannelStats::default();
    let mut per_channel = vec![ChannelStats::default(); program.num_channels()];
    for epoch in &epochs {
        let mut merged = ChannelStats::default();
        for (ch, insts) in epoch.iter().enumerate() {
            let trace: Vec<PimCommand> = insts.iter().filter_map(lower).collect();
            let stats = ChannelEngine::with_fault(*cfg, plan, ch).run(&trace);
            per_channel[ch] = per_channel[ch].merge_sequential(&stats);
            merged = merged.merge_parallel(&stats);
        }
        total = total.merge_sequential(&merged);
    }
    (total, per_channel)
}

/// Asserts the interpreter's merged and per-channel statistics equal the
/// brute-force oracle's, and that the callback saw every channel once, in
/// order.
fn assert_matches_oracle(cfg: &PimConfig, program: &IsaProgram, plan: &FaultPlan, what: &str) {
    let (want_total, want_per) = brute_force(cfg, program, plan);
    let mut seen = Vec::new();
    let mut collect = |ch: usize, s: &ChannelStats| seen.push((ch, *s));
    let total = NewtonInterpreter::new(cfg).run(
        program,
        RunOptions::new().faults(plan).on_channel(&mut collect),
    );
    assert_eq!(total, want_total, "{what}: merged stats");
    let channels: Vec<usize> = seen.iter().map(|&(ch, _)| ch).collect();
    assert_eq!(
        channels,
        (0..program.num_channels()).collect::<Vec<_>>(),
        "{what}: callback order"
    );
    let per: Vec<ChannelStats> = seen.into_iter().map(|(_, s)| s).collect();
    assert_eq!(per, want_per, "{what}: per-channel stats");
}

/// A few block templates, each repeated: the shape real layers have (row
/// groups repeat one block), so LPT hands many channels equal sequences.
fn repetitive_blocks(rng: &mut Rng) -> Vec<CommandBlock> {
    let templates = random_blocks(rng);
    let mut blocks = Vec::new();
    for t in templates.iter().take(rng.range_usize(1, 4)) {
        let mut b = *t;
        b.row_base = 0;
        for _ in 0..rng.range_usize(1, 40) {
            blocks.push(b);
        }
    }
    blocks
}

const GRANULARITIES: [ScheduleGranularity; 3] = [
    ScheduleGranularity::GAct,
    ScheduleGranularity::ReadRes,
    ScheduleGranularity::Comp,
];

const ROLES: [FusedRole; 4] = [
    FusedRole::Standalone,
    FusedRole::Head,
    FusedRole::Middle,
    FusedRole::Tail,
];

/// Scheduled programs share streams and still time exactly like the
/// unshared oracle: seeded workloads × channel counts × granularities ×
/// every fused role, plus barrier-linked multi-epoch programs.
#[test]
fn shared_streams_time_bit_identically_to_brute_force() {
    let cfg = PimConfig::default();
    let healthy = FaultPlan::healthy();
    let mut rng = Rng::seed_from_u64(0x5eed_0a1c);
    let (mut channels_total, mut distinct_total) = (0, 0);
    for trial in 0..24 {
        let blocks = repetitive_blocks(&mut rng);
        let channels = [1, 2, 4, 16][trial % 4];
        let granularity = GRANULARITIES[trial % 3];
        let opts = RunOptions::new();
        let shared = schedule_program(&blocks, channels, granularity, &cfg, &opts);
        let traces = schedule(&blocks, channels, granularity, &cfg, &opts);
        assert_eq!(shared, lift_traces(&traces), "trial {trial}: same program");
        assert_eq!(
            NewtonInterpreter::new(&cfg).run(&shared, RunOptions::new()),
            run_channels(&cfg, &traces, RunOptions::new()),
            "trial {trial}: shared vs direct traces"
        );
        channels_total += shared.num_channels();
        distinct_total += shared.distinct_streams();
        for role in ROLES {
            let program = role.rewrite_program(shared.clone());
            assert_eq!(program.distinct_streams(), shared.distinct_streams());
            assert_matches_oracle(&cfg, &program, &healthy, &format!("trial {trial} {role:?}"));
            let mut linked = program.clone();
            linked.append(&schedule_program(
                &repetitive_blocks(&mut rng),
                channels,
                granularity,
                &cfg,
                &opts,
            ));
            assert_eq!(linked.epochs().unwrap().len(), 2);
            assert_matches_oracle(&cfg, &linked, &healthy, &format!("trial {trial} linked"));
        }
    }
    assert!(
        distinct_total < channels_total,
        "the workloads must exercise sharing ({distinct_total} of {channels_total})"
    );
}

/// Overlap-linked fusion-group programs keep their members' sharing and
/// time exactly like the oracle.
#[test]
fn overlapped_group_programs_match_brute_force() {
    let cfg = PimConfig::newton_plus_plus();
    let healthy = FaultPlan::healthy();
    let mut rng = Rng::seed_from_u64(0x6a0_f00d);
    let mut shared_groups = 0;
    for trial in 0..8 {
        let len = rng.range_usize(2, 5);
        let members: Vec<(PimWorkload, FusedRole)> = (0..len)
            .map(|i| {
                let role = match i {
                    0 => FusedRole::Head,
                    i if i + 1 == len => FusedRole::Tail,
                    _ => FusedRole::Middle,
                };
                let w = PimWorkload {
                    rows: rng.range_usize(1, 200),
                    k_elems: rng.range_usize(16, 600),
                    out_channels: rng.range_usize(8, 300),
                    strided: false,
                    segments: 1,
                };
                (w, role)
            })
            .collect();
        let channels = [2, 4, 16][trial % 3];
        let program =
            generate_group_program_overlapped(&members, &cfg, channels, GRANULARITIES[trial % 3]);
        assert_eq!(program.epochs().unwrap().len(), 1);
        if program.distinct_streams() < channels {
            shared_groups += 1;
        }
        assert_matches_oracle(&cfg, &program, &healthy, &format!("group trial {trial}"));
    }
    assert!(shared_groups > 0, "some group program must keep sharing");
}

/// Two channels carrying one shared stream must be timed apart as soon as
/// their fault conditions differ: derating or stalling one of them, or
/// killing it (which routes the work away, or panics if the program still
/// gives the dead channel work).
#[test]
fn fault_conditions_split_shared_streams() {
    let cfg = PimConfig::default();
    let block = CommandBlock {
        buffer_rows: 4,
        gwrite_bytes: 256,
        gwrites_per_row: 1,
        gacts: 6,
        comps_per_gact: 12,
        readres_bytes: 64,
        oc_splits: 8,
        row_base: 0,
    };
    let blocks = vec![block; 8];
    let granularity = ScheduleGranularity::GAct;
    let shared = schedule_program(&blocks, 2, granularity, &cfg, &RunOptions::new());
    assert_eq!(
        shared.distinct_streams(),
        1,
        "both channels share one stream"
    );
    let mut linked = shared.clone();
    linked.append(&shared);
    let healthy_cycles = NewtonInterpreter::new(&cfg)
        .run(&shared, RunOptions::new())
        .cycles;
    let faults = [
        FaultKind::Derate { percent: 40 },
        FaultKind::Stall {
            start_cycle: healthy_cycles / 3,
            duration_cycles: 5_000,
        },
    ];
    for kind in faults {
        for channel in 0..2 {
            let plan = FaultPlan::healthy().with(ChannelFault { channel, kind });
            assert_matches_oracle(&cfg, &shared, &plan, &format!("{kind:?} on {channel}"));
            assert_matches_oracle(&cfg, &linked, &plan, &format!("{kind:?} linked"));
            let faulted = NewtonInterpreter::new(&cfg)
                .run(&shared, RunOptions::new().faults(&plan))
                .cycles;
            assert!(faulted > healthy_cycles, "{kind:?} must slow the layer");
        }
    }
    let dead = FaultPlan::healthy().with(ChannelFault {
        channel: 1,
        kind: FaultKind::Dead,
    });
    let routed = schedule_program(
        &blocks,
        2,
        granularity,
        &cfg,
        &RunOptions::new().faults(&dead),
    );
    assert!(routed.channels()[1].is_empty());
    assert_matches_oracle(&cfg, &routed, &dead, "dead channel routed around");
    let panicked = std::panic::catch_unwind(|| {
        NewtonInterpreter::new(&cfg).run(&shared, RunOptions::new().faults(&dead))
    });
    assert!(panicked.is_err(), "a dead channel with work must panic");
}

/// The text form does not carry sharing: a shared program's round trip
/// parses to unshared streams that compare equal and time identically.
#[test]
fn shared_program_text_roundtrip_equals_unshared_parse() {
    let cfg = PimConfig::default();
    let mut rng = Rng::seed_from_u64(0x7e47);
    for trial in 0..6 {
        let blocks = repetitive_blocks(&mut rng);
        let role = ROLES[trial % 4];
        let program = role.rewrite_program(schedule_program(
            &blocks,
            16,
            ScheduleGranularity::Comp,
            &cfg,
            &RunOptions::new(),
        ));
        let text = program_to_text(&program);
        let parsed = parse_program(&text).expect("emitted program parses");
        assert_eq!(parsed.distinct_streams(), parsed.num_channels());
        assert_eq!(parsed, program, "trial {trial}");
        assert_eq!(program_to_text(&parsed), text);
        let interp = NewtonInterpreter::new(&cfg);
        assert_eq!(
            interp.run(&parsed, RunOptions::new()),
            interp.run(&program, RunOptions::new())
        );
    }
}
