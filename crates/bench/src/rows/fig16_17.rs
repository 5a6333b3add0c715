//! Figures 16 and 17: implementation vs. simulation. Hawk normalized to
//! Sparrow on a Google-trace sample, in both the real-time prototype and
//! the simulator, sweeping load — short jobs (Fig 16), long jobs (Fig 17).
//!
//! The paper runs a 3,300-job sample (3,000 short via 10 distributed
//! schedulers, 300 long via the centralized one) on a 100-node cluster,
//! with task durations scaled 1000× down into sleeps, and varies the mean
//! job inter-arrival time as a multiple of the mean task runtime (x-axis
//! 1–2.25). Simulation and implementation agree in trend: Hawk is best at
//! high load, converging to Sparrow as load drops, with short-job p90
//! still clearly better at medium load.
//!
//! The default harness shrinks the sample (330 jobs, 20,000× time scale)
//! so the wall-clock run stays in minutes; `--full-trace` runs the paper's
//! exact 3,300 jobs at 1000× (hours of wall time).

use crate::{base, fmt, fmt4, ratio_quad, HarnessOpts, RunMode, Table};
use hawk_core::scheduler::{Hawk, Sparrow};
use hawk_proto::ProtoBackend;
use hawk_simcore::{SimDuration, SimRng};
use hawk_workload::sample::{arrivals_for_load_multiplier, PrototypeSampleConfig};
use hawk_workload::Trace;

/// The paper's load sweep: multiplier 1 is the most loaded point (our
/// anchor: offered load 1.0 on the 100-node cluster; see
/// `arrivals_for_load_multiplier`), 2.25 the lightest.
const MULTIPLIERS: [f64; 7] = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.25];

/// Workers in the prototype cluster (paper: 100 nodes).
const WORKERS: usize = 100;

pub(crate) fn run(opts: &HarnessOpts, _: &[String]) -> Table {
    let shrunk = |short_jobs, long_jobs| PrototypeSampleConfig {
        short_jobs,
        long_jobs,
        cluster_size: WORKERS,
        duration_divisor: 20_000,
    };
    let (sample_cfg, multipliers): (PrototypeSampleConfig, &[f64]) = match (opts.mode, opts.jobs) {
        (RunMode::FullTrace, _) => (PrototypeSampleConfig::default(), &MULTIPLIERS),
        (RunMode::Paper, Some(jobs)) => (shrunk(jobs * 10 / 11, jobs / 11), &MULTIPLIERS),
        (RunMode::Paper, None) => (shrunk(600, 60), &MULTIPLIERS),
        (RunMode::Quick, _) => (shrunk(100, 10), &MULTIPLIERS[..3]),
    };

    eprintln!(
        "fig16_17: sample of {} short + {} long jobs, time scale 1/{}",
        sample_cfg.short_jobs, sample_cfg.long_jobs, sample_cfg.duration_divisor
    );
    let sample = sample_cfg.generate(opts.seed);
    let cutoff = sample_cfg.cutoff();
    let mut arrival_rng = SimRng::seed_from_u64(opts.seed ^ 0xA55A);

    let mut table = Table::default();
    for &m in multipliers {
        let trace: Trace = arrivals_for_load_multiplier(&sample, m, WORKERS, &mut arrival_rng);
        eprintln!(
            "fig16_17: multiplier {m}: running prototype (span {:.1} s)...",
            trace.span().as_secs_f64()
        );

        // One cell per policy, run on the real-time prototype (live
        // threads) and on the simulator: the same trace, seed and cutoff,
        // utilization sampled on the scaled clock.
        let cell = base(opts)
            .nodes(WORKERS)
            .cutoff(cutoff)
            .util_interval(SimDuration::from_millis(50))
            .trace(&trace);
        let hawk = cell.clone().scheduler(Hawk::new(0.17)).build();
        let sparrow = cell.scheduler(Sparrow::new()).build();
        let real_time = ProtoBackend::real_time();
        let (proto_hawk, proto_sparrow) = (hawk.run_on(&real_time), sparrow.run_on(&real_time));
        let (sim_hawk, sim_sparrow) = (hawk.run(), sparrow.run());

        let (impl_p50l, impl_p90l, impl_p50s, impl_p90s) = ratio_quad(&proto_hawk, &proto_sparrow);
        let (sim_p50l, sim_p90l, sim_p50s, sim_p90s) = ratio_quad(&sim_hawk, &sim_sparrow);
        table.push([
            ("interarrival_multiple", fmt(m)),
            ("impl_p50_short", fmt4(impl_p50s)),
            ("impl_p90_short", fmt4(impl_p90s)),
            ("impl_p50_long", fmt4(impl_p50l)),
            ("impl_p90_long", fmt4(impl_p90l)),
            ("sim_p50_short", fmt4(sim_p50s)),
            ("sim_p90_short", fmt4(sim_p90s)),
            ("sim_p50_long", fmt4(sim_p50l)),
            ("sim_p90_long", fmt4(sim_p90l)),
            ("impl_sparrow_median_util", fmt4(proto_sparrow.median_utilization)),
        ]);
    }
    eprintln!("fig16_17: done (Fig 16 = short columns, Fig 17 = long columns)");
    table
}
