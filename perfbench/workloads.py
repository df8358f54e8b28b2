"""Workload generation for the campaign benchmark.

Every workload is a sweep file (plus, for many_tenants, a generated
scenario file) written from the workload seed. The benchmark hands the
program only these files; the same seed always gives the same bytes.

Why these three workloads (layer -> metric -> workload map: LAYERS.md):

- paper_campaign: the paper's own evaluation (3 scenarios of §IV-D/E/F x
  {Static BW, AdapTBF}) at full horizon. Per RPC, time goes to the event
  loop, client routing, the PS-disk model and metrics recording; the
  controller (4 jobs, Δt = 100 ms) and the journal (a few hundred rows)
  are negligible.
- many_tenants: flips the mix. 128 jobs x 2 streams on 4 OSTs at
  Δt = 10 ms make per-window allocator/rule-daemon work (O(jobs) at 100
  windows/s per OST) and the TBF classify scan large; it runs in memory,
  bypassing the journal.
- fleet_short: the paper scenarios under AdapTBF, capped at 1 s
  simulated, many repetitions, through the TCP fleet. A trial costs
  ~1-2 ms, so trial setup/summary, row JSON, framing, lease round trips
  and journal appends take a large share; the steady-state event loop
  does not.

All three are closed loops: runner threads take the next trial only when
the last one is done, fleet workers request a lease only after returning
its rows. At most 3 busy threads and 2 connections each, on a 4-core box;
the runner thread count and the fleet's lease size are constants of the
child (kThreads, kLease in cpp/campaign.h).
"""

import os
import random
from dataclasses import dataclass

PAPER_SCENARIOS = ("token_allocation", "redistribution", "recompensation")


@dataclass
class Workload:
    name: str
    sweep: str          # path of the generated sweep file
    trials: int         # expanded grid size
    journal: bool       # journaled (fsync) campaign, artifacts from the journal
    fleet: bool = False
    paper_shape: bool = False  # assert AdapTBF > Static BW per scenario


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


def _sweep_text(name, policies, scenarios, repetitions, base_seed, jitter_ms,
                duration_s=None):
    lines = ["[sweep]", f"name = {name}", "policies = " + ", ".join(policies)]
    lines += [f"scenario = {scenario}" for scenario in scenarios]
    lines += [f"repetitions = {repetitions}", f"base_seed = {base_seed}",
              f"start_jitter_ms = {jitter_ms}"]
    if duration_s is not None:
        lines.append(f"duration_s = {duration_s}")
    return "\n".join(lines) + "\n"


def _write(path, text):
    with open(path, "w", encoding="utf-8") as out:
        out.write(text)


def paper_campaign(seed, out_dir):
    rng = _rng("paper_campaign", seed)
    # 9 seeded repetitions x 6 cells = 54 trials, ~3-4 s at 2 threads, so a
    # run holds several campaigns (medians) and pools >= 100 trial walls.
    # Jitter 200-300 ms desynchronizes process starts per seed (as in
    # examples/sweeps/paper_campaign.ini) so every trial's bytes differ.
    repetitions = 9
    path = os.path.join(out_dir, "paper_campaign.ini")
    _write(path, _sweep_text("paper_campaign", ("static", "adaptive"),
                             PAPER_SCENARIOS, repetitions,
                             rng.randrange(1, 2**31), rng.randint(200, 300)))
    return Workload("paper_campaign", path, trials=6 * repetitions,
                    journal=True, paper_shape=True)


def many_tenants(seed, out_dir):
    rng = _rng("many_tenants", seed)
    jobs = 128
    # 64 KiB RPCs and 0.5 s simulated keep a trial at ~50-100 ms even with
    # 256 streams. Totals of 100-200 RPCs per stream outlast the horizon
    # for most streams, so every OST stays backlogged and every window
    # allocates across its ~64 active jobs. Continuous streams only:
    # Poisson arrivals at Δt = 10 ms can trip a TBF heap-version check.
    scenario = [
        "[scenario]", "name = many_tenants", "duration_s = 0.5",
        "observation_ms = 10", "stop_when_idle = true", "",
        "[server]", "osts = 4", "",
        "[client]", "rpc_size_kib = 64", "",
    ]
    for job in range(1, jobs + 1):
        scenario += [
            f"[job.{job}]",
            f"name = tenant{job:03d}",
            # Priorities: seeded node counts, 1-16 (the paper's p_x input).
            f"nodes = {rng.randint(1, 16)}",
            # Staggered starts: each job's streams begin 0-49 ms in.
            f"process = continuous total={rng.randint(100, 200)} "
            f"delay_ms={rng.randint(0, 49)} count=2",
            "",
        ]
    _write(os.path.join(out_dir, "many_tenants.ini"), "\n".join(scenario))
    # 17 repetitions x 3 policies = 51 trials, ~2 s at 2 threads.
    repetitions = 17
    path = os.path.join(out_dir, "many_tenants_sweep.ini")
    _write(path, _sweep_text("many_tenants", ("static", "adaptive", "gift"),
                             ("many_tenants.ini",), repetitions,
                             rng.randrange(1, 2**31), rng.randint(10, 30)))
    return Workload("many_tenants", path, trials=3 * repetitions,
                    journal=False)


def fleet_short(seed, out_dir):
    rng = _rng("fleet_short", seed)
    # 1 s simulated makes a trial ~1-2 ms; 800 repetitions x 3 cells = 2400
    # trials, ~2 s through 2 workers. AdapTBF only: its three cells move
    # 1200-1500 RPCs each in 1 s, while Static BW's range from 250 to 1500,
    # which splits trial walls into modes with the median in the gap
    # between them (run-to-run IQR of trial_ms_p50 was 24% with both
    # policies). Worker count and lease size are fixed in cpp/campaign.h.
    repetitions = 800
    path = os.path.join(out_dir, "fleet_short.ini")
    _write(path, _sweep_text("fleet_short", ("adaptive",), PAPER_SCENARIOS,
                             repetitions, rng.randrange(1, 2**31),
                             rng.randint(200, 300), duration_s=1))
    return Workload("fleet_short", path, trials=3 * repetitions,
                    journal=True, fleet=True)


GENERATORS = {
    "paper_campaign": paper_campaign,
    "many_tenants": many_tenants,
    "fleet_short": fleet_short,
}


def generate(name, seed, out_dir):
    return GENERATORS[name](seed, out_dir)
